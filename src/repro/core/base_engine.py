"""The formal checkpoint-engine protocol shared by every real-mode engine.

:class:`CheckpointEngine` is the one interface the real NumPy pipeline
programs against — the real-mode mirror of the simulator's
:class:`~repro.checkpoint.SimCheckpointEngine`.  All four paper baselines
(§6.2: DeepSpeed-synchronous, CheckFreq-style asynchronous, TorchSnapshot,
DataStates-LLM) implement it, so the trainer, the restart path, the CLI, and
the benchmarks can swap engines by name through
:func:`~repro.core.create_real_engine` without touching any call site.

The protocol (mirroring DeepSpeed's checkpoint-engine interface plus the one
extra call the paper adds):

``save(state, tag, iteration=-1, shard_name=None) -> handle``
    Request a checkpoint of ``state``.  How much of the work happens before
    the call returns is the engine's defining property: the synchronous
    baseline returns only once the checkpoint is globally committed, while
    DataStates returns after the cheap parse/header phases.  Every engine
    returns a handle exposing ``wait_captured()`` and ``wait_durable()``.

``wait_for_snapshot(timeout=None)``
    The consistency gate: blocks while any previous snapshot capture is still
    pending.  Must be honoured before the training loop mutates tensors
    referenced by an outstanding ``save`` (right before ``optimizer.step()``).
    Engines that capture synchronously inside ``save`` implement it as a
    no-op — the gate is still honoured, just trivially.

``wait_all(timeout=None)``
    Drain everything: captures, flushes, and the commit protocol for every
    tag this rank initiated.  Called after the final save of a run.

``load(spec=None)``
    Restore from a committed checkpoint, described by a
    :class:`~repro.restart.RestoreSpec` (tag + rank/shard selector +
    optional target topology + validate/materialize/prefetch options).
    With no spec the engine restores its own shard of the latest committed
    checkpoint.  Routed through
    :class:`~repro.restart.CheckpointLoader.restore`, so every engine
    shares one validated (size + CRC32) restore path.

``list_checkpoints() / latest_checkpoint()``
    Discovery of committed checkpoints.

``shutdown(wait=True)``
    Idempotent teardown of background resources; with ``wait=True`` the
    engine drains outstanding work first.  Engines are context managers:
    ``__exit__`` shuts down, draining only on a clean exit.
"""

from __future__ import annotations

import abc
import dataclasses
import threading
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..config import CheckpointPolicy
from ..exceptions import CheckpointError
from ..io import ShardStore, supports_shard_reference
from ..logging_utils import get_logger
from ..serialization import (
    CheckpointManifest,
    CheckpointTopology,
    ShardHeader,
    ShardPart,
    ShardPlan,
    ShardRecord,
    crc32_combine,
    encode_preamble,
    iter_part_payloads,
    iter_shard_chunks,
    plan_shards,
)
from ..tensor import FlattenedState
from .consolidation import TwoPhaseCommitCoordinator
from .flush_pipeline import FlushResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (restart imports core)
    from ..restart import RestoreSpec

logger = get_logger(__name__)

#: Default host staging budget when neither a policy nor an explicit size is given.
DEFAULT_HOST_BUFFER_SIZE = 256 * 1024 * 1024


@dataclass
class CompletedCheckpointHandle:
    """Handle of a ``save`` that already completed before returning.

    Blocking engines (synchronous, TorchSnapshot-style) hand this back so
    callers can treat every engine's handles uniformly: the capture and the
    flush are already done, so the waits return immediately.
    """

    tag: str
    shard_name: str
    result: FlushResult

    def wait_captured(self, timeout: Optional[float] = None) -> bool:
        """The snapshot was captured inside ``save``; always already done."""
        return True

    def wait_durable(self, timeout: Optional[float] = None) -> FlushResult:
        """The shard was durably written inside ``save``."""
        return self.result


@dataclass
class IncrementalPlan:
    """Dirty scan result of one save against the previous committed checkpoint.

    ``clean`` maps part names whose bytes are provably identical to the base
    checkpoint's part (same size, same folded whole-part CRC32, same
    per-tensor CRCs when the base recorded them) to the base's manifest
    record; engines record those parts by reference
    (:meth:`CheckpointEngine._reference_shard`) instead of re-serialising
    them.  ``checksums`` carries the freshly computed per-tensor CRC32s of
    *every* part, so dirty parts record them in the manifest and the next
    save can run the same comparison.
    """

    base_tag: str
    clean: Dict[str, ShardRecord]
    checksums: Dict[str, Tuple[int, ...]]

    def tensor_checksums(self, part_name: str) -> Optional[Tuple[int, ...]]:
        return self.checksums.get(part_name)


class CheckpointEngine(abc.ABC):
    """Abstract base of the real-mode checkpoint engines.

    Hoists the plumbing every engine shares: store/rank/world validation,
    policy resolution, the two-phase-commit coordinator, default shard
    naming, the loader-backed restore path, checkpoint discovery, stats, and
    the idempotent shutdown / context-manager lifecycle.  Subclasses
    implement :meth:`save` and override the wait points their concurrency
    model requires, plus :meth:`_release_resources` for teardown.
    """

    #: Canonical engine name (matches the registry and the figure legends).
    name: str = "base"

    def __init__(
        self,
        store: ShardStore,
        rank: int = 0,
        world_size: int = 1,
        coordinator: Optional[TwoPhaseCommitCoordinator] = None,
        policy: Optional[CheckpointPolicy] = None,
        host_buffer_size: Optional[int] = None,
        topology: Optional[CheckpointTopology] = None,
    ) -> None:
        if not (0 <= rank < world_size):
            raise CheckpointError(f"rank {rank} outside world of size {world_size}")
        if topology is not None and topology.world_size != world_size:
            raise CheckpointError(
                f"topology {topology.describe()} spans {topology.world_size} "
                f"ranks but the engine's world size is {world_size}")
        self.store = store
        self.rank = rank
        self.world_size = world_size
        self.topology = topology
        resolved = policy or CheckpointPolicy(
            host_buffer_size=host_buffer_size or DEFAULT_HOST_BUFFER_SIZE
        )
        if host_buffer_size is not None:
            # An explicit host_buffer_size always wins, including over a
            # simultaneously-passed policy.
            resolved = resolved.with_overrides(host_buffer_size=host_buffer_size)
        self.policy = resolved
        if coordinator is None:
            coordinator = TwoPhaseCommitCoordinator(world_size, store, topology=topology)
        elif topology is not None:
            # A shared coordinator is the authority on the save-time layout:
            # adopt ours if it has none, otherwise all ranks must agree.
            if coordinator.topology is None:
                coordinator.topology = topology
            elif coordinator.topology != topology:
                raise CheckpointError(
                    f"engine topology {topology.describe()} conflicts with the "
                    f"shared coordinator's {coordinator.topology.describe()}")
        self.coordinator = coordinator
        self._lock = threading.Lock()
        self._closed = False
        self._checkpoints_requested = 0
        self._parts_referenced = 0
        self._bytes_referenced = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The DeepSpeed checkpoint-engine interface calls this ``create``/
        # ``commit``; ``save`` + the wait points keep the same semantics with
        # one entry point.  Alias it on every concrete engine.
        if "save" in cls.__dict__:
            cls.checkpoint = cls.__dict__["save"]

    # ------------------------------------------------------------------ save
    @abc.abstractmethod
    def save(self, state: Any, tag: str, iteration: int = -1,
             shard_name: Optional[str] = None):
        """Checkpoint ``state`` under ``tag``; returns an engine handle."""

    # ------------------------------------------------------------ wait points
    def wait_for_snapshot(self, timeout: Optional[float] = None) -> None:
        """Consistency gate before the optimizer update.

        Default: no-op, for engines whose capture completes inside ``save``.
        """

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Drain captures, flushes, and commits of this rank's tags.

        Default: no-op, for engines whose ``save`` is fully blocking.
        """

    # ------------------------------------------------------------------ load
    def load(self, spec: Optional["RestoreSpec"] = None) -> Any:
        """Restore from a committed checkpoint per ``spec``.

        Every engine restores through the same
        :meth:`~repro.restart.CheckpointLoader.restore` path: shards are
        opened through the store's ``open_shard_mmap`` (a read-only memory
        map on a file store), validated against the manifest (size + CRC32)
        and rebuilt straight out of that buffer, fetched through the
        prefetching pipeline (``policy.prefetch_depth`` bounded workers).

        When the spec names no rank/shard selector the engine fills in its
        own: this rank's default shard, or — for a reshaping restore
        (``spec.target_topology``) — this rank's slice of the target layout.
        ``load()`` with no arguments restores the engine's shard of the
        latest committed checkpoint.
        """
        from ..restart import CheckpointLoader, RestoreSpec

        resolved = RestoreSpec() if spec is None else spec
        if not isinstance(resolved, RestoreSpec):
            raise CheckpointError(
                f"engine.load takes a RestoreSpec, got {type(spec).__name__}; "
                "e.g. engine.load(RestoreSpec.of_shard(name, tag=tag))")
        if resolved.selects_everything:
            if resolved.target_topology is not None:
                resolved = dataclasses.replace(resolved, rank=self.rank)
            else:
                resolved = dataclasses.replace(
                    resolved, shard=self.default_shard_name())
        loader = CheckpointLoader(self.store,
                                  prefetch_depth=self.policy.prefetch_depth)
        return loader.restore(resolved)

    def list_checkpoints(self) -> List[str]:
        """Tags of committed checkpoints, oldest first."""
        return self.store.list_committed_checkpoints()

    def latest_checkpoint(self) -> Optional[str]:
        """Most recent committed checkpoint tag, if any."""
        tags = self.list_checkpoints()
        return tags[-1] if tags else None

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        """Operational counters (engines extend this with their own)."""
        counters = {
            "engine": self.name,
            "rank": self.rank,
            "checkpoints_requested": self._checkpoints_requested,
            "parts_referenced": self._parts_referenced,
            "bytes_referenced": self._bytes_referenced,
        }
        # Tier-chain backpressure: total ms this engine's commits spent
        # blocked at the fast tier's capacity watermark.
        drain_wait_ms = getattr(self.store, "drain_wait_ms", None)
        if drain_wait_ms is not None:
            counters["drain_wait_ms"] = float(drain_wait_ms)
        return counters

    # ---------------------------------------------------------------- helpers
    def default_shard_name(self) -> str:
        """This rank's logical shard name (the shard-set base name)."""
        return f"rank{self.rank}"

    def plan_shards(self, flattened: FlattenedState, base_name: str) -> ShardPlan:
        """Partition this rank's state per ``policy.shards_per_rank``.

        Every engine saves through the resulting plan: one part with the
        default policy (byte-identical to the original layout), several
        size-balanced parts otherwise.
        """
        return plan_shards(flattened, base_name,
                           shards_per_rank=self.policy.shards_per_rank)

    def _part_record(self, plan: ShardPlan, part: ShardPart, nbytes: int,
                     checksum: Optional[int],
                     tensor_checksums: Optional[Tuple[Optional[int], ...]] = None,
                     ) -> ShardRecord:
        """Manifest record of one written part (set fields only when multi)."""
        multi = not plan.is_single
        return ShardRecord(
            rank=self.rank,
            name=part.name,
            nbytes=nbytes,
            checksum=checksum,
            tensor_checksums=tensor_checksums,
            group=plan.base_name if multi else None,
            part_index=part.part_index if multi else None,
            num_parts=plan.num_parts if multi else None,
        )

    def _plan_incremental(self, plan: ShardPlan) -> Optional[IncrementalPlan]:
        """Dirty scan for an incremental save (``policy.incremental``).

        Compares each part of ``plan`` against the latest committed
        checkpoint: a part is *clean* — safely recordable by reference —
        only when its exact byte stream would repeat, i.e. the serialized
        size matches and the whole-part CRC32 (freshly-encoded preamble
        folded with fresh per-tensor payload CRCs via ``crc32_combine``)
        equals the base record's recorded checksum.  The preamble fold
        matters: the skeleton embeds non-tensor leaves (iteration counters,
        optimizer step), so per-tensor CRCs alone would reuse stale
        metadata.  Returns ``None`` when incremental saves are off, the
        store cannot record references, or there is no committed base.
        """
        if not self.policy.incremental or not supports_shard_reference(self.store):
            return None
        tags = self.store.list_committed_checkpoints()
        if not tags:
            return None
        base_tag = tags[-1]
        try:
            manifest = CheckpointManifest.from_json(self.store.read_manifest(base_tag))
        except (CheckpointError, OSError):
            return None
        base_records = {record.name: record
                        for record in manifest.shards_of_rank(self.rank)}
        clean: Dict[str, ShardRecord] = {}
        checksums: Dict[str, Tuple[int, ...]] = {}
        for part in plan.parts:
            preamble = encode_preamble(part.header, plan.skeleton)
            folded = zlib.crc32(preamble) & 0xFFFFFFFF
            crcs = []
            for entry, payload in iter_part_payloads(part):
                crc = zlib.crc32(payload) & 0xFFFFFFFF
                crcs.append(crc)
                folded = crc32_combine(folded, crc, entry.nbytes)
            checksums[part.name] = tuple(crcs)
            base = base_records.get(part.name)
            if (base is not None
                    and base.checksum is not None
                    and base.nbytes == len(preamble) + part.header.payload_bytes
                    and base.checksum == folded
                    and (base.tensor_checksums is None
                         or tuple(base.tensor_checksums) == tuple(crcs))):
                clean[part.name] = base
        return IncrementalPlan(base_tag=base_tag, clean=clean, checksums=checksums)

    def _reference_shard(self, tag: str, plan: ShardPlan, part: ShardPart,
                         inc: IncrementalPlan) -> Tuple[ShardRecord, FlushResult]:
        """Record one clean part as a reference to the base checkpoint's
        identical part — zero payload bytes move; the store pins the base's
        chunk list into the new checkpoint's pending manifest."""
        base = inc.clean[part.name]
        try:
            nbytes = self.store.record_shard_reference(tag, part.name, inc.base_tag)
        except CheckpointError:
            raise
        except OSError as exc:
            raise CheckpointError(
                f"recording shard reference {tag}/{part.name} -> "
                f"{inc.base_tag} failed: {exc}") from exc
        record = self._part_record(plan, part, nbytes, base.checksum,
                                   tensor_checksums=inc.tensor_checksums(part.name))
        result = FlushResult(tag=tag, shard_name=part.name, nbytes=nbytes,
                             checksum=base.checksum, record=record)
        with self._lock:
            self._parts_referenced += 1
            self._bytes_referenced += nbytes
        return record, result

    @staticmethod
    def _combine_results(tag: str, base_name: str,
                         results: Sequence[FlushResult]) -> FlushResult:
        """Aggregate per-part flush results into one rank-level result."""
        if len(results) == 1:
            return results[0]
        return FlushResult(
            tag=tag,
            shard_name=base_name,
            nbytes=sum(result.nbytes for result in results),
            checksum=results[0].checksum,
            record=results[0].record,
            parts=tuple(results),
        )

    def _ensure_open(self) -> None:
        if self._closed:
            raise CheckpointError("checkpoint engine is shut down")

    def _count_request(self) -> None:
        with self._lock:
            self._checkpoints_requested += 1

    def _write_streaming_shard(self, tag: str, shard_name: str, header: ShardHeader,
                               skeleton: bytes,
                               views: Sequence[memoryview]) -> Tuple[int, int]:
        """Sequentially stream a captured shard to the store, accumulating the
        whole-file CRC32 chunk by chunk; returns ``(nbytes, checksum)``."""
        checksum = 0

        def chunks():
            nonlocal checksum
            for chunk in iter_shard_chunks(header, skeleton, views,
                                           chunk_size=self.policy.chunk_size):
                checksum = zlib.crc32(chunk, checksum) & 0xFFFFFFFF
                yield chunk

        try:
            receipt = self.store.write_shard(tag, shard_name, chunks())
        except CheckpointError:
            raise
        except OSError as exc:
            # Store-level I/O failures (full disk, dead OST, injected faults)
            # surface as CheckpointError everywhere — the save contract is
            # "committed or loud", never a raw errno escaping the engine.
            raise CheckpointError(
                f"shard write of {tag}/{shard_name} failed: {exc}") from exc
        return receipt.nbytes, checksum

    def _vote_and_wait_commit(self, tag: str, records: Sequence[ShardRecord],
                              iteration: int,
                              timeout: Optional[float] = None) -> None:
        """Cast this rank's vote (all of its shard records at once) and block
        until ``tag`` is globally committed (the blocking half of the
        synchronous engines' save contract)."""
        self.coordinator.vote(tag, self.rank, list(records), iteration=iteration)
        if not self.coordinator.wait_committed(tag, timeout=timeout):
            raise CheckpointError(
                f"timed out waiting for checkpoint {tag!r} to commit "
                f"(world_size={self.world_size}; every rank must save the same tag)"
            )

    # ---------------------------------------------------------------- shutdown
    def shutdown(self, wait: bool = True) -> None:
        """Stop background resources; idempotent.

        With ``wait=True`` outstanding captures/flushes/commits are drained
        first (failures are logged, not raised, so teardown always completes).
        """
        if self._closed:
            return
        if wait:
            try:
                self.wait_all()
            except CheckpointError:
                logger.warning("engine shut down with failed outstanding checkpoints")
        self._closed = True
        self._release_resources(wait=wait)

    def _release_resources(self, wait: bool = True) -> None:
        """Tear down engine-specific background resources (default: none)."""

    def __enter__(self) -> "CheckpointEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)
