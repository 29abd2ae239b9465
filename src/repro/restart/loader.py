"""Restart path: discovering, validating, and loading committed checkpoints.

Only checkpoints with a published manifest are restorable; anything else is a
torn checkpoint left behind by a crash mid-flush and is ignored (or can be
garbage-collected with :meth:`CheckpointLoader.prune_uncommitted`).  Shard
files are validated against the manifest's size and CRC32 before their
contents are handed back to the trainer.

Every shard part is read one way: the store's
:meth:`~repro.io.ShardStore.open_shard_mmap` hands back a read-only buffer —
a memory map on a file store, one whole-shard read wrapped in a
:class:`~repro.io.HeapShard` on an object or CAS store.  The CRC32 is
verified straight out of that buffer and the arrays are rebuilt as
``np.frombuffer`` views into it, so a multi-hundred-MB mapped shard is
validated and loaded without ever holding a second full copy of it in heap
memory.  ``materialize=True`` (the default) copies each array out of the
buffer so the result is writable and the buffer can be released;
``materialize=False`` hands back zero-copy read-only views that keep the
buffer alive.

Both passes over a large shard run at every usable core: the CRC32 check
(:func:`~repro.serialization.checksum_stream`) covers contiguous per-core
sections folded back into the whole-shard CRC, and the copy splits the
arrays into per-core runs.  Validation was about two thirds of a 256 MiB
restore while it ran on one thread; the two passes stay separate because a
fused copy-and-checksum pass measured no faster.

Restores are described by a :class:`~repro.restart.RestoreSpec` and executed
by :meth:`CheckpointLoader.restore` — one entry point covering a single shard,
one rank, every rank, and (with ``spec.target_topology``) an elastic restore
into a different parallel layout.

Restores are **prefetched**: a bounded-worker stage (``prefetch_depth``
workers, surfaced as :attr:`repro.config.CheckpointPolicy.prefetch_depth` and
the CLI ``--prefetch-depth`` flag) fetches and CRC-validates shard parts
ahead of deserialization, so a one-rank restore overlaps I/O with reassembly
across a multi-shard set and an all-ranks restore additionally overlaps
across ranks — while rank N's state is being rebuilt, rank N+1's parts are
already being fetched and checksummed.  ``prefetch_depth=1`` disables the
pipeline (strictly serial fetch -> validate -> deserialize);
``prefetch_depth=0`` selects **auto mode**: the loader records per-part
fetch and deserialize wall times and picks the depth from the measured
overlap ratio (a fetch-bound restore gets a deeper pipeline, a
deserialize-bound one stays shallow — see :func:`choose_prefetch_depth`).

Validation and loading happen in one pass over each shard —
``restore(spec)`` with ``validate=True`` never reads a shard twice, and
``validate=False`` skips the per-shard size/CRC checks entirely (manifest
completeness is still enforced).
"""

from __future__ import annotations

import copy
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import DEFAULT_PREFETCH_DEPTH
from ..exceptions import CheckpointError, ConsistencyError, RestartError
from ..io import ShardStore
from ..logging_utils import get_logger
from ..serialization import (
    CheckpointManifest,
    CheckpointTopology,
    ShardRecord,
    checksum_stream,
    decode_preamble,
    deserialize_rank_state,
    deserialize_state,
)
from .spec import RestoreSpec

logger = get_logger(__name__)

#: Upper bound on concurrent per-shard validation threads.
_MAX_VALIDATE_WORKERS = 8

#: One logical shard to restore: a set key and the records of its parts.
_SetItem = Tuple[Any, List[ShardRecord]]

#: Deepest pipeline auto mode will pick, and how many of the most recent
#: per-part timing samples it keeps (older restores stop steering new ones).
MAX_AUTO_PREFETCH_DEPTH = 8
_TIMING_WINDOW = 256


def choose_prefetch_depth(fetch_seconds: Sequence[float],
                          deserialize_seconds: Sequence[float],
                          max_depth: int = MAX_AUTO_PREFETCH_DEPTH) -> int:
    """Pick a prefetch depth from measured per-part timings (auto mode).

    The pipeline overlaps fetch+validate of upcoming parts with the
    deserialization of the current one, so the depth that keeps the consumer
    fed is the fetch/deserialize time ratio: while one part deserializes,
    about ``mean_fetch / mean_deserialize`` fetches must be in flight for the
    next part to be ready on time (plus one part of slack for jitter).  A
    fetch-bound restore (remote object store) gets a deep pipeline; a
    deserialize-bound one (local mmap) stays at the minimum useful depth of
    2.  With too few samples (< 3 of either kind) or degenerate timings the
    default depth is returned — measuring must never make a cold restore
    worse than the static default.
    """
    if len(fetch_seconds) < 3 or len(deserialize_seconds) < 3:
        return DEFAULT_PREFETCH_DEPTH
    mean_fetch = sum(fetch_seconds) / len(fetch_seconds)
    mean_deserialize = sum(deserialize_seconds) / len(deserialize_seconds)
    if mean_fetch <= 0 or mean_deserialize <= 0:
        return DEFAULT_PREFETCH_DEPTH
    depth = math.ceil(mean_fetch / mean_deserialize) + 1
    return max(2, min(int(max_depth), depth))


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary of one committed checkpoint."""

    tag: str
    iteration: int
    world_size: int
    total_bytes: int
    num_shards: int
    #: Save-time parallel layout (manifest schema v4); ``None`` for
    #: checkpoints written before topology stamping.
    topology: Optional[CheckpointTopology] = None
    #: Manifest schema version the checkpoint was written with.
    version: int = 1


class CheckpointLoader:
    """Reads committed checkpoints back from any :class:`~repro.io.ShardStore`."""

    def __init__(self, store: ShardStore, verify_checksums: bool = True,
                 materialize: bool = True,
                 prefetch_depth: Optional[int] = None) -> None:
        self.store = store
        self.verify_checksums = verify_checksums
        self.materialize = materialize
        depth = DEFAULT_PREFETCH_DEPTH if prefetch_depth is None else int(prefetch_depth)
        if depth < 0:
            raise RestartError("prefetch_depth must be >= 0")
        self.prefetch_depth = depth
        # Per-part timing samples feeding auto mode (prefetch_depth=0).
        # Mutable containers, deliberately shared by _with_options clones so
        # every restore through this loader trains the same estimate.
        self._timing_lock = threading.Lock()
        self._fetch_seconds: deque = deque(maxlen=_TIMING_WINDOW)
        self._deserialize_seconds: deque = deque(maxlen=_TIMING_WINDOW)

    # -- discovery ---------------------------------------------------------
    def committed_checkpoints(self) -> List[CheckpointInfo]:
        """All committed checkpoints, oldest first."""
        infos: List[CheckpointInfo] = []
        for tag in self.store.list_committed_checkpoints():
            manifest = self.manifest(tag)
            infos.append(
                CheckpointInfo(
                    tag=tag,
                    iteration=manifest.iteration,
                    world_size=manifest.world_size,
                    total_bytes=manifest.total_bytes,
                    num_shards=len(manifest.shards),
                    topology=manifest.topology,
                    version=manifest.version,
                )
            )
        infos.sort(key=lambda info: (info.iteration, info.tag))
        return infos

    def latest(self) -> Optional[CheckpointInfo]:
        """The most recent committed checkpoint (by iteration, then tag)."""
        infos = self.committed_checkpoints()
        return infos[-1] if infos else None

    def manifest(self, tag: str) -> CheckpointManifest:
        """Parsed manifest of one committed checkpoint."""
        try:
            return CheckpointManifest.from_json(self.store.read_manifest(tag))
        except Exception as exc:
            raise RestartError(f"cannot read manifest of checkpoint {tag!r}: {exc}") from exc

    # -- validation ---------------------------------------------------------------
    def validate(self, tag: str) -> CheckpointManifest:
        """Check that every shard listed in the manifest is present and intact.

        Shards are validated concurrently (one mmap/read per shard), which is
        what makes a multi-shard-per-rank checkpoint faster to vet than one
        monolithic file: the CRC32 passes over the set run in parallel.
        A large shard's per-core CRC sections draw on the same process-wide
        core budget (:mod:`repro.serialization.sections`), so parallel
        shards and parallel sections never add up to more than one extra
        thread per spare core.
        """
        manifest = self.manifest(tag)
        manifest.validate_complete()
        self._validate_records(tag, manifest.shards)
        return manifest

    @staticmethod
    def _parallel_each(items: Sequence, check) -> None:
        """Run ``check`` over ``items``, in parallel when there are several.

        ``list()`` over the map re-raises the first failure, so callers see
        the same exception type/path as the serial fallback.
        """
        if len(items) <= 1:
            for item in items:
                check(item)
            return
        workers = min(len(items), _MAX_VALIDATE_WORKERS)
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="ckpt-validate") as pool:
            list(pool.map(check, items))

    def _validate_records(self, tag: str, records: Sequence[ShardRecord]) -> None:
        """Size + CRC32 validation of several shards, in parallel when >1."""
        def check(record: ShardRecord) -> None:
            self._fetch_part(tag, record, validate=True).close()

        self._parallel_each(records, check)

    def _check_record(self, tag: str, record: ShardRecord, buffer) -> None:
        """Size + CRC32 validation of one shard against its manifest record.

        ``buffer`` may be heap bytes or an mmap; either way every byte is
        checksummed in place, in per-core sections when it is large.
        """
        if len(buffer) != record.nbytes:
            raise ConsistencyError(
                f"shard {record.name!r} of {tag!r} has {len(buffer)} bytes, "
                f"manifest says {record.nbytes}"
            )
        if self.verify_checksums and record.checksum is not None:
            if checksum_stream(buffer) != record.checksum:
                raise ConsistencyError(
                    f"shard {record.name!r} of {tag!r} failed its checksum"
                )

    def verify_tensor_checksums(self, tag: str, record: ShardRecord) -> None:
        """Validate each tensor payload against the per-tensor CRC32 records
        written by the parallel flush path, pinpointing corruption to a key."""
        if record.tensor_checksums is None:
            raise RestartError(
                f"shard {record.name!r} of {tag!r} carries no per-tensor checksums"
            )
        with self._fetch_part(tag, record, validate=False) as buffer:
            self._verify_entries(tag, record, buffer.data)

    def _verify_entries(self, tag: str, record: ShardRecord, buffer) -> None:
        view = memoryview(buffer)
        header, _skeleton, payload_start = decode_preamble(buffer)
        if len(header.entries) != len(record.tensor_checksums):
            raise ConsistencyError(
                f"shard {record.name!r} of {tag!r} has {len(header.entries)} tensors "
                f"but {len(record.tensor_checksums)} checksum records"
            )
        for entry, expected in zip(header.entries, record.tensor_checksums):
            start = payload_start + entry.offset
            actual = checksum_stream(view[start : start + entry.nbytes])
            if actual != expected:
                raise ConsistencyError(
                    f"tensor {entry.key!r} of shard {record.name!r} ({tag!r}) "
                    f"failed its checksum"
                )

    # -- the fetch + validate stage ----------------------------------------------
    def _fetch_part(self, tag: str, record: ShardRecord, validate: bool):
        """Fetch one shard part, recording its wall time for auto mode."""
        started = time.perf_counter()
        buffer = self._fetch_part_untimed(tag, record, validate)
        with self._timing_lock:
            self._fetch_seconds.append(time.perf_counter() - started)
        return buffer

    def _fetch_part_untimed(self, tag: str, record: ShardRecord, validate: bool):
        """Open one shard part's buffer and optionally validate its
        size/CRC32; never leaks the buffer on a validation failure.

        Store-level read failures (an outage, a flaky device, a vanished
        object) surface as :class:`~repro.exceptions.CheckpointError` rather
        than raw ``OSError`` — the restore path's loud-failure contract."""
        try:
            buffer = self.store.open_shard_mmap(tag, record.name)
        except OSError as exc:
            raise CheckpointError(
                f"cannot read shard {record.name!r} of {tag!r}: {exc}") from exc
        try:
            if validate:
                self._check_record(tag, record, buffer.data)
        except BaseException:
            buffer.close()
            raise
        return buffer

    def _iter_prefetched_sets(self, tag: str, sets: Sequence[_SetItem],
                              validate: bool) -> Iterator[Tuple[Any, List[ShardRecord], List[Any]]]:
        """Yield ``(key, records, buffers)`` per logical shard, prefetching ahead.

        The fetch+validate stage runs on ``prefetch_depth`` bounded workers
        with at most ``prefetch_depth`` parts in flight, so while the consumer
        deserializes one shard-set the next parts (of this set, and of later
        sets/ranks) are already being read and checksummed.  Ownership of the
        yielded buffers passes to the consumer; buffers of sets never yielded
        (because a fetch or the consumer failed) are closed here, so no mmap
        handle outlives an aborted restore.

        With ``prefetch_depth`` 1 (or a single part) the pipeline degrades
        to the strictly serial path with identical semantics; 0 resolves to
        a measured depth (see :attr:`effective_prefetch_depth`).
        """
        parts = [(set_index, record)
                 for set_index, (_key, records) in enumerate(sets)
                 for record in records]
        resolved_depth = self.effective_prefetch_depth
        if resolved_depth <= 1 or len(parts) <= 1:
            for key, records in sets:
                buffers = self._fetch_set(tag, records, validate)
                yield key, records, buffers
            return

        depth = min(resolved_depth, len(parts))
        pending: deque = deque()      # (set_index, future), submission order
        ready: Dict[int, List[Any]] = {}
        next_part = 0
        emitted = 0
        with ThreadPoolExecutor(max_workers=depth,
                                thread_name_prefix="ckpt-prefetch") as pool:
            try:
                while emitted < len(sets):
                    while next_part < len(parts) and len(pending) < resolved_depth:
                        set_index, record = parts[next_part]
                        pending.append(
                            (set_index,
                             pool.submit(self._fetch_part, tag, record, validate)))
                        next_part += 1
                    set_index, future = pending.popleft()
                    # Futures retire in submission order here, so each set's
                    # buffers accumulate in part order.
                    ready.setdefault(set_index, []).append(future.result())
                    while (emitted < len(sets)
                           and len(ready.get(emitted, ())) == len(sets[emitted][1])):
                        key, records = sets[emitted]
                        buffers = ready.pop(emitted)
                        emitted += 1
                        yield key, records, buffers
            except BaseException:
                # A fetch failed or the consumer bailed (including
                # GeneratorExit): drain the in-flight fetches and release
                # every buffer still owned by the pipeline.
                for _set_index, future in pending:
                    try:
                        future.result().close()
                    except Exception:  # noqa: BLE001 - already failing
                        pass
                for buffers in ready.values():
                    for buffer in buffers:
                        buffer.close()
                raise

    @property
    def effective_prefetch_depth(self) -> int:
        """The depth the next restore will run at.

        A positive ``prefetch_depth`` is used as-is; 0 (auto) resolves from
        the timing samples of earlier parts via
        :func:`choose_prefetch_depth` — so the first restore of a session
        starts at the default depth and later ones track the measured
        fetch/deserialize overlap ratio.
        """
        if self.prefetch_depth > 0:
            return self.prefetch_depth
        with self._timing_lock:
            fetch = list(self._fetch_seconds)
            deserialize = list(self._deserialize_seconds)
        return choose_prefetch_depth(fetch, deserialize)

    def prefetch_timings(self) -> Dict[str, List[float]]:
        """The per-part timing samples behind auto mode (newest last)."""
        with self._timing_lock:
            return {"fetch_seconds": list(self._fetch_seconds),
                    "deserialize_seconds": list(self._deserialize_seconds)}

    def _fetch_set(self, tag: str, records: Sequence[ShardRecord],
                   validate: bool) -> List[Any]:
        """Serially fetch one logical shard's parts; on any failure every
        already-opened buffer is closed before the error propagates (the
        mmap-handle leak the prefetch pipeline must also never reintroduce)."""
        buffers: List[Any] = []
        try:
            for record in records:
                buffers.append(self._fetch_part(tag, record, validate))
        except BaseException:
            for buffer in buffers:
                buffer.close()
            raise
        return buffers

    # -- loading ----------------------------------------------------------------------
    def restore(self, spec: Optional[RestoreSpec] = None) -> Any:
        """Execute one restore request — the single restore entry point.

        ``spec`` describes the checkpoint (``tag``, defaulting to the latest
        committed), the slice (``rank`` / ``shard`` / ``all_ranks``; a bare
        loader with no selector restores all ranks), an optional
        ``target_topology`` for an elastic (reshaping) restore, and per-call
        overrides of the loader's validate/materialize/prefetch defaults.  :meth:`repro.core.CheckpointEngine.load` routes through
        here, so every engine's restores share one validation +
        deserialization path.
        """
        spec = spec if spec is not None else RestoreSpec()
        loader = self._with_options(spec)
        tag = spec.tag if spec.tag is not None else loader._latest_tag()
        if spec.target_topology is not None:
            return loader._restore_reshaped(tag, spec)
        if spec.shard is not None:
            return loader._load_shard(tag, spec.shard, validate=spec.validate)
        if spec.rank is not None:
            return loader._load_rank(tag, spec.rank, validate=spec.validate)
        return loader._load_all(tag, validate=spec.validate)

    def _with_options(self, spec: RestoreSpec) -> "CheckpointLoader":
        """A shallow clone with the spec's option overrides applied."""
        if spec.materialize is None and spec.prefetch_depth is None:
            return self
        clone = copy.copy(self)
        if spec.materialize is not None:
            clone.materialize = spec.materialize
        if spec.prefetch_depth is not None:
            clone.prefetch_depth = spec.prefetch_depth
        return clone

    def _latest_tag(self) -> str:
        """Tag of the latest committed checkpoint; loud when there is none."""
        info = self.latest()
        if info is None:
            raise RestartError("no committed checkpoints to restore")
        return info.tag

    def _restore_reshaped(self, tag: str, spec: RestoreSpec) -> Any:
        """Elastic restore: merge at the save-time topology, re-split at the
        target, then apply the spec's rank selector (default: every rank)."""
        from .reshape import reshape_state_dicts

        manifest = self.manifest(tag)
        if manifest.topology is None:
            raise RestartError(
                f"checkpoint {tag!r} carries no save-time topology block "
                "(manifest schema < 4); it can only be restored into the "
                "layout that saved it")
        states = self._load_all(tag, validate=spec.validate)
        reshaped = reshape_state_dicts(states, manifest.topology,
                                       spec.target_topology)
        if spec.rank is not None:
            if spec.rank not in reshaped:
                raise RestartError(
                    f"rank {spec.rank} outside the target topology "
                    f"{spec.target_topology.describe()}")
            return reshaped[spec.rank]
        return reshaped

    def _load_shard(self, tag: str, shard_name: str, validate: bool = True) -> Any:
        """Load one logical shard by name, validated against the manifest.

        ``shard_name`` may be a shard file's name (v1 layout) or the *group*
        name of a rank's multi-shard set (e.g. ``rank0`` when the files are
        ``rank0-s00`` ... ``rank0-s03``) — the set is then validated and
        reassembled into the rank's state.
        """
        manifest = self.manifest(tag)
        for record in manifest.shards:
            if record.name == shard_name:
                if record.in_shard_set:
                    # A single part of a set cannot be unflattened alone; the
                    # caller almost certainly wants the whole logical shard.
                    raise RestartError(
                        f"{shard_name!r} is part {record.part_index} of shard-set "
                        f"{record.group!r} in checkpoint {tag!r}; load the set by "
                        f"its group name: RestoreSpec.of_shard({record.group!r})"
                    )
                return self._load_shard_set(tag, [record], validate=validate)
        group_rank = next((record.rank for record in manifest.shards
                           if record.in_shard_set and record.group == shard_name), None)
        if group_rank is not None:
            # shard_sets_of_rank validates set completeness (every part_index
            # present), so this path diagnoses a pruned/corrupt manifest the
            # same way a rank restore does.
            records = manifest.shard_sets_of_rank(group_rank)[shard_name]
            return self._load_shard_set(tag, records, validate=validate)
        recorded = sorted({record.group or record.name for record in manifest.shards})
        raise RestartError(
            f"checkpoint {tag!r} has no shard {shard_name!r} (has: {recorded[:4]} ...)"
        )

    def _load_rank(self, tag: str, rank: int, validate: bool = True) -> Any:
        """Load the state of one rank from its shard(s).

        Handles both layouts: a v1 single shard is loaded directly; a v2
        multi-shard set is fetched + validated through the prefetch pipeline
        and reassembled.  A rank that wrote several *independent* logical
        shards (distinct custom shard names) comes back as a dict keyed by
        logical name, as before.  ``validate=False`` skips the per-shard
        size/CRC checks (set completeness is still enforced).
        """
        manifest = self.manifest(tag)
        shard_sets = manifest.shard_sets_of_rank(rank)
        if not shard_sets:
            raise RestartError(f"checkpoint {tag!r} holds no shards for rank {rank}")
        loaded = {
            name: self._deserialize_set(tag, records, buffers)
            for name, records, buffers in self._iter_prefetched_sets(
                tag, list(shard_sets.items()), validate)
        }
        if len(loaded) == 1:
            return next(iter(loaded.values()))
        return loaded

    def _load_all(self, tag: str, validate: bool = True) -> Dict[int, Any]:
        """Load the state of every rank; per-shard validation is optional.

        Validation is folded into the load: each shard's size/CRC32 is
        verified on the same buffer the arrays are rebuilt from, so every
        shard is read (or mapped) exactly once — and the prefetch pipeline
        overlaps the fetch+validate of upcoming shards (across ranks) with
        the deserialization of the current one.

        ``validate=False`` skips the per-shard size/CRC32 checks entirely —
        use it when the medium is trusted and restore latency matters.
        Manifest completeness (every rank present, every shard-set whole) is
        checked either way; torn or pruned checkpoints are still rejected.
        """
        manifest = self.manifest(tag)
        manifest.validate_complete()
        sets: List[_SetItem] = []
        for rank in sorted({record.rank for record in manifest.shards}):
            for name, records in manifest.shard_sets_of_rank(rank).items():
                sets.append(((rank, name), records))
        per_rank: Dict[int, Dict[str, Any]] = {}
        for (rank, name), records, buffers in self._iter_prefetched_sets(
                tag, sets, validate):
            per_rank.setdefault(rank, {})[name] = \
                self._deserialize_set(tag, records, buffers)
        return {rank: next(iter(loaded.values())) if len(loaded) == 1 else loaded
                for rank, loaded in per_rank.items()}

    def _load_shard_set(self, tag: str, records: List[ShardRecord],
                        validate: bool = True) -> Any:
        """Fetch + validate + reassemble one logical shard (1..N parts)."""
        for _key, recs, buffers in self._iter_prefetched_sets(
                tag, [(records[0].group or records[0].name, list(records))], validate):
            return self._deserialize_set(tag, recs, buffers)
        raise RestartError(f"checkpoint {tag!r} shard-set is empty")  # pragma: no cover

    def _deserialize_set(self, tag: str, records: Sequence[ShardRecord],
                         buffers: List[Any]) -> Any:
        """Rebuild one logical shard's state; always releases the buffers.

        With ``materialize=False`` the arrays are views into the buffers:
        closing a map defers to garbage collection while any view lives.
        """
        try:
            datas = [buffer.data for buffer in buffers]
            started = time.perf_counter()
            try:
                if len(records) == 1 and not records[0].in_shard_set:
                    state = deserialize_state(datas[0], copy=self.materialize)
                else:
                    state = deserialize_rank_state(datas, copy=self.materialize)
            except Exception as exc:
                raise RestartError(
                    f"cannot deserialize shard "
                    f"{records[0].group or records[0].name!r} of {tag!r}: {exc}"
                ) from exc
            # Per-part deserialize cost for auto mode: the set is rebuilt as
            # one unit, so the wall time is amortised over its parts.
            per_part = (time.perf_counter() - started) / max(1, len(records))
            with self._timing_lock:
                self._deserialize_seconds.extend([per_part] * len(records))
            return state
        finally:
            for buffer in buffers:
                buffer.close()

    # -- housekeeping --------------------------------------------------------------------
    def prune_uncommitted(self) -> List[str]:
        """Delete torn (manifest-less) checkpoint directories; returns the tags removed.

        Safe to run concurrently with an in-flight save: an uncommitted
        writer whose checkpoint is pruned from under it fails its publish
        with a :class:`~repro.exceptions.CheckpointError` instead of
        resurrecting the deleted checkpoint.
        """
        committed = set(self.store.list_committed_checkpoints())
        removed = []
        for tag in self.store.list_checkpoints():
            if tag not in committed:
                self.store.delete_checkpoint(tag)
                removed.append(tag)
                logger.info("pruned uncommitted checkpoint %s", tag)
        return removed

    def keep_latest(self, count: int) -> List[str]:
        """Delete all but the newest ``count`` committed checkpoints.

        ``keep_latest(0)`` deliberately deletes *every* committed checkpoint
        — the "wipe the history" form callers use when retiring a run.
        """
        if count < 0:
            raise RestartError("count must be >= 0")
        infos = self.committed_checkpoints()
        to_remove = infos[:-count] if count else infos
        removed = []
        for info in to_remove:
            self.store.delete_checkpoint(info.tag)
            removed.append(info.tag)
        return removed
