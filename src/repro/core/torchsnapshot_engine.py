"""TorchSnapshot-like checkpointing over real NumPy state.

The "TorchSnapshot" baseline of §6.2: the state is chunked and serialized by
``policy.flush_threads`` **parallel writer threads**, but ``save`` **blocks
until the whole flush (and the commit) has completed** — parallel I/O without
the lazy capture/flush overlap that DataStates adds.

The writers pwrite each tensor at its final file offset, computed by the
shard header, chunk by chunk, through the store's
:meth:`~repro.io.ShardStore.create_shard_writer`.  Per-tensor CRC32s are
folded into the whole-file checksum with
:func:`~repro.serialization.crc32_combine`, so restart-time validation is
byte-identical to every other engine's shards.
"""

from __future__ import annotations

from typing import Any, Optional

from ..config import CheckpointPolicy
from ..exceptions import CheckpointError
from ..io import FlushWorkerPool, ShardStore
from ..serialization import CheckpointTopology, encode_preamble, iter_part_payloads
from ..tensor import flatten_state_dict
from .base_engine import CheckpointEngine, CompletedCheckpointHandle
from .consolidation import TwoPhaseCommitCoordinator
from .flush_pipeline import FlushResult, ParallelShardWrite


class TorchSnapshotCheckpointEngine(CheckpointEngine):
    """Chunked parallel-writer checkpointing, blocking until the flush completes."""

    name = "torchsnapshot"

    def __init__(self, store: ShardStore, rank: int = 0, world_size: int = 1,
                 coordinator: Optional[TwoPhaseCommitCoordinator] = None,
                 policy: Optional[CheckpointPolicy] = None,
                 host_buffer_size: Optional[int] = None,
                 commit_timeout: Optional[float] = None,
                 topology: Optional[CheckpointTopology] = None) -> None:
        if policy is None:
            # The paper's TorchSnapshot configuration runs 4 flush threads.
            policy = CheckpointPolicy(host_buffer_size=host_buffer_size or 256 << 20,
                                      flush_threads=4)
        super().__init__(store, rank=rank, world_size=world_size,
                         coordinator=coordinator, policy=policy,
                         host_buffer_size=host_buffer_size, topology=topology)
        self.commit_timeout = commit_timeout
        self._writers = FlushWorkerPool(num_workers=self.policy.flush_threads,
                                        name=f"ts-write-r{rank}")

    # ------------------------------------------------------------------ save
    def save(self, state: Any, tag: str, iteration: int = -1,
             shard_name: Optional[str] = None) -> CompletedCheckpointHandle:
        """Blocking checkpoint: chunked parallel write, durable and committed
        (for this rank's part of the collective) before returning.

        With ``policy.shards_per_rank > 1`` the writer pool fans out over
        every part of the shard-set at once, so several files (and several
        OSTs of a striped PFS) are written concurrently.
        """
        self._ensure_open()
        self._count_request()
        shard = shard_name or self.default_shard_name()
        plan = self.plan_shards(flatten_state_dict(state), shard)
        inc = self._plan_incremental(plan)
        dirty = [part for part in plan.parts
                 if inc is None or part.name not in inc.clean]

        try:
            records, results = self._write_parallel_set(tag, plan, parts=dirty)
        except CheckpointError:
            raise
        except OSError as exc:
            # A pwrite/commit errno from the writer pool surfaces as a loud
            # CheckpointError, never a raw errno escaping the engine.
            raise CheckpointError(
                f"parallel shard write of {tag}/{shard} failed: {exc}") from exc
        by_name = {record.name: (record, result)
                   for record, result in zip(records, results)}
        for part in plan.parts:
            if part.name not in by_name:
                by_name[part.name] = self._reference_shard(tag, plan, part, inc)
        records = [by_name[part.name][0] for part in plan.parts]
        results = [by_name[part.name][1] for part in plan.parts]

        self._vote_and_wait_commit(tag, records, iteration, timeout=self.commit_timeout)
        result = self._combine_results(tag, shard, results)
        return CompletedCheckpointHandle(tag=tag, shard_name=shard, result=result)

    # ------------------------------------------------------------ write paths
    def _write_parallel_set(self, tag: str, plan, parts=None):
        """Fan the (dirty subset of the) shard-set out to the writer pool.

        Every part's tensors are submitted before any wait, so the pool's
        chunked pwrites interleave across all files of the set — the
        multi-file analogue of the original single-shard parallel write.
        ``parts`` restricts the write to a subset (incremental saves skip
        clean parts); ``None`` writes the whole plan.
        """
        part_writes = []
        try:
            for part in (plan.parts if parts is None else parts):
                preamble = encode_preamble(part.header, plan.skeleton)
                writer = self.store.create_shard_writer(
                    tag, part.name, len(preamble) + part.header.payload_bytes)
                shard_write = ParallelShardWrite(writer, self._writers,
                                                 part.header, preamble)
                part_writes.append((part, writer, shard_write))
                shard_write.write_preamble()
                for entry, payload in iter_part_payloads(part):
                    if shard_write.failed:
                        break
                    shard_write.submit(entry, memoryview(payload),
                                       description=f"{tag}/{part.name}@{entry.offset}",
                                       chunk_size=self.policy.chunk_size)
            records, results = [], []
            for part, writer, shard_write in part_writes:
                shard_write.wait_writes()
                error = shard_write.first_error()
                if error is not None:
                    raise error
                receipt = writer.commit()
                checksum = shard_write.folded_checksum()
                record = self._part_record(plan, part, receipt.nbytes, checksum,
                                           tensor_checksums=shard_write.tensor_checksums())
                records.append(record)
                results.append(FlushResult(tag=tag, shard_name=part.name,
                                           nbytes=receipt.nbytes, checksum=checksum,
                                           record=record))
            return records, results
        except BaseException:
            # Let in-flight pwrites retire before closing their fds; abort
            # discards any part not yet committed (commit() makes abort a
            # no-op for parts already published).
            for _part, _writer, shard_write in part_writes:
                shard_write.wait_writes()
            for _part, writer, _shard_write in part_writes:
                writer.abort()
            raise

    # ---------------------------------------------------------------- shutdown
    def _release_resources(self, wait: bool = True) -> None:
        self._writers.shutdown(wait=wait)
