"""Flush pipeline — host staging buffer to persistent storage.

Consumes the :class:`~repro.core.lazy_snapshot.SnapshotJob` staging queue and
writes each shard as its tensors arrive: the shard header fixes every
tensor's file offset up front, so the preamble (header + skeleton) is written
at offset 0 immediately and each staged tensor is dispatched to a pool of
pwrite workers the moment its device-to-host copy lands in the pinned pool.
Multiple workers write *one shard's tensors concurrently, out of order*,
each at its final offset through the store's
:meth:`~repro.io.ShardStore.create_shard_writer` — so flushing overlaps both
the remaining copies and the training computation (streamlined multi-level
flushing, §5.1).  Pinned-pool space is released tensor by tensor as each
pwrite retires, which is what lets the circular buffer admit the next
checkpoint.

Each worker checksums its staged view; the whole-file CRC32 is folded from
the per-tensor CRCs with :func:`~repro.serialization.crc32_combine` (in
file-offset order), so it equals a sequential CRC of the shard and restart
validation is the same for every engine's shards.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..exceptions import CheckpointError
from ..io import FlushTask, FlushWorkerPool, ShardStore
from ..logging_utils import get_logger
from ..memory import PinnedHostPool
from ..serialization import ShardRecord, crc32_combine, encode_preamble
from .lazy_snapshot import SnapshotJob

logger = get_logger(__name__)

#: Default number of concurrent pwrite workers per pipeline.
DEFAULT_WRITER_THREADS = 4


class ParallelShardWrite:
    """Coordinates the concurrent offset-addressed write of ONE shard.

    The shared machinery of every shard write — used by the
    :class:`FlushPipeline` (pinned-pool staged tensors arriving via
    the snapshot queue) and by the TorchSnapshot-like engine (in-memory
    captured tensors): a pending-task latch, per-tensor CRC32 accumulation,
    first-error capture, and the fold of the whole-file checksum from the
    per-tensor CRCs (in file-offset order, so it is byte-identical to a
    sequential CRC despite out-of-order writes).
    """

    def __init__(self, writer, workers: FlushWorkerPool, header, preamble: bytes) -> None:
        self.writer = writer
        self.workers = workers
        self.header = header
        self.preamble = preamble
        self.payload_start = len(preamble)
        # Keyed by tensor key, not offset: zero-length tensors (legal under
        # uneven ZeRO partitions) share their offset with the next entry.
        self._index_by_key = {entry.key: i for i, entry in enumerate(header.entries)}
        self._state_lock = threading.Lock()
        self._tensor_crcs: List[Optional[int]] = [None] * len(header.entries)
        self._errors: List[BaseException] = []
        self._done_cv = threading.Condition()
        self._pending = 0

    def write_preamble(self) -> None:
        """Write the header+skeleton at offset 0 (errors captured, not raised)."""
        try:
            self.writer.pwrite(0, self.preamble)
        except BaseException as exc:  # noqa: BLE001 - surfaced via first_error
            self._record_error(exc)

    def _record_error(self, exc: BaseException) -> None:
        with self._state_lock:
            self._errors.append(exc)

    @property
    def failed(self) -> bool:
        """True once any write has failed (producers should stop submitting)."""
        with self._state_lock:
            return bool(self._errors)

    def submit(self, entry, view: memoryview, description: str = "",
               chunk_size: Optional[int] = None,
               cleanup: Optional[Callable[[], None]] = None) -> None:
        """Queue one tensor's pwrite at its final offset.

        ``cleanup`` runs when the write retires (success or failure) — e.g.
        releasing the tensor's pinned-pool space.  With ``chunk_size`` the
        tensor is written (and checksummed) in bounded pieces.  Raises only
        if the worker pool rejects the task; its latch slot and cleanup are
        undone first.
        """
        with self._done_cv:
            self._pending += 1

        def run() -> None:
            try:
                if chunk_size:
                    crc = 0
                    for start in range(0, entry.nbytes, chunk_size):
                        stop = min(start + chunk_size, entry.nbytes)
                        piece = view[start:stop]
                        self.writer.pwrite(self.payload_start + entry.offset + start, piece)
                        crc = zlib.crc32(piece, crc) & 0xFFFFFFFF
                else:
                    self.writer.pwrite(self.payload_start + entry.offset, view)
                    crc = zlib.crc32(view) & 0xFFFFFFFF
                with self._state_lock:
                    self._tensor_crcs[self._index_by_key[entry.key]] = crc
            except BaseException as exc:  # noqa: BLE001 - surfaced via first_error
                self._record_error(exc)
            finally:
                if cleanup is not None:
                    cleanup()

        def on_done(_error: Optional[BaseException]) -> None:
            with self._done_cv:
                self._pending -= 1
                self._done_cv.notify_all()

        try:
            self.workers.submit(FlushTask(run=run, on_done=on_done,
                                          description=description))
        except BaseException:
            # The task will never run: undo its latch slot and release its
            # payload before bailing out.
            with self._done_cv:
                self._pending -= 1
            if cleanup is not None:
                cleanup()
            raise

    def wait_writes(self) -> None:
        """Block until every submitted pwrite has retired (always safe to
        call — also on error paths, before closing the writer's fd)."""
        with self._done_cv:
            while self._pending:
                self._done_cv.wait()

    def first_error(self) -> Optional[BaseException]:
        """The first write failure, if any."""
        with self._state_lock:
            return self._errors[0] if self._errors else None

    def folded_checksum(self) -> int:
        """Whole-file CRC32 folded from the per-tensor CRCs."""
        checksum = zlib.crc32(self.preamble) & 0xFFFFFFFF
        for entry, crc in zip(self.header.entries, self._tensor_crcs):
            assert crc is not None
            checksum = crc32_combine(checksum, crc, entry.nbytes)
        return checksum

    def tensor_checksums(self) -> Tuple[Optional[int], ...]:
        """Per-tensor CRC32s in header order."""
        return tuple(self._tensor_crcs)


@dataclass
class FlushResult:
    """Outcome of flushing one shard (or, aggregated, one rank's shard-set).

    For a multi-shard-per-rank save the engines hand back one rank-level
    result whose ``nbytes`` sums the set and whose ``parts`` holds the
    individual per-file results; ``checksum``/``record`` then refer to the
    set's first part.
    """

    tag: str
    shard_name: str
    nbytes: int
    checksum: int
    record: ShardRecord
    parts: Optional[Tuple["FlushResult", ...]] = None


class ShardFlushJob:
    """Tracks one shard flush from submission to durability."""

    def __init__(self, snapshot: SnapshotJob, rank: int) -> None:
        self.snapshot = snapshot
        self.rank = rank
        self.done = threading.Event()
        self.result: Optional[FlushResult] = None
        self.error: Optional[BaseException] = None

    def wait(self, timeout: Optional[float] = None) -> FlushResult:
        """Block until the shard is durably written; re-raise failures."""
        if not self.done.wait(timeout=timeout):
            raise CheckpointError(
                f"timed out waiting for flush of {self.snapshot.tag}/{self.snapshot.shard_name}"
            )
        if self.error is not None:
            raise CheckpointError(
                f"flush of {self.snapshot.tag}/{self.snapshot.shard_name} failed: {self.error}"
            ) from self.error
        assert self.result is not None
        return self.result


class FlushPipeline:
    """Background writer of snapshot jobs to a :class:`~repro.io.ShardStore`.

    ``flush_threads`` workers each drive one shard's write; every shard's
    tensors fan out to ``writer_threads`` pwrite workers.
    """

    def __init__(
        self,
        store: ShardStore,
        pool: PinnedHostPool,
        rank: int = 0,
        flush_threads: int = 1,
        writer_threads: Optional[int] = None,
    ) -> None:
        self.store = store
        self.pool = pool
        self.rank = rank
        self.workers = FlushWorkerPool(num_workers=flush_threads, name=f"flush-r{rank}")
        count = writer_threads or max(flush_threads, DEFAULT_WRITER_THREADS)
        self._pwriters = FlushWorkerPool(num_workers=count, name=f"pwrite-r{rank}")
        #: Jobs not yet retired; each leaves as soon as it is done, so a
        #: finished job (and the snapshot and state it references) is never
        #: kept alive by the pipeline.
        self._jobs: List[ShardFlushJob] = []
        self._lock = threading.Lock()

    # -- submission ---------------------------------------------------------
    def submit(self, snapshot: SnapshotJob,
               on_durable: Optional[Callable[[FlushResult], None]] = None) -> ShardFlushJob:
        """Queue a snapshot's shard for background writing."""
        job = ShardFlushJob(snapshot, self.rank)
        with self._lock:
            self._jobs.append(job)

        def run() -> None:
            job.result = self._write_shard(snapshot)

        def on_done(error: Optional[BaseException]) -> None:
            job.error = error
            # The durability callback (the commit vote) runs BEFORE the done
            # event fires: anyone woken by wait() may rely on the vote having
            # been cast — e.g. the engine prunes retired handles and then
            # waits on the coordinator for their tags.
            if error is None and on_durable is not None and job.result is not None:
                try:
                    on_durable(job.result)
                except Exception as exc:  # noqa: BLE001 - consolidation errors surface later
                    job.error = exc
                    logger.error("post-flush callback failed for %s: %s", snapshot.shard_name, exc)
            job.done.set()
            with self._lock:
                self._jobs.remove(job)

        self.workers.submit(FlushTask(run=run, on_done=on_done,
                                      description=f"{snapshot.tag}/{snapshot.shard_name}"))
        return job

    # -- synchronisation ---------------------------------------------------------
    def drain(self) -> None:
        """Wait for every submitted flush to finish."""
        self.workers.drain()

    def pending_jobs(self) -> List[ShardFlushJob]:
        """Flush jobs not yet known to be durable."""
        with self._lock:
            return [job for job in self._jobs if not job.done.is_set()]

    def shutdown(self, wait: bool = True) -> None:
        """Stop the flush workers."""
        self.workers.shutdown(wait=wait)
        self._pwriters.shutdown(wait=wait)

    # -- the actual write ----------------------------------------------------------
    def _write_shard(self, snapshot: SnapshotJob) -> FlushResult:
        """Offset-addressed flush: staged tensors fan out to pwrite workers."""
        header = snapshot.header
        preamble = encode_preamble(header, snapshot.skeleton)
        total_bytes = len(preamble) + header.payload_bytes

        try:
            writer = self.store.create_shard_writer(snapshot.tag, snapshot.shard_name,
                                                    total_bytes)
        except BaseException:
            self._drain_staged(snapshot)
            raise

        shard_write = ParallelShardWrite(writer, self._pwriters, header, preamble)
        queue_drained = False
        try:
            shard_write.write_preamble()

            while True:
                staged = snapshot.staged.get()
                if staged is None:
                    break
                if shard_write.failed:
                    # A write already failed: keep draining the queue so the
                    # pinned pool is released and the capture thread never
                    # wedges.
                    self.pool.free(staged.allocation)
                    continue
                allocation = staged.allocation
                shard_write.submit(
                    staged.entry, allocation.view,
                    description=f"{snapshot.tag}/{snapshot.shard_name}"
                                f"@{staged.entry.offset}",
                    cleanup=lambda allocation=allocation: self.pool.free(allocation),
                )
            queue_drained = True

            shard_write.wait_writes()
            capture_error = snapshot.capture_error()
            if capture_error is not None:
                raise CheckpointError(
                    f"snapshot capture failed mid-flush: {capture_error}"
                ) from capture_error
            error = shard_write.first_error()
            if error is not None:
                raise error

            checksum = shard_write.folded_checksum()
            receipt = writer.commit()
        except BaseException:
            # Let in-flight pwrites retire before closing their fd (already-
            # queued tasks always run; a shut-down pool only stops new work).
            shard_write.wait_writes()
            writer.abort()
            if not queue_drained:
                self._drain_staged(snapshot)
            raise
        record = self._snapshot_record(snapshot, receipt.nbytes, checksum,
                                       tensor_checksums=shard_write.tensor_checksums())
        return FlushResult(tag=snapshot.tag, shard_name=snapshot.shard_name,
                           nbytes=receipt.nbytes, checksum=checksum, record=record)

    def _snapshot_record(self, snapshot: SnapshotJob, nbytes: int, checksum: int,
                         tensor_checksums=None) -> ShardRecord:
        """Manifest record for one flushed snapshot, carrying its shard-set
        placement (multi-shard-per-rank layout) when the job has one."""
        return ShardRecord(rank=self.rank, name=snapshot.shard_name,
                           nbytes=nbytes, checksum=checksum,
                           tensor_checksums=tensor_checksums,
                           group=snapshot.group,
                           part_index=snapshot.part_index,
                           num_parts=snapshot.num_parts)

    def _drain_staged(self, snapshot: SnapshotJob) -> None:
        """Consume and free every staged tensor after a setup failure, so the
        capture thread (and the next checkpoint's allocations) never block on
        pool space that no writer will ever release."""
        while True:
            staged = snapshot.staged.get()
            if staged is None:
                return
            self.pool.free(staged.allocation)
