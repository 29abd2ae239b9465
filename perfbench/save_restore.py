"""Workload ``save-restore-256m``: a closed loop of checkpoint round trips on
a 256 MiB nested state (16 float64 tensors of seeded, unequal sizes, default
one-shard layout) through the ``datastates`` engine on a ``FileStore``.

One round trip: save -> ``wait_captured`` -> ``wait_durable`` ->
``wait_for_commit`` -> ``restore(RestoreSpec.full(tag))`` (validated) ->
bit-compare with the saved state -> delete.  There is no compute to hide
behind, so capture, checksum, write, commit and the read path all sit on
the critical path.  This workload bypasses the tier chain and the trainer.
"""

from __future__ import annotations

import time

from common import (
    LayerInputs,
    Outcome,
    RunContext,
    fresh_dir,
    mark_state,
    pool_fault_in_saves,
    put_layer_metrics,
    gate_seconds,
    put_loop_metrics,
    record_save_phases,
    repeated_setup,
    seeded_state,
    stats_snapshot,
    traced_restore_phases,
    wrap_engine,
)
from measure import Window, percentile, states_bit_equal

from repro.config import CheckpointPolicy
from repro.core import create_real_engine
from repro.io import FileStore
from repro.restart import CheckpointLoader, RestoreSpec
from repro.tensor import state_dict_nbytes

NAME = "save-restore-256m"
STATE_BYTES = 256 * 1024 * 1024
TENSORS = 16
#: Staging pool: one checkpoint plus slack for the ring's wrap-around.
POOL_BYTES = STATE_BYTES + 32 * 1024 * 1024
TAIL = 75.0


class _System:
    def __init__(self, ctx: RunContext, state) -> None:
        self.root = fresh_dir(ctx.workdir / "save-restore")
        self.store = FileStore(self.root)
        self.engine = create_real_engine(
            "datastates", self.store, policy=CheckpointPolicy(host_buffer_size=POOL_BYTES))
        self.loader = CheckpointLoader(self.store)
        # Walk the staging ring once and restore once: pool pages, file
        # pages and the loader's path are faulted in before timing.
        saves = pool_fault_in_saves(POOL_BYTES, STATE_BYTES)
        for index in range(saves):
            self.engine.save(state, tag=f"warm-{index}", iteration=0)
        self.engine.wait_all()
        self.loader.restore(RestoreSpec.full(f"warm-{saves - 1}"))
        for tag in self.store.list_checkpoints():
            self.store.delete_checkpoint(tag)


def _teardown(system: _System) -> None:
    system.engine.shutdown()
    fresh_dir(system.root)


def run(ctx: RunContext) -> Outcome:
    (state_seed,) = ctx.seeds(1)
    out = Outcome()
    tracer = ctx.tracer
    state = seeded_state(state_seed, STATE_BYTES, TENSORS)
    system, setup_s = repeated_setup(lambda: _System(ctx, state), _teardown)
    out.metrics.put("setup_s", percentile(setup_s, 50.0), "s")
    engine, store, loader = system.engine, system.store, system.loader
    user_bytes = state_dict_nbytes(state)
    if tracer.enabled:
        wrap_engine(tracer, engine)

    stats_before = stats_snapshot(engine)
    iteration, stall, commit, restore = [], [], [], []
    written = 0
    step = 0
    request = None
    try:
        window = Window(ctx.seconds)
        while window.open():
            step += 1
            tag = f"rt-{step:06d}"
            if request is not None:
                stall.append(request + gate_seconds(engine))
            mark_state(state, step)
            start = time.perf_counter()
            handle = engine.save(state, tag=tag, iteration=step)
            returned = time.perf_counter()
            request = returned - start
            handle.wait_captured()
            captured = time.perf_counter()
            written += handle.wait_durable().nbytes
            durable = time.perf_counter()
            out.check("every_tag_committed", engine.wait_for_commit(tag, timeout=60.0))
            committed = time.perf_counter()
            restored = loader.restore(RestoreSpec.full(tag))
            restored_at = time.perf_counter()
            out.check("restore_bit_exact", states_bit_equal(restored[0], state))
            del restored
            checked = time.perf_counter()
            if tracer.enabled:
                record_save_phases(tracer, tag, returned, captured, durable, committed)
                traced_restore_phases(tracer, loader, tag)
            extra = time.perf_counter() - checked
            store.delete_checkpoint(tag)
            iteration.append(time.perf_counter() - start - extra)
            commit.append(committed - start)
            restore.append(restored_at - committed)
            out.attempted += 1
        window_s = window.close()
        stall.append(request + gate_seconds(engine))
    finally:
        tracer.unwrap()

    m = out.metrics
    put_loop_metrics(m, iteration, stall, commit, restore, TAIL)
    m.put("drain_gbps", written / window_s / 1e9, "GB/s")
    out.detail.update({"round_trips": step, "window_s": window_s,
                       "state_mib": user_bytes / 2**20, "setup_runs_s": setup_s})
    if tracer.enabled:
        put_layer_metrics(m, tracer, ctx.host, LayerInputs(
            checkpoint_bytes=user_bytes,
            engine_stats_before=stats_before,
            engine_stats_after=stats_snapshot(engine),
            bytes_written=written, user_bytes=user_bytes * step))
    engine.shutdown()
    return out
