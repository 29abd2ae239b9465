"""Workload ``tier-chain-sustained``: a closed loop of 64 MiB saves, each
waiting for its level-0 commit, into a 3-level ``TierChain``:

* ``nvme`` — a ``FileStore`` holding 1.5 checkpoints,
* ``pfs`` — a ``FileStore`` holding 3 checkpoints,
* ``object`` — an in-memory ``ObjectStore``.

Level 0 is too small for two checkpoints, so every commit waits (level-0
backpressure) until the previous checkpoint has drained to ``pfs`` and can be
evicted: drain and eviction sit on the commit path here and nowhere else.
Every third cycle also restores the checkpoint it just committed (a level-0
hit, read beside the running drains) and bit-compares it; that restore is
kept out of the cycle's ``iter_ms`` sample.  Checkpoints that reach the last
level are counted, and all but the newest few are pruned.

Checks: every checkpoint commits, restores bit-exactly and reaches the last
level; a final restore of an older checkpoint, served from a level below
``nvme``, is bit-exact.
"""

from __future__ import annotations

import time
from typing import Dict, List

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
from repro.io import DrainState, FileStore, ObjectStore, TierChain, TierLevel
from repro.restart import CheckpointLoader, RestoreSpec
from repro.tensor import state_dict_nbytes

NAME = "tier-chain-sustained"
STATE_BYTES = 64 * 1024 * 1024
TENSORS = 8
POOL_BYTES = 2 * STATE_BYTES
#: Checkpoints that reached the last level and are kept (older ones pruned).
KEEP_REPLICATED = 4
#: Every this many cycles, the just-committed checkpoint is restored (a
#: level-0 hit, read beside the running drains); the other cycles save back
#: to back so level-0 backpressure stays on the commit path.
RESTORE_EVERY = 3
TAIL = 80.0
RESTORE_TAIL = 60.0


class _System:
    def __init__(self, ctx: RunContext, state) -> None:
        self.root = fresh_dir(ctx.workdir / "tier-chain")
        self.chain = TierChain([
            TierLevel(FileStore(self.root / "nvme"), name="nvme",
                      capacity_bytes=int(1.5 * STATE_BYTES)),
            TierLevel(FileStore(self.root / "pfs"), name="pfs",
                      capacity_bytes=3 * STATE_BYTES),
            TierLevel(ObjectStore(), name="object"),
        ])
        self.engine = create_real_engine(
            "datastates", self.chain, policy=CheckpointPolicy(host_buffer_size=POOL_BYTES))
        self.loader = CheckpointLoader(self.chain)
        # Walk the staging ring once, drain to the last level and restore
        # once, so pool pages, level files and every path are warm.
        for index in range(pool_fault_in_saves(POOL_BYTES, STATE_BYTES)):
            tag = f"warm-{index}"
            self.engine.save(state, tag=tag, iteration=0).wait_durable()
            self.engine.wait_for_commit(tag, timeout=60.0)
        self.loader.restore(RestoreSpec.full(tag))
        self.chain.wait_drained(timeout=60.0)
        for tag in self.chain.list_checkpoints():
            self.chain.delete_checkpoint(tag)


def _teardown(system: _System) -> None:
    system.engine.shutdown()
    system.chain.close()
    fresh_dir(system.root)


def run(ctx: RunContext) -> Outcome:
    (state_seed,) = ctx.seeds(1)
    out = Outcome()
    tracer = ctx.tracer
    state = seeded_state(state_seed, STATE_BYTES, TENSORS)
    system, setup_s = repeated_setup(lambda: _System(ctx, state), _teardown)
    out.metrics.put("setup_s", percentile(setup_s, 50.0), "s")
    engine, chain, loader = system.engine, system.chain, system.loader
    user_bytes = state_dict_nbytes(state)
    if tracer.enabled:
        wrap_engine(tracer, engine)

    stats_before = stats_snapshot(engine)
    drain_before = chain.drain_metrics()
    iteration, stall, commit, restore, backpressure = [], [], [], [], []
    level0_bytes = 0
    pending: Dict[str, int] = {}        # committed, not yet on the last level
    replicated: List[str] = []          # reached the last level, oldest first
    replicated_bytes = 0
    step = 0
    request = None

    def collect_replicated() -> int:
        moved = 0
        for tag in list(pending):
            if chain.drain_status(tag) is DrainState.REPLICATED:
                moved += pending.pop(tag)
                replicated.append(tag)
        return moved

    try:
        window = Window(ctx.seconds)
        while window.open():
            step += 1
            tag = f"cycle-{step:06d}"
            if request is not None:
                stall.append(request + gate_seconds(engine))
            mark_state(state, step)
            blocked_before = chain.drain_metrics()["drain_wait_ms"]
            start = time.perf_counter()
            handle = engine.save(state, tag=tag, iteration=step)
            returned = time.perf_counter()
            request = returned - start
            handle.wait_captured()
            captured = time.perf_counter()
            nbytes = handle.wait_durable().nbytes
            durable = time.perf_counter()
            out.check("every_tag_committed", engine.wait_for_commit(tag, timeout=60.0))
            committed = time.perf_counter()
            backpressure.append(chain.drain_metrics()["drain_wait_ms"] - blocked_before)
            level0_bytes += nbytes
            pending[tag] = nbytes
            if tracer.enabled:
                record_save_phases(tracer, tag, returned, captured, durable, committed)
            aside = 0.0
            if step % RESTORE_EVERY == 0:
                restore_start = time.perf_counter()
                restored = loader.restore(RestoreSpec.full(tag))
                restore.append(time.perf_counter() - restore_start)
                out.check("restore_bit_exact", states_bit_equal(restored[0], state))
                del restored
                if tracer.enabled:
                    traced_restore_phases(tracer, loader, tag)
                aside = time.perf_counter() - restore_start
                out.attempted += 1
            replicated_bytes += collect_replicated()
            while len(replicated) > KEEP_REPLICATED:
                chain.delete_checkpoint(replicated.pop(0))
            iteration.append(time.perf_counter() - start - aside)
            commit.append(committed - start)
            out.attempted += 1
        window_s = window.close()
        stall.append(request + gate_seconds(engine))
    finally:
        tracer.unwrap()

    # Every checkpoint reaches the last level; an older one, no longer on
    # level 0, restores bit-exactly from a deeper level.
    chain.wait_drained(timeout=120.0)
    collect_replicated()
    out.check("every_tag_reached_last_level", not pending)
    drain_after = chain.drain_metrics()
    deep = [tag for tag in replicated if "nvme" not in chain.residency_names(tag)]
    out.check("a_checkpoint_left_level0", bool(deep))
    if deep:
        tag = deep[0]
        served_from = chain.residency_names(tag)
        mark_state(state, int(tag.rsplit("-", 1)[1]))
        restored = loader.restore(RestoreSpec.full(tag))
        out.check("deep_restore_bit_exact", states_bit_equal(restored[0], state))
        out.attempted += 1
        out.detail["deep_restore"] = {"tag": tag, "served_from": served_from}
        del restored

    m = out.metrics
    put_loop_metrics(m, iteration, stall, commit, restore, TAIL, RESTORE_TAIL)
    m.put("drain_gbps", replicated_bytes / window_s / 1e9, "GB/s")

    drained = drain_after["drained_checkpoints"] - drain_before["drained_checkpoints"]
    drain_s = drain_after["drain_seconds_total"] - drain_before["drain_seconds_total"]
    out.detail.update({
        "cycles": step, "window_s": window_s, "state_mib": user_bytes / 2**20,
        "setup_runs_s": setup_s,
        "io.tiered.backpressure_ms": percentile(backpressure, 50.0),
        "io.tiered.backpressure_ms_total": sum(backpressure),
        "io.tiered.drain_ms": drain_s / max(drained, 1) * 1e3,
        "levels": chain.level_names,
    })
    if tracer.enabled:
        written = (level0_bytes
                   + drain_after["bytes_drained"] - drain_before["bytes_drained"]
                   + drain_after["bytes_promoted"] - drain_before["bytes_promoted"])
        put_layer_metrics(m, tracer, ctx.host, LayerInputs(
            checkpoint_bytes=user_bytes,
            engine_stats_before=stats_before,
            engine_stats_after=stats_snapshot(engine),
            bytes_written=written, user_bytes=user_bytes * step,
            saves=step,
            evictions=(drain_after["evicted_checkpoints"]
                       - drain_before["evicted_checkpoints"]),
            drain_retries=(drain_after["retried_drains"]
                           - drain_before["retried_drains"])))
    engine.shutdown()
    chain.close()
    return out
