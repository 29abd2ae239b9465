"""Workload ``train-every-iter``: a closed training loop checkpointing every
iteration with the ``datastates`` engine on a ``FileStore``.

Two ``RealTrainer`` objects built from the same model and data seeds run in
lockstep, in alternating blocks of ``BLOCK`` iterations: first a block of the
checkpoint-free trainer (the plain single-worker baseline), then a block of
the trainer that checkpoints every iteration.  Alternating blocks, instead of
one baseline segment followed by one checkpointed segment, lets drift of the
shared host cancel out of ``train_slowdown``.  Between blocks, outside every
timed iteration, the engine is drained, each of the block's checkpoints is
restored (the restore samples), and retired checkpoints are pruned.

Checks: every checkpointed step's loss equals the baseline's loss for the
same step exactly; every requested tag commits; every restore carries its
iteration; the newest checkpoint is bit-equal to the baseline trainer's live
state; and a fresh trainer resumed from the last checkpoint reproduces the
next step's loss.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict

from common import (
    LayerInputs,
    Outcome,
    RunContext,
    fresh_dir,
    pool_fault_in_saves,
    put_layer_metrics,
    put_loop_metrics,
    record_save_phases,
    repeated_setup,
    stats_snapshot,
    traced_restore_phases,
    wrap_engine,
)
from measure import Window, percentile, states_bit_equal

from repro.config import CheckpointPolicy
from repro.core import create_real_engine
from repro.io import FileStore
from repro.model import NumpyTransformerLM, tiny_config
from repro.restart import CheckpointLoader, RestoreSpec
from repro.tensor import state_dict_nbytes
from repro.training import RealTrainer
from repro.training.data import DataConfig, SyntheticTokenStream

NAME = "train-every-iter"
#: Iterations per alternating block.
BLOCK = 4
#: Staging pool: room for three ~62 MiB checkpoints in flight.
POOL_BYTES = 192 * 1024 * 1024
#: Warm-up training steps of both trainers before timing.
WARMUP_STEPS = 2
TAIL = 70.0


def _trainer(model_seed: int, data_seed: int, engine=None) -> RealTrainer:
    model = NumpyTransformerLM(tiny_config(hidden_size=256, num_layers=4), seed=model_seed)
    data = SyntheticTokenStream(DataConfig(vocab_size=model.config.vocab_size,
                                           sequence_length=model.config.sequence_length,
                                           micro_batch_size=4, seed=data_seed))
    return RealTrainer(model, engine=engine, data=data, micro_batch_size=4)


class _System:
    """The two trainers, the engine and its store."""

    def __init__(self, ctx: RunContext, model_seed: int, data_seed: int) -> None:
        self.root = fresh_dir(ctx.workdir / "train")
        self.store = FileStore(self.root)
        self.engine = create_real_engine(
            "datastates", self.store, policy=CheckpointPolicy(host_buffer_size=POOL_BYTES))
        self.checkpointed = _trainer(model_seed, data_seed, engine=self.engine)
        self.baseline = _trainer(model_seed, data_seed)
        self.loader = CheckpointLoader(self.store)
        self.warmup_losses_equal = True
        self._warm_up()

    def _warm_up(self) -> None:
        for _ in range(WARMUP_STEPS):
            ours = self.checkpointed.train(1, checkpoint_interval=1, tag_prefix="warm")
            theirs = self.baseline.train(1)
            self.warmup_losses_equal &= ours.losses == theirs.losses
        # Walk the staging ring once and restore once, so pool pages and the
        # loader's path are faulted in before timing.
        state = self.checkpointed.state_dict()
        saves = pool_fault_in_saves(POOL_BYTES, state_dict_nbytes(state))
        for index in range(saves):
            self.engine.save(state, tag=f"warm-pool-{index}",
                             iteration=self.checkpointed.iteration)
        self.engine.wait_all()
        self.loader.restore(RestoreSpec.full(f"warm-pool-{saves - 1}"))
        for tag in self.store.list_checkpoints():
            self.store.delete_checkpoint(tag)


def _teardown(system: _System) -> None:
    system.engine.shutdown()
    fresh_dir(system.root)


def run(ctx: RunContext) -> Outcome:
    model_seed, data_seed = ctx.seeds(2)
    out = Outcome()
    tracer = ctx.tracer
    system, setup_s = repeated_setup(lambda: _System(ctx, model_seed, data_seed), _teardown)
    out.metrics.put("setup_s", percentile(setup_s, 50.0), "s")
    out.check("warmup_losses_equal", system.warmup_losses_equal)

    engine, store, loader = system.engine, system.store, system.loader
    trainer, baseline = system.checkpointed, system.baseline
    checkpoint_bytes = state_dict_nbytes(trainer.state_dict())

    # Save-call and manifest-publish stamps give commit_ms without blocking
    # the training loop (these two wrappers are on in every run).
    saved_at: Dict[str, float] = {}
    committed_at: Dict[str, float] = {}
    handles: "queue.Queue" = queue.Queue()
    save, write_manifest = engine.save, store.write_manifest

    def stamped_save(state, tag, *args, **kwargs):
        saved_at[tag] = time.perf_counter()
        handle = save(state, tag, *args, **kwargs)
        if tracer.enabled:
            handles.put((tag, time.perf_counter(), handle))
        return handle

    def stamped_write_manifest(tag, manifest):
        result = write_manifest(tag, manifest)
        committed_at[tag] = time.perf_counter()
        return result

    engine.save = stamped_save
    store.write_manifest = stamped_write_manifest

    waiter = None
    if tracer.enabled:
        wrap_engine(tracer, engine)
        tracer.wrap(trainer, "state_dict", "training.state_dict")
        tracer.wrap(trainer.optimizer, "step", "training.optimizer")

        def wait_phases() -> None:
            # Stamps each handle's capture/flush/commit as they complete; the
            # training thread never waits on it.
            while True:
                item = handles.get()
                if item is None:
                    return
                tag, returned, handle = item
                handle.wait_captured()
                captured = time.perf_counter()
                handle.wait_durable()
                durable = time.perf_counter()
                engine.wait_for_commit(tag)
                record_save_phases(tracer, tag, returned, captured, durable,
                                   time.perf_counter())

        waiter = threading.Thread(target=wait_phases, name="perfbench-phase-waiter",
                                  daemon=True)
        waiter.start()

    stats_before = stats_snapshot(engine)
    iter_ckpt, iter_base, stall, compute_ckpt, compute_base = [], [], [], [], []
    restore_s, commit_s = [], []
    committed_bytes = 0
    user_bytes = 0
    kept_tag = None
    try:
        window = Window(ctx.seconds)
        while window.open():
            base_losses = []
            for _ in range(BLOCK):
                start = time.perf_counter()
                report = baseline.train(1)
                iter_base.append(time.perf_counter() - start)
                base_losses += report.losses
                compute_base.append(report.steps[0].compute_seconds)
            ckpt_losses, tags = [], []
            for _ in range(BLOCK):
                start = time.perf_counter()
                report = trainer.train(1, checkpoint_interval=1, tag_prefix="ckpt")
                iter_ckpt.append(time.perf_counter() - start)
                ckpt_losses += report.losses
                tags += report.checkpoints
                stall.append(report.steps[0].checkpoint_block_seconds)
                compute_ckpt.append(report.steps[0].compute_seconds)
            out.attempted += 2 * BLOCK
            out.check("losses_equal_baseline", ckpt_losses == base_losses)
            out.check("every_iteration_checkpointed", len(tags) == BLOCK)

            # -- between blocks: nothing below is inside a timed iteration --
            engine.wait_all()
            for tag in tags:
                out.check("every_tag_committed", engine.wait_for_commit(tag, timeout=60.0))
                commit_s.append(committed_at[tag] - saved_at[tag])
                committed_bytes += store.total_bytes(tag)
                user_bytes += checkpoint_bytes
            for tag in tags:
                start = time.perf_counter()
                restored = loader.restore(RestoreSpec.full(tag))
                restore_s.append(time.perf_counter() - start)
                out.attempted += 1
                out.check("restore_has_iteration",
                          restored[0]["iteration"] == int(tag.rsplit("-", 1)[1]))
            # Both trainers stand at the same iteration here, so the newest
            # checkpoint must equal the checkpoint-free trainer's live state.
            out.check("newest_checkpoint_equals_baseline_state",
                      states_bit_equal(restored[0], baseline.state_dict()))
            del restored
            if tracer.enabled:
                traced_restore_phases(tracer, loader, tags[-1])
            for tag in ([kept_tag] if kept_tag else []) + tags[:-1]:
                store.delete_checkpoint(tag)
            kept_tag = tags[-1]
        window_s = window.close()
    finally:
        if waiter is not None:
            handles.put(None)
            waiter.join(timeout=60.0)
        tracer.unwrap()
        del engine.save, store.write_manifest

    # Resume check: a fresh trainer (different init seed, so every weight
    # must come from the checkpoint) reproduces the baseline's next loss.
    resumed = _trainer(model_seed + 1, data_seed)
    resumed.resume_from(loader, tag=kept_tag)
    out.check("resume_reproduces_next_loss",
              resumed.train(1).losses == baseline.train(1).losses)
    out.attempted += 1

    m = out.metrics
    put_loop_metrics(m, iter_ckpt, stall, commit_s, restore_s, TAIL)
    m.put("drain_gbps", committed_bytes / window_s / 1e9, "GB/s")

    base_p50 = percentile(iter_base, 50.0)
    out.detail.update({
        "train_slowdown": percentile(iter_ckpt, 50.0) / base_p50,
        "baseline_iter_ms.p50": base_p50 * 1e3,
        "checkpointed_it_per_s": len(iter_ckpt) / sum(iter_ckpt),
        "baseline_it_per_s": len(iter_base) / sum(iter_base),
        "training.compute_ms": percentile(compute_ckpt, 50.0) * 1e3,
        "training.compute_ms_baseline": percentile(compute_base, 50.0) * 1e3,
        "checkpoint_mib": checkpoint_bytes / 2**20,
        "checkpoints": len(commit_s),
        "window_s": window_s,
        "setup_runs_s": setup_s,
    })
    if tracer.enabled:
        out.detail["training.state_dict_ms"] = tracer.median_ms("training.state_dict")
        out.detail["training.optimizer_ms"] = tracer.median_ms("training.optimizer")
        put_layer_metrics(m, tracer, ctx.host, LayerInputs(
            checkpoint_bytes=checkpoint_bytes,
            engine_stats_before=stats_before,
            engine_stats_after=stats_snapshot(engine),
            bytes_written=committed_bytes, user_bytes=user_bytes))
    engine.shutdown()
    return out
