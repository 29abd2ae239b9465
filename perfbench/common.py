"""Pieces every workload shares: the run context, repeated set-up, and the
per-layer metrics computed the same way on every workload."""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from measure import Metrics

from repro.restart import RestoreSpec

GIB = float(1 << 30)

#: How many times a run builds its system; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Per-layer metrics every workload reports under ``--trace 1``.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("serialization.flatten_ms", "ms"),
    ("serialization.header_ms", "ms"),
    ("core.save_request_ms", "ms"),
    ("core.snapshot_gate_ms", "ms"),
    ("core.capture_ms", "ms"),
    ("core.flush_ms", "ms"),
    ("core.commit_vote_ms", "ms"),
    ("memory.pool_peak_frac", "frac"),
    ("memory.pool_blocked_waits", "count"),
    ("io.bytes_written_per_user_byte", "ratio"),
    ("io.tiered.evictions_per_save", "ratio"),
    ("io.tiered.drain_retries", "count"),
    ("restart.manifest_ms", "ms"),
    ("restart.validate_ms", "ms"),
    ("restart.load_ms", "ms"),
    ("host.memcpy_ms_per_gib", "ms/GiB"),
    ("host.crc32_ms_per_gib", "ms/GiB"),
    ("host.write_ms_per_gib", "ms/GiB"),
    ("core.capture.floor_frac", "frac"),
    ("core.flush.floor_frac", "frac"),
    ("restart.validate.floor_frac", "frac"),
    ("restart.load.floor_frac", "frac"),
)

#: End-to-end metrics every workload reports under ``--trace 0``.
END_TO_END_METRICS: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("iter_ms.p50", "ms"),
    ("iter_ms.tail", "ms"),
    ("stall_ms.p50", "ms"),
    ("stall_ms.tail", "ms"),
    ("commit_ms.p50", "ms"),
    ("commit_ms.tail", "ms"),
    ("restore_ms.p50", "ms"),
    ("restore_ms.tail", "ms"),
    ("drain_gbps", "GB/s"),
)


@dataclass
class RunContext:
    """What one run of one workload is given."""

    seed: int
    seconds: float
    tracer: object
    workdir: Path
    host: Dict[str, object]

    def seeds(self, count: int) -> List[int]:
        """``count`` independent 32-bit seeds derived from the run seed."""
        return [int(value) for value in
                np.random.SeedSequence(self.seed).generate_state(count)]


@dataclass
class Outcome:
    """Result of one workload run."""

    metrics: Metrics = field(default_factory=Metrics)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        """Record a correctness check; a failure also counts a failed operation."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)
        if not passed:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def repeated_setup(build: Callable[[], object], teardown: Callable[[object], None],
                   repeats: int = SETUP_REPEATS) -> Tuple[object, List[float]]:
    """Build the system ``repeats`` times and keep the last build.

    Each build includes its warm-up operations; earlier builds are torn down
    before the next starts, so memory peaks at one system.
    """
    durations: List[float] = []
    system = None
    for attempt in range(repeats):
        start = time.perf_counter()
        system = build()
        durations.append(time.perf_counter() - start)
        if attempt + 1 < repeats:
            teardown(system)
            system = None
            gc.collect()
    return system, durations


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def pool_fault_in_saves(pool_bytes: int, checkpoint_bytes: int) -> int:
    """Saves needed to walk the staging ring once, faulting in every page."""
    return -(-pool_bytes // max(checkpoint_bytes, 1)) + 1


def floor_frac(floor_ms_per_gib: float, nbytes: int, measured_ms: float) -> float:
    """Share of a phase's time the raw host operation beneath it would take."""
    return floor_ms_per_gib * (nbytes / GIB) / measured_ms


@dataclass
class LayerInputs:
    """Measurements the shared per-layer metrics are computed from."""

    checkpoint_bytes: int
    engine_stats_before: Dict[str, float]
    engine_stats_after: Dict[str, float]
    bytes_written: int
    user_bytes: int
    #: Saves in the measured window (per-save normalisation).
    saves: int = 1
    evictions: int = 0
    drain_retries: int = 0


def put_layer_metrics(metrics: Metrics, tracer, host: Dict[str, object],
                      inputs: LayerInputs) -> None:
    """The per-layer metrics shared by every workload."""
    span_ms = {}
    for span in ("serialization.flatten", "serialization.header", "core.save_request",
                 "core.snapshot_gate", "core.capture", "core.flush", "core.commit_vote",
                 "restart.manifest", "restart.validate", "restart.load"):
        span_ms[span] = tracer.median_ms(span)
        metrics.put(f"{span}_ms", span_ms[span], "ms")

    after, before = inputs.engine_stats_after, inputs.engine_stats_before
    metrics.put("memory.pool_peak_frac",
                after["host_buffer_peak_bytes"] / after["host_buffer_bytes"], "frac")
    metrics.put("memory.pool_blocked_waits",
                after["host_buffer_blocked_waits"] - before["host_buffer_blocked_waits"],
                "count")
    metrics.put("io.bytes_written_per_user_byte",
                inputs.bytes_written / inputs.user_bytes, "ratio")
    metrics.put("io.tiered.evictions_per_save", inputs.evictions / inputs.saves, "ratio")
    metrics.put("io.tiered.drain_retries", inputs.drain_retries, "count")

    for key in ("memcpy_ms_per_gib", "crc32_ms_per_gib", "write_ms_per_gib"):
        metrics.put(f"host.{key}", host[key], "ms/GiB")
    nbytes = inputs.checkpoint_bytes
    memcpy, crc32, write = (host["memcpy_ms_per_gib"], host["crc32_ms_per_gib"],
                            host["write_ms_per_gib"])
    for span, floor in (("core.capture", memcpy), ("core.flush", crc32 + write),
                        ("restart.validate", crc32), ("restart.load", memcpy)):
        metrics.put(f"{span}.floor_frac", floor_frac(floor, nbytes, span_ms[span]), "frac")


def traced_restore_phases(tracer, loader, tag: str) -> None:
    """Traced runs only: time the restore's parts on their own (outside the
    end-to-end samples) — manifest read, whole-checkpoint validate, and a
    restore with validation off."""
    with tracer.span("restart.manifest", request=tag):
        loader.manifest(tag)
    with tracer.span("restart.validate", request=tag):
        loader.validate(tag)
    with tracer.span("restart.load", request=tag):
        loader.restore(RestoreSpec.full(tag, validate=False))


def wrap_engine(tracer, engine) -> None:
    """Spans around the engine's save path (instance attributes and the
    flatten call the engine module makes)."""
    import repro.core.engine as engine_module

    tracer.wrap(engine_module, "flatten_state_dict", "serialization.flatten")
    tracer.wrap(engine, "plan_shards", "serialization.header")
    tracer.wrap(engine, "save", "core.save_request")
    tracer.wrap(engine, "wait_for_snapshot", "core.snapshot_gate")


def stats_snapshot(engine) -> Dict[str, float]:
    return {key: value for key, value in engine.stats().items()
            if isinstance(value, (int, float))}


def seeded_state(seed: int, total_bytes: int, count: int) -> Dict[str, object]:
    """A nested state of ``count`` float64 tensors of seeded, unequal sizes
    adding up to ``total_bytes``, split between a model and an optimizer."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, count)
    total = total_bytes // 8
    sizes = np.floor(weights / weights.sum() * total).astype(np.int64)
    sizes[-1] += total - int(sizes.sum())
    tensors = []
    for size in sizes:
        tensor = np.empty(int(size), dtype=np.float64)
        rng.random(out=tensor)
        tensors.append(tensor)
    half = count // 2
    return {
        "model": {f"layer{index:02d}": tensors[index] for index in range(half)},
        "optimizer": {f"moment{index:02d}": tensors[index]
                      for index in range(half, count)},
        "step": 0,
    }


def mark_state(state: Dict[str, object], step: int) -> None:
    """Make ``state`` the distinct input of round trip ``step``."""
    state["step"] = step
    state["model"]["layer00"][0] = float(step)


def gate_seconds(engine) -> float:
    """The consistency gate a training loop passes before it mutates state
    again; with the save request before it, the training-visible stall."""
    start = time.perf_counter()
    engine.wait_for_snapshot()
    return time.perf_counter() - start


def record_save_phases(tracer, tag: str, returned: float, captured: float,
                       durable: float, committed: float) -> None:
    """Spans for the gaps between successive handle/engine waits of one save."""
    tracer.record("core.capture", returned, captured, request=tag)
    tracer.record("core.flush", captured, durable, request=tag)
    tracer.record("core.commit_vote", durable, committed, request=tag)


def put_loop_metrics(metrics: Metrics, iteration: List[float], stall: List[float],
                     commit: List[float], restore: List[float], tail: float,
                     restore_tail: Optional[float] = None) -> None:
    """The latency distributions every workload reports (samples in seconds)."""
    for name, samples in (("iter_ms", iteration), ("stall_ms", stall),
                          ("commit_ms", commit)):
        metrics.put_distribution(name, [s * 1e3 for s in samples], tail)
    metrics.put_distribution("restore_ms", [s * 1e3 for s in restore],
                             restore_tail or tail)
