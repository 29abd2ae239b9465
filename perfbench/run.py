"""Checkpointing benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-every-iter --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the public
calls into each layer with timers and reports the per-layer metrics instead.
``--workload all`` runs every workload in this one process, one after the
other.  Each workload prints two lines: a detail line (host block, tail
percentiles, correctness checks, workload-specific detail), then its result
as one JSON object, so the last line of standard output is the result of
the (last) workload.

Load shape: one process, one load-generating thread, BLAS pinned to one
thread (the trainer uses one core, the engine's capture/flush/drain threads
the other), default ``CheckpointPolicy`` apart from ``host_buffer_size``,
``FileStore`` with fsync off (its default).  All data lives under
``.perfbench/`` in the checkout, removed at start and at exit.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy is first imported (by this process or the program).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
WORKLOADS = ("train-every-iter", "save-restore-256m", "tier-chain-sustained")


def _load_program():
    """Import the checkpointing library from the checkout's ``src``."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent.parent != source.resolve():
        raise ImportError(f"repro was imported from {repro.__file__}, not {source}")


def _workload_module(name: str):
    if name == "train-every-iter":
        import train_every_iter as module
    elif name == "save-restore-256m":
        import save_restore as module
    else:
        import tier_chain as module
    return module


def _run_one(name: str, seed: int, seconds: float, trace: bool, host) -> dict:
    from common import END_TO_END_METRICS, LAYER_METRICS, RunContext, fresh_dir
    from measure import NullTracer, Tracer

    tracer = Tracer() if trace else NullTracer()
    workdir = fresh_dir(STATE_DIR / "work")
    try:
        outcome = _workload_module(name).run(RunContext(
            seed=seed, seconds=seconds, tracer=tracer, workdir=workdir, host=host))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = outcome.metrics
    metrics.put("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    wanted = LAYER_METRICS if trace else END_TO_END_METRICS
    end_to_end = {metric: metrics.values[metric]["value"]
                  for metric, _ in END_TO_END_METRICS if metric in metrics.values}
    if trace:
        tracer.dump(STATE_DIR / f"trace-{name}.json")
    print(json.dumps({
        "workload": name, "seed": seed, "trace": trace, "host": host,
        "tails": metrics.tails, "checks": outcome.checks,
        "end_to_end": end_to_end, "detail": outcome.detail,
    }), flush=True)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics.select([metric for metric, _ in wanted]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the checkpointing library from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    from hostprobe import host_block

    shutil.rmtree(STATE_DIR / "work", ignore_errors=True)  # a killed run's leftovers
    STATE_DIR.mkdir(exist_ok=True)
    correct = True
    try:
        # FileStore's default: fsync off.
        host = host_block(STATE_DIR, fsync=False)
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            result = _run_one(name, args.seed, args.seconds, bool(args.trace), host)
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    finally:
        shutil.rmtree(STATE_DIR / "work", ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
