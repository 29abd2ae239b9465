#!/usr/bin/env python
"""Compare the four real-mode checkpoint engines on actual NumPy training.

The real-mode counterpart of ``examples/engine_comparison.py`` (which drives
the discrete-event simulator): the same tiny NumPy transformer is trained
under each engine selected from the registry —

* ``deepspeed``     — synchronous ``torch.save``-style baseline; save()
                      blocks until the checkpoint is committed;
* ``async``         — CheckFreq-like: blocking snapshot into a freshly
                      allocated buffer, background flush;
* ``torchsnapshot`` — chunked serialization with parallel writers, blocking
                      until the flush completes;
* ``datastates``    — lazy asynchronous capture + parallel pwrite flush + async
                      two-phase commit (the paper's contribution)

— and the training-visible checkpoint stall is printed per engine.  The
ordering mirrors Figure 8: DataStates blocks the training loop least.

Run with:  python examples/real_engine_comparison.py [iterations]
"""

from __future__ import annotations

import sys
import tempfile

from repro.analysis import compare_real_engines, comparison_table_rows, format_table


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    workdir = tempfile.mkdtemp(prefix="real-engine-comparison-")
    print(f"training {iterations} iterations per engine (checkpoint every "
          f"iteration), checkpoints -> {workdir}")

    rows = compare_real_engines(workdir, iterations=iterations,
                                checkpoint_interval=1)
    print()
    print(format_table(
        comparison_table_rows(rows),
        title="Real-mode engines — training-visible checkpoint stall"))

    by_engine = {row["engine"]: float(row["blocked_ms_per_iteration"]) for row in rows}
    best = min(by_engine, key=by_engine.get)
    print(f"\nlowest blocked time per iteration: {best} "
          f"({by_engine[best]:.2f} ms/iter)")
    for name, blocked in sorted(by_engine.items(), key=lambda item: item[1]):
        if name != best:
            print(f"  {name}: {blocked / max(by_engine[best], 1e-9):.1f}x the "
                  f"stall of {best}")


if __name__ == "__main__":
    main()
