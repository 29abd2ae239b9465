"""Host block: what machine a result came from, and its raw data-movement floors.

In the spirit of DeepSpeed's ``ds_report``: every result is stamped with the
core count, CPU model, BLAS thread setting, the filesystem the benchmark
writes to (and whether it is tmpfs), the fsync setting, and three measured
floors — memcpy, crc32 and buffered file write, each in ms per GiB.  The
per-phase ``floor_frac`` metrics divide these floors by the measured phase
times, so a phase at 1.0 runs at the speed of the raw operation beneath it.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
import zlib
from pathlib import Path
from typing import Dict

import numpy as np

#: Bytes moved by one floor probe repetition, and how many repetitions.
PROBE_BYTES = 64 * 1024 * 1024
PROBE_REPEATS = 5

GIB = float(1 << 30)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (longest mount prefix)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount_point = fields[4]
                fs = fields[fields.index("-") + 1]
                inside = (target == mount_point
                          or target.startswith(mount_point.rstrip("/") + "/"))
                if inside and len(mount_point) >= len(best):
                    best, fstype = mount_point, fs
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def _median_ms_per_gib(samples_s) -> float:
    return statistics.median(samples_s) * 1e3 * GIB / PROBE_BYTES


def measure_floors(directory: Path) -> Dict[str, float]:
    """memcpy, crc32 and buffered-write floors in ms per GiB (medians)."""
    source = np.random.default_rng(0).integers(0, 256, PROBE_BYTES, dtype=np.uint8)
    target = np.empty_like(source)
    np.copyto(target, source)  # fault the target pages in before timing
    memcpy, crc, write = [], [], []
    path = directory / "floor-probe.bin"
    try:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            np.copyto(target, source)
            memcpy.append(time.perf_counter() - start)

            start = time.perf_counter()
            zlib.crc32(source)
            crc.append(time.perf_counter() - start)

            start = time.perf_counter()
            with open(path, "wb") as handle:
                handle.write(memoryview(source))
            write.append(time.perf_counter() - start)
            path.unlink()
    finally:
        path.unlink(missing_ok=True)
    return {
        "memcpy_ms_per_gib": _median_ms_per_gib(memcpy),
        "crc32_ms_per_gib": _median_ms_per_gib(crc),
        "write_ms_per_gib": _median_ms_per_gib(write),
    }


def host_block(directory: Path, fsync: bool) -> Dict[str, object]:
    """Everything a reader needs to place a result on a machine."""
    fstype = filesystem_of(directory)
    block: Dict[str, object] = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "bench_filesystem": fstype,
        "bench_on_tmpfs": fstype == "tmpfs",
        "fsync": fsync,
    }
    block.update(measure_floors(directory))
    return block
