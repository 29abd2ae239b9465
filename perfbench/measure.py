"""Shared measurement helpers: percentiles, the span tracer, and the metric sink.

The tracer wraps public calls into the checkpointing layers (trainer, engine,
handle, loader, tier chain) from the benchmark's side; the program itself is
never edited.  Spans live in memory and are written to one JSON file when a
traced run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples``."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def tail_percentile(count: int, wanted: float) -> float:
    """The percentile to report as a tail for ``count`` samples.

    Each workload fixes the percentile it wants, so that runs of different
    speed compare like with like; when a run has too few samples to leave
    ``TAIL_MIN_BEYOND`` beyond it, the highest percentile that does is used.
    """
    for pct in TAIL_CANDIDATES:
        if pct <= wanted and count * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


class Metrics:
    """Collects the named metrics of one run, plus the tail annotations."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, object]] = {}
        self.tails: Dict[str, Dict[str, object]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = {"value": float(value), "unit": unit}

    def put_distribution(self, name: str, samples_ms: Sequence[float],
                         wanted_tail: float, unit: str = "ms") -> None:
        """Record ``name.p50`` and ``name.tail`` of a list of samples."""
        if not samples_ms:
            raise RuntimeError(f"no samples were recorded for {name}")
        pct = tail_percentile(len(samples_ms), wanted_tail)
        self.put(f"{name}.p50", percentile(samples_ms, 50.0), unit)
        self.put(f"{name}.tail", percentile(samples_ms, pct), unit)
        self.tails[f"{name}.tail"] = {"percentile": f"p{pct:g}",
                                      "samples": len(samples_ms)}

    def select(self, names: Sequence[str]) -> Dict[str, Dict[str, object]]:
        missing = [name for name in names if name not in self.values]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {name: self.values[name] for name in names}


class Tracer:
    """In-memory spans around calls into the program's layers.

    A span records its name, start, end, the span that caused it (the span
    open on the same thread when it started) and the request it belongs to
    (the checkpoint tag, when known).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List = []
        self._origin = time.perf_counter()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span_id: int, parent: Optional[int], request: Optional[str],
                name: str, start: float, end: float) -> None:
        with self._lock:
            self.spans.append({"id": span_id, "parent": parent, "request": request,
                               "name": name,
                               "start_ms": (start - self._origin) * 1e3,
                               "end_ms": (end - self._origin) * 1e3})

    def record(self, name: str, start: float, end: float,
               request: Optional[str] = None) -> None:
        """Store one finished span (``start``/``end`` from ``perf_counter``)."""
        self._append(next(self._ids), None, request, name, start, end)

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(span_id, parent, request, name, start, end)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a spanned version until :meth:`unwrap`.

        ``owner`` is an instance (the wrapper shadows the class method) or a
        module (the wrapper replaces the module global the program calls).
        """
        original = getattr(owner, attr)
        had_own = attr in getattr(owner, "__dict__", {})

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, original, had_own))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def durations_ms(self, name: str) -> List[float]:
        with self._lock:
            return [span["end_ms"] - span["start_ms"]
                    for span in self.spans if span["name"] == name]

    def median_ms(self, name: str) -> float:
        samples = self.durations_ms(name)
        if not samples:
            raise RuntimeError(f"no {name!r} spans were recorded")
        return percentile(samples, 50.0)

    def dump(self, path: Path) -> None:
        with self._lock:
            spans = list(self.spans)
        path.write_text(json.dumps({"spans": spans}))


class NullTracer:
    """Tracing off: wrapping and spans cost nothing."""

    enabled = False

    def record(self, *args, **kwargs) -> None:
        return None

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        yield

    def wrap(self, owner, attr: str, name: str) -> None:
        return None

    def unwrap(self) -> None:
        return None


class Window:
    """The timed measurement window of one run."""

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self.start = time.perf_counter()

    def open(self) -> bool:
        """True while the window has time left."""
        return time.perf_counter() - self.start < self.seconds

    def close(self) -> float:
        """Close the window; returns its length in seconds."""
        return time.perf_counter() - self.start


def bit_equal(left, right) -> bool:
    """True when two arrays hold the same bytes (NaN- and -0.0-exact)."""
    left = np.ascontiguousarray(left)
    right = np.ascontiguousarray(right)
    if left.dtype != right.dtype or left.shape != right.shape:
        return False
    # Compare 8 bytes at a time where the size allows: same answer, fewer
    # elements in the temporary the comparison allocates.
    word = np.uint64 if left.nbytes % 8 == 0 else np.uint8
    return bool(np.array_equal(left.reshape(-1).view(np.uint8).view(word),
                               right.reshape(-1).view(np.uint8).view(word)))


def states_bit_equal(left, right) -> bool:
    """Recursively compare two nested states; tensors compared bit for bit."""
    if isinstance(left, dict):
        return (isinstance(right, dict) and left.keys() == right.keys()
                and all(states_bit_equal(left[key], right[key]) for key in left))
    if isinstance(left, (list, tuple)):
        return (isinstance(right, (list, tuple)) and len(left) == len(right)
                and all(states_bit_equal(a, b) for a, b in zip(left, right)))
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)
                and bit_equal(left, right))
    return type(left) is type(right) and left == right
