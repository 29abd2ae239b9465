"""Shard deserialization (restart path).

:func:`deserialize_state` accepts any bytes-like buffer — a ``bytes`` object
read the classic way, a ``memoryview``, or an ``mmap.mmap`` of the shard file
— and, with ``copy=False``, rebuilds every array as a zero-copy
``np.frombuffer`` view into that buffer.  The views keep the underlying
buffer alive, so an mmap-backed load never materialises a second full copy of
the shard in heap memory; pages stream in from the page cache on first
touch.  With ``copy=True`` (the default) each array is materialised into
fresh writable memory straight from that buffer, never through a heap copy
of the whole file.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left
from itertools import accumulate
from typing import Any, List, Sequence

import numpy as np

from ..exceptions import SerializationError
from ..tensor import unflatten_state_dict
from .header import decode_preamble
from .sections import extra_threads, map_sections, section_count


def _materialize(views: List[np.ndarray]) -> List[np.ndarray]:
    """Writable copies of ``views``, in order.

    The copies land in fresh memory, so page faults rather than memcpy
    dominate them; large sets are split into contiguous runs of about equal
    bytes, copied from one thread per usable core (numpy releases the GIL
    for large copies), by the same section rule as the CRC32 pass
    (:mod:`repro.serialization.sections`).
    """
    ends = list(accumulate(view.nbytes for view in views))
    total = ends[-1] if ends else 0
    with extra_threads(min(section_count(total), len(views)) - 1) as extra:
        if not extra:
            return [view.copy() for view in views]
        threads = extra + 1
        cuts = [0] + [bisect_left(ends, total * k / threads) + 1
                      for k in range(1, threads)] + [len(views)]
        runs = [views[start:stop] for start, stop in zip(cuts, cuts[1:])]
        copied = map_sections(lambda run: [view.copy() for view in run], runs)
    return [array for run in copied for array in run]


def deserialize_state(raw, copy: bool = True) -> Any:
    """Rebuild the original nested state dict from shard-file bytes.

    ``copy=False`` returns read-only array views backed by ``raw`` (opt-in
    zero-copy restore); the caller must keep the buffer open for as long as
    the arrays live.  ``copy=True`` returns independent writable arrays.
    """
    header, skeleton_bytes, payload_start = decode_preamble(raw)
    expected_end = payload_start + header.payload_bytes
    if len(raw) < expected_end:
        raise SerializationError(
            f"shard file truncated: expected {expected_end} bytes, got {len(raw)}"
        )
    try:
        skeleton = pickle.loads(skeleton_bytes)
    except Exception as exc:
        raise SerializationError(f"cannot unpickle shard skeleton: {exc}") from exc

    arrays: List[np.ndarray] = []
    for entry in header.entries:
        start = payload_start + entry.offset
        if start + entry.nbytes > expected_end:
            raise SerializationError(f"payload for {entry.key!r} is truncated")
        dtype = np.dtype(entry.dtype)
        count = entry.nbytes // dtype.itemsize
        arrays.append(np.frombuffer(raw, dtype=dtype, count=count,
                                    offset=start).reshape(entry.shape))
    return unflatten_state_dict(skeleton, _materialize(arrays) if copy else arrays)


def deserialize_rank_state(raws: Sequence[Any], copy: bool = True) -> Any:
    """Rebuild one rank's state from its (possibly multi-file) shard-set.

    ``raws`` holds the bytes-like buffers of every shard file of the set, in
    any order.  Multi-shard headers carry each tensor's global index, which is
    used to map payloads back onto the skeleton's placeholders; every part
    carries the full skeleton, so reassembly does not depend on which buffer
    is read first.  A single v1 buffer (no ``index`` fields) is delegated to
    :func:`deserialize_state` unchanged.
    """
    if not raws:
        raise SerializationError("cannot reassemble a rank from zero shard buffers")
    if len(raws) == 1:
        return deserialize_state(raws[0], copy=copy)

    skeleton: Any = None
    have_skeleton = False
    arrays_by_index: dict = {}
    for raw in raws:
        header, skeleton_bytes, payload_start = decode_preamble(raw)
        expected_end = payload_start + header.payload_bytes
        if len(raw) < expected_end:
            raise SerializationError(
                f"shard file truncated: expected {expected_end} bytes, got {len(raw)}"
            )
        if not have_skeleton:
            try:
                skeleton = pickle.loads(skeleton_bytes)
            except Exception as exc:
                raise SerializationError(f"cannot unpickle shard skeleton: {exc}") from exc
            have_skeleton = True
        for position, entry in enumerate(header.entries):
            global_index = entry.index if entry.index is not None else position
            if global_index in arrays_by_index:
                raise SerializationError(
                    f"tensor #{global_index} ({entry.key!r}) appears in more "
                    f"than one shard of the set"
                )
            start = payload_start + entry.offset
            if start + entry.nbytes > expected_end:
                raise SerializationError(f"payload for {entry.key!r} is truncated")
            dtype = np.dtype(entry.dtype)
            count = entry.nbytes // dtype.itemsize
            arrays_by_index[global_index] = np.frombuffer(
                raw, dtype=dtype, count=count, offset=start).reshape(entry.shape)

    total = (max(arrays_by_index) + 1) if arrays_by_index else 0
    missing = [i for i in range(total) if i not in arrays_by_index]
    if missing:
        raise SerializationError(
            f"shard-set is missing tensors {missing[:4]} of {total}"
        )
    arrays = [arrays_by_index[i] for i in range(total)]
    return unflatten_state_dict(skeleton, _materialize(arrays) if copy else arrays)


def peek_tensor_keys(raw) -> List[str]:
    """List the tensor keys stored in a shard without materialising payloads."""
    header, _skeleton, _payload_start = decode_preamble(raw)
    return [entry.key for entry in header.entries]
