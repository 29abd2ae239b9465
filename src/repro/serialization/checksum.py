"""CRC32 utilities for out-of-order shard writes and per-core restores.

The parallel flush fast path writes a shard's tensors out of order with
``os.pwrite``, so the whole-file CRC32 can no longer be accumulated by
streaming the file front to back.  Instead each writer computes the CRC32 of
its own tensor payload (on the staged view, before the bytes leave host
memory) and the per-section checksums are folded together with
:func:`crc32_combine` — the same GF(2) matrix trick ``zlib`` uses internally
but does not expose to Python.  The folded result is bit-identical to
``zlib.crc32`` over the final file.

The restore path uses the same fold the other way round.
:func:`checksum_stream` splits a large buffer into contiguous per-core
sections (:mod:`repro.serialization.sections`), checksums each on its own
thread (``zlib.crc32`` and the page faults of a cold memory map both run
without the GIL) and folds the section CRCs in file order.  On a 2-vCPU VM
this about halves the validation of a 256 MiB mapped shard (120-142 ms to
65-72 ms), which had been about two thirds of its restore time.  The copy
out of the buffer stays a separate per-core pass: a fused copy-and-checksum
pass over 1-4 MiB blocks was measured no faster than the two passes back
to back.
"""

from __future__ import annotations

import threading
import zlib
from typing import Iterable, Tuple

from .sections import extra_threads, map_sections, section_count

#: Reflected CRC-32 polynomial (the one zlib / PNG / gzip use).
_CRC32_POLY = 0xEDB88320


def _gf2_matrix_times(matrix: Tuple[int, ...], vector: int) -> int:
    """Multiply a GF(2) 32x32 matrix (tuple of column-wise rows) by a vector."""
    total = 0
    index = 0
    while vector:
        if vector & 1:
            total ^= matrix[index]
        vector >>= 1
        index += 1
    return total


def _gf2_matrix_square(matrix: Tuple[int, ...]) -> Tuple[int, ...]:
    """Square a GF(2) matrix: the operator for twice as many zero bytes."""
    return tuple(_gf2_matrix_times(matrix, row) for row in matrix)


def _zero_operator() -> Tuple[int, ...]:
    """The GF(2) operator that advances a CRC over one zero *byte*."""
    # Operator for one zero bit...
    rows = [_CRC32_POLY]
    row = 1
    for _ in range(31):
        rows.append(row)
        row <<= 1
    odd = tuple(rows)
    # ... squared three times: 1 bit -> 2 bits -> 4 bits -> 8 bits = 1 byte.
    for _ in range(3):
        odd = _gf2_matrix_square(odd)
    return odd


#: ``_ZERO_OPERATORS[k]`` advances a CRC over ``2**k`` zero bytes.  Computed
#: lazily and cached so every ``crc32_combine`` call is a few dozen 32-entry
#: matrix-vector products instead of fresh O(32^2) matrix squarings — the
#: fold of a many-tensor shard stays negligible next to the writes themselves.
_ZERO_OPERATORS = [_zero_operator()]
_ZERO_OPERATORS_LOCK = threading.Lock()


def _zero_operator_for_bit(bit: int) -> Tuple[int, ...]:
    if bit < len(_ZERO_OPERATORS):  # fast path: cache never shrinks
        return _ZERO_OPERATORS[bit]
    with _ZERO_OPERATORS_LOCK:
        while len(_ZERO_OPERATORS) <= bit:
            _ZERO_OPERATORS.append(_gf2_matrix_square(_ZERO_OPERATORS[-1]))
        return _ZERO_OPERATORS[bit]


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """Combine two CRC32s: ``crc32(a + b) == crc32_combine(crc32(a), crc32(b), len(b))``.

    Equivalent to zlib's (unexposed) ``crc32_combine``: ``crc1`` is advanced
    over ``len2`` virtual zero bytes using cached power-of-two zero-byte
    operators, then xor-ed with ``crc2``.  Runs in O(log len2).
    """
    if len2 < 0:
        raise ValueError("len2 must be >= 0")
    if len2 == 0:
        return crc1 & 0xFFFFFFFF
    crc1 &= 0xFFFFFFFF
    crc2 &= 0xFFFFFFFF
    bit = 0
    while len2:
        if len2 & 1:
            crc1 = _gf2_matrix_times(_zero_operator_for_bit(bit), crc1)
        len2 >>= 1
        bit += 1
    return (crc1 ^ crc2) & 0xFFFFFFFF


def fold_section_checksums(sections: Iterable[Tuple[int, int]], initial: int = 0) -> int:
    """Fold ``(crc, nbytes)`` sections (in file order) into one whole-file CRC32."""
    crc = initial & 0xFFFFFFFF
    for section_crc, nbytes in sections:
        crc = crc32_combine(crc, section_crc, nbytes)
    return crc


def _crc32_chunked(view: memoryview, chunk_size: int) -> int:
    crc = 0
    for start in range(0, len(view), chunk_size):
        crc = zlib.crc32(view[start : start + chunk_size], crc)
    return crc & 0xFFFFFFFF


def checksum_stream(buffer, chunk_size: int = 8 * 1024 * 1024) -> int:
    """CRC32 of any buffer (bytes, memoryview, mmap, ndarray), zero-copy.

    Bit-identical to ``zlib.crc32`` over the buffer's bytes.  A buffer large
    enough for several sections (see :mod:`repro.serialization.sections`) is
    checksummed as contiguous per-core sections folded in order with
    :func:`crc32_combine`; otherwise — one usable core, a small buffer, or
    no spare core left in the process — it is one serial pass.  Either way
    each ``zlib.crc32`` call reads ``chunk_size`` bytes straight out of the
    buffer, so an mmap-backed shard is checksummed from the page cache
    without a second heap copy.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    view = memoryview(buffer).cast("B")
    nbytes = len(view)
    with extra_threads(section_count(nbytes) - 1) as extra:
        if not extra:
            return _crc32_chunked(view, chunk_size)
        cuts = [nbytes * k // (extra + 1) for k in range(extra + 2)]
        spans = list(zip(cuts, cuts[1:]))
        crcs = map_sections(
            lambda span: _crc32_chunked(view[span[0] : span[1]], chunk_size),
            spans)
    return fold_section_checksums(
        (crc, stop - start) for crc, (start, stop) in zip(crcs, spans))
