"""Tests for the per-core section rule and the sectioned CRC32 pass.

``checksum_stream`` must stay bit-identical to ``zlib.crc32`` however a
buffer is cut into sections, cover every byte (a flip anywhere, including
the last section, fails a restore), and run the plain serial loop on a
one-core process.  The section size is patched small so multi-section
buffers stay cheap.
"""

import mmap
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine
from repro.exceptions import ConsistencyError
from repro.io import FileStore, ObjectStore
from repro.restart import CheckpointLoader, RestoreSpec
from repro.serialization import checksum, checksum_stream, decode_preamble, sections

#: Patched section size: a 4-core process cuts a few hundred bytes in four.
SECTION = 64
CORES = 4


@pytest.fixture
def small_sections(monkeypatch):
    monkeypatch.setattr(sections, "SECTION_BYTES", SECTION)
    monkeypatch.setattr(sections, "usable_cores", lambda: CORES)


def _crc(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _blob(nbytes: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size=nbytes, dtype=np.uint8).tobytes()


# ---------------------------------------------------------------------------
# The section rule
# ---------------------------------------------------------------------------

def test_usable_cores_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(sections.os, "sched_getaffinity", lambda _pid: {0, 3},
                        raising=False)
    monkeypatch.setattr(sections.os, "cpu_count", lambda: 64)
    assert sections.usable_cores() == 2
    monkeypatch.delattr(sections.os, "sched_getaffinity", raising=False)
    assert sections.usable_cores() == 64


def test_section_count_is_bounded_by_size_and_cores(small_sections):
    assert sections.section_count(0) == 1
    assert sections.section_count(SECTION - 1) == 1
    assert sections.section_count(2 * SECTION) == 2
    assert sections.section_count(100 * SECTION) == CORES


def test_extra_threads_share_one_process_wide_budget(small_sections):
    with sections.extra_threads(10) as first:
        assert first == CORES - 1
        with sections.extra_threads(10) as nested:
            assert nested == 0  # the budget is spent: the caller runs alone
    with sections.extra_threads(1) as again:
        assert again == 1  # returned on exit


# ---------------------------------------------------------------------------
# checksum_stream == zlib.crc32
# ---------------------------------------------------------------------------

def _cut_sizes():
    sizes = {0, 1}
    for sections_wanted in range(1, CORES + 2):
        for delta in (-1, 0, 1):
            sizes.add(max(0, sections_wanted * SECTION + delta))
    return sorted(sizes)


@pytest.mark.parametrize("nbytes", _cut_sizes())
def test_checksum_matches_zlib_around_every_section_cut(small_sections, nbytes):
    data = _blob(nbytes, seed=nbytes)
    assert checksum_stream(data, chunk_size=7) == _crc(data)
    # Every byte around every cut is covered: flipping it changes the CRC
    # exactly as it changes zlib's.
    count = sections.section_count(nbytes)
    cuts = {nbytes * k // count for k in range(count + 1)}
    for cut in cuts:
        for at in (cut - 1, cut, cut + 1):
            if 0 <= at < nbytes:
                damaged = bytearray(data)
                damaged[at] ^= 0x01
                assert checksum_stream(bytes(damaged)) == _crc(damaged)
                assert _crc(damaged) != _crc(data)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=6 * SECTION),
       chunk_size=st.integers(min_value=1, max_value=3 * SECTION))
def test_property_checksum_equals_zlib(small_sections, data, chunk_size):
    assert checksum_stream(data, chunk_size=chunk_size) == _crc(data)


@pytest.mark.parametrize("kind", ["bytes", "memoryview", "mmap", "float64"])
def test_checksum_accepts_every_buffer_kind(small_sections, kind):
    array = np.random.default_rng(3).normal(size=97)  # 776 bytes, 4 sections
    raw = array.tobytes()
    if kind == "bytes":
        buffer = raw
    elif kind == "memoryview":
        buffer = memoryview(raw)
    elif kind == "mmap":
        buffer = mmap.mmap(-1, len(raw))
        buffer.write(raw)
    else:
        # len(memoryview(array)) counts 97 elements, not 776 bytes.
        buffer = array
    assert checksum_stream(buffer) == _crc(raw)
    assert checksum_stream(memoryview(array).cast("B")[SECTION:]) == _crc(raw[SECTION:])
    if kind == "mmap":
        buffer.close()  # raises if the checksum left a view of it exported


def test_one_usable_core_runs_the_serial_loop(monkeypatch):
    monkeypatch.setattr(sections, "SECTION_BYTES", SECTION)
    monkeypatch.setattr(sections, "usable_cores", lambda: 1)

    def no_threads(*_args, **_kwargs):
        raise AssertionError("a one-core process must not start section threads")

    monkeypatch.setattr(checksum, "map_sections", no_threads)
    data = _blob(50 * SECTION)
    assert checksum_stream(data) == _crc(data)


def test_sections_run_on_separate_threads(small_sections, monkeypatch):
    """All CORES sections run at once (the barrier would time out if any
    two shared a thread)."""
    barrier = threading.Barrier(CORES, timeout=30.0)
    real = checksum._crc32_chunked

    def meeting(view, chunk_size):
        barrier.wait()
        return real(view, chunk_size)

    monkeypatch.setattr(checksum, "_crc32_chunked", meeting)
    data = _blob(100 * SECTION)
    assert checksum_stream(data) == _crc(data)


def test_concurrent_passes_never_overdraw_the_core_budget(small_sections,
                                                         monkeypatch):
    """Many threads checksumming at once (more than the cores) all get the
    right CRC, never hold more than ``cores - 1`` extra threads between
    them, and hand the whole budget back."""
    claimed = []
    real = checksum._crc32_chunked

    def sampling(view, chunk_size):
        claimed.append(sections._claimed)
        return real(view, chunk_size)

    monkeypatch.setattr(checksum, "_crc32_chunked", sampling)
    blobs = [_blob(n * SECTION + n, seed=n) for n in range(1, 9)]
    failures = []

    def worker(data):
        for _ in range(20):
            if checksum_stream(data) != _crc(data):
                failures.append(len(data))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(blob,)) for blob in blobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert max(claimed) <= CORES - 1
    assert sections._claimed == 0


# ---------------------------------------------------------------------------
# A flipped byte in the last section fails every restore path
# ---------------------------------------------------------------------------

def _state():
    rng = np.random.default_rng(11)
    return {"model": {f"w{i}": rng.normal(size=512) for i in range(6)},
            "step": 4}


@pytest.mark.parametrize("backend", ["file", "object"])
def test_flip_in_last_section_fails_restore_and_validate(small_sections,
                                                         tmp_path, backend):
    store = FileStore(tmp_path) if backend == "file" else ObjectStore()
    with DataStatesCheckpointEngine(
            store, policy=CheckpointPolicy(host_buffer_size=8 << 20)) as engine:
        engine.save(_state(), tag="ckpt", iteration=0)
        engine.wait_all()
    loader = CheckpointLoader(store)
    record = loader.manifest("ckpt").shards[0]
    raw = bytearray(store.read_shard("ckpt", record.name))
    assert sections.section_count(len(raw)) == CORES
    at = len(raw) - 5  # inside the last of the CORES sections
    raw[at] ^= 0xFF
    if backend == "file":
        store.shard_path("ckpt", record.name).write_bytes(bytes(raw))
    else:
        store.write_shard("ckpt", record.name, [bytes(raw)])

    with pytest.raises(ConsistencyError):
        loader.restore(RestoreSpec.full(tag="ckpt"))
    with pytest.raises(ConsistencyError):
        loader.validate("ckpt")
    header, _skeleton, payload_start = decode_preamble(bytes(raw))
    damaged_key = next(entry.key for entry in header.entries
                       if payload_start + entry.offset <= at
                       < payload_start + entry.offset + entry.nbytes)
    with pytest.raises(ConsistencyError, match=damaged_key):
        loader.verify_tensor_checksums("ckpt", record)
