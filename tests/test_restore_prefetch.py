"""Restore-path tests: the prefetching load pipeline, the mmap-handle leak
regression, ``RestoreSpec(validate=False)`` semantics, and retention edge
cases (``keep_latest(0)``)."""

import threading

import numpy as np
import pytest

from repro.config import CheckpointPolicy
from repro.core import TwoPhaseCommitCoordinator, create_real_engine
from repro.exceptions import CheckpointError, ConsistencyError, RestartError
from repro.io import FileStore, ObjectStore
from repro.restart import CheckpointLoader, RestoreSpec


def _state(seed=0, tensors=6, size=2048):
    rng = np.random.default_rng(seed)
    return {
        "model": {f"w{i}": rng.normal(size=size) for i in range(tensors)},
        "iteration": seed,
    }


def _commit(store, state, tag="ckpt", shards_per_rank=4):
    policy = CheckpointPolicy(host_buffer_size=16 << 20,
                              shards_per_rank=shards_per_rank)
    with create_real_engine("deepspeed", store, policy=policy) as engine:
        engine.save(state, tag=tag, iteration=0)
        engine.wait_all()


def _store(tmp_path, native_map):
    """A FileStore (restores from a native memory map) or an ObjectStore
    (restores from a heap buffer of one whole-object GET)."""
    return FileStore(tmp_path) if native_map else ObjectStore()


class _TrackingStore(FileStore):
    """FileStore that tracks every mmap it hands out and can fail the Nth.

    Thread-safe: the prefetch pipeline opens parts from several workers.
    """

    def __init__(self, root, fail_on_open=None):
        super().__init__(root)
        self._track_lock = threading.Lock()
        self.handed_out = []
        self.opens = 0
        self.fail_on_open = fail_on_open

    def open_shard_mmap(self, tag, shard_name):
        with self._track_lock:
            self.opens += 1
            if self.fail_on_open is not None and self.opens >= self.fail_on_open:
                raise CheckpointError(f"injected failure opening {shard_name!r}")
        mapped = super().open_shard_mmap(tag, shard_name)
        with self._track_lock:
            self.handed_out.append(mapped)
        return mapped


# ---------------------------------------------------------------------------
# mmap-handle leak regression (satellite bugfix)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prefetch_depth", [0, 3])
def test_failed_set_open_closes_already_opened_mmaps(tmp_path, prefetch_depth):
    """If opening a later part of a shard-set fails, every already-opened
    mmap must be closed — the seed leaked them from the list comprehension."""
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=1), shards_per_rank=4)

    store.fail_on_open = 3  # parts 1 and 2 open fine, part 3 raises
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    with pytest.raises(CheckpointError, match="injected failure"):
        loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    assert len(store.handed_out) == 2
    assert all(mapped.data.closed for mapped in store.handed_out)


@pytest.mark.parametrize("prefetch_depth", [0, 3])
def test_failed_validation_closes_already_opened_mmaps(tmp_path, prefetch_depth):
    """A CRC failure on one part must not leak the other parts' mappings."""
    store = _TrackingStore(tmp_path)
    _commit(store, _state(seed=2), shards_per_rank=4)

    # Corrupt one part's payload (same size, different bytes -> CRC mismatch).
    victim = sorted(store.checkpoint_dir("ckpt").glob("*.shard"))[2]
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))

    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    with pytest.raises(ConsistencyError, match="checksum"):
        loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    assert all(mapped.data.closed for mapped in store.handed_out)


def test_successful_load_closes_every_mmap(tmp_path):
    store = _TrackingStore(tmp_path)
    state = _state(seed=3)
    _commit(store, state, shards_per_rank=4)
    loader = CheckpointLoader(store, prefetch_depth=2)
    loaded = loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    np.testing.assert_array_equal(loaded["model"]["w0"], state["model"]["w0"])
    assert len(store.handed_out) == 4
    assert all(mapped.data.closed for mapped in store.handed_out)


# ---------------------------------------------------------------------------
# Prefetching pipeline: equivalence across depths, paths, and backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prefetch_depth", [0, 1, 2, 8])
@pytest.mark.parametrize("native_map", [True, False])
def test_prefetch_depths_load_identical_state(tmp_path, prefetch_depth, native_map):
    store = _store(tmp_path, native_map)
    state = _state(seed=4)
    _commit(store, state, shards_per_rank=3)
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    states = loader.restore(RestoreSpec.full(tag="ckpt"))
    for key, array in state["model"].items():
        np.testing.assert_array_equal(states[0]["model"][key], array)
    assert states[0]["iteration"] == 4


@pytest.mark.parametrize("prefetch_depth", [0, 4])
def test_prefetch_on_object_store(prefetch_depth):
    """The object store has no file to map; the prefetch stage overlaps
    whole-object GETs instead, with identical results."""
    store = ObjectStore()
    state = _state(seed=5)
    _commit(store, state, shards_per_rank=3)
    loader = CheckpointLoader(store, prefetch_depth=prefetch_depth)
    before = store.get_count
    loaded = loader.restore(RestoreSpec.of_rank(0, tag="ckpt"))
    np.testing.assert_array_equal(loaded["model"]["w5"], state["model"]["w5"])
    assert store.get_count - before == 1 + 3  # the manifest, then one GET per part


def test_prefetch_overlaps_across_ranks_in_load_all(tmp_path):
    """An all-ranks restore prefetches across the whole shard-set of every
    rank."""
    store = FileStore(tmp_path)
    coordinator = TwoPhaseCommitCoordinator(2, store)
    policy = CheckpointPolicy(host_buffer_size=16 << 20, shards_per_rank=2)
    states = {rank: _state(seed=10 + rank) for rank in (0, 1)}
    engines = [
        create_real_engine("async", store, rank=rank, world_size=2,
                           coordinator=coordinator, policy=policy)
        for rank in (0, 1)
    ]
    try:
        for rank, engine in enumerate(engines):
            engine.save(states[rank], tag="ckpt", iteration=1)
        for engine in engines:
            engine.wait_all()
    finally:
        for engine in engines:
            engine.shutdown()

    loader = CheckpointLoader(store, prefetch_depth=3)
    loaded = loader.restore(RestoreSpec.full(tag="ckpt"))
    assert sorted(loaded) == [0, 1]
    for rank in (0, 1):
        np.testing.assert_array_equal(loaded[rank]["model"]["w1"],
                                      states[rank]["model"]["w1"])


def test_negative_prefetch_depth_rejected(tmp_path):
    with pytest.raises(RestartError):
        CheckpointLoader(FileStore(tmp_path), prefetch_depth=-1)


# ---------------------------------------------------------------------------
# RestoreSpec(validate=False) semantics (satellite bugfix)
# ---------------------------------------------------------------------------

def _corrupt_one_payload_byte(store, tag):
    victim = sorted(record["name"] for record in store.read_manifest(tag)["shards"])[0]
    raw = bytearray(store.read_shard(tag, victim))
    raw[-1] ^= 0xFF  # payload corruption: size unchanged, CRC broken
    store.write_shard(tag, victim, [bytes(raw)])


@pytest.mark.parametrize("native_map", [True, False])
def test_load_all_validate_false_skips_per_shard_checks(tmp_path, native_map):
    """The docstring always promised it; now the flag really skips the
    per-shard size/CRC pass instead of validating anyway."""
    store = _store(tmp_path, native_map)
    _commit(store, _state(seed=6), shards_per_rank=2)
    _corrupt_one_payload_byte(store, "ckpt")

    loader = CheckpointLoader(store)
    with pytest.raises(ConsistencyError):
        loader.restore(RestoreSpec.full(tag="ckpt", validate=True))
    # validate=False trusts the medium: the corrupted payload loads fine.
    states = loader.restore(RestoreSpec.full(tag="ckpt", validate=False))
    assert states[0]["iteration"] == 6


def test_load_all_validate_false_still_checks_manifest_completeness(tmp_path):
    import json

    store = FileStore(tmp_path)
    _commit(store, _state(seed=7), shards_per_rank=2)
    manifest = store.read_manifest("ckpt")
    manifest["world_size"] = 2  # rank 1 never contributed
    store.manifest_path("ckpt").write_text(json.dumps(manifest), "utf-8")

    loader = CheckpointLoader(store)
    with pytest.raises((ConsistencyError, RestartError)):
        loader.restore(RestoreSpec.full(tag="ckpt", validate=False))


# ---------------------------------------------------------------------------
# Retention: keep_latest(0)
# ---------------------------------------------------------------------------

def test_keep_latest_zero_deletes_every_checkpoint(tmp_path):
    """keep_latest(0) is the 'wipe the history' form: every committed
    checkpoint is deleted, and uncommitted (torn) directories are untouched."""
    store = FileStore(tmp_path)
    for index in range(3):
        _commit(store, _state(seed=index), tag=f"ckpt-{index}", shards_per_rank=1)
    store.write_shard("torn", "rank0", [b"half-flushed"])  # no manifest

    loader = CheckpointLoader(store)
    removed = loader.keep_latest(0)
    assert removed == ["ckpt-0", "ckpt-1", "ckpt-2"]
    assert loader.committed_checkpoints() == []
    # keep_latest only governs committed history; the torn dir is prune's job.
    assert store.list_checkpoints() == ["torn"]


# ---------------------------------------------------------------------------
# Auto prefetch depth (prefetch_depth=0)
# ---------------------------------------------------------------------------

def test_choose_prefetch_depth_tracks_fetch_deserialize_ratio():
    from repro.config import DEFAULT_PREFETCH_DEPTH
    from repro.restart import choose_prefetch_depth

    # Fetch-bound (remote store): ~6x slower fetches want a deep pipeline.
    assert choose_prefetch_depth([0.06] * 8, [0.01] * 8) == 7
    # Deserialize-bound (local mmap): the minimum useful depth of 2.
    assert choose_prefetch_depth([0.001] * 8, [0.02] * 8) == 2
    # Balanced: one in flight plus one of slack.
    assert choose_prefetch_depth([0.01] * 8, [0.01] * 8) == 2
    # Extreme ratios clamp at the pipeline cap.
    assert choose_prefetch_depth([1.0] * 8, [0.001] * 8) == 8
    assert choose_prefetch_depth([1.0] * 8, [0.001] * 8, max_depth=5) == 5
    # Too few samples (cold restore) or degenerate timings: the static
    # default — measuring must never make the first restore worse.
    assert choose_prefetch_depth([], []) == DEFAULT_PREFETCH_DEPTH
    assert choose_prefetch_depth([0.01] * 2, [0.01] * 8) == DEFAULT_PREFETCH_DEPTH
    assert choose_prefetch_depth([0.0] * 8, [0.0] * 8) == DEFAULT_PREFETCH_DEPTH


def test_auto_mode_starts_at_default_then_adapts(tmp_path):
    from repro.config import DEFAULT_PREFETCH_DEPTH

    store = FileStore(tmp_path)
    _commit(store, _state(seed=3), shards_per_rank=4)
    loader = CheckpointLoader(store, prefetch_depth=0)
    # Cold: no samples yet, so auto resolves to the static default.
    assert loader.effective_prefetch_depth == DEFAULT_PREFETCH_DEPTH

    restored = loader.restore(RestoreSpec.full(tag="ckpt"))
    want = _state(seed=3)
    for key, value in want["model"].items():
        np.testing.assert_array_equal(restored[0]["model"][key], value)

    # The restore populated both timing windows; auto now resolves from
    # them and stays within the pipeline's [2, cap] band.
    timings = loader.prefetch_timings()
    assert len(timings["fetch_seconds"]) >= 4
    assert len(timings["deserialize_seconds"]) >= 4
    from repro.restart.loader import MAX_AUTO_PREFETCH_DEPTH
    assert 2 <= loader.effective_prefetch_depth <= MAX_AUTO_PREFETCH_DEPTH


def test_auto_mode_timings_shared_across_restore_spec_options(tmp_path):
    """RestoreSpec-driven loader clones (validate=False etc.) keep feeding
    the same timing windows, so the session's measurements accumulate."""
    store = FileStore(tmp_path)
    _commit(store, _state(seed=5), shards_per_rank=3)
    loader = CheckpointLoader(store, prefetch_depth=0)
    loader.restore(RestoreSpec.full(tag="ckpt"))
    first = len(loader.prefetch_timings()["fetch_seconds"])
    assert first > 0
    loader.restore(RestoreSpec.full(tag="ckpt", validate=False))
    assert len(loader.prefetch_timings()["fetch_seconds"]) > first
