"""Tests for the pluggable shard-store layer: the ShardStore base class and
registry, the in-memory ObjectStore backend, and the FileStore durability
fixes (directory fsync after rename, prune-vs-writer race)."""

import stat

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import (
    STORE_NAMES,
    BufferedShardWriter,
    FileStore,
    HeapShard,
    MappedShard,
    ObjectStore,
    ShardStore,
    ShardWriter,
    available_stores,
    canonical_store_name,
    create_store,
    publish_file,
    register_store,
)
from repro.restart import CheckpointLoader


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_create_store_by_name(tmp_path):
    file_store = create_store("file", root=tmp_path / "f")
    object_store = create_store("object", root=tmp_path / "o")
    assert isinstance(file_store, FileStore)
    assert isinstance(object_store, ObjectStore)
    for store in (file_store, object_store):
        assert isinstance(store, ShardStore)
    assert set(STORE_NAMES) <= set(available_stores())


def test_create_store_unknown_name_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        create_store("tape-robot", root=tmp_path)
    with pytest.raises(ConfigurationError):
        canonical_store_name("tape-robot")
    assert canonical_store_name("  FILE ") == "file"


def test_file_store_requires_root():
    with pytest.raises(ConfigurationError):
        create_store("file")


def test_register_custom_store(tmp_path):
    from repro.io import store as store_module

    register_store("custom", lambda root=None, fsync=False: ObjectStore(bucket="custom"))
    try:
        store = create_store("custom")
        assert isinstance(store, ObjectStore)
        assert store.bucket == "custom"
    finally:
        store_module._STORE_REGISTRY.pop("custom", None)
    with pytest.raises(ConfigurationError):
        register_store("", lambda **kwargs: None)
    with pytest.raises(ConfigurationError):
        register_store("bad", "not-a-factory")  # type: ignore[arg-type]


def test_capability_detection(tmp_path):
    """Every backend has the one write path and the one read path; only the
    file store overrides the buffered defaults with native pwrite/mmap."""
    file_store = FileStore(tmp_path)
    object_store = ObjectStore()
    for store in (file_store, object_store):
        store.write_shard("ckpt-1", "rank0", [b"0123456789"])
        assert store.read_shard_range("ckpt-1", "rank0", 2, 3) == b"234"
    with file_store.open_shard_mmap("ckpt-1", "rank0") as mapped:
        assert isinstance(mapped, MappedShard)
    with object_store.open_shard_mmap("ckpt-1", "rank0") as heap:
        assert isinstance(heap, HeapShard) and bytes(heap.data) == b"0123456789"
    assert isinstance(file_store.create_shard_writer("ckpt-1", "w", 4), ShardWriter)
    writer = object_store.create_shard_writer("ckpt-1", "w", 4)
    assert isinstance(writer, BufferedShardWriter)
    writer.abort()


class _MinimalStore(ShardStore):
    """A backend implementing only the abstract primitives."""

    def __init__(self):
        self.shards, self.manifests, self.writes = {}, {}, 0

    def write_shard(self, tag, shard_name, chunks):
        self.writes += 1
        self.shards[(tag, shard_name)] = b"".join(bytes(chunk) for chunk in chunks)

    def write_manifest(self, tag, manifest):
        self.manifests[tag] = manifest

    def read_shard(self, tag, shard_name):
        return self.shards[(tag, shard_name)]

    def read_shard_range(self, tag, shard_name, offset, length):
        return self.read_shard(tag, shard_name)[offset:offset + length]

    def read_manifest(self, tag):
        return self.manifests[tag]

    def shard_size(self, tag, shard_name):
        return len(self.shards[(tag, shard_name)])

    def list_checkpoints(self):
        return sorted({tag for tag, _name in self.shards})

    def list_committed_checkpoints(self):
        return sorted(self.manifests)

    def delete_checkpoint(self, tag):
        self.shards = {key: value for key, value in self.shards.items()
                       if key[0] != tag}
        self.manifests.pop(tag, None)

    def total_bytes(self, tag):
        return sum(len(value) for key, value in self.shards.items() if key[0] == tag)


def test_base_class_defaults_run_over_the_primitives():
    """The inherited writer publishes with exactly one write_shard at commit,
    and the inherited restore buffer is one read_shard on the heap."""
    store = _MinimalStore()
    with store.create_shard_writer("ckpt-1", "rank0", 8) as writer:
        writer.pwrite(4, b"wxyz")
        writer.pwrite(0, b"abcd")
        assert store.writes == 0  # nothing visible before commit
        writer.commit()
    assert store.writes == 1 and store.read_shard("ckpt-1", "rank0") == b"abcdwxyz"
    with store.open_shard_mmap("ckpt-1", "rank0") as buffer:
        assert isinstance(buffer, HeapShard) and len(buffer) == 8
        assert bytes(buffer.data) == b"abcdwxyz"
    assert buffer.data == b""
    with pytest.raises(TypeError):
        ShardStore()  # the primitives are abstract


# ---------------------------------------------------------------------------
# ObjectStore semantics (mirrors the FileStore suite where behaviour is shared)
# ---------------------------------------------------------------------------

def test_object_store_write_and_read_shard():
    store = ObjectStore()
    receipt = store.write_shard("ckpt-1", "rank0", [b"hello ", b"world"])
    assert receipt.nbytes == 11
    assert store.read_shard("ckpt-1", "rank0") == b"hello world"
    assert store.shard_size("ckpt-1", "rank0") == 11
    assert store.keys() == ["ckpt-1/rank0.shard"]


def test_object_store_missing_objects_raise():
    store = ObjectStore()
    with pytest.raises(CheckpointError):
        store.read_shard("nope", "rank0")
    store.write_shard("ckpt-1", "rank0", [b"x"])
    with pytest.raises(CheckpointError):
        store.read_manifest("ckpt-1")


def test_object_store_manifest_roundtrip_and_commit_ordering():
    """A checkpoint is committed iff its manifest key exists — the shard keys
    alone (manifest-last ordering) leave it uncommitted/prunable."""
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"x" * 10])
    assert store.list_checkpoints() == ["ckpt-1"]
    assert store.list_committed_checkpoints() == []
    store.write_manifest("ckpt-1", {"tag": "ckpt-1", "shards": []})
    assert store.list_committed_checkpoints() == ["ckpt-1"]
    assert store.read_manifest("ckpt-1") == {"tag": "ckpt-1", "shards": []}


def test_object_store_atomicity_no_partial_object_on_failure():
    store = ObjectStore()

    def failing_chunks():
        yield b"partial"
        raise RuntimeError("simulated crash mid-write")

    with pytest.raises(RuntimeError):
        store.write_shard("ckpt-1", "rank0", failing_chunks())
    assert store.keys() == []


def test_object_store_delete_and_total_bytes():
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"x" * 10])
    store.write_shard("ckpt-1", "rank1", [b"y" * 20])
    store.write_manifest("ckpt-1", {"tag": "ckpt-1"})
    assert store.total_bytes("ckpt-1") == 30  # manifest bytes excluded
    store.delete_checkpoint("ckpt-1")
    assert store.list_checkpoints() == []
    store.delete_checkpoint("ckpt-1")  # no-op when absent


def test_object_store_overwrite_replaces_content():
    store = ObjectStore()
    store.write_shard("ckpt-1", "rank0", [b"old"])
    store.write_shard("ckpt-1", "rank0", [b"new-content"])
    assert store.read_shard("ckpt-1", "rank0") == b"new-content"


def test_object_shard_writer_pwrite_commit_abort():
    store = ObjectStore()
    writer = store.create_shard_writer("ckpt-1", "rank0", 8)
    writer.pwrite(4, b"wxyz")
    writer.pwrite(0, b"abcd")
    receipt = writer.commit()
    assert receipt.nbytes == 8
    assert store.read_shard("ckpt-1", "rank0") == b"abcdwxyz"
    with pytest.raises(CheckpointError):
        writer.pwrite(0, b"late")
    with pytest.raises(CheckpointError):
        writer.commit()

    aborted = store.create_shard_writer("ckpt-1", "gone", 4)
    aborted.pwrite(0, b"data")
    aborted.abort()
    aborted.abort()  # idempotent
    assert "ckpt-1/gone.shard" not in store.keys()


def test_object_shard_writer_bounds_checked():
    store = ObjectStore()
    writer = store.create_shard_writer("ckpt-1", "rank0", 4)
    with pytest.raises(CheckpointError):
        writer.pwrite(2, b"toolong")
    with pytest.raises(CheckpointError):
        writer.pwrite(-1, b"x")
    writer.abort()
    with pytest.raises(CheckpointError):
        store.create_shard_writer("ckpt-1", "rank0", 0)


# ---------------------------------------------------------------------------
# publish_file — the one shared rename-then-fsync-parent publish helper
# ---------------------------------------------------------------------------

def test_publish_file_renames_and_optionally_fsyncs(tmp_path, monkeypatch):
    """The helper behind every publish path: atomic rename, optional parent
    fsync, and an error that tells a failed rename apart from a failed
    directory sync (the entry is already visible in the latter case)."""
    import os

    source = tmp_path / ".staged"
    target = tmp_path / "final"
    source.write_bytes(b"payload")
    recorder = _FsyncRecorder(monkeypatch)
    publish_file(source, target, tmp_path, fsync=False)
    assert target.read_bytes() == b"payload" and not source.exists()
    assert recorder.directory_fsyncs == 0

    source.write_bytes(b"payload-2")
    publish_file(source, target, tmp_path, fsync=True)
    assert target.read_bytes() == b"payload-2"
    assert recorder.directory_fsyncs == 1

    # A missing source fails the rename itself: no .published marker.
    with pytest.raises(OSError) as excinfo:
        publish_file(tmp_path / "missing", target, tmp_path, fsync=True)
    assert not getattr(excinfo.value, "published", False)

    # A directory-fsync failure happens after the rename: marked .published.
    source.write_bytes(b"payload-3")
    real_fsync = os.fsync

    def failing_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError("simulated directory fsync failure")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError) as excinfo:
        publish_file(source, target, tmp_path, fsync=True)
    assert excinfo.value.published is True
    assert target.read_bytes() == b"payload-3"  # the rename did happen


# ---------------------------------------------------------------------------
# Directory fsync after rename (durability of the publish itself)
# ---------------------------------------------------------------------------

class _FsyncRecorder:
    """Record which kinds of fds os.fsync is called on."""

    def __init__(self, monkeypatch):
        import os

        self.directory_fsyncs = 0
        self.file_fsyncs = 0
        real_fsync = os.fsync

        def recording_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                self.directory_fsyncs += 1
            else:
                self.file_fsyncs += 1
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)


def test_write_shard_fsyncs_directory_after_rename(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=True)
    recorder = _FsyncRecorder(monkeypatch)
    store.write_shard("ckpt-1", "rank0", [b"payload"])
    assert recorder.file_fsyncs == 1
    assert recorder.directory_fsyncs == 1  # the rename itself must be durable


def test_write_manifest_fsyncs_directory_after_rename(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=True)
    recorder = _FsyncRecorder(monkeypatch)
    store.write_manifest("ckpt-1", {"tag": "ckpt-1"})
    assert recorder.file_fsyncs == 1
    assert recorder.directory_fsyncs == 1


def test_shard_writer_commit_fsyncs_directory_after_rename(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=True)
    recorder = _FsyncRecorder(monkeypatch)
    writer = store.create_shard_writer("ckpt-1", "rank0", 4)
    writer.pwrite(0, b"abcd")
    writer.commit()
    assert recorder.file_fsyncs == 1
    assert recorder.directory_fsyncs == 1


def test_no_fsync_at_all_when_disabled(tmp_path, monkeypatch):
    store = FileStore(tmp_path, fsync=False)
    recorder = _FsyncRecorder(monkeypatch)
    store.write_shard("ckpt-1", "rank0", [b"payload"])
    store.write_manifest("ckpt-1", {"tag": "ckpt-1"})
    with store.create_shard_writer("ckpt-1", "rank1", 4) as writer:
        writer.pwrite(0, b"abcd")
        writer.commit()
    assert recorder.file_fsyncs == 0 and recorder.directory_fsyncs == 0


# ---------------------------------------------------------------------------
# prune_uncommitted racing an in-flight uncommitted writer
# ---------------------------------------------------------------------------

def test_prune_uncommitted_racing_inflight_writer(tmp_path):
    """Pruning a torn checkpoint from under an in-flight writer must neither
    crash the pruner nor let the late commit resurrect the checkpoint: the
    publish fails with CheckpointError and the tag stays gone."""
    store = FileStore(tmp_path)
    store.write_shard("committed", "rank0", [b"x"])
    store.write_manifest("committed", {"tag": "committed"})

    writer = store.create_shard_writer("torn", "rank0", 4)
    writer.pwrite(0, b"abcd")

    loader = CheckpointLoader(store)
    assert loader.prune_uncommitted() == ["torn"]

    with pytest.raises(CheckpointError):
        writer.commit()
    writer.abort()  # still safe after the failed commit
    assert store.list_checkpoints() == ["committed"]
