"""The shard-store base class and the store registry.

:class:`ShardStore` is the one storage interface the checkpoint pipeline
programs against.  Every backend subclasses it — the POSIX
:class:`~repro.io.FileStore`, the in-memory S3-like
:class:`~repro.io.ObjectStore`, the tier chain, the content-addressed store,
the fault-injection wrapper — so every engine, the trainer, the restart path
and the CLI run one code path over any of them.  Stores are selected by name
through :func:`create_store`, mirroring how engines are selected through
:func:`repro.core.create_real_engine`.

A backend implements the storage primitives:

* ``write_shard`` / ``read_shard`` / ``read_shard_range`` — streaming shard
  write, whole-shard read, and a bounds-checked sub-shard read;
* ``write_manifest`` / ``read_manifest`` — commit-manifest publish/read
  (publishing the manifest is what makes a checkpoint restorable, so a
  backend must order it after every shard of the tag is durable);
* ``shard_size`` / ``total_bytes`` — sizing;
* ``list_checkpoints`` / ``list_committed_checkpoints`` /
  ``delete_checkpoint`` — discovery and housekeeping.

On top of those the base class supplies the two operations the pipeline
actually calls, with defaults that work over the primitives:

* ``create_shard_writer`` — the one write path.  The flush pipeline pwrites
  each staged tensor at its final offset, out of order, from several
  workers.  The default :class:`BufferedShardWriter` stages the shard in
  memory and publishes it with one ``write_shard`` at commit; the file
  backend overrides it with a pre-sized temp file written by ``os.pwrite``.
* ``open_shard_mmap`` — the one read path.  The loader validates and
  deserializes straight out of the returned buffer.  The default
  :class:`HeapShard` wraps one ``read_shard``; the file backend overrides it
  with a read-only memory map.

``record_shard_reference`` (the CAS store's incremental-save path) is the
only optional capability; :func:`supports_shard_reference` detects it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Callable, Dict, Iterable, List, Union

from ..exceptions import CheckpointError, ConfigurationError


@dataclass(frozen=True)
class WriteReceipt:
    """Result of one completed shard write."""

    path: PurePath
    nbytes: int


def check_range(tag: str, shard_name: str, offset: int, length: int,
                size: int) -> None:
    """Bounds check of ``read_shard_range``: a range must lie entirely inside
    the shard (a short read would silently corrupt a restore)."""
    if offset < 0 or length < 0 or offset + length > size:
        raise CheckpointError(
            f"range [{offset}, {offset + length}) outside shard "
            f"{shard_name!r} of checkpoint {tag!r} ({size} bytes)"
        )


class HeapShard:
    """A shard's bytes on the heap, behind the buffer interface the restore
    path reads (``data``, ``len()``, ``close()``): the default result of
    :meth:`ShardStore.open_shard_mmap`."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def close(self) -> None:
        """Drop the payload (zero-copy views keep their own reference)."""
        self.data = b""

    def __enter__(self) -> "HeapShard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class BufferedShardWriter:
    """Offset-addressed writer staging one shard in memory until commit.

    The default :meth:`ShardStore.create_shard_writer`: thread-safe
    ``pwrite`` at arbitrary offsets into a pre-sized buffer (concurrent
    writers land disjoint ranges, so slice assignment needs no lock), one
    :meth:`commit` that publishes the shard through the store's own
    ``write_shard``, and an idempotent :meth:`abort` that drops the buffer.
    """

    def __init__(self, store: "ShardStore", tag: str, shard_name: str,
                 total_bytes: int) -> None:
        if total_bytes <= 0:
            raise CheckpointError("shard writer needs a positive total size")
        self._store = store
        self.tag = tag
        self.shard_name = shard_name
        self.total_bytes = int(total_bytes)
        self._buffer = bytearray(self.total_bytes)
        self._view = memoryview(self._buffer)
        self._closed = False

    def pwrite(self, offset: int, data) -> int:
        """Write ``data`` (bytes or memoryview) at ``offset``; thread-safe."""
        if self._closed:
            raise CheckpointError(
                f"shard writer for {self.tag}/{self.shard_name} is closed")
        view = data if isinstance(data, memoryview) else memoryview(data)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if offset < 0 or offset + len(view) > self.total_bytes:
            raise CheckpointError(
                f"pwrite [{offset}, {offset + len(view)}) outside shard of "
                f"{self.total_bytes} bytes"
            )
        self._view[offset:offset + len(view)] = view
        return len(view)

    def commit(self) -> WriteReceipt:
        """Publish the staged shard with one ``write_shard``."""
        if self._closed:
            raise CheckpointError(
                f"shard writer for {self.tag}/{self.shard_name} is closed")
        self._view.release()
        self._closed = True
        payload, self._buffer = self._buffer, bytearray()
        return self._store.write_shard(self.tag, self.shard_name, [payload])

    def abort(self) -> None:
        """Discard the staging buffer without publishing (idempotent)."""
        if not self._closed:
            self._view.release()
            self._closed = True
        self._buffer = bytearray()

    def __enter__(self) -> "BufferedShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # No-op after commit(); otherwise discard the staged shard.
        self.abort()


class ShardStore(abc.ABC):
    """Base class of every checkpoint shard store (see module docstring).

    Subclasses implement the abstract primitives and override
    :meth:`create_shard_writer` / :meth:`open_shard_mmap` only where they
    have something faster than the buffered defaults.
    """

    # -- writes --------------------------------------------------------------
    @abc.abstractmethod
    def write_shard(self, tag: str, shard_name: str,
                    chunks: Iterable[Union[bytes, memoryview]]) -> WriteReceipt:
        """Write one shard from an iterable of byte chunks; atomic publish."""

    def create_shard_writer(self, tag: str, shard_name: str, total_bytes: int):
        """Offset-addressed writer for one shard of exactly ``total_bytes``
        (``pwrite`` / ``commit`` / ``abort``); nothing is visible before
        ``commit``."""
        return BufferedShardWriter(self, tag, shard_name, total_bytes)

    @abc.abstractmethod
    def write_manifest(self, tag: str, manifest: Dict) -> object:
        """Atomically publish the commit manifest of checkpoint ``tag``."""

    # -- reads ---------------------------------------------------------------
    @abc.abstractmethod
    def read_shard(self, tag: str, shard_name: str) -> bytes:
        """Read back one shard's bytes."""

    @abc.abstractmethod
    def read_shard_range(self, tag: str, shard_name: str,
                         offset: int, length: int) -> bytes:
        """Read ``length`` bytes of one shard from ``offset``; ranges outside
        the shard are rejected (see :func:`check_range`), never truncated."""

    def open_shard_mmap(self, tag: str, shard_name: str):
        """One shard as a read-only buffer (``data`` / ``close()``) for the
        restore path: a memory map where the backend has a file to map, a
        :class:`HeapShard` over ``read_shard`` by default."""
        return HeapShard(self.read_shard(tag, shard_name))

    @abc.abstractmethod
    def read_manifest(self, tag: str) -> Dict:
        """Read back the commit manifest of checkpoint ``tag``."""

    @abc.abstractmethod
    def shard_size(self, tag: str, shard_name: str) -> int:
        """Stored size of one shard."""

    # -- management ----------------------------------------------------------
    @abc.abstractmethod
    def list_checkpoints(self) -> List[str]:
        """Tags of checkpoints present (committed or not), sorted."""

    @abc.abstractmethod
    def list_committed_checkpoints(self) -> List[str]:
        """Tags of checkpoints that have a manifest, sorted."""

    @abc.abstractmethod
    def delete_checkpoint(self, tag: str) -> None:
        """Remove every stored object of one checkpoint."""

    @abc.abstractmethod
    def total_bytes(self, tag: str) -> int:
        """Sum of shard sizes of a checkpoint."""


#: Canonical store names, default backend first.  The ``faulty`` chaos
#: wrapper is registered but deliberately not canonical: conformance suites
#: sweep STORE_NAMES and must not double-test through the injection wrapper.
STORE_NAMES: List[str] = ["file", "object", "tiered", "cas"]

#: Display labels used in report/bench output.
STORE_LABELS: Dict[str, str] = {
    "file": "FileStore (POSIX directory)",
    "object": "ObjectStore (in-memory, one part per key)",
    "tiered": "TieredStore (fast tier + async drain to slow tier)",
    "cas": "CASStore (content-addressed chunks, namespaces, refcounted GC)",
    "faulty": "FaultyStore (seeded fault injection around another backend)",
}

_StoreFactory = Callable[..., ShardStore]


def _make_file_store(root=None, fsync: bool = False, **kwargs) -> ShardStore:
    from .filestore import FileStore

    if root is None:
        raise ConfigurationError("the 'file' store needs a root directory")
    return FileStore(root, fsync=fsync, **kwargs)


def _make_object_store(root=None, fsync: bool = False, **kwargs) -> ShardStore:
    from .objectstore import ObjectStore

    # ``root`` becomes the bucket label so per-backend workdirs stay legible
    # in reports; an object store has no directory to create.
    bucket = str(root) if root is not None else "repro-checkpoints"
    return ObjectStore(bucket=bucket, fsync=fsync, **kwargs)


#: Sentinel for "knob not given" in the tiered factory — distinct from None,
#: which is TieredStore's documented "never evict" value for keep_local_latest.
_UNSET = object()


def _make_tiered_store(root=None, fsync: bool = False, fast_store: str = "file",
                       slow_store: str = "object", drain_workers=_UNSET,
                       keep_local_latest=_UNSET, drain_retries=_UNSET,
                       drain_backoff_s=_UNSET, tiers=None, **kwargs) -> ShardStore:
    """Compose a tiered store from registry backends.

    With ``tiers=None`` (the default) this builds the classic two-level
    :class:`~repro.io.TieredStore`: the fast tier under ``root/fast`` (its
    sidecar tier-index next to the checkpoint directories), the slow tier
    under ``root/slow`` when it is directory-backed or a ``<root>-remote``
    bucket label otherwise.  Any registered pair of names works, so e.g.
    ``fast_store="object"`` builds an all-in-memory tier pair for tests.
    ``keep_local_latest=None`` passes through as TieredStore's "never evict"
    mode.  ``drain_retries`` / ``drain_backoff_s`` configure the bounded
    retry-with-backoff applied to transient deeper-tier failures during the
    background drain.

    ``tiers`` selects the N-level :class:`~repro.io.TierChain` instead: a
    chain spec string (``"nvme:file:/a:50GiB,pfs:file:/b,object:object"``,
    see :func:`~repro.io.parse_tier_chain_spec`) or a pre-parsed sequence of
    :class:`~repro.io.TierChainLevelSpec`.  Levels without an explicit root
    live under ``root/<name>`` (file) or a ``<root>-<name>`` bucket label
    (object); ``fast_store`` / ``slow_store`` are ignored on this path.
    """
    from .tiered import (
        DEFAULT_DRAIN_BACKOFF_S,
        DEFAULT_DRAIN_RETRIES,
        DEFAULT_DRAIN_WORKERS,
        DEFAULT_KEEP_LOCAL_LATEST,
        DEFAULT_TIER_WATERMARK,
        TierChain,
        TieredStore,
        TierLevel,
        parse_tier_chain_spec,
    )

    if root is None:
        raise ConfigurationError("the 'tiered' store needs a root directory")
    root = Path(root)
    resolved_workers = (DEFAULT_DRAIN_WORKERS if drain_workers is _UNSET
                        else int(drain_workers))
    resolved_keep = (DEFAULT_KEEP_LOCAL_LATEST if keep_local_latest is _UNSET
                     else keep_local_latest)
    resolved_retries = (DEFAULT_DRAIN_RETRIES if drain_retries is _UNSET
                        else int(drain_retries))
    resolved_backoff = (DEFAULT_DRAIN_BACKOFF_S if drain_backoff_s is _UNSET
                        else float(drain_backoff_s))
    if tiers is not None:
        entries = (parse_tier_chain_spec(tiers) if isinstance(tiers, str)
                   else list(tiers))
        levels = []
        for entry in entries:
            backend = canonical_store_name(entry.backend)
            if backend in ("tiered", "faulty"):
                raise ConfigurationError(
                    f"tier chain level {entry.name!r} cannot use the "
                    f"{backend!r} backend")
            if entry.root is not None:
                level_root = entry.root
            elif backend == "file":
                level_root = root / entry.name
            else:
                level_root = f"{root.name}-{entry.name}"
            levels.append(TierLevel(
                store=create_store(backend, root=level_root, fsync=fsync),
                name=entry.name,
                capacity_bytes=entry.capacity_bytes,
                watermark=(entry.watermark if entry.watermark is not None
                           else DEFAULT_TIER_WATERMARK),
            ))
        return TierChain(
            levels,
            drain_workers=resolved_workers, keep_local_latest=resolved_keep,
            drain_retries=resolved_retries, drain_backoff_s=resolved_backoff,
            fsync=fsync, **kwargs,
        )
    fast_name = canonical_store_name(fast_store)
    slow_name = canonical_store_name(slow_store)
    if "tiered" in (fast_name, slow_name):
        raise ConfigurationError("tiers of a tiered store cannot themselves be tiered")
    slow_root = root / "slow" if slow_name == "file" else f"{root.name}-remote"
    return TieredStore(
        fast=create_store(fast_name, root=root / "fast", fsync=fsync),
        slow=create_store(slow_name, root=slow_root, fsync=fsync),
        drain_workers=resolved_workers,
        keep_local_latest=resolved_keep,
        drain_retries=resolved_retries,
        drain_backoff_s=resolved_backoff,
        fsync=fsync,
        **kwargs,
    )


def _make_faulty_store(root=None, fsync: bool = False, inner: str = "file",
                       plan=None, **kwargs) -> ShardStore:
    """Wrap another registered backend in seeded fault injection.

    ``inner`` names the wrapped backend (anything registered except
    ``faulty`` itself); ``plan`` is a :class:`~repro.io.FaultPlan`, a dict of
    its fields, or ``None`` for the inject-nothing default.  Remaining kwargs
    go to the inner backend's factory.
    """
    from .faultstore import FaultPlan, FaultyStore

    inner_name = canonical_store_name(inner)
    if inner_name == "faulty":
        raise ConfigurationError("the 'faulty' store cannot wrap itself")
    if isinstance(plan, dict):
        plan = FaultPlan(**plan)
    return FaultyStore(create_store(inner_name, root=root, fsync=fsync, **kwargs),
                       plan=plan)


def _make_cas_store(root=None, fsync: bool = False, inner: str = "file",
                    namespace=_UNSET, chunk_bytes=_UNSET, quota_bytes=None,
                    **kwargs) -> ShardStore:
    """Wrap another registered backend in content-addressed chunk storage.

    ``inner`` names the wrapped backend holding the shared chunk pool
    (anything registered except ``cas`` itself); ``namespace`` scopes this
    handle to one job id over that pool, ``chunk_bytes`` sets the content
    chunk size, and ``quota_bytes`` caps the namespace's committed logical
    bytes.  Remaining kwargs go to the inner backend's factory.
    """
    from .cas import DEFAULT_CHUNK_BYTES, DEFAULT_NAMESPACE, CASStore

    inner_name = canonical_store_name(inner)
    if inner_name == "cas":
        raise ConfigurationError("the 'cas' store cannot wrap itself")
    return CASStore(
        create_store(inner_name, root=root, fsync=fsync, **kwargs),
        namespace=DEFAULT_NAMESPACE if namespace is _UNSET else namespace,
        chunk_bytes=DEFAULT_CHUNK_BYTES if chunk_bytes is _UNSET
        else int(chunk_bytes),
        quota_bytes=quota_bytes,
    )


_STORE_REGISTRY: Dict[str, _StoreFactory] = {
    "file": _make_file_store,
    "object": _make_object_store,
    "tiered": _make_tiered_store,
    "cas": _make_cas_store,
    "faulty": _make_faulty_store,
}


def available_stores() -> List[str]:
    """Canonical names of the registered store backends."""
    return [name for name in STORE_NAMES if name in _STORE_REGISTRY] + sorted(
        name for name in _STORE_REGISTRY if name not in STORE_NAMES
    )


def canonical_store_name(name: str) -> str:
    """Validate (and normalise) a store backend name."""
    key = name.strip().lower()
    if key not in _STORE_REGISTRY:
        raise ConfigurationError(
            f"unknown shard store {name!r}; known stores: {available_stores()}"
        )
    return key


def create_store(name: str, root=None, fsync: bool = False, **kwargs) -> ShardStore:
    """Instantiate a shard store backend by name.

    ``root`` is the backing directory for the ``file`` store and a cosmetic
    bucket label for the ``object`` store; ``fsync`` selects durable renames
    on backends that have something to sync (accepted and ignored elsewhere
    so call sites stay backend-agnostic).
    """
    factory = _STORE_REGISTRY[canonical_store_name(name)]
    return factory(root=root, fsync=fsync, **kwargs)


def register_store(name: str, factory: _StoreFactory) -> None:
    """Register a custom store backend under a new name.

    ``factory`` must accept ``(root=..., fsync=..., **kwargs)`` and return a
    :class:`ShardStore`; registered names become selectable everywhere stores
    are chosen by name (``create_store``, the CLI ``--store`` flag).
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("store name must be non-empty")
    if not callable(factory):
        raise ConfigurationError("store factory must be callable")
    _STORE_REGISTRY[key] = factory


def supports_shard_reference(store: object) -> bool:
    """Whether ``store`` can record a shard as a reference to a previous
    committed checkpoint's identical shard (``record_shard_reference``, the
    CAS store's incremental-save fast path)."""
    return callable(getattr(store, "record_shard_reference", None))
