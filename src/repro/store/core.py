"""The content-addressed, two-tier artifact store.

:class:`ArtifactStore` resolves an :class:`~repro.store.keys.ArtifactKey`
through two tiers:

1. **memory** — a process-wide LRU of decoded values (object identity is
   preserved: two callers asking for the same topology get the *same*
   instance, like the ``lru_cache`` it replaces);
2. **disk** — one ``<digest>.npz`` (arrays) + ``<digest>.json`` (key
   echo, codec name, JSON payload) pair per artifact under the store root,
   written atomically, shared by every process pointed at the same root.
   Concurrent writers are safe without locks: content addressing makes
   racing writes byte-identical, each goes through a process-unique
   O_EXCL temp file and an atomic rename, and a complete sidecar lets
   later writers skip the redundant store (the worker pool in
   :mod:`repro.runtime` leans on this — N workers warming one topology
   cost one build each at worst, never a corrupt entry).

All disk-tier OS calls go through the :class:`repro.faults.io.DiskIo`
seam (temp file is fsync'd before the rename, the parent directory
after it — the full commit protocol is the "Durability contract" table
in ``docs/ARCHITECTURE.md``), so tests and ``repro faults crashpoints``
can substitute :class:`repro.faults.io.FaultyIo` and prove every crash
point recoverable.

On a miss the builder runs once and the result is persisted to both tiers
(disk only when the codec can round-trip it — see
:class:`~repro.store.codecs.TopologyCodec`).  A corrupted disk entry is
never fatal: the load failure is logged, the entry deleted, and the value
rebuilt — cold-run behavior, warm-run price forfeited.

Every resolution increments the ambient :mod:`repro.obs` counters
``store.hit`` (labels ``kind``, ``tier``), ``store.miss`` (label ``kind``)
and ``store.bytes`` (label ``op``), and is recorded in the per-process
digest log that :class:`~repro.obs.RunManifest` embeds as ``artifacts``.

The store root defaults to ``$REPRO_STORE_DIR``, else
``$XDG_CACHE_HOME/repro-store``, else ``~/.cache/repro-store``; setting
``REPRO_STORE_DISABLE=1`` turns the disk tier off entirely.
"""

from __future__ import annotations

import json
import logging
import os
import time
import zipfile
from collections import OrderedDict
from io import BytesIO
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.faults.io import DiskIo
from repro.store.codecs import Codec, get_codec
from repro.store.keys import ArtifactKey

__all__ = [
    "ArtifactStore",
    "CORRUPT_ERRORS",
    "StoreEntry",
    "atomic_write",
    "configure",
    "default_root",
    "get_store",
]

logger = logging.getLogger(__name__)

_META_SUFFIX = ".json"
_DATA_SUFFIX = ".npz"


def default_root() -> Path | None:
    """Resolve the disk-tier root from the environment (``None`` = disabled)."""
    if os.environ.get("REPRO_STORE_DISABLE"):
        return None
    explicit = os.environ.get("REPRO_STORE_DIR")
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-store"


def atomic_write(io: DiskIo, path: Path, blob: bytes, prefix: str = ".tmp-") -> int:
    """Durably publish *blob* at *path* through *io*; returns ``len(blob)``.

    The one commit protocol of every durable write (the "Durability
    contract" in ``docs/ARCHITECTURE.md``): an O_EXCL temp file whose
    name starts with *prefix*, beside *path* (concurrent writers can never
    interleave into one file), ``fsync`` of the temp so the *content* is
    on media before it becomes reachable, an atomic ``replace`` (readers
    see the old file, the new one, never a torn one), then ``fsync`` of
    the parent directory so the *rename* itself survives power loss.  The
    temp file is unlinked on any failure; one a crash strands anyway is
    reaped by :meth:`ArtifactStore.gc` in a store root.
    """
    f = io.exclusive_create(path.parent, prefix=prefix)
    tmp = f.path
    try:
        io.write(f, blob)
        io.fsync(f)
        io.close(f)
        io.replace(tmp, path)
        io.fsync_dir(path.parent)
        return len(blob)
    except BaseException:
        io.close(f)
        try:
            io.unlink(tmp)
        except FileNotFoundError:
            pass  # already renamed into place (failure was post-replace)
        except OSError:
            logger.warning("stray temp file left behind: %s", tmp)
        raise


class StoreEntry:
    """One on-disk artifact: its sidecar metadata plus file sizes."""

    __slots__ = ("digest", "meta", "data_path", "meta_path")

    def __init__(
        self, digest: str, meta: dict, data_path: Path, meta_path: Path
    ) -> None:
        self.digest = digest
        self.meta = meta
        self.data_path = data_path
        self.meta_path = meta_path

    @property
    def size_bytes(self) -> int:
        total = 0
        for p in (self.data_path, self.meta_path):
            try:
                total += p.stat().st_size
            except OSError:
                pass
        return total

    @property
    def mtime(self) -> float:
        try:
            return self.meta_path.stat().st_mtime
        except OSError:
            return 0.0


#: Exceptions treated as "this disk entry is corrupt" rather than bugs
#: (public so the crash-point explorer can probe entries read-only).
CORRUPT_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    json.JSONDecodeError,
    zipfile.BadZipFile,
)
_CORRUPT_ERRORS = CORRUPT_ERRORS


class ArtifactStore:
    """Two-tier (memory LRU + on-disk) content-addressed artifact cache."""

    def __init__(
        self,
        root: str | Path | None = None,
        memory_items: int = 256,
        io: DiskIo | None = None,
    ) -> None:
        if memory_items < 1:
            raise ValueError("memory_items must be >= 1")
        self.root = Path(root) if root is not None else None
        self.memory_items = memory_items
        #: the OS-call seam; tests inject :class:`repro.faults.io.FaultyIo`.
        self._io = io if io is not None else DiskIo()
        self._memory: OrderedDict[str, object] = OrderedDict()
        #: digest -> key.describe() + resolution tier, in first-touch order.
        self._resolved: OrderedDict[str, dict] = OrderedDict()

    # -- observability -------------------------------------------------------

    def _count_hit(self, key: ArtifactKey, tier: str) -> None:
        reg = obs.get_registry()
        reg.counter(
            "store.hit",
            help="artifact-store resolutions served from a cache tier",
            labels=("kind", "tier"),
        ).labels(kind=key.kind, tier=tier).inc()

    def _count_miss(self, key: ArtifactKey) -> None:
        reg = obs.get_registry()
        reg.counter(
            "store.miss",
            help="artifact-store resolutions that had to run the builder",
            labels=("kind",),
        ).labels(kind=key.kind).inc()

    def _count_bytes(self, op: str, n: int) -> None:
        reg = obs.get_registry()
        reg.counter(
            "store.bytes",
            help="bytes moved through the artifact store's disk tier",
            labels=("op",),
        ).labels(op=op).inc(n)

    def _record(self, key: ArtifactKey, tier: str) -> None:
        if key.digest not in self._resolved:
            info = key.describe()
            info["tier"] = tier
            self._resolved[key.digest] = info

    def resolved(self) -> list[dict]:
        """Digest log of every artifact resolved by this store instance,
        in first-touch order (embedded into :class:`~repro.obs.RunManifest`)."""
        return [dict(v) for v in self._resolved.values()]

    # -- memory tier ---------------------------------------------------------

    def _memory_get(self, digest: str) -> Any:
        if digest in self._memory:
            self._memory.move_to_end(digest)
            return self._memory[digest]
        return None

    def _memory_put(self, digest: str, value: Any) -> None:
        self._memory[digest] = value
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_items:
            self._memory.popitem(last=False)

    # -- disk tier -----------------------------------------------------------

    def _paths(self, digest: str) -> tuple[Path, Path]:
        if self.root is None:
            raise RuntimeError("disk tier is disabled for this store")
        return self.root / (digest + _DATA_SUFFIX), self.root / (digest + _META_SUFFIX)

    def _disk_load(self, key: ArtifactKey) -> Any:
        """Load from disk, or ``None``; deletes and logs corrupt entries."""
        if self.root is None:
            return None
        data_path, meta_path = self._paths(key.digest)
        if not meta_path.is_file():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            codec = get_codec(meta["codec"])
            arrays: dict = {}
            nread = len(meta_path.read_bytes())
            if meta.get("has_arrays"):
                with np.load(data_path, allow_pickle=False) as npz:
                    arrays = {k: npz[k] for k in npz.files}
                nread += data_path.stat().st_size
            value = codec.decode(arrays, meta.get("payload", {}))
        except _CORRUPT_ERRORS as exc:
            logger.warning(
                "store: corrupt entry %s (%s: %s); deleting and rebuilding",
                key.digest[:12],
                type(exc).__name__,
                exc,
            )
            obs.get_registry().counter(
                "store.corrupt_recovered",
                help="corrupt disk entries detected on load, deleted and rebuilt",
                labels=("kind",),
            ).labels(kind=key.kind).inc()
            self._delete_entry(key.digest)
            return None
        self._count_bytes("read", nread)
        return value

    def _disk_store(self, key: ArtifactKey, value: Any, codec: Codec) -> None:
        """Persist one entry; safe under concurrent multi-process writers.

        Entries are content-addressed, so two processes racing on the same
        key write byte-identical files: each writes to its own unique temp
        file (``mkstemp`` — O_EXCL names, never shared) and publishes with
        an atomic ``os.replace``, so whichever rename lands last simply
        re-installs equivalent content and readers never observe a partial
        file.  The sidecar is written after the array blob, and a complete
        sidecar already on disk means some process finished the whole
        entry — this writer skips the redundant I/O (first writer wins).
        """
        if self.root is None:
            return
        data_path, meta_path = self._paths(key.digest)
        if meta_path.is_file():
            return  # a concurrent writer (or an earlier run) beat us to it
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            arrays, payload = codec.encode(value)
            meta = dict(key.describe())
            meta["codec"] = codec.name
            meta["payload"] = payload
            meta["has_arrays"] = bool(arrays)
            nwritten = 0
            if arrays:
                buf = BytesIO()
                np.savez(buf, **arrays)
                nwritten += atomic_write(self._io, data_path, buf.getvalue())
            # Sidecar last: its presence marks the entry complete.
            blob = json.dumps(meta, sort_keys=True, indent=1).encode("utf-8")
            nwritten += atomic_write(self._io, meta_path, blob)
            self._count_bytes("write", nwritten)
        except OSError as exc:
            # A read-only or full store root degrades to memory-only caching.
            logger.warning(
                "store: could not persist %s under %s (%s); continuing without "
                "the disk tier for this entry",
                key.digest[:12],
                self.root,
                exc,
            )

    def _delete_entry(self, digest: str) -> None:
        if self.root is None:
            return
        for p in self._paths(digest):
            try:
                self._io.unlink(p)
            except FileNotFoundError:
                pass
            except OSError as exc:
                logger.warning("store: could not delete %s: %s", p, exc)

    # -- resolution ----------------------------------------------------------

    def get_or_build(
        self,
        key: ArtifactKey,
        build: Callable,
        codec: Codec,
        persist: bool | None = None,
    ) -> Any:
        """Resolve *key*: memory tier, then disk tier, then ``build()``.

        ``persist`` controls the disk tier for a freshly built value;
        ``None`` defers to ``codec.can_encode(value)`` (the automatic rule
        that keeps non-round-trippable topologies memory-only).
        """
        digest = key.digest
        value = self._memory_get(digest)
        if value is not None:
            self._count_hit(key, "memory")
            self._record(key, "memory")
            return value
        value = self._disk_load(key)
        if value is not None:
            self._count_hit(key, "disk")
            self._record(key, "disk")
            self._memory_put(digest, value)
            return value
        self._count_miss(key)
        self._record(key, "build")
        value = build()
        self._memory_put(digest, value)
        if persist is None:
            persist = codec.can_encode(value)
        if persist:
            self._disk_store(key, value, codec)
        return value

    # -- inspection & maintenance -------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Every complete on-disk entry, sorted by digest."""
        if self.root is None or not self.root.is_dir():
            return []
        out = []
        for meta_path in sorted(self.root.glob("*" + _META_SUFFIX)):
            digest = meta_path.name[: -len(_META_SUFFIX)]
            try:
                meta = json.loads(meta_path.read_text())
            except _CORRUPT_ERRORS:
                meta = {}
            out.append(
                StoreEntry(
                    digest, meta, self.root / (digest + _DATA_SUFFIX), meta_path
                )
            )
        return out

    def total_bytes(self) -> int:
        """Disk footprint of every complete entry."""
        return sum(e.size_bytes for e in self.entries())

    def gc(
        self,
        max_bytes: int | None = None,
        clear: bool = False,
        dry_run: bool = False,
        reap_tmp_age: float = 3600.0,
    ) -> dict:
        """Reclaim disk entries; returns a report dict.

        With no arguments only broken entries go: sidecars that fail to
        parse, and entries whose sidecar promises arrays but whose ``.npz``
        is missing.  ``max_bytes`` additionally evicts
        least-recently-modified complete entries until the store fits.
        ``clear`` removes everything.  ``dry_run`` only reports.

        Stray ``.tmp-*`` files older than ``reap_tmp_age`` seconds — left
        behind by writers that crashed between temp-file creation and the
        atomic rename — are reaped too (all of them under ``clear``) and
        reported under ``reaped_tmp``.  The age guard keeps gc from ever
        yanking a temp file out from under a live concurrent writer.
        """
        removed: list[str] = []
        kept: list[str] = []
        entries = self.entries()
        doomed: dict[str, StoreEntry] = {}
        for e in entries:
            broken = not e.meta or (
                e.meta.get("has_arrays") and not e.data_path.is_file()
            )
            if clear or broken:
                doomed[e.digest] = e
        if max_bytes is not None:
            survivors = [e for e in entries if e.digest not in doomed]
            survivors.sort(key=lambda e: e.mtime, reverse=True)  # newest first
            budget = 0
            for e in survivors:
                budget += e.size_bytes
                if budget > max_bytes:
                    doomed[e.digest] = e
        for e in entries:
            if e.digest in doomed:
                removed.append(e.digest)
                if not dry_run:
                    self._delete_entry(e.digest)
            else:
                kept.append(e.digest)
        reaped_tmp, tmp_freed = self._reap_tmp(reap_tmp_age, clear, dry_run)
        return {
            "removed": removed,
            "kept": kept,
            "reaped_tmp": reaped_tmp,
            "freed_bytes": sum(doomed[d].size_bytes for d in removed) + tmp_freed,
            "dry_run": dry_run,
        }

    def _reap_tmp(
        self, max_age: float, clear: bool, dry_run: bool
    ) -> tuple[list[str], int]:
        """Collect stray ``.tmp-*`` files older than *max_age* seconds."""
        if self.root is None or not self.root.is_dir():
            return [], 0
        # File-age GC genuinely needs the same clock st_mtime is stamped
        # with; the cutoff never feeds experiment results.
        now = time.time()  # repro-lint: disable=RL206
        reaped: list[str] = []
        freed = 0
        for tmp in sorted(self.root.glob(".tmp-*")):
            try:
                st = tmp.stat()
            except OSError:
                continue  # lost a race with the writer publishing it
            if not clear and now - st.st_mtime < max_age:
                continue
            reaped.append(tmp.name)
            freed += st.st_size
            if not dry_run:
                try:
                    self._io.unlink(tmp)
                except FileNotFoundError:
                    pass
                except OSError as exc:
                    logger.warning("store: could not reap %s: %s", tmp, exc)
        return reaped, freed

    def clear_memory(self) -> None:
        """Drop the memory tier (tests; the disk tier is untouched)."""
        self._memory.clear()


#: Ambient store, created lazily so importing the library costs nothing.
_STORE: ArtifactStore | None = None


def get_store() -> ArtifactStore:
    """The ambient process-wide store (created from the env on first use)."""
    global _STORE
    if _STORE is None:
        # repro-lint: disable=RL310 -- intentional per-process singleton:
        # each spawn worker lazily builds its own store; cross-process
        # sharing happens only through the disk tier's atomic writes.
        _STORE = ArtifactStore(root=default_root())  # repro-lint: disable=RL310
    return _STORE


def configure(
    root: str | Path | None = None, memory_items: int = 256
) -> ArtifactStore:
    """Install (and return) a fresh ambient store — drivers and tests only.

    ``root=None`` disables the disk tier outright (it does **not** fall
    back to the environment; call :func:`default_root` for that).
    """
    global _STORE
    _STORE = ArtifactStore(root=root, memory_items=memory_items)
    return _STORE
