"""Content-addressed artifact store for experiment pipelines.

Each entry holds one workload's *execution*: the calling-context profile
of its profiling runs and its trace input's block trace (with the
middle-end on, also the pass profiles and the unoptimized program's
profile and trace).  Placement replays from it, so the key is a hash of::

    (workload name, input scale, middle-end passes, code version)

where the code version is itself a hash of the ``ir``/``interp``/``opt``/
``placement``/``workloads`` sources, so editing anything that could
change an artifact automatically invalidates it.  Entries persist under
``~/.cache/repro`` (override with ``--cache-dir`` or ``REPRO_CACHE_DIR``)
as one directory per key::

    <root>/objects/<key>/meta.json       provenance, checksums, hit counts
    <root>/objects/<key>/profiles.json   context table, profile documents
    <root>/objects/<key>/arrays.npz      context counts, block traces
    <root>/quarantine/<key>[...]         entries that failed verification
    <root>/index.json                    summary of all entries (derived)
    <root>/.lock                         inter-process flock
    <root>/inflight/<key>                per-key compute flock

Integrity and concurrency guarantees:

* every entry's ``meta.json`` carries SHA-256 checksums of its payload
  files, verified on read; a mismatched, truncated, or unparsable entry
  is **quarantined** (moved under ``<root>/quarantine/``) and reported as
  a miss — corruption can cost a recompute, never an experiment;
* any mid-read disappearance (a concurrent eviction between file reads)
  is a clean miss;
* mutations (publish, eviction, quarantine, index writes) hold an
  exclusive ``flock`` on ``<root>/.lock``, so concurrent ``repro``
  processes never observe half-published entries or race evictions;
* ``index.json`` is derived state: when missing or unparsable it is
  rebuilt from ``objects/`` (:meth:`ArtifactStore.load_index`).

:meth:`ArtifactStore.verify` checks every entry and quarantines the
corrupt ones (``repro cache verify`` on the CLI).  Least-recently-used
entries are evicted once the store exceeds ``REPRO_CACHE_MAX_BYTES``
(default 4 GiB); :meth:`ArtifactStore.gc` (``repro cache gc``) shrinks
the store to an explicit budget on demand, counting quarantined entries
against the budget and evicting them first.

Duplicate-work suppression: a computation of entry ``key`` runs inside
:meth:`ArtifactStore.computing`, which holds an exclusive ``flock`` on
``<root>/inflight/<key>``.  A second process (or a second daemon
request) building the same key waits on that lock and, once the holder
publishes, shares its entry instead of computing a duplicate.  The
kernel releases a ``flock`` when its holder dies, so a crashed builder
never wedges its waiters; a live holder that never finishes is waited
out after ``WAIT_LIMIT_S`` and the waiter computes anyway.  Both locks
are opened through :func:`repro.durable.open_held`, so a forked child
(a pool worker) never keeps one held after its parent releases it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro import durable
from repro.engine import faults

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "ArtifactPayload",
    "ArtifactStore",
    "StoreEntry",
    "artifact_key",
    "code_version",
    "default_cache_dir",
    "options_fingerprint",
]

#: Format tag written into every entry's meta.json.  v2 added payload
#: checksums; v1 entries fail verification and are quarantined.
ENTRY_FORMAT = "repro-artifact-v2"

#: Format tag of ``index.json``.
INDEX_FORMAT = "repro-index-v1"

#: Default eviction threshold, overridable via ``REPRO_CACHE_MAX_BYTES``.
DEFAULT_MAX_BYTES = 4 * 1024**3

#: How long :meth:`ArtifactStore.computing` waits on another builder's
#: key lock before computing anyway (a wedged live holder).
WAIT_LIMIT_S = 900.0

#: Poll interval of a builder waiting on another's key lock.
_POLL_S = 0.05

#: Source packages whose content defines the artifact code version.
_VERSIONED_PACKAGES = ("ir", "interp", "opt", "placement", "workloads")

#: Payload files covered by the per-entry checksum manifest.
_PAYLOAD_FILES = ("profiles.json", "arrays.npz")


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
        "repro",
    )


_CODE_VERSION: str | None = None


def code_version() -> str:
    """Hash of every source file that can influence an artifact.

    Covers the IR, interpreter, placement, and workload packages; the
    engine and experiment layers only orchestrate, so they are excluded
    and editing them keeps caches warm.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        digest = hashlib.sha256()
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for package in _VERSIONED_PACKAGES:
            package_dir = os.path.join(src_root, package)
            for name in sorted(os.listdir(package_dir)):
                if not name.endswith(".py"):
                    continue
                digest.update(f"{package}/{name}\0".encode())
                with open(os.path.join(package_dir, name), "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def options_fingerprint(options) -> str:
    """Canonical JSON of a (possibly nested) options dataclass."""
    if options is None:
        return "null"
    if dataclasses.is_dataclass(options):
        options = dataclasses.asdict(options)
    return json.dumps(options, sort_keys=True, default=repr)


def artifact_key(
    workload: str, scale: str, opt, version: str | None = None
) -> str:
    """The content address of one workload's execution entry; ``opt``
    (``PlacementOptions.opt``) is the only option an execution depends on.
    """
    payload = "\0".join(
        (workload, scale, options_fingerprint(opt),
         version if version is not None else code_version())
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass
class ArtifactPayload:
    """What one store entry holds, independent of its on-disk encoding."""

    profiles: dict            # name -> serialised ProfileData document
    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StoreEntry:
    """One line of the store index."""

    key: str
    workload: str
    scale: str
    created: float
    last_used: float
    hits: int
    nbytes: int


class _EntryCorrupt(Exception):
    """Internal: an entry exists on disk but failed verification."""


class ArtifactStore:
    """A content-addressed, LRU-evicted, integrity-checked artifact cache.

    ``hits``/``misses``/``quarantined`` count this process's lookups (for
    telemetry); the persisted per-entry hit counts aggregate across
    processes.
    """

    def __init__(
        self, root: str | None = None, max_bytes: int | None = None
    ) -> None:
        self.root = os.path.abspath(root or default_cache_dir())
        if max_bytes is None:
            max_bytes = int(
                os.environ.get("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES)
            )
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.waits = 0        # builds satisfied by another builder's publish

    # -- paths -------------------------------------------------------------

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    @property
    def inflight_dir(self) -> str:
        return os.path.join(self.root, "inflight")

    def _entry_dir(self, key: str) -> str:
        return os.path.join(self.objects_dir, key)

    # -- locking -----------------------------------------------------------

    @contextlib.contextmanager
    def _lock(self):
        """Exclusive inter-process lock on the store root.

        Serialises publishes, evictions, quarantines, and index writes
        across ``repro`` processes.  Degrades to a no-op when the lock
        file cannot be created (read-only store) or ``fcntl`` is
        unavailable; payload *reads* stay lock-free — publication and
        quarantine are single atomic renames, so a reader sees either a
        complete entry or a miss.
        """
        fd = None
        if fcntl is not None:
            try:
                os.makedirs(self.root, exist_ok=True)
                fd = durable.open_held(os.path.join(self.root, ".lock"))
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                if fd is not None:
                    durable.close_held(fd)
                fd = None
        try:
            yield
        finally:
            if fd is not None:
                durable.close_held(fd)

    @contextlib.contextmanager
    def computing(self, key: str):
        """Hold ``key``'s compute lock around a build of it.

        Yields ``None`` when the caller must compute the entry (and
        :meth:`put` it inside the block), or the payload another builder
        published while this one waited — counted in ``waits``.  A
        contended lock is polled every 50 ms; past ``WAIT_LIMIT_S`` (a
        wedged live holder) the caller computes anyway, unlocked, as it
        does on a read-only store.  The holder unlinks the lock file
        before releasing it, so ``inflight/`` holds only running builds.
        """
        fd, payload = self._lock_key(key)
        try:
            if fd is not None:
                payload = self._published(key)   # published before we locked
            yield payload
        finally:
            if fd is not None:
                try:
                    os.unlink(os.path.join(self.inflight_dir, key))
                except OSError:
                    pass
                durable.close_held(fd)

    def _lock_key(self, key: str) -> tuple[int | None, ArtifactPayload | None]:
        """Poll for ``key``'s lock: ``(fd, None)`` once held, ``(None,
        payload)`` when another builder publishes first, ``(None, None)``
        to compute unlocked."""
        if fcntl is None:
            return None, None
        path = os.path.join(self.inflight_dir, key)
        deadline = time.monotonic() + WAIT_LIMIT_S
        fd = None
        while True:
            try:
                if fd is None:
                    os.makedirs(self.inflight_dir, exist_ok=True)
                    fd = durable.open_held(path)
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                payload = self._published(key)
                if payload is not None or time.monotonic() >= deadline:
                    durable.close_held(fd)
                    return None, payload
                time.sleep(_POLL_S)
                continue
            except OSError:
                if fd is not None:
                    durable.close_held(fd)
                return None, None
            try:
                if os.path.samestat(os.fstat(fd), os.stat(path)):
                    return fd, None
            except OSError:
                pass
            # The previous holder unlinked this file as it released it:
            # lock whatever file the path names now.
            durable.close_held(fd)
            fd = None

    def _published(self, key: str) -> ArtifactPayload | None:
        if key not in self:
            return None
        payload = self.get(key)
        if payload is not None:
            self.waits += 1
        return payload

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> ArtifactPayload | None:
        """Load and verify an entry, or ``None`` (a miss) if absent/corrupt.

        Corrupt entries (bad checksum, truncated archive, unparsable
        JSON, missing manifest) are quarantined so the next lookup pays
        only a directory miss, not another failed parse.
        """
        try:
            meta, profiles, arrays = self._read_entry(key)
        except _EntryCorrupt:
            self._quarantine(key)
            self.misses += 1
            return None
        except Exception:
            # Absent entry, or one that vanished mid-read (a concurrent
            # eviction between file opens): a clean miss either way.
            self.misses += 1
            return None
        self.hits += 1
        meta["hits"] = int(meta.get("hits", 0)) + 1
        meta["last_used"] = time.time()
        with self._lock():
            self._write_json(
                os.path.join(self._entry_dir(key), "meta.json"), meta
            )
        return ArtifactPayload(profiles=profiles, arrays=arrays, meta=meta)

    def _read_entry(self, key: str) -> tuple[dict, dict, dict]:
        """Read and verify one entry's three files.

        Raises :class:`_EntryCorrupt` for an entry that is present but
        fails verification, and lets absence errors (``FileNotFoundError``
        from the first open) propagate for the caller to treat as a plain
        miss.
        """
        entry_dir = self._entry_dir(key)
        with open(os.path.join(entry_dir, "meta.json"), "rb") as handle:
            meta_bytes = handle.read()
        try:
            meta = json.loads(meta_bytes)
            if meta.get("format") != ENTRY_FORMAT:
                raise ValueError(f"bad entry format {meta.get('format')!r}")
            checksums = meta["checksums"]
            payload_bytes = {}
            for name in _PAYLOAD_FILES:
                with open(os.path.join(entry_dir, name), "rb") as handle:
                    data = handle.read()
                digest = hashlib.sha256(data).hexdigest()
                if digest != checksums.get(name):
                    raise ValueError(f"checksum mismatch on {name}")
                payload_bytes[name] = data
            if faults.fires("corrupt", "store-read", key):
                raise ValueError(f"injected corruption reading {key}")
            profiles = json.loads(payload_bytes["profiles.json"])
            with np.load(io.BytesIO(payload_bytes["arrays.npz"])) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except FileNotFoundError as exc:
            # A payload file vanished after meta.json was read.  If the
            # whole entry is gone this is a concurrent eviction — a clean
            # miss.  If the directory survives, the entry is half-present
            # (a torn manual delete): corruption, so it gets quarantined
            # instead of missing forever (``put`` keys presence off
            # meta.json and would never repair it).
            if os.path.isdir(entry_dir):
                raise _EntryCorrupt(str(exc)) from exc
            raise
        except Exception as exc:
            raise _EntryCorrupt(str(exc)) from exc
        return meta, profiles, arrays

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry aside (never delete evidence)."""
        entry_dir = self._entry_dir(key)
        with self._lock():
            try:
                os.makedirs(self.quarantine_dir, exist_ok=True)
                destination = os.path.join(self.quarantine_dir, key)
                suffix = 0
                while os.path.exists(destination):
                    suffix += 1
                    destination = os.path.join(
                        self.quarantine_dir, f"{key}.{suffix}"
                    )
                os.replace(entry_dir, destination)
            except OSError:
                # Already gone (or quarantined by a concurrent process).
                return
            self.quarantined += 1
            self._write_index_locked()

    def __contains__(self, key: str) -> bool:
        return os.path.exists(os.path.join(self._entry_dir(key), "meta.json"))

    # -- insertion ---------------------------------------------------------

    def put(self, key: str, payload: ArtifactPayload) -> bool:
        """Persist an entry (idempotent; failures degrade to a no-op)."""
        if key in self:
            return True
        stage = os.path.join(self.root, f"tmp-{key}-{os.getpid()}")
        try:
            os.makedirs(stage, exist_ok=True)
            now = time.time()
            profiles_bytes = json.dumps(payload.profiles).encode()
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **payload.arrays)
            arrays_bytes = buffer.getvalue()
            meta = dict(payload.meta)
            meta.update(
                format=ENTRY_FORMAT, key=key, created=now,
                last_used=now, hits=0,
                checksums={
                    "profiles.json": hashlib.sha256(profiles_bytes).hexdigest(),
                    "arrays.npz": hashlib.sha256(arrays_bytes).hexdigest(),
                },
            )
            if faults.fires("corrupt", "store-write", key):
                # Simulate a torn write: the manifest records the intended
                # bytes, the file holds a truncated prefix.
                arrays_bytes = arrays_bytes[: len(arrays_bytes) // 2]
            with open(os.path.join(stage, "profiles.json"), "wb") as handle:
                handle.write(profiles_bytes)
            with open(os.path.join(stage, "arrays.npz"), "wb") as handle:
                handle.write(arrays_bytes)
            self._write_json(os.path.join(stage, "meta.json"), meta)
            with self._lock():
                os.makedirs(self.objects_dir, exist_ok=True)
                try:
                    os.replace(stage, self._entry_dir(key))
                except OSError:
                    # A concurrent worker published the same key first.
                    shutil.rmtree(stage, ignore_errors=True)
                self._index_put_locked(key, meta)
            return True
        except OSError:
            shutil.rmtree(stage, ignore_errors=True)
            return False

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Scan the object directory (the source of truth, not the index)."""
        results = []
        try:
            keys = sorted(os.listdir(self.objects_dir))
        except OSError:
            return []
        for key in keys:
            entry_dir = self._entry_dir(key)
            try:
                with open(os.path.join(entry_dir, "meta.json")) as handle:
                    meta = json.load(handle)
                nbytes = sum(
                    os.path.getsize(os.path.join(entry_dir, name))
                    for name in os.listdir(entry_dir)
                )
            except (OSError, json.JSONDecodeError):
                continue
            results.append(StoreEntry(
                key=key,
                workload=meta.get("workload", "?"),
                scale=meta.get("scale", "?"),
                created=float(meta.get("created", 0.0)),
                last_used=float(meta.get("last_used", 0.0)),
                hits=int(meta.get("hits", 0)),
                nbytes=nbytes,
            ))
        return results

    def verify(self) -> dict:
        """Check every entry's integrity; quarantine the corrupt ones.

        Returns ``{"checked": n, "ok": n, "corrupt": [keys]}`` —
        the backing of ``repro cache verify``.
        """
        corrupt: list[str] = []
        try:
            keys = sorted(os.listdir(self.objects_dir))
        except OSError:
            keys = []
        for key in keys:
            try:
                self._read_entry(key)
            except _EntryCorrupt:
                corrupt.append(key)
                self._quarantine(key)
            except Exception:
                continue          # vanished mid-scan: not ours to judge
        return {
            "checked": len(keys),
            "ok": len(keys) - len(corrupt),
            "corrupt": corrupt,
        }

    def stats(self) -> dict:
        """Aggregate store statistics (persisted entries + session counters).

        ``quarantine_entries``/``quarantine_bytes`` size the quarantine
        directory, where corrupt entries accumulate across *all* sessions
        until someone inspects and deletes them — a growing quarantine is
        the durable signal that something is corrupting the store.
        """
        entries = self.entries()
        quarantine = self._quarantine_sizes()
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(entry.nbytes for entry in entries),
            "persisted_hits": sum(entry.hits for entry in entries),
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_quarantined": self.quarantined,
            "quarantine_entries": len(quarantine),
            "quarantine_bytes": sum(size for _m, _n, size in quarantine),
        }

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        with self._lock():
            removed = 0
            for entry in self.entries():
                shutil.rmtree(self._entry_dir(entry.key), ignore_errors=True)
                removed += 1
            self._write_index_locked()
        return removed

    def gc(self, max_bytes: int) -> dict:
        """Shrink the store to ``max_bytes`` (``repro cache gc``).

        Quarantined entries count against the budget and are evicted
        *first* (oldest first) — they are corpses kept for inspection,
        so a bounded daemon store reclaims them before touching live
        entries.  Live entries are then LRU-evicted until the store fits.

        Returns ``{"bytes_before", "bytes_after", "quarantine_removed",
        "evicted"}``.
        """
        with self._lock():
            quarantine = self._quarantine_sizes()
            live_bytes = sum(entry.nbytes for entry in self.entries())
            quarantine_bytes = sum(size for _mtime, _name, size in quarantine)
            bytes_before = live_bytes + quarantine_bytes

            total = bytes_before
            quarantine_removed = 0
            while quarantine and total > max_bytes:
                _mtime, name, size = quarantine.pop(0)
                shutil.rmtree(
                    os.path.join(self.quarantine_dir, name),
                    ignore_errors=True,
                )
                total -= size
                quarantine_removed += 1
            # Whatever quarantine survives still counts against the
            # budget; live entries get the remainder.
            kept_quarantine = sum(s for _m, _n, s in quarantine)
            evicted = self._prune_locked(max(0, max_bytes - kept_quarantine))
            bytes_after = (
                sum(entry.nbytes for entry in self.entries())
                + kept_quarantine
            )
        return {
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "quarantine_removed": quarantine_removed,
            "evicted": evicted,
        }

    def _quarantine_sizes(self) -> list[tuple[float, str, int]]:
        """``(mtime, name, bytes)`` of every quarantined entry, oldest first."""
        try:
            names = os.listdir(self.quarantine_dir)
        except OSError:
            names = []
        sizes = []
        for name in names:
            path = os.path.join(self.quarantine_dir, name)
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                mtime = 0.0
            nbytes = 0
            for dirpath, _dirnames, filenames in os.walk(path):
                for filename in filenames:
                    try:
                        nbytes += os.path.getsize(
                            os.path.join(dirpath, filename)
                        )
                    except OSError:
                        continue
            sizes.append((mtime, name, nbytes))
        return sorted(sizes)

    def _prune_locked(self, max_bytes: int) -> int:
        """LRU-evict down to ``max_bytes``, then rebuild the index (one
        scan)."""
        entries = sorted(self.entries(), key=lambda e: e.last_used)
        total = sum(entry.nbytes for entry in entries)
        removed = 0
        while entries and total > max_bytes:
            victim = entries.pop(0)
            shutil.rmtree(self._entry_dir(victim.key), ignore_errors=True)
            total -= victim.nbytes
            removed += 1
        self._write_index_locked(entries)
        return removed

    # -- index -------------------------------------------------------------

    def load_index(self) -> dict:
        """The store index, rebuilding it from ``objects/`` if damaged.

        ``index.json`` is purely derived state; a missing or unparsable
        index (a crashed writer, a manual edit) is repaired in place
        rather than trusted or propagated.
        """
        path = os.path.join(self.root, "index.json")
        try:
            with open(path) as handle:
                index = json.load(handle)
            if index.get("format") != INDEX_FORMAT:
                raise ValueError(f"bad index format {index.get('format')!r}")
            return index
        except (OSError, ValueError, json.JSONDecodeError):
            pass
        with self._lock():
            self._write_index_locked()
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {"format": INDEX_FORMAT, "entries": {}}

    def _index_put_locked(self, key: str, meta: dict) -> None:
        """Add a just-published entry to the index.

        One index read and write instead of a scan of every entry's
        ``meta.json``, so a put stays cheap as the store grows.  The
        indexed ``bytes`` are summed for the budget check; a missing or
        unparsable index, or a total over ``max_bytes``, falls back to
        the full LRU prune, which ranks entries by their ``meta.json``
        (the index's ``last_used`` and ``hits`` lag behind lookups).
        """
        path = os.path.join(self.root, "index.json")
        entry_dir = self._entry_dir(key)
        try:
            with open(path) as handle:
                index = json.load(handle)
            if index.get("format") != INDEX_FORMAT:
                raise ValueError(f"bad index format {index.get('format')!r}")
            entries = index["entries"]
            entries[key] = {
                "workload": meta.get("workload", "?"),
                "scale": meta.get("scale", "?"),
                "created": meta["created"],
                "last_used": meta["last_used"],
                "hits": 0,
                "bytes": sum(
                    os.path.getsize(os.path.join(entry_dir, name))
                    for name in os.listdir(entry_dir)
                ),
            }
            total = sum(int(entry["bytes"]) for entry in entries.values())
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            total = None
        if total is None or total > self.max_bytes:
            self._prune_locked(self.max_bytes)
        else:
            self._write_json(path, index)

    def _write_index_locked(
        self, entries: list[StoreEntry] | None = None
    ) -> None:
        """Rebuild the best-effort index from a scan of ``objects/``.

        ``entries`` is a scan the caller already made; ``None`` rescans.
        """
        if entries is None:
            entries = self.entries()
        try:
            index = {
                "format": INDEX_FORMAT,
                "entries": {
                    entry.key: {
                        "workload": entry.workload,
                        "scale": entry.scale,
                        "created": entry.created,
                        "last_used": entry.last_used,
                        "hits": entry.hits,
                        "bytes": entry.nbytes,
                    }
                    for entry in entries
                },
            }
            self._write_json(os.path.join(self.root, "index.json"), index)
        except OSError:
            pass

    @staticmethod
    def _write_json(path: str, document: dict) -> None:
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "w") as handle:
                json.dump(document, handle)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
