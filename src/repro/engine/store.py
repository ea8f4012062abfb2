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

Duplicate-work suppression: a computation about to produce entry ``key``
first calls :meth:`ArtifactStore.claim`, which atomically creates an
*in-flight marker* under ``<root>/inflight/``.  A second process (or a
second daemon request) that loses the claim race calls
:meth:`ArtifactStore.wait_for` and blocks until the winner publishes,
so concurrent submissions of the same configuration execute once and
share the result.  Markers carry the owner's pid and creation time; a
marker whose owner is dead or older than ``REPRO_INFLIGHT_STALE_S``
(default 900 s) is reclaimed, so a crashed publisher can never wedge
its waiters — they fall back to computing.
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

#: Age past which an in-flight marker is presumed abandoned, overridable
#: via ``REPRO_INFLIGHT_STALE_S``.
DEFAULT_INFLIGHT_STALE_S = 900.0

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
        self.inflight_stale_s = float(
            os.environ.get("REPRO_INFLIGHT_STALE_S", DEFAULT_INFLIGHT_STALE_S)
        )
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.waits = 0        # lookups satisfied by waiting on a claimant

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

    def _marker_path(self, key: str) -> str:
        return os.path.join(self.inflight_dir, key)

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
        if fcntl is None:
            yield
            return
        handle = None
        try:
            os.makedirs(self.root, exist_ok=True)
            handle = open(os.path.join(self.root, ".lock"), "a+")
            fcntl.flock(handle, fcntl.LOCK_EX)
        except OSError:
            handle = None
        try:
            yield
        finally:
            if handle is not None:
                handle.close()   # closing releases the flock

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

    # -- in-flight coordination --------------------------------------------

    def _read_marker(self, key: str) -> dict | None:
        try:
            with open(self._marker_path(key)) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError, ValueError):
            return None

    @staticmethod
    def _owner_alive(marker: dict) -> bool:
        pid = marker.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except OSError:
            pass               # e.g. EPERM: someone else's live process
        return True

    def _marker_stale(self, marker: dict | None) -> bool:
        if marker is None:
            return True
        age = time.time() - float(marker.get("created", 0.0))
        return age > self.inflight_stale_s or not self._owner_alive(marker)

    def claim(self, key: str) -> bool:
        """Atomically become the computer of ``key``.

        Returns ``True`` when this process now owns the in-flight marker
        (it must :meth:`release` after publishing, success or not) and
        ``False`` when another live process already holds a fresh claim
        — the caller should :meth:`wait_for` the publish instead of
        duplicating the computation.  A marker left by a dead or stalled
        owner is reclaimed.  Degrades to ``True`` (compute locally) on a
        read-only store.
        """
        if key in self:
            return False       # already published: nothing to compute
        with self._lock():
            if key in self:    # published while we waited on the lock
                return False
            path = self._marker_path(key)
            marker = {"pid": os.getpid(), "created": time.time()}
            try:
                os.makedirs(self.inflight_dir, exist_ok=True)
                handle = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if not self._marker_stale(self._read_marker(key)):
                    return False
                # Abandoned claim (dead owner or past the staleness
                # horizon): take it over in place, still under the lock.
                try:
                    self._write_json(path, marker)
                except OSError:
                    return True
                return True
            except OSError:
                return True    # read-only store: just compute locally
            with os.fdopen(handle, "w") as out:
                json.dump(marker, out)
            return True

    def release(self, key: str) -> None:
        """Drop this process's in-flight marker (best-effort)."""
        try:
            os.unlink(self._marker_path(key))
        except OSError:
            pass

    def in_flight(self, key: str) -> bool:
        """Is a live claimant currently computing ``key``?"""
        return not self._marker_stale(self._read_marker(key))

    def wait_for(
        self, key: str, timeout: float | None = None, poll_s: float = 0.05
    ) -> ArtifactPayload | None:
        """Block until a concurrent claimant publishes ``key``.

        Returns the published payload, or ``None`` if the claimant
        vanished without publishing (its marker disappeared or went
        stale) or ``timeout`` elapsed — the caller then computes the
        entry itself.  Successful waits count in ``self.waits``.
        """
        if timeout is None:
            timeout = self.inflight_stale_s
        deadline = time.monotonic() + timeout
        while True:
            if key in self:
                payload = self.get(key)
                if payload is not None:
                    self.waits += 1
                return payload
            if not self.in_flight(key) or time.monotonic() >= deadline:
                return None
            time.sleep(poll_s)

    # -- maintenance -------------------------------------------------------

    def sweep_inflight(self, stale_after: float | None = None) -> int:
        """Remove stale in-flight claim markers; returns how many.

        A marker is stale when its owner process is dead or it is older
        than ``stale_after`` seconds (default: the store's
        ``REPRO_INFLIGHT_STALE_S`` horizon).  Crashed daemons and
        ``kill -9``'d workers leave these behind; live waiters already
        treat them as reclaimable, but sweeping keeps ``inflight/`` from
        accumulating corpses (``repro cache gc --stale-after`` and the
        service's startup recovery both call this).
        """
        with self._lock():
            return self._sweep_inflight_locked(stale_after)

    def _sweep_inflight_locked(self, stale_after: float | None = None) -> int:
        horizon = self.inflight_stale_s if stale_after is None else stale_after
        swept = 0
        try:
            names = sorted(os.listdir(self.inflight_dir))
        except OSError:
            return 0
        now = time.time()
        for name in names:
            marker = self._read_marker(name)
            if marker is None:
                stale = True
            else:
                age = now - float(marker.get("created", 0.0))
                stale = age > horizon or not self._owner_alive(marker)
            if stale:
                try:
                    os.unlink(self._marker_path(name))
                    swept += 1
                except OSError:
                    pass
        return swept

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
        quarantine_entries = 0
        quarantine_bytes = 0
        try:
            names = os.listdir(self.quarantine_dir)
        except OSError:
            names = []
        for name in names:
            quarantine_entries += 1
            path = os.path.join(self.quarantine_dir, name)
            for dirpath, _dirnames, filenames in os.walk(path):
                for filename in filenames:
                    try:
                        quarantine_bytes += os.path.getsize(
                            os.path.join(dirpath, filename)
                        )
                    except OSError:
                        continue
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(entry.nbytes for entry in entries),
            "persisted_hits": sum(entry.hits for entry in entries),
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_quarantined": self.quarantined,
            "quarantine_entries": quarantine_entries,
            "quarantine_bytes": quarantine_bytes,
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

    def prune(
        self, max_bytes: int | None = None, max_entries: int | None = None
    ) -> int:
        """Evict least-recently-used entries beyond the given limits."""
        with self._lock():
            return self._prune_locked(max_bytes, max_entries)

    def gc(self, max_bytes: int) -> dict:
        """Shrink the store to ``max_bytes`` (``repro cache gc``).

        Quarantined entries count against the budget and are evicted
        *first* (oldest first) — they are corpses kept for inspection,
        so a bounded daemon store reclaims them before touching live
        entries.  Stale in-flight markers are swept as a side effect.
        Live entries are then LRU-evicted until the store fits.

        Returns ``{"bytes_before", "bytes_after", "quarantine_removed",
        "evicted", "markers_swept"}``.
        """
        with self._lock():
            markers_swept = self._sweep_inflight_locked()

            def _tree_bytes(path: str) -> int:
                total = 0
                for dirpath, _dirnames, filenames in os.walk(path):
                    for filename in filenames:
                        try:
                            total += os.path.getsize(
                                os.path.join(dirpath, filename)
                            )
                        except OSError:
                            continue
                return total

            quarantine: list[tuple[float, str, int]] = []
            try:
                names = os.listdir(self.quarantine_dir)
            except OSError:
                names = []
            for name in names:
                path = os.path.join(self.quarantine_dir, name)
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    mtime = 0.0
                quarantine.append((mtime, name, _tree_bytes(path)))
            quarantine.sort()

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
            evicted = self._prune_locked(
                max(0, max_bytes - kept_quarantine), None
            )
            bytes_after = (
                sum(entry.nbytes for entry in self.entries())
                + sum(s for _m, _n, s in quarantine)
            )
        return {
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "quarantine_removed": quarantine_removed,
            "evicted": evicted,
            "markers_swept": markers_swept,
        }

    def _prune_locked(
        self, max_bytes: int | None, max_entries: int | None
    ) -> int:
        """LRU-evict beyond the limits, then rebuild the index (one scan)."""
        entries = sorted(self.entries(), key=lambda e: e.last_used)
        total = sum(entry.nbytes for entry in entries)
        removed = 0
        while entries and (
            (max_bytes is not None and total > max_bytes)
            or (max_entries is not None and len(entries) > max_entries)
        ):
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
            self._prune_locked(self.max_bytes, None)
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
