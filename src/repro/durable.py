"""Checksummed JSON-lines files and the locks that guard durable state.

The service journal (``repro-journal-v2``) and the perf ledger
(``repro-perf-v1``) store records the same way::

    {"format": ..., "seq": 17, "ts": ..., ..., "checksum": "<sha256[:16]>"}

one record per line, keys sorted, where ``checksum`` covers the
canonical JSON of every other field.  A line that fails to parse or
verify is skipped and counted, never trusted.  Readers take an
``accept`` predicate for what makes a verified record the caller's own
(format tag, record shape).

:func:`open_held` and :func:`close_held` are the one way to open a file
that is ``flock``'d: the artifact store's root and per-key locks and the
journal's ownership lock.  A forked child closes every held descriptor
at once, because its copy shares the parent's ``flock``; a long-lived
child (a process-pool worker) would otherwise keep each lock held at the
fork after the parent releases it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from typing import Callable, NamedTuple

__all__ = [
    "Scan",
    "append",
    "close_held",
    "last_record",
    "open_append",
    "open_held",
    "read",
    "record_checksum",
    "rewrite",
    "seal",
]

_CHECKSUM_CHARS = 16

#: How far :func:`last_record` reads back before it gives up.
TAIL_WINDOW = 64 * 1024


def record_checksum(record: dict) -> str:
    """sha256[:16] of the canonical JSON of every field but ``checksum``."""
    payload = json.dumps(
        {k: v for k, v in record.items() if k != "checksum"},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:_CHECKSUM_CHARS]


def seal(record: dict) -> str:
    """Stamp ``record`` with its checksum; return its line (no newline)."""
    record["checksum"] = record_checksum(record)
    return json.dumps(record, sort_keys=True)


def open_append(path: str):
    """Open ``path`` for appending with the next record on a fresh line.

    A crashed writer can leave a partial last line.  Without a newline
    between them the next record would join that fragment and be lost
    with it; with one, the fragment reads back as one corrupt line.
    """
    handle = open(path, "ab+")
    if handle.tell():
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")
    return handle


def append(handle, line: str) -> float:
    """Write one record line durably; return the flush+fsync seconds."""
    handle.write(line.encode() + b"\n")
    started = time.perf_counter()
    handle.flush()
    os.fsync(handle.fileno())
    return time.perf_counter() - started


def _verified(raw: bytes, accept: Callable[[dict], bool]) -> dict | None:
    try:
        record = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if (
        not isinstance(record, dict)
        or not accept(record)
        or record.get("checksum") != record_checksum(record)
    ):
        return None
    return record


class Scan(NamedTuple):
    """What one :func:`read` recovered.

    ``good_end`` is the offset just past the last intact record, and
    ``tail_corrupt`` counts the corrupt lines after it (a torn tail).
    """

    records: list
    corrupt: int
    good_end: int
    tail_corrupt: int


def read(path: str, accept: Callable[[dict], bool]) -> Scan:
    """Every intact record in ``path``, oldest first; bad lines counted.

    Blank lines are ignored.  A missing file reads as empty; any other
    ``OSError`` propagates.
    """
    records: list[dict] = []
    corrupt = good_end = tail_corrupt = offset = 0
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return Scan(records, 0, 0, 0)
    with handle:
        for raw in handle:
            offset += len(raw)
            if not raw.strip():
                continue
            record = _verified(raw, accept)
            if record is None:
                corrupt += 1
                tail_corrupt += 1
                continue
            records.append(record)
            good_end = offset
            tail_corrupt = 0
    return Scan(records, corrupt, good_end, tail_corrupt)


def last_record(path: str, accept: Callable[[dict], bool]) -> dict | None:
    """The newest intact record within :data:`TAIL_WINDOW` bytes of the end.

    ``None`` when the window holds none (or the file is missing); only
    then does a caller need a full :func:`read`.
    """
    try:
        with open(path, "rb") as handle:
            start = max(0, handle.seek(0, os.SEEK_END) - TAIL_WINDOW)
            handle.seek(start)
            lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return None
    if start:
        lines = lines[1:]       # the window cuts its first line
    for raw in reversed(lines):
        if raw.strip():
            record = _verified(raw, accept)
            if record is not None:
                return record
    return None


def rewrite(path: str, lines: list[str]) -> None:
    """Replace ``path`` with ``lines``: staged tmp, fsync, rename.

    A crash at any point leaves the old file or the complete new one.
    Raises ``OSError`` (after removing the stage) when it cannot.
    """
    stage = f"{path}.tmp-{os.getpid()}"
    try:
        with open(stage, "wb") as handle:
            for line in lines:
                handle.write(line.encode() + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(stage, path)
    except OSError:
        try:
            os.unlink(stage)
        except OSError:
            pass
        raise


#: Descriptors of the lock files this process holds.  ``_held_guard``
#: keeps a fork from landing between an open and its registration.
_held_fds: set[int] = set()
_held_guard = threading.Lock()


def open_held(path: str) -> int:
    """Open (creating) a lock file; the descriptor closes in forked children."""
    with _held_guard:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        _held_fds.add(fd)
    return fd


def close_held(fd: int) -> None:
    """Close a descriptor from :func:`open_held`, releasing its ``flock``."""
    with _held_guard:
        _held_fds.discard(fd)
        os.close(fd)


def _close_held_in_child() -> None:
    for fd in _held_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    _held_fds.clear()
    _held_guard.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_held_guard.acquire,
        after_in_parent=_held_guard.release,
        after_in_child=_close_held_in_child,
    )
