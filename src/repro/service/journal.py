"""The write-ahead job journal: what makes the daemon crash-safe.

Every queue transition appends the ticket's whole document here *before*
the daemon acts on it — the queued ticket is durable before the client
sees its 202, the running one before a worker executes, the done one
(carrying the full result) before any poller can read it.  After a
crash (``kill -9`` included), :meth:`JobJournal.replay` rebuilds the
exact ticket table the dying daemon held: the newest intact document of
each ticket wins, so done tickets come back with their results, queued
and orphaned-running tickets come back re-executable, and the
idempotent submission-key map survives so a client retrying a POST
whose response was lost attaches to the ticket it already created.
Losing one record costs at most that transition: the ticket's previous
document still restores.

On-disk layout: ``<root>/journal.jsonl``, in the checksummed JSON-lines
format of :mod:`repro.durable`::

    {"format": "repro-journal-v2", "seq": 17, "ts": ...,
     "ticket": {"id": ..., "state": ..., ...}, "checksum": "<sha256[:16]>"}

where ``ticket`` holds every field of
:class:`~repro.service.queue.Ticket`.  Appends are flushed and
``fsync``'d before returning — a record the daemon acted on is a record
a restart will see.  A torn tail (the crash landed mid-write) is
detected by checksum/parse failure, truncated away, and counted; a
corrupt record elsewhere (torn storage, injected via
``corrupt:journal-append``) is skipped and counted, never trusted, and
so is a verified record whose document does not build a ticket.

Replay ends with :meth:`JobJournal.compact`: the live tickets' documents
replace the file through :func:`repro.durable.rewrite` (staged, fsync'd,
renamed), so the journal's size tracks the live ticket table, not the
daemon's lifetime request count.  The queue also compacts
opportunistically once the file outgrows :data:`MAX_BYTES`.

A directory-level ``flock`` (``<root>/.lock``, opened through
:func:`repro.durable.open_held` so forked children never keep it) guards
against two daemons journaling into the same directory — the second one
fails fast with :class:`JournalLocked` instead of interleaving records.
"""

from __future__ import annotations

import os
import time

from repro import durable
from repro.engine import faults
from repro.service.queue import STATES, Ticket

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "JobJournal",
    "JournalError",
    "JournalLocked",
    "JournalReplay",
]

#: Format tag carried by every record; other formats read as corrupt.
JOURNAL_FORMAT = "repro-journal-v2"

#: Compaction trigger: once the journal exceeds this, the queue compacts
#: it at the next watchdog poll.
MAX_BYTES = 8 * 1024 * 1024


class JournalError(RuntimeError):
    """A journal that cannot be opened or written."""


class JournalLocked(JournalError):
    """Another live daemon already owns this journal directory."""


def _is_journal_record(record: dict) -> bool:
    """A v2 record whose document builds a :class:`Ticket` restore can file."""
    if (record.get("format") != JOURNAL_FORMAT
            or not isinstance(record.get("ticket"), dict)):
        return False
    try:
        ticket = Ticket(**record["ticket"])
    except TypeError:
        return False
    return isinstance(ticket.id, str) and ticket.state in STATES


class JournalReplay:
    """What :meth:`JobJournal.replay` recovered.

    ``tickets`` maps each surviving ticket id to its newest document, in
    order of first appearance; ``records``/``corrupt``/``truncated_bytes``
    count what replay read, skipped, and cut from a torn tail.
    """

    def __init__(self) -> None:
        self.tickets: dict[str, dict] = {}
        self.records = 0
        self.corrupt = 0
        self.truncated_bytes = 0

    def ticket_states(self) -> list[dict]:
        return list(self.tickets.values())


class JobJournal:
    """Append-only, checksummed, fsync'd record of the ticket table."""

    def __init__(self, root: str, registry=None) -> None:
        self.root = os.path.abspath(root)
        self.path = os.path.join(self.root, "journal.jsonl")
        # Optional MetricsRegistry: append() feeds the flush+fsync wall
        # time into service.journal_fsync_s so /metrics exposes the
        # durability cost every 202 pays.
        self.registry = registry
        self._seq = 0
        self._handle = None
        self._lock_fd = None
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create journal directory {self.root}: {exc}"
            ) from exc
        self._acquire_lock()

    # -- ownership ---------------------------------------------------------

    def _acquire_lock(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return
        try:
            fd = durable.open_held(os.path.join(self.root, ".lock"))
        except OSError:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            durable.close_held(fd)
            raise JournalLocked(
                f"journal {self.root} is owned by another live daemon"
            ) from exc
        except OSError:
            durable.close_held(fd)
            return
        self._lock_fd = fd

    def close(self) -> None:
        """Release the append handle and the ownership lock."""
        self._close_handle()
        if self._lock_fd is not None:
            durable.close_held(self._lock_fd)
            self._lock_fd = None

    def _close_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def should_compact(self) -> bool:
        try:
            return os.path.getsize(self.path) > MAX_BYTES
        except OSError:
            return False

    # -- writing -----------------------------------------------------------

    def append(self, doc: dict) -> int:
        """Durably append one ticket document; returns its sequence number.

        The record is flushed and ``fsync``'d before this returns — the
        write-ahead contract.  Raises :class:`JournalError` when the
        write cannot be made durable (the caller must then refuse the
        action it was about to acknowledge).  Fault-injection units are
        ``<state>:<ticket id>``.
        """
        unit = f"{doc.get('state')}:{doc.get('id')}"
        line = self._seal(doc)
        if faults.fires("corrupt", "journal-append", unit):
            # A torn record: half the line, no newline discipline broken
            # (replay must skip it by checksum, not crash).
            line = line[: max(4, len(line) // 2)]
        try:
            if self._handle is None:
                self._handle = durable.open_append(self.path)
            fsync_s = durable.append(self._handle, line)
        except OSError as exc:
            raise JournalError(f"journal append failed: {exc}") from exc
        if self.registry is not None:
            self.registry.histogram("service.journal_fsync_s").observe(fsync_s)
        # After the record is durable: the distinct chaos point from
        # ``accept`` (which fires before anything is written).
        faults.maybe_fail("journal-append", unit)
        return self._seq

    def _seal(self, doc: dict) -> str:
        self._seq += 1
        return durable.seal({
            "format": JOURNAL_FORMAT,
            "seq": self._seq,
            "ts": time.time(),
            "ticket": doc,
        })

    # -- reading -----------------------------------------------------------

    def replay(self, should_abort=None) -> JournalReplay:
        """Rebuild the ticket table from the journal file.

        ``should_abort`` (a callable) is polled before the file is read
        and between the records it holds, so a SIGTERM during a long
        replay aborts promptly instead of finishing the recovery nobody
        will serve; an aborted replay counts the records it applied and
        the file's corrupt lines.  A torn tail is truncated in place;
        corrupt records elsewhere are skipped and counted.
        """
        faults.maybe_fail("journal-replay", "replay")
        replay = JournalReplay()
        if should_abort is not None and should_abort():
            return replay
        try:
            # Any verified line: one that is not a ticket record (an old
            # format, a document that builds no ticket) counts corrupt
            # below, but it is not a torn tail to truncate.
            scan = durable.read(self.path, lambda record: True)
        except OSError:
            return replay
        replay.corrupt = scan.corrupt - scan.tail_corrupt
        for record in scan.records:
            if should_abort is not None and should_abort():
                return replay
            if not _is_journal_record(record):
                replay.corrupt += 1
                continue
            self._seq = max(self._seq, record.get("seq", 0))
            replay.tickets[record["ticket"]["id"]] = record["ticket"]
            replay.records += 1
        if scan.tail_corrupt:
            # The trailing bad records are a torn tail from the crash,
            # not corruption to preserve: cut them so the next append
            # starts at a clean line boundary.
            try:
                size = os.path.getsize(self.path)
                with open(self.path, "rb+") as handle:
                    handle.truncate(scan.good_end)
                replay.truncated_bytes = size - scan.good_end
            except OSError:
                replay.corrupt += scan.tail_corrupt
        return replay

    # -- compaction --------------------------------------------------------

    def compact(self, docs: list[dict]) -> None:
        """Replace the journal with one record per live ticket document.

        :func:`repro.durable.rewrite` stages, fsyncs, and renames the new
        file into place, so a crash mid-compaction leaves either the old
        journal or the new one — never neither.
        """
        self._close_handle()
        try:
            durable.rewrite(self.path, [self._seal(doc) for doc in docs])
        except OSError as exc:
            raise JournalError(f"journal compaction failed: {exc}") from exc
