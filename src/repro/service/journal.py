"""The write-ahead job journal: what makes the daemon crash-safe.

Every state the submission queue cares about is appended here *before*
the daemon acts on it — an ``accept`` record is durable before the
client sees its 202, a ``start`` before a worker executes, a ``finish``
(carrying the full result document) before the ticket is marked done.
After a crash (``kill -9`` included), :meth:`JobJournal.replay` rebuilds
the exact ticket table the dying daemon held: done tickets come back
with their results, queued and orphaned-running tickets come back
re-executable, and the idempotent submission-key map survives so a
client retrying a POST whose response was lost attaches to the ticket
it already created.

On-disk layout (``<root>/segment-NNNNNN.jsonl``): segments in the
checksummed JSON-lines format of :mod:`repro.durable`::

    {"format": "repro-journal-v1", "seq": 17, "ts": ...,
     "event": "accept", "data": {...}, "checksum": "<sha256[:16]>"}

Appends are flushed and ``fsync``'d before returning — a record the
daemon acted on is a record a restart will see.  A torn tail on the
last segment (the crash landed mid-write) is detected by checksum/parse
failure, truncated away, and counted; a corrupt record elsewhere (torn
storage, injected via ``corrupt:journal-append``) is skipped and
counted, never trusted.

Replay ends with :meth:`JobJournal.compact`: the surviving tickets are
rewritten as ``snapshot`` records into one fresh segment and the old
segments are deleted, so the journal's size tracks the live ticket
table, not the daemon's lifetime request count.  The queue also
compacts opportunistically once the live segments outgrow
``max_bytes`` (see :meth:`should_compact`).

A directory-level ``flock`` (``<root>/.lock``) guards against two
daemons journaling into the same directory — the second one fails fast
with :class:`JournalLocked` instead of interleaving records.
"""

from __future__ import annotations

import os
import time

from repro import durable
from repro.engine import faults

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "JobJournal",
    "JournalError",
    "JournalLocked",
    "JournalReplay",
    "ticket_doc",
]

#: Format tag carried by every record; unknown formats fail validation.
JOURNAL_FORMAT = "repro-journal-v1"

#: Journal events.  ``snapshot`` records are written by compaction and
#: carry a full ticket document; the others carry deltas.
EVENTS = ("accept", "coalesce", "start", "requeue", "finish", "snapshot")

#: Compaction trigger: once live segments exceed this, the queue asks
#: for a compact at the next quiet moment.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024


class JournalError(RuntimeError):
    """A journal that cannot be opened or written."""


class JournalLocked(JournalError):
    """Another live daemon already owns this journal directory."""


def _is_journal_record(record: dict) -> bool:
    return (
        record.get("format") == JOURNAL_FORMAT
        and record.get("event") in EVENTS
        and isinstance(record.get("data"), dict)
    )


def ticket_doc(ticket) -> dict:
    """The full journal document for one ticket (used by ``snapshot``)."""
    return {
        "id": ticket.id,
        "request": ticket.request,
        "fingerprint": ticket.fingerprint,
        "submission": ticket.submission,
        "trace": ticket.trace,
        "state": ticket.state,
        "created": ticket.created,
        "started": ticket.started,
        "finished": ticket.finished,
        "coalesced": ticket.coalesced,
        "attempt": ticket.attempt,
        "requeues": ticket.requeues,
        "recovered": ticket.recovered,
        "result": ticket.result,
        "error": ticket.error,
        "failure": ticket.failure,
    }


class JournalReplay:
    """What :meth:`JobJournal.replay` recovered.

    ``tickets`` holds one state document per surviving ticket, in
    acceptance order; ``records``/``corrupt``/``truncated_bytes`` count
    what replay read, skipped, and cut from a torn tail.
    """

    def __init__(self) -> None:
        self.tickets: dict[str, dict] = {}
        self.order: list[str] = []
        self.records = 0
        self.corrupt = 0
        self.truncated_bytes = 0
        self.segments = 0
        self.max_id = 0

    def ticket_states(self) -> list[dict]:
        return [self.tickets[ticket_id] for ticket_id in self.order]

    def _track_id(self, ticket_id: str) -> None:
        # Ids are ``job-NNNNNN``; the restart's counter resumes past the
        # highest one ever issued so recovered and new ids never clash.
        try:
            self.max_id = max(self.max_id, int(ticket_id.rsplit("-", 1)[1]))
        except (IndexError, ValueError):
            pass

    def apply(self, record: dict) -> None:
        event, data = record["event"], record["data"]
        if event in ("accept", "snapshot"):
            doc = {
                "id": data["id"],
                "request": data["request"],
                "fingerprint": data["fingerprint"],
                "submission": data.get("submission"),
                "trace": data.get("trace"),
                "state": data.get("state", "queued"),
                "created": data.get("created"),
                "started": data.get("started"),
                "finished": data.get("finished"),
                "coalesced": data.get("coalesced", 0),
                "attempt": data.get("attempt", 0),
                "requeues": data.get("requeues", 0),
                "recovered": data.get("recovered", False),
                "result": data.get("result"),
                "error": data.get("error"),
                "failure": data.get("failure"),
            }
            if doc["id"] not in self.tickets:
                self.order.append(doc["id"])
            self.tickets[doc["id"]] = doc
            self._track_id(doc["id"])
            return
        doc = self.tickets.get(data.get("id"))
        if doc is None:
            # A delta for a ticket whose accept record was lost (corrupt
            # segment): nothing safe to rebuild, count and move on.
            self.corrupt += 1
            return
        if event == "coalesce":
            doc["coalesced"] = data.get("coalesced", doc["coalesced"] + 1)
        elif event == "start":
            doc["state"] = "running"
            doc["attempt"] = data.get("attempt", doc["attempt"])
            doc["started"] = data.get("started")
        elif event == "requeue":
            doc["state"] = "queued"
            doc["attempt"] = data.get("attempt", doc["attempt"])
            doc["requeues"] = data.get("requeues", doc["requeues"])
            doc["started"] = None
        elif event == "finish":
            doc["state"] = data["state"]
            doc["finished"] = data.get("finished")
            doc["result"] = data.get("result")
            doc["error"] = data.get("error")
            doc["failure"] = data.get("failure")


class JobJournal:
    """Append-only, checksummed, fsync'd record of the ticket table."""

    def __init__(
        self,
        root: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        sync: bool = True,
        registry=None,
    ) -> None:
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self.sync = sync
        # Optional MetricsRegistry: append() feeds the flush+fsync wall
        # time into service.journal_fsync_s so /metrics exposes the
        # durability cost every 202 pays.
        self.registry = registry
        self._seq = 0
        self._handle = None
        self._lock_handle = None
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
        path = os.path.join(self.root, ".lock")
        try:
            handle = open(path, "a+")
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            raise JournalLocked(
                f"journal {self.root} is owned by another live daemon"
            ) from exc
        except OSError:
            return
        self._lock_handle = handle

    def close(self) -> None:
        """Release the segment handle and the ownership lock."""
        self._close_segment()
        if self._lock_handle is not None:
            try:
                self._lock_handle.close()   # closing releases the flock
            except OSError:
                pass
            self._lock_handle = None

    def _close_segment(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    # -- segments ----------------------------------------------------------

    def _segment_names(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            name for name in names
            if name.startswith("segment-") and name.endswith(".jsonl")
        )

    @staticmethod
    def _segment_number(name: str) -> int:
        try:
            return int(name[len("segment-"):-len(".jsonl")])
        except ValueError:
            return 0

    def _next_segment_path(self) -> str:
        names = self._segment_names()
        number = self._segment_number(names[-1]) + 1 if names else 1
        return os.path.join(self.root, f"segment-{number:06d}.jsonl")

    def _open_for_append(self):
        if self._handle is None:
            names = self._segment_names()
            path = (os.path.join(self.root, names[-1]) if names
                    else self._next_segment_path())
            self._handle = durable.open_append(path)
        return self._handle

    def size_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.root, name))
            for name in self._segment_names()
            if os.path.exists(os.path.join(self.root, name))
        )

    def should_compact(self) -> bool:
        return self.size_bytes() > self.max_bytes

    # -- writing -----------------------------------------------------------

    def append(self, event: str, data: dict) -> int:
        """Durably append one record; returns its sequence number.

        The record is flushed and ``fsync``'d before this returns — the
        write-ahead contract.  Raises :class:`JournalError` when the
        write cannot be made durable (the caller must then refuse the
        action it was about to acknowledge).
        """
        if event not in EVENTS:
            raise ValueError(f"unknown journal event {event!r}")
        line = self._seal(event, data)
        if faults.fires("corrupt", "journal-append", event):
            # A torn record: half the line, no newline discipline broken
            # (replay must skip it by checksum, not crash).
            line = line[: max(4, len(line) // 2)]
        try:
            fsync_s = durable.append(self._open_for_append(), line, self.sync)
        except OSError as exc:
            raise JournalError(f"journal append failed: {exc}") from exc
        if self.registry is not None:
            self.registry.histogram("service.journal_fsync_s").observe(fsync_s)
        # After the record is durable: the distinct chaos point from
        # ``accept`` (which fires before anything is written).
        faults.maybe_fail("journal-append", f"{event}:{data.get('id', '')}")
        return self._seq

    def _seal(self, event: str, data: dict) -> str:
        self._seq += 1
        return durable.seal({
            "format": JOURNAL_FORMAT,
            "seq": self._seq,
            "ts": time.time(),
            "event": event,
            "data": data,
        })

    # -- reading -----------------------------------------------------------

    def replay(self, should_abort=None) -> JournalReplay:
        """Rebuild the ticket table from every segment on disk.

        ``should_abort`` (a callable) is polled before each segment is
        read and between the records it holds, so a SIGTERM during a
        long replay aborts promptly instead of finishing the recovery
        nobody will serve; an aborted replay counts the records it
        applied and the corrupt lines of every segment it read.  A torn
        tail on the final segment is truncated in place; corrupt records
        elsewhere are skipped and counted.
        """
        faults.maybe_fail("journal-replay", "replay")
        replay = JournalReplay()
        names = self._segment_names()
        replay.segments = len(names)
        for index, name in enumerate(names):
            if should_abort is not None and should_abort():
                return replay
            path = os.path.join(self.root, name)
            try:
                scan = durable.read(path, _is_journal_record)
            except OSError:
                continue
            replay.corrupt += scan.corrupt
            for record in scan.records:
                if should_abort is not None and should_abort():
                    return replay
                self._seq = max(self._seq, record.get("seq", 0))
                replay.apply(record)
                replay.records += 1
            if index == len(names) - 1 and scan.tail_corrupt:
                # The trailing bad records are a torn tail from the
                # crash, not corruption to preserve: cut them so the
                # next append starts at a clean line boundary.
                try:
                    size = os.path.getsize(path)
                    with open(path, "rb+") as handle:
                        handle.truncate(scan.good_end)
                    replay.truncated_bytes += size - scan.good_end
                    replay.corrupt -= scan.tail_corrupt
                except OSError:
                    pass
        return replay

    # -- compaction --------------------------------------------------------

    def compact(self, ticket_docs: list[dict]) -> dict:
        """Rewrite the journal as one snapshot segment; drop the rest.

        The new segment is staged, fsync'd, and renamed into place
        before any old segment is deleted, so a crash mid-compaction
        leaves either the old journal or the new one — never neither.
        Returns ``{"segments_removed", "bytes_before", "bytes_after"}``.
        """
        bytes_before = self.size_bytes()
        old_names = self._segment_names()
        self._close_segment()
        path = self._next_segment_path()
        try:
            durable.rewrite(
                path, [self._seal("snapshot", doc) for doc in ticket_docs],
                self.sync,
            )
        except OSError as exc:
            raise JournalError(f"journal compaction failed: {exc}") from exc
        removed = 0
        for name in old_names:
            if os.path.join(self.root, name) == path:
                continue
            try:
                os.unlink(os.path.join(self.root, name))
                removed += 1
            except OSError:
                pass
        return {
            "segments_removed": removed,
            "bytes_before": bytes_before,
            "bytes_after": self.size_bytes(),
        }
