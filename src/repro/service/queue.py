"""The submission queue: bounded, coalescing, journaled, drainable.

Every accepted request becomes a :class:`Ticket` with a daemon-unique
id and a lifecycle of ``queued -> running -> done | failed`` (with
``running -> queued`` re-queues in between when an attempt crashes,
hangs past the deadline, or the daemon restarts).  The queue enforces
the service's core multi-tenancy behaviors:

* **Coalescing** — a submission whose fingerprint matches a ticket that
  is still queued or running returns *that* ticket instead of creating
  a new one.  Concurrent clients asking for the same computation share
  one warm store and one in-flight execution; the ticket counts how
  many submissions it absorbed (``coalesced``).  Finished tickets are
  never coalesced onto: a re-submission after completion gets a fresh
  ticket (which will then be served warm by the artifact store).
* **Idempotent resubmission** — a submission carrying a *submission
  key* (the client sends one per logical submit, reused across its
  retries) maps to at most one ticket, whatever the ticket's state.  A
  client that never saw its 202 — the daemon crashed writing it, the
  network ate it — retries the POST and gets the ticket it already
  created instead of a duplicate execution.
* **Backpressure** — at most ``depth`` tickets may be queued-or-running
  at once; past that, :meth:`JobQueue.submit` raises
  :class:`QueueFull` carrying a ``retry_after_s`` estimate (the HTTP
  layer turns it into 429 + ``Retry-After``).

When built with a :class:`~repro.service.journal.JobJournal`, every
transition appends the ticket's whole document (fsync'd) *before* the
in-memory state change is visible to callers: the queued ticket before
submit returns, the running one before the worker executes, the done
one carrying the result before a poller can read it.  :meth:`restore`
is the other half — after a crash the daemon replays the journal and
hands the newest document of each ticket back to a fresh queue.

Attempt fencing: :meth:`claim` stamps each execution with the ticket's
current ``attempt``; :meth:`finish` and :meth:`requeue` ignore calls
whose attempt is stale.  That is what makes the watchdog safe — it can
reap a hung attempt and re-queue the ticket while the hung thread is
still running, and whichever outcome that thread eventually reports is
dropped on the floor instead of clobbering the retry's.

Shutdown: :meth:`close` makes further submissions raise
:class:`QueueClosed` while everything already accepted stays claimable,
and :meth:`drained` lets the daemon block until the workers have
finished every accepted ticket.

Thread-safe throughout; completed tickets are retained (bounded by
:data:`KEEP_FINISHED`) so clients can poll results after completion.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

__all__ = ["JobQueue", "QueueClosed", "QueueFull", "Ticket"]

#: Ticket lifecycle states.
STATES = ("queued", "running", "done", "failed")

#: Finished tickets kept for result polling (read at call time).
KEEP_FINISHED = 512


class QueueFull(RuntimeError):
    """The queue is at depth; carries a client backoff hint."""

    def __init__(self, depth: int, retry_after_s: float) -> None:
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(
            f"queue is full ({depth} jobs accepted); "
            f"retry after {retry_after_s:.0f}s"
        )


class QueueClosed(RuntimeError):
    """The daemon is draining; no new work is accepted."""


@dataclass
class Ticket:
    """One accepted request and everything that happened to it."""

    id: str
    request: dict                 # the normalized request document
    fingerprint: str
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    coalesced: int = 0            # extra submissions this ticket absorbed
    result: dict | None = None    # {"output": ..., "receipt": ...}
    error: str | None = None
    submission: str | None = None  # client idempotency key, if sent
    aliases: list[str] = field(default_factory=list)  # coalesced keys
    trace: str | None = None      # end-to-end trace id for this request
    attempt: int = 0              # execution epoch; bumps on requeue
    requeues: int = 0             # how many attempts were reaped/retried
    recovered: bool = False       # re-enqueued by journal replay
    failure: dict | None = None   # structured cause once failed

    def submission_keys(self) -> list[str]:
        """Every idempotency key that maps to this ticket."""
        keys = [self.submission] if self.submission else []
        return keys + self.aliases

    def status_doc(self) -> dict:
        """The JSON document ``GET /v1/jobs/<id>`` returns."""
        doc = {
            "id": self.id,
            "state": self.state,
            "kind": self.request.get("kind"),
            "request": self.request,
            "fingerprint": self.fingerprint,
            "created": self.created,
            "coalesced": self.coalesced,
            "attempt": self.attempt,
        }
        if self.trace is not None:
            doc["trace"] = self.trace
        if self.started is not None:
            doc["started"] = self.started
        if self.finished is not None:
            doc["finished"] = self.finished
            doc["wall_s"] = self.finished - (self.started or self.created)
        if self.error is not None:
            doc["error"] = self.error
        if self.failure is not None:
            doc["failure"] = self.failure
        if self.requeues:
            doc["requeues"] = self.requeues
        if self.recovered:
            doc["recovered"] = True
        return doc


class JobQueue:
    """Bounded FIFO of tickets with coalescing, journaling, and retries."""

    def __init__(
        self,
        depth: int = 64,
        journal=None,
        retries: int = 0,
    ) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self.journal = journal
        self.retries = retries
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._pending: deque[Ticket] = deque()
        self._tickets: OrderedDict[str, Ticket] = OrderedDict()
        self._inflight_by_fp: dict[str, Ticket] = {}
        self._by_submission: dict[str, str] = {}
        self._running = 0
        self._closed = False
        # Latency of recently finished work, for Retry-After estimates.
        self._recent_wall_s: deque[float] = deque(maxlen=32)

    def _journal(self, ticket: Ticket) -> None:
        # vars() is the ticket's field dict itself: no copy, and append
        # serializes it before the lock (held by every caller) drops.
        if self.journal is not None:
            self.journal.append(vars(ticket))

    # -- submission --------------------------------------------------------

    def submit(
        self,
        request: dict,
        fingerprint: str,
        submission: str | None = None,
        trace: str | None = None,
    ) -> tuple[Ticket, str]:
        """Accept (or coalesce, or idempotently re-match) one request.

        Returns ``(ticket, outcome)``: ``outcome`` is ``"created"`` for
        a new ticket, ``"coalesced"`` when the submission joined an
        existing queued/running ticket, and ``"rematched"`` when its key
        found the ticket an earlier submission with that key got
        (created or coalesced onto) — in the last two cases the ticket
        keeps its original ``trace``, which is the trace that will
        actually execute.  Raises :class:`QueueFull` past
        ``depth`` accepted-unfinished tickets and :class:`QueueClosed`
        once draining.  With a journal, the ``accept`` record (trace id
        included) is durable before this returns.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("service is draining; resubmit later")
            if submission:
                known = self._by_submission.get(submission)
                if known is not None and known in self._tickets:
                    # A retried POST: same logical submission, whatever
                    # state its ticket reached.  Never a new execution.
                    return self._tickets[known], "rematched"
            existing = self._inflight_by_fp.get(fingerprint)
            if existing is not None:
                existing.coalesced += 1
                if submission:
                    # Journaled with the ticket, so a retry with this key
                    # re-matches it after a restart too.
                    existing.aliases.append(submission)
                    self._by_submission[submission] = existing.id
                self._journal(existing)
                return existing, "coalesced"
            accepted = len(self._pending) + self._running
            if accepted >= self.depth:
                raise QueueFull(accepted, self._retry_after_locked())
            ticket = Ticket(
                id=f"job-{next(self._ids):06d}",
                request=dict(request),
                fingerprint=fingerprint,
                submission=submission,
                trace=trace,
            )
            # Write-ahead: the ticket is durable before any caller can
            # observe (or be promised) it.
            self._journal(ticket)
            self._tickets[ticket.id] = ticket
            self._inflight_by_fp[fingerprint] = ticket
            if submission:
                self._by_submission[submission] = ticket.id
            self._pending.append(ticket)
            self._trim_finished_locked()
            self._work.notify()
            return ticket, "created"

    def _retry_after_locked(self) -> float:
        """How long a 429'd client should wait: roughly one job's wall."""
        if self._recent_wall_s:
            mean = sum(self._recent_wall_s) / len(self._recent_wall_s)
            return max(1.0, min(120.0, mean))
        return 2.0

    def _trim_finished_locked(self) -> None:
        finished = [
            ticket_id for ticket_id, ticket in self._tickets.items()
            if ticket.state in ("done", "failed")
        ]
        for ticket_id in finished[: max(0, len(finished) - KEEP_FINISHED)]:
            ticket = self._tickets.pop(ticket_id)
            for key in ticket.submission_keys():
                if self._by_submission.get(key) == ticket_id:
                    del self._by_submission[key]

    # -- worker side -------------------------------------------------------

    def claim(self, timeout: float | None = None) -> Ticket | None:
        """Block for the next queued ticket; mark it running.

        Returns ``None`` on timeout or when the queue is closed and
        empty (the worker's signal to exit).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._pending:
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._work.wait(remaining if remaining is not None else 0.5)
            ticket = self._pending.popleft()
            ticket.state = "running"
            ticket.started = time.time()
            self._running += 1
            self._journal(ticket)
            return ticket

    def finish(
        self,
        ticket: Ticket,
        result: dict | None = None,
        error: str | None = None,
        attempt: int | None = None,
        failure: dict | None = None,
    ) -> bool:
        """Record a claimed ticket's outcome and release its fingerprint.

        Returns ``False`` (and changes nothing) when the outcome is
        stale: the ticket is not running anymore, or ``attempt`` no
        longer matches — the watchdog reaped this execution and its
        result must not clobber the retry's.
        """
        with self._lock:
            if ticket.state != "running":
                return False
            if attempt is not None and ticket.attempt != attempt:
                return False
            ticket.finished = time.time()
            if error is None:
                ticket.state = "done"
                ticket.result = result
            else:
                ticket.state = "failed"
                ticket.error = error
                ticket.failure = failure or {"cause": "error", "detail": error}
            self._journal(ticket)
            self._running -= 1
            self._recent_wall_s.append(
                ticket.finished - (ticket.started or ticket.created)
            )
            if self._inflight_by_fp.get(ticket.fingerprint) is ticket:
                del self._inflight_by_fp[ticket.fingerprint]
            self._idle.notify_all()
            return True

    def requeue(
        self,
        ticket: Ticket,
        cause: str,
        attempt: int | None = None,
        error: str | None = None,
    ) -> str:
        """Give a failed/hung attempt another try, or fail it for good.

        Returns ``"requeued"`` when the ticket went back on the queue
        (attempt bumped, old executions fenced off), ``"failed"`` when
        the retry budget is exhausted (the ticket finishes failed with
        a structured ``failure`` document), or ``"stale"`` when the
        ticket already moved on.
        """
        with self._lock:
            if ticket.state != "running":
                return "stale"
            if attempt is not None and ticket.attempt != attempt:
                return "stale"
            if ticket.requeues >= self.retries:
                detail = error or f"attempt {ticket.attempt} {cause}"
                ticket.finished = time.time()
                ticket.state = "failed"
                ticket.error = detail
                ticket.failure = {
                    "cause": cause,
                    "attempts": ticket.attempt + 1,
                    "detail": detail,
                }
                self._journal(ticket)
                self._running -= 1
                self._recent_wall_s.append(
                    ticket.finished - (ticket.started or ticket.created)
                )
                if self._inflight_by_fp.get(ticket.fingerprint) is ticket:
                    del self._inflight_by_fp[ticket.fingerprint]
                self._idle.notify_all()
                return "failed"
            ticket.requeues += 1
            ticket.attempt += 1
            ticket.state = "queued"
            ticket.started = None
            self._running -= 1
            self._journal(ticket)
            self._pending.append(ticket)
            self._work.notify()
            return "requeued"

    def reap_stalled(self, job_timeout: float) -> list[tuple[Ticket, str]]:
        """Requeue-or-fail every running ticket past its deadline.

        The watchdog's sweep: any ticket running longer than
        ``job_timeout`` is treated as hung (or its worker as dead) and
        pushed through :meth:`requeue` with cause ``"timeout"``.
        Returns ``[(ticket, action), ...]`` for what was reaped.
        """
        now = time.time()
        with self._lock:
            stalled = [
                ticket for ticket in self._tickets.values()
                if ticket.state == "running"
                and ticket.started is not None
                and now - ticket.started > job_timeout
            ]
        reaped = []
        for ticket in stalled:
            action = self.requeue(
                ticket, "timeout", attempt=ticket.attempt,
                error=(f"attempt {ticket.attempt} exceeded "
                       f"--job-timeout {job_timeout:g}s"),
            )
            if action != "stale":
                reaped.append((ticket, action))
        return reaped

    # -- crash recovery ----------------------------------------------------

    def restore(self, states: list[dict]) -> dict:
        """Preload the ticket documents a journal replay recovered.

        Done and failed tickets come back exactly as journaled (their
        results and errors are served to pollers as if nothing
        happened).  Queued tickets and orphaned ``running`` tickets —
        the ones a dead daemon never finished — are re-enqueued with
        ``recovered`` set, keeping their ids and fingerprints.  Every
        ticket's submission keys, coalesced ones included, map back to
        it, so both coalescing and idempotent retry keep working across
        the restart.  The id counter resumes past the highest restored
        id.  Returns a summary for ``/v1/recovery``.
        """
        restored = {"done": 0, "failed": 0, "requeued": 0,
                    "orphaned_running": 0, "recovered_ids": []}
        max_id = 0
        with self._lock:
            for state in states:
                ticket = Ticket(**state)
                try:
                    max_id = max(max_id, int(ticket.id.rsplit("-", 1)[1]))
                except (IndexError, ValueError):
                    pass
                if ticket.state in ("done", "failed"):
                    restored[ticket.state] += 1
                else:
                    if ticket.state == "running":
                        restored["orphaned_running"] += 1
                    ticket.state = "queued"
                    ticket.started = None
                    ticket.recovered = True
                    restored["requeued"] += 1
                    restored["recovered_ids"].append(ticket.id)
                    self._inflight_by_fp[ticket.fingerprint] = ticket
                    self._pending.append(ticket)
                self._tickets[ticket.id] = ticket
                for key in ticket.submission_keys():
                    self._by_submission[key] = ticket.id
            if max_id:
                self._ids = itertools.count(max_id + 1)
            self._work.notify_all()
        return restored

    def compact_journal(self) -> None:
        """Rewrite the journal as one document per live ticket."""
        with self._lock:
            self.journal.compact([vars(t) for t in self._tickets.values()])

    def maybe_compact(self) -> bool:
        """Compact the journal once it outgrows its byte budget."""
        if self.journal is None or not self.journal.should_compact():
            return False
        self.compact_journal()
        return True

    # -- introspection -----------------------------------------------------

    def get(self, ticket_id: str) -> Ticket | None:
        with self._lock:
            return self._tickets.get(ticket_id)

    def recent(self, n: int = 10) -> list[dict]:
        """The newest ``n`` tickets' status docs, newest first.

        Feeds the ``/dashboard`` recent-jobs table; tickets are kept in
        acceptance order, so the tail of the table is the tail of the
        ticket map.
        """
        with self._lock:
            tickets = list(self._tickets.values())[-n:]
        return [ticket.status_doc() for ticket in reversed(tickets)]

    def stats(self) -> dict:
        """Queue-shape numbers for ``/healthz`` and the metrics gauges."""
        with self._lock:
            states: dict[str, int] = dict.fromkeys(STATES, 0)
            for ticket in self._tickets.values():
                states[ticket.state] += 1
            return {
                "depth": self.depth,
                "queued": len(self._pending),
                "running": self._running,
                "accepted": len(self._pending) + self._running,
                "closed": self._closed,
                "states": states,
                "coalesced": sum(
                    ticket.coalesced for ticket in self._tickets.values()
                ),
                "recovered": sum(
                    1 for ticket in self._tickets.values() if ticket.recovered
                ),
                "requeues": sum(
                    ticket.requeues for ticket in self._tickets.values()
                ),
            }

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting; wake every blocked worker so drains progress."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
            self._idle.notify_all()

    def drained(self, timeout: float | None = None) -> bool:
        """Block until every accepted ticket has finished."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._pending or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining if remaining is not None else 0.5)
            return True
