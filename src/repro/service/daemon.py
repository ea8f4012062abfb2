"""The HTTP surface of the experiment service (stdlib only).

:class:`ExperimentService` assembles the journal, the queue, the worker
threads, the watchdog, and a :class:`ThreadingHTTPServer` into one
long-running daemon::

    service = ExperimentService(port=8787, cache_dir="/var/cache/repro",
                                journal_dir="/var/cache/repro/journal")
    service.start()            # background: server + recovery + workers
    ...
    service.shutdown()         # drain accepted jobs, then stop

or, blocking with signal handling (the ``repro serve`` path)::

    service.run_forever()      # SIGTERM/SIGINT -> drain -> exit 0

Endpoints
---------

``POST /v1/jobs``
    Body: a request document (see :mod:`repro.service.schemas`).  An
    optional ``X-Repro-Submission`` header carries the client's
    idempotency key: retried POSTs with the same key re-match their
    ticket instead of double-executing.  202 + ``{"id", "state",
    "coalesced", "idempotent", "fingerprint"}`` on accept.  400 on
    validation errors, 429 + ``Retry-After`` when the queue is at
    depth, 503 while recovering (journal replay) or draining.
``GET /v1/jobs/<id>``
    The ticket's status document; 404 for unknown ids.
``GET /v1/jobs/<id>/result``
    200 + ``{"output", "detail", "receipt"}`` once done; 202 + status
    while queued/running; 500 + error and the structured ``failure``
    document after a failed run.
``GET /healthz``
    200 while serving (queue stats, uptime, workers); 503 while
    recovering (the whole journal-replay window) or draining.
``GET /v1/recovery``
    What startup recovery did: journal records replayed, tickets
    restored with results, tickets re-enqueued, corrupt records
    skipped, torn-tail bytes cut (``repro status --recovered``).
``GET /metrics``
    The service metrics registry, content-negotiated: Prometheus text
    exposition format by default (what a scraper wants), the JSON
    snapshot when the client sends ``Accept: application/json`` (what
    the Python client sends).  Queue-depth and in-flight gauges are
    refreshed at scrape time; per-endpoint and per-job-kind latency
    histograms and journal fsync timings ride along.
``GET /dashboard``
    The live observability page: one self-contained auto-refreshing
    HTML document (inline CSS, no scripts, no external assets) showing
    queue/in-flight gauges, latency percentile bars, the recent-jobs
    table with trace ids, and — when the daemon was started with
    ``--ledger`` — perf-ledger trend sparklines.

Tracing: ``POST /v1/jobs`` accepts an ``X-Repro-Trace`` header (a
trace id, optionally ``-<parent span id>``); without one the daemon
mints a trace id.  The id is journaled with the accept, carried on the
ticket through every attempt and engine job, returned in the 202, the
status document, and the receipt, and stamps every span/event in the
request's trace-dir dump — ``repro trace JOB_ID --url ...``
reconstructs the whole timeline from it.

Crash safety: with a journal configured, every accepted request is
durable before its 202 is written, every state transition journals the
ticket's whole document, and startup replays the journal — restoring
finished tickets (their results are served as if the crash never
happened) and re-enqueueing interrupted ones — then compacts it to one
record per live ticket.  The dead daemon's artifact-store
key locks died with it (a ``flock`` is released with its holder), so
there is nothing in the store to reclaim.  ``/healthz`` answers 503
for the entire replay window, and submissions are refused with 503
until the restored ticket table is in place (accepting earlier could
hand out an id the replay is about to restore).

Signals: the first SIGTERM/SIGINT stops the listener and the queue (new
submissions are refused) but every accepted ticket is drained to
completion before the process exits 0 — a client that got a 202 can
still collect its result until the socket closes.  A SIGTERM *during*
journal replay aborts the replay cleanly (nothing was promised yet).  A
second SIGTERM forces an immediate ``exit(1)`` — the escape hatch when
a drain is wedged; the journal makes that safe, since whatever was in
flight is re-enqueued on the next start.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine import faults
from repro.obs.logs import NULL_LOG, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import PROM_CONTENT_TYPE, render_prometheus
from repro.obs.trace import mint_trace_id
from repro.service.journal import JobJournal
from repro.service.queue import JobQueue, QueueClosed, QueueFull
from repro.service.schemas import (
    RequestError,
    normalize_request,
    normalize_trace,
    request_fingerprint,
)
from repro.service.worker import ServiceWatchdog, ServiceWorker

__all__ = ["ExperimentService"]

#: Largest accepted request body; a valid request is a few hundred bytes.
MAX_BODY_BYTES = 64 * 1024

#: Longest accepted idempotency key (an opaque client token).
MAX_SUBMISSION_KEY = 128


class ExperimentService:
    """One daemon: HTTP front door + journal + queue + workers + watchdog."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        cache_dir: str | None = None,
        jobs: int = 1,
        workers: int = 1,
        queue_depth: int = 64,
        trace_dir: str | None = None,
        executor=None,
        journal_dir: str | None = None,
        retries: int = 1,
        job_timeout: float | None = None,
        log_dir: str | None = None,
        ledger: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.trace_dir = trace_dir
        self.ledger_path = ledger
        self.registry = MetricsRegistry()
        self.log = EventLog(log_dir) if log_dir else NULL_LOG
        self.journal = (
            JobJournal(journal_dir, registry=self.registry)
            if journal_dir else None
        )
        self.queue = JobQueue(
            depth=queue_depth, journal=self.journal, retries=retries
        )
        self.started_at = time.time()
        self.draining = False
        self.recovering = self.journal is not None
        self.recovery: dict | None = None
        self._executor = executor
        self._signal_count = 0
        self._workers = [
            self._make_worker(index) for index in range(workers)
        ]
        self._watchdog = ServiceWatchdog(
            self.queue, self.registry, self._workers,
            job_timeout=job_timeout,
            spawn_worker=self._make_worker, log=self.log,
        )
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._serve_thread: threading.Thread | None = None
        self._startup_thread: threading.Thread | None = None

    def _make_worker(self, index: int) -> ServiceWorker:
        return ServiceWorker(
            self.queue, self.registry,
            cache_dir=self.cache_dir, jobs=self.jobs,
            trace_dir=self.trace_dir,
            executor=self._executor, name=f"repro-worker-{index}",
            log=self.log,
        )

    # -- addresses ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal, then open up.

        Runs with ``self.recovering`` set (``/healthz`` 503, submissions
        refused) and before any worker starts, so the restored ticket
        table — including the resumed id counter — is complete before
        the first new ticket is created or claimed.
        """
        summary = {
            "journal": getattr(self.journal, "root", None),
            "records": 0, "corrupt_records": 0,
            "truncated_bytes": 0, "restored": {}, "recovered_ids": [],
            "compacted": False,
        }
        try:
            if self.journal is not None:
                replay = self.journal.replay(
                    should_abort=lambda: self.draining
                )
                summary["records"] = replay.records
                summary["corrupt_records"] = replay.corrupt
                summary["truncated_bytes"] = replay.truncated_bytes
                if not self.draining:
                    restored = self.queue.restore(replay.ticket_states())
                    summary["restored"] = {
                        "done": restored["done"],
                        "failed": restored["failed"],
                        "requeued": restored["requeued"],
                        "orphaned_running": restored["orphaned_running"],
                    }
                    summary["recovered_ids"] = restored["recovered_ids"]
                    self.queue.compact_journal()
                    summary["compacted"] = True
                    for name in ("done", "failed", "requeued"):
                        self.registry.counter(
                            f"service.recovery_{name}"
                        ).inc(summary["restored"].get(name, 0))
        finally:
            self.recovery = summary
            self.recovering = False
            self.log.info(
                "recovery_complete",
                records=summary["records"],
                corrupt_records=summary["corrupt_records"],
                restored=summary["restored"],
            )

    def _startup(self) -> None:
        """Recovery, then workers — the order is the correctness."""
        self._recover()
        if self.draining:
            return
        for worker in self._workers:
            worker.start()
        self._watchdog.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Serve in background threads (tests and the bench harness).

        The HTTP listener is up when this returns; recovery and the
        workers come up on a startup thread, with ``/healthz`` at 503
        until replay finishes.
        """
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve",
            daemon=True,
        )
        self._serve_thread.start()
        self._startup_thread = threading.Thread(
            target=self._startup, name="repro-startup", daemon=True
        )
        self._startup_thread.start()

    def run_forever(self) -> int:
        """Serve on the calling thread until SIGTERM/SIGINT; then drain.

        Returns the process exit code: 0 after a clean drain.  A second
        signal forces ``exit(1)`` immediately.
        """
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_: self._on_signal()
            )
        try:
            self._startup_thread = threading.Thread(
                target=self._startup, name="repro-startup", daemon=True
            )
            self._startup_thread.start()
            self._server.serve_forever(poll_interval=0.1)
            # serve_forever returned: a signal initiated the drain.
            self.queue.close()
            clean = self.queue.drained()
            self._server.server_close()
            if self.journal is not None:
                self.journal.close()
            self.log.info("shutdown", clean=clean)
            self.log.close()
            return 0 if clean else 1
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _on_signal(self) -> None:
        """First signal: drain.  Second: forced exit, journal has the rest."""
        self._signal_count += 1
        if self._signal_count > 1:
            os._exit(1)
        self._initiate_shutdown()

    def _initiate_shutdown(self) -> None:
        """Signal-safe: flip to draining and stop the accept loop."""
        if self.draining:
            return
        self.draining = True
        self.queue.close()
        # shutdown() blocks until the serve loop exits, so it must run
        # off the signal-handling (= serving) thread.
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def shutdown(self, timeout: float | None = None) -> bool:
        """Programmatic drain-and-stop (for :meth:`start` callers)."""
        if self._startup_thread is not None:
            self._startup_thread.join(timeout=timeout)
        self.draining = True
        self.queue.close()
        drained = self.queue.drained(timeout)
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._watchdog.stop()
        for worker in self._workers:
            # Never-started workers (drain raced the startup thread)
            # have no ident and cannot be joined.
            if worker.ident is not None:
                worker.join(timeout=5.0)
        if self._watchdog.is_alive():
            self._watchdog.join(timeout=5.0)
        if self.journal is not None:
            self.journal.close()
        self.log.info("shutdown", clean=drained)
        self.log.close()
        return drained

    # -- request handling (called from handler threads) --------------------

    def handle_submit(
        self,
        raw_body: bytes,
        submission: str | None = None,
        trace_header: str | None = None,
    ) -> tuple[int, dict, dict]:
        """Returns ``(http_status, headers, body_document)``."""
        if self.recovering:
            return 503, {"Retry-After": "1"}, {
                "error": "service is recovering (journal replay); "
                         "retry shortly",
            }
        try:
            document = json.loads(raw_body or b"null")
        except json.JSONDecodeError as exc:
            return 400, {}, {"error": f"invalid JSON: {exc}"}
        try:
            request = normalize_request(document)
            trace = normalize_trace(trace_header)
        except RequestError as exc:
            return 400, {}, {"error": str(exc)}
        if submission is not None and (
            not submission or len(submission) > MAX_SUBMISSION_KEY
        ):
            return 400, {}, {"error": "invalid X-Repro-Submission key"}
        if trace is None:
            # No client trace: the daemon mints one, so every request
            # is traceable whether or not the client participates.
            trace = mint_trace_id()
        fingerprint = request_fingerprint(request)
        try:
            # Chaos point: a daemon killed here acknowledged nothing —
            # the client's idempotent retry must create the ticket.
            faults.maybe_fail("accept", fingerprint)
            ticket, outcome = self.queue.submit(
                request, fingerprint, submission=submission, trace=trace
            )
        except QueueFull as exc:
            self._count("service.rejected")
            self.log.warning(
                "rejected", trace=trace, kind=request.get("kind"),
                fingerprint=fingerprint, retry_after_s=exc.retry_after_s,
            )
            return 429, {"Retry-After": f"{exc.retry_after_s:.0f}"}, {
                "error": str(exc),
                "retry_after_s": exc.retry_after_s,
            }
        except QueueClosed as exc:
            return 503, {}, {"error": str(exc)}
        except faults.FaultInjected as exc:
            self._count("service.failed_accepts")
            return 500, {}, {"error": str(exc)}
        coalesced = outcome == "coalesced"
        idempotent = outcome == "rematched"
        if coalesced:
            self._count("service.coalesced")
        self.log.info(
            "accept", trace=ticket.trace, job=ticket.id,
            kind=request.get("kind"), fingerprint=fingerprint,
            created=outcome == "created", coalesced=coalesced,
            idempotent=idempotent,
        )
        # Chaos point: the accept is journaled but this 202 never
        # arrives — the retry re-matches by submission key.
        faults.maybe_fail("response-write", f"submit:{ticket.id}")
        return 202, {}, {
            "id": ticket.id,
            "state": ticket.state,
            "coalesced": coalesced,
            "idempotent": idempotent,
            "fingerprint": fingerprint,
            # A coalesced/idempotent submit reports the ticket's
            # original trace — the one that is actually executing.
            "trace": ticket.trace,
        }

    def handle_status(self, ticket_id: str) -> tuple[int, dict, dict]:
        if self.recovering:
            return 503, {"Retry-After": "1"}, {
                "error": "service is recovering (journal replay); "
                         "retry shortly",
            }
        ticket = self.queue.get(ticket_id)
        if ticket is None:
            return 404, {}, {"error": f"unknown job {ticket_id!r}"}
        return 200, {}, ticket.status_doc()

    def handle_result(self, ticket_id: str) -> tuple[int, dict, dict]:
        if self.recovering:
            return 503, {"Retry-After": "1"}, {
                "error": "service is recovering (journal replay); "
                         "retry shortly",
            }
        ticket = self.queue.get(ticket_id)
        if ticket is None:
            return 404, {}, {"error": f"unknown job {ticket_id!r}"}
        if ticket.state in ("queued", "running"):
            return 202, {}, ticket.status_doc()
        if ticket.state == "failed":
            return 500, {}, ticket.status_doc()
        # Chaos point: result computed and journaled, response lost —
        # after restart the journaled result answers this same poll.
        faults.maybe_fail("response-write", f"result:{ticket_id}")
        document = dict(ticket.result or {})
        document["id"] = ticket.id
        document["state"] = ticket.state
        return 200, {}, document

    def handle_healthz(self) -> tuple[int, dict, dict]:
        stats = self.queue.stats()
        if self.recovering:
            status, state = 503, "recovering"
        elif self.draining:
            status, state = 503, "draining"
        else:
            status, state = 200, "ok"
        return status, {}, {
            "status": state,
            "uptime_s": time.time() - self.started_at,
            "workers": len(self._workers),
            "engine_jobs": self.jobs,
            "journal": getattr(self.journal, "root", None),
            "queue": stats,
        }

    def handle_recovery(self) -> tuple[int, dict, dict]:
        if self.recovering or self.recovery is None:
            return 503, {"Retry-After": "1"}, {
                "error": "recovery still in progress",
                "recovering": self.recovering,
            }
        return 200, {}, self.recovery

    def handle_metrics(self, accept: str = "") -> tuple[int, dict, object]:
        """Content-negotiated: Prometheus text by default, JSON on request.

        The Python client sends ``Accept: application/json`` and keeps
        the structured snapshot; a scraper (or curl) gets the text
        exposition format.  Queue-shape gauges are refreshed at scrape
        time so they are current, not last-request-stale.
        """
        stats = self.queue.stats()
        self.registry.gauge("service.queue_depth").set(stats["queued"])
        self.registry.gauge("service.inflight").set(stats["running"])
        snapshot = self.registry.to_dict()
        if "application/json" in (accept or ""):
            return 200, {}, snapshot
        return 200, {"Content-Type": PROM_CONTENT_TYPE}, render_prometheus(
            snapshot
        )

    def handle_dashboard(self) -> tuple[int, dict, str]:
        """``GET /dashboard``: the live self-contained HTML view.

        One page per request — queue/in-flight gauges, latency
        percentile bars, the recent-jobs table (trace ids join to
        ``repro trace``), and ledger trend sparklines when the daemon
        was started with ``--ledger``.  Auto-refresh is a ``<meta>``
        tag; no scripts, no external assets.
        """
        from repro.perf.dashboard import render_dashboard

        stats = self.queue.stats()
        self.registry.gauge("service.queue_depth").set(stats["queued"])
        self.registry.gauge("service.inflight").set(stats["running"])
        ledger_records: list[dict] = []
        if self.ledger_path:
            from repro.perf.ledger import LedgerError, PerfLedger

            try:
                ledger_records = PerfLedger(self.ledger_path).read().records
            except LedgerError:
                ledger_records = []     # a torn ledger never 500s the page
        page = render_dashboard({
            "title": f"repro experiment service — {self.host}:{self.port}",
            "refresh_s": 3,
            "uptime_s": time.time() - self.started_at,
            "queue": stats,
            "metrics": self.registry.to_dict(),
            "recent": self.queue.recent(12),
            "ledger_records": ledger_records,
        })
        return 200, {"Content-Type": "text/html; charset=utf-8"}, page

    def observe_http(self, endpoint: str, wall_s: float) -> None:
        """Per-endpoint HTTP latency, fed by the handler for every reply."""
        self.registry.histogram(
            f"service.http_latency_s_{endpoint}"
        ).observe(wall_s)

    def _count(self, name: str) -> None:
        # Handler threads race workers on the registry; the counter inc
        # itself is GIL-coarse but cheap contention is fine here.
        self.registry.counter(name).inc()


def _make_handler(service: ExperimentService):
    """A request-handler class closed over one service instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-service/1"
        protocol_version = "HTTP/1.1"

        # Silence the default stderr-per-request logging; the metrics
        # registry is the daemon's observability surface.
        def log_message(self, format, *args):  # noqa: A002
            pass

        def _reply(self, status: int, headers: dict, document) -> None:
            # Handlers return dicts (JSON) or pre-rendered text (the
            # Prometheus exposition) with its Content-Type in headers.
            if isinstance(document, str):
                payload = document.encode()
                content_type = headers.pop(
                    "Content-Type", "text/plain; charset=utf-8"
                )
            else:
                payload = json.dumps(document).encode()
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _timed(self, endpoint: str, produce) -> None:
            t0 = time.perf_counter()
            try:
                self._reply(*produce())
            finally:
                service.observe_http(endpoint, time.perf_counter() - t0)

        def do_POST(self) -> None:  # noqa: N802
            if self.path != "/v1/jobs":
                self._reply(404, {}, {"error": f"no route {self.path!r}"})
                return
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                self._reply(413, {}, {"error": "request body too large"})
                return
            body = self.rfile.read(length)
            submission = self.headers.get("X-Repro-Submission")
            trace_header = self.headers.get("X-Repro-Trace")
            self._timed("submit", lambda: service.handle_submit(
                body, submission=submission, trace_header=trace_header,
            ))

        def do_GET(self) -> None:  # noqa: N802
            if self.path == "/healthz":
                self._timed("healthz", service.handle_healthz)
                return
            if self.path == "/metrics":
                accept = self.headers.get("Accept") or ""
                self._timed(
                    "metrics", lambda: service.handle_metrics(accept)
                )
                return
            if self.path == "/dashboard":
                self._timed("dashboard", service.handle_dashboard)
                return
            parts = [part for part in self.path.split("/") if part]
            if parts == ["v1", "recovery"]:
                self._reply(*service.handle_recovery())
                return
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._timed(
                    "status", lambda: service.handle_status(parts[2])
                )
                return
            if (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                    and parts[3] == "result"):
                self._timed(
                    "result", lambda: service.handle_result(parts[2])
                )
                return
            self._reply(404, {}, {"error": f"no route {self.path!r}"})

    return Handler
