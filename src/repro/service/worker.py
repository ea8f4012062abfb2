"""The worker loop: tickets in, engine jobs through, receipts out.

Each worker thread claims tickets from the :class:`~repro.service.queue
.JobQueue` and lowers them onto the existing engine:

* ``table`` and ``explain`` requests lower through
  :func:`repro.engine.jobs.request_plan` into the same DAG the CLI
  runs, against the same artifact store — which is why a service result
  is byte-identical to the equivalent CLI invocation;
* ``tune`` requests call :func:`repro.search.run_search` whole (it
  drives the scheduler rung by rung itself).

Every execution runs under a fresh per-request :class:`repro.obs
.Recorder` whose metrics registry is the *service* registry, so
``GET /metrics`` aggregates across requests while span records stay
per-request (dumped to ``trace_dir`` when configured, discarded
otherwise — a long-running daemon's memory stays bounded).
``obs.use`` / ``diagnose.use`` are thread-local, so concurrent worker
threads never interleave spans or miss attributions.

The receipt attached to every result is the provenance trail: the
normalized request and its fingerprint, the engine code version, the
artifact-store entries the run read or created (the keys of its
telemetry records), store hit/miss counts, and the run's telemetry
counters.

Failure handling is attempt-fenced and retried: an attempt that raises
goes back through :meth:`JobQueue.requeue` — re-queued up to the
daemon's ``--retries`` budget, then failed with a structured
``failure`` document ``{"cause", "attempts", "detail"}`` that the HTTP
layer returns in the 5xx body and the receipt.  The
:class:`ServiceWatchdog` thread closes the remaining gap: attempts that
*hang* past ``--job-timeout`` (or whose worker thread died without
reporting) are reaped on the same requeue path, and dead worker
threads are respawned so a wedged daemon heals instead of starving.
The queue's attempt fencing guarantees a reaped execution's late
outcome is dropped, never double-recorded.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.engine import faults
from repro.engine.telemetry import Telemetry
from repro.obs.logs import NULL_LOG
from repro.service.queue import JobQueue, Ticket

__all__ = ["ServiceWatchdog", "ServiceWorker", "execute_request"]

#: Seconds between watchdog sweeps (read at call time).
WATCHDOG_POLL_S = 0.25


def execute_request(
    request: dict,
    cache_dir: str | None = None,
    jobs: int = 1,
    telemetry: Telemetry | None = None,
) -> dict:
    """Run one normalized request on the engine; return its output.

    Returns ``{"output": <rendered text>, "detail": {...}}`` where
    ``output`` is exactly what the equivalent CLI invocation prints
    (before the trailing newline) and ``detail`` carries structured
    extras (the tune Pareto front, trial counts).  Raises whatever the
    engine raises — the caller turns that into a failed ticket.
    """
    kind = request["kind"]
    if kind in ("table", "explain"):
        from repro.engine.jobs import request_plan
        from repro.engine.scheduler import run_jobs

        values = run_jobs(
            request_plan(request),
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=True,
            telemetry=telemetry,
        )
        if kind == "table":
            output = values[f"table:{request['table']}"]
        else:
            output = values[f"explain:{request['workload']}"]
        return {"output": output, "detail": {}}

    from repro.search import default_space, make_strategy, run_search
    from repro.search.report import render_result

    space = default_space().restrict(request["axes"])
    result = run_search(
        space,
        make_strategy(request["strategy"], request["seed"]),
        list(request["workloads"]),
        budget=request["budget"],
        scale=request["scale"],
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=True,
        telemetry=telemetry,
        seed=request["seed"],
    )
    return {
        "output": render_result(result),
        "detail": {
            "trials": len(result.records),
            "pruned": result.pruned,
            "front": [
                {
                    "trial": record["trial"],
                    "candidate": record["candidate"],
                    "objectives": record["objectives"],
                }
                for record in result.front
            ],
        },
    }


class ServiceWorker(threading.Thread):
    """One daemon worker thread; run several for multi-tenant throughput."""

    def __init__(
        self,
        queue: JobQueue,
        registry,
        cache_dir: str | None = None,
        jobs: int = 1,
        trace_dir: str | None = None,
        executor=None,
        name: str = "repro-worker",
        log=NULL_LOG,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.queue = queue
        self.registry = registry
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.trace_dir = trace_dir
        # Tests inject a stub executor; production uses execute_request.
        self.executor = executor or execute_request
        self.log = log
        self._metrics_lock = threading.Lock()

    # -- metrics helpers (thread-safe against sibling workers) -------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self.registry.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.registry.histogram(name).observe(value)

    def _gauge(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.registry.gauge(name).set(value)

    # -- the loop ----------------------------------------------------------

    def run(self) -> None:
        while True:
            ticket = self.queue.claim(timeout=0.5)
            if ticket is None:
                stats = self.queue.stats()
                self._gauge("service.queue_depth", stats["queued"])
                if stats["closed"] and not stats["accepted"]:
                    return
                continue
            self._serve(ticket)

    def _serve(self, ticket: Ticket) -> None:
        kind = ticket.request["kind"]
        attempt = ticket.attempt
        queue_wait = (ticket.started or time.time()) - ticket.created
        self._count("service.requests")
        self._count(f"service.requests_{kind}")
        self._observe("service.queue_wait_s", queue_wait)
        self._gauge("service.queue_depth", self.queue.stats()["queued"])

        # The request's trace id stamps every span and event this
        # recorder (and the forked engine children absorbed into it)
        # produces; the meta line carries the queue timing so a trace
        # file reconstructs accept -> queue wait on its own.
        recorder = obs.Recorder(meta={
            "kind": "service-request", "job": ticket.id,
            "request": ticket.request,
            "attempt": attempt,
            "created": ticket.created,
            "started": ticket.started,
            "queue_wait_s": queue_wait,
        }, trace=ticket.trace)
        recorder.metrics = self.registry
        self.log.debug(
            "attempt_start", trace=ticket.trace, job=ticket.id,
            kind=kind, attempt=attempt, queue_wait_s=queue_wait,
        )
        # Per-request telemetry gets its own registry so the receipt
        # reports this request's counters, not the daemon's cumulative
        # ones; it is merged into the service registry afterwards.
        telemetry = Telemetry()
        started = time.perf_counter()
        try:
            faults.maybe_fail("worker-exec", ticket.id, attempt)
            with obs.use(recorder), recorder.span(
                "request", cat="service",
                job=ticket.id, kind=kind, fingerprint=ticket.fingerprint,
            ):
                body = self.executor(
                    ticket.request,
                    cache_dir=self.cache_dir,
                    jobs=self.jobs,
                    telemetry=telemetry,
                )
        except Exception as exc:
            wall = time.perf_counter() - started
            self._observe("service.latency_s", wall)
            summary = getattr(exc, "summary", None)
            detail = (summary() if callable(summary)
                      else f"{type(exc).__name__}: {exc}")
            cause = ("crash" if isinstance(exc, faults.FaultInjected)
                     else "error")
            action = self.queue.requeue(
                ticket, cause, attempt=attempt, error=detail
            )
            if action == "requeued":
                self._count("service.requeued")
            elif action == "failed":
                self._count("service.failed")
            else:
                self._count("service.stale_results")
            self.log.write(
                "error" if action == "failed" else "warning",
                "attempt_failed", trace=ticket.trace, job=ticket.id,
                kind=kind, attempt=attempt, action=action,
                cause=cause, wall_s=wall,
            )
            return
        finally:
            with self._metrics_lock:
                self.registry.merge(
                    {"counters": telemetry.registry.counter_values()}
                )
        wall = time.perf_counter() - started

        totals = telemetry.totals()
        receipt = {
            "id": ticket.id,
            "kind": kind,
            "request": ticket.request,
            "fingerprint": ticket.fingerprint,
            "code_version": self._code_version(),
            "store": {
                "keys": list(dict.fromkeys(
                    record.key for record in telemetry.records
                    if record.key is not None
                )),
                "hits": totals.get("store_hits", 0),
                "misses": totals.get("store_misses", 0),
            },
            "telemetry": {
                "totals": totals,
                "counters": dict(telemetry.counters),
            },
            "queue_wait_s": queue_wait,
            "exec_s": wall,
            "coalesced": ticket.coalesced,
            "attempt": attempt,
            "recovered": ticket.recovered,
            "trace_id": ticket.trace,
        }
        if self.trace_dir:
            recorder.meta["store"] = dict(receipt["store"])
            receipt["trace"] = self._dump_trace(ticket, recorder)
        recorded = self.queue.finish(
            ticket,
            result={"output": body["output"], "detail": body["detail"],
                    "receipt": receipt},
            attempt=attempt,
        )
        if not recorded:
            # The watchdog reaped this attempt while it ran; its retry
            # owns the ticket now and this outcome must not clobber it.
            self._count("service.stale_results")
            self.log.warning(
                "stale_result", trace=ticket.trace, job=ticket.id,
                kind=kind, attempt=attempt, wall_s=wall,
            )
            return
        self._count("service.completed")
        self._observe("service.latency_s", wall)
        self._observe(f"service.latency_s_{kind}", wall)
        self.log.info(
            "attempt_finish", trace=ticket.trace, job=ticket.id,
            kind=kind, attempt=attempt, wall_s=wall,
            queue_wait_s=queue_wait,
            store_hits=receipt["store"]["hits"],
            store_misses=receipt["store"]["misses"],
        )

    @staticmethod
    def _code_version() -> str:
        from repro.engine.store import code_version

        return code_version()

    def _dump_trace(self, ticket: Ticket, recorder) -> str | None:
        import os

        path = os.path.join(self.trace_dir, f"{ticket.id}.jsonl")
        try:
            os.makedirs(self.trace_dir, exist_ok=True)
            recorder.dump_jsonl(path)
        except OSError:
            return None
        return path


class ServiceWatchdog(threading.Thread):
    """Reap hung attempts and respawn dead workers.

    Two failure modes the worker loop cannot see from the inside:

    * an attempt that *hangs* — the executor never returns, so the
      ticket sits ``running`` forever and its fingerprint blocks every
      coalesced client.  The watchdog sweeps running tickets against
      the ``--job-timeout`` deadline and pushes overdue ones through
      :meth:`JobQueue.reap_stalled` (requeue up to ``--retries``, then
      a structured-``failure`` 5xx).  The hung thread keeps running,
      but attempt fencing makes its eventual outcome a no-op.
    * a worker *thread* that died without reporting (a ``BaseException``
      escaping the loop).  The watchdog respawns a replacement via
      ``spawn_worker`` so throughput recovers; the ticket the dead
      thread held falls to the deadline sweep above.

    The watchdog exits once the queue is closed and drained.
    """

    def __init__(
        self,
        queue: JobQueue,
        registry,
        workers: list,
        job_timeout: float | None = None,
        spawn_worker=None,
        name: str = "repro-watchdog",
        log=NULL_LOG,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.queue = queue
        self.registry = registry
        self.workers = workers
        self.job_timeout = job_timeout
        self.spawn_worker = spawn_worker
        self.log = log
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        while not self._halt.wait(WATCHDOG_POLL_S):
            stats = self.queue.stats()
            if stats["closed"] and not stats["accepted"]:
                return
            if self.job_timeout is not None:
                for ticket, action in self.queue.reap_stalled(
                    self.job_timeout
                ):
                    self.registry.counter("service.reaped").inc()
                    if action == "failed":
                        self.registry.counter("service.failed").inc()
                    else:
                        self.registry.counter("service.requeued").inc()
                    self.log.warning(
                        "attempt_reaped", trace=ticket.trace,
                        job=ticket.id, action=action,
                        job_timeout_s=self.job_timeout,
                    )
            if self.queue.maybe_compact():
                self.registry.counter("service.journal_compactions").inc()
            if self.spawn_worker is None:
                continue
            for index, worker in enumerate(self.workers):
                if worker.is_alive() or stats["closed"]:
                    continue
                replacement = self.spawn_worker(index)
                self.workers[index] = replacement
                replacement.start()
                self.registry.counter("service.workers_respawned").inc()
                self.log.warning("worker_respawned", worker=worker.name)
