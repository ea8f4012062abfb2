"""The experiment service: the engine as a crash-safe multi-tenant daemon.

PRs 1-5 gave the engine everything a service needs except a front door:
a content-addressed artifact store, a fault-tolerant DAG scheduler,
tracing/metrics, an autotuner, and miss attribution.  This package adds
the front door — a long-running, stdlib-only HTTP daemon (``repro
serve``) that accepts ``table`` / ``tune`` / ``explain`` requests from
many concurrent clients and lowers them onto that engine:

* :mod:`repro.service.schemas` — request validation and canonical
  *placement fingerprints*: two requests that would compute the same
  thing normalize to the same fingerprint;
* :mod:`repro.service.journal` — the write-ahead job journal: fsync'd,
  checksummed records of the whole ticket at every transition, replayed
  on startup so a ``kill -9``'d daemon restarts with its ticket table
  intact — finished results served, interrupted jobs re-executed;
* :mod:`repro.service.queue` — a bounded submission queue that
  **coalesces** identical in-flight requests by fingerprint, maps
  client submission keys to tickets for **idempotent** POST retries,
  journals every transition, fences stale attempts, and rejects work
  beyond its depth with 429 + ``Retry-After`` backpressure;
* :mod:`repro.service.worker` — the worker loop (pops tickets, lowers
  them onto the engine scheduler, attaches a provenance *receipt* to
  every result) and the :class:`~repro.service.worker.ServiceWatchdog`
  that reaps hung attempts and respawns dead worker threads;
* :mod:`repro.service.daemon` — the HTTP surface: ``POST /v1/jobs``,
  ``GET /v1/jobs/<id>``, ``GET /v1/jobs/<id>/result``, ``GET
  /healthz``, ``GET /v1/recovery``, ``GET /metrics``, plus startup
  recovery (503 while replaying) and graceful SIGTERM shutdown that
  drains accepted jobs before exiting;
* :mod:`repro.service.client` — a resilient stdlib client (``repro
  submit`` / ``repro status``): bounded jittered retries across daemon
  restarts, idempotent resubmission, backoff-with-cap result polling,
  and the load-test harness behind ``benchmarks/bench_service.py``.

Results are byte-identical to the equivalent CLI invocation: both paths
run the same engine jobs against the same store — and, with the
journal, byte-identical across a daemon crash mid-run.
"""

from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.daemon import ExperimentService
from repro.service.journal import (
    JobJournal,
    JournalError,
    JournalLocked,
    JournalReplay,
)
from repro.service.queue import JobQueue, QueueClosed, QueueFull, Ticket
from repro.service.schemas import RequestError, normalize_request
from repro.service.worker import ServiceWatchdog

__all__ = [
    "ExperimentService",
    "JobJournal",
    "JobQueue",
    "JournalError",
    "JournalLocked",
    "JournalReplay",
    "QueueClosed",
    "QueueFull",
    "RequestError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceWatchdog",
    "Ticket",
    "normalize_request",
]
