"""The process-wide recorder and its zero-overhead null default.

Instrumentation throughout the codebase does::

    rec = obs.current()
    with rec.span("trace_selection", function=name):
        ...
    if rec.enabled:
        rec.event("cache_sim", miss_ratio=..., top_sets=...)

With no recorder installed, :func:`current` returns :data:`NULL`, whose
``span`` hands back the shared no-op context manager of
:mod:`repro.ambient` and whose other methods are empty — an unobserved
run allocates nothing and records nothing.  Hot paths additionally
guard any *computation* of event fields behind ``rec.enabled``.
:func:`current`, :func:`install` and :func:`use` are the ``obs`` kind's
ambient accessors; a pool worker ships its recorder's records and
metric snapshot home in the job outcome.

A real :class:`Recorder` accumulates spans and point events as plain
dicts (so cross-process shipping is trivial) plus a
:class:`~repro.obs.metrics.MetricsRegistry`, and dumps the whole run as
self-describing JSONL: a ``meta`` line, one line per record, and a final
``metrics`` snapshot line.
"""

from __future__ import annotations

import json
import os
import time

from repro import ambient
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, _json_default, write_chrome_trace

__all__ = [
    "NULL",
    "NullRecorder",
    "Recorder",
    "current",
    "install",
    "use",
]


class NullRecorder:
    """Absorbs every observation without doing anything."""

    enabled = False

    def span(self, name, cat="phase", **attrs):
        return ambient.NULL_CONTEXT

    def event(self, name, **fields):
        pass

    def count(self, name, amount=1):
        pass

    def gauge(self, name, value):
        pass

    def observe(self, name, value):
        pass

    def absorb(self, records, metrics=None):
        pass


class Recorder:
    """Collects spans, point events, and metrics for one run.

    ``trace`` (a trace id string) stamps every span and event with a
    ``"trace"`` key, linking this recorder's records to one end-to-end
    service request even after they are shipped across process
    boundaries.  When ``trace`` is None (local runs), no extra key is
    written anywhere — record schemas stay identical to untraced runs.
    """

    enabled = True

    def __init__(
        self, meta: dict | None = None, trace: str | None = None,
    ) -> None:
        self.meta: dict = dict(meta or {})
        self.records: list[dict] = []
        self.metrics = MetricsRegistry()
        self.trace_id = trace
        self.tracer = Tracer(self.records, trace_id=trace)
        self._pid = os.getpid()
        if trace is not None:
            self.meta.setdefault("trace", trace)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **attrs):
        """Open a nested span (context manager)."""
        return self.tracer.span(name, cat, **attrs)

    def event(self, name: str, **fields) -> None:
        """Record a point event, stamped with the open spans' attributes."""
        record = {
            "type": "event",
            "name": name,
            "ts": time.time(),
            "pid": self._pid,
            "ctx": dict(self.tracer.current_attrs()),
            "fields": fields,
        }
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        self.records.append(record)

    def count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def absorb(self, records: list[dict], metrics: dict | None = None) -> None:
        """Fold records (and a metrics snapshot) from another process in."""
        self.records.extend(records)
        if metrics:
            self.metrics.merge(metrics)

    # -- export ------------------------------------------------------------

    def dump_jsonl(self, path: str) -> None:
        """Write the run as JSONL: meta, records, final metrics snapshot."""
        with open(path, "w") as handle:
            handle.write(json.dumps(
                {"type": "meta", **self.meta}, default=_json_default,
            ) + "\n")
            for record in self.records:
                handle.write(json.dumps(record, default=_json_default) + "\n")
            handle.write(json.dumps(
                {"type": "metrics", **self.metrics.to_dict()},
                default=_json_default,
            ) + "\n")

    def dump_chrome_trace(self, path: str) -> None:
        """Write the run in Chrome trace-event format (Perfetto-viewable)."""
        write_chrome_trace(self.records, path)

    @staticmethod
    def load_jsonl(path: str) -> dict:
        """Read a dumped run back as ``{"meta", "records", "metrics"}``."""
        meta: dict = {}
        metrics: dict = {}
        records: list[dict] = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.pop("type", None)
                if kind == "meta":
                    meta = record
                elif kind == "metrics":
                    metrics = record
                else:
                    record["type"] = kind
                    records.append(record)
        return {"meta": meta, "records": records, "metrics": metrics}


#: The zero-overhead default recorder.
NULL = NullRecorder()

_KIND = ambient.Kind(
    "obs", NULL,
    fresh=lambda trace: Recorder(trace=trace),
    ship=lambda recorder: {
        "records": recorder.records, "metrics": recorder.metrics.to_dict(),
    },
    absorb=lambda recorder, payload: recorder.absorb(
        payload["records"], payload["metrics"],
    ),
    # The trace id crosses the fork so a worker's spans join the request.
    describe=lambda recorder: recorder.trace_id,
)
current = _KIND.current
install = _KIND.install
use = _KIND.use
