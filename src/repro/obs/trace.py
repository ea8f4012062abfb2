"""Span-based tracing with Chrome trace-event export.

A :class:`Tracer` maintains the stack of open spans; a span that closes
becomes a plain dict appended to the recorder's record list, carrying its
wall-clock start (``ts``, epoch seconds — comparable across processes),
duration, ids, and attributes.  The merged attributes of the open stack
(:meth:`Tracer.current_attrs`) stamp every point event emitted while the
span is active, which is how a ``cache_sim`` event deep inside a
simulator knows which workload and table it belongs to.

:func:`chrome_trace_events` converts the records to the Chrome
trace-event format (``{"traceEvents": [...]}``), loadable in Perfetto or
``chrome://tracing``: spans become complete ("X") events, point events
become instants ("i").
"""

from __future__ import annotations

import json
import os
import re
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "TraceContext",
    "Tracer",
    "chrome_trace_events",
    "mint_trace_id",
    "write_chrome_trace",
]

#: Wire format of a trace id: 8-64 lowercase hex chars (uuid4().hex fits).
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{8,64}$")


def mint_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class TraceContext:
    """One request's identity across process boundaries.

    ``trace_id`` names the end-to-end request; ``parent_span`` (when
    set) is the span id on the *caller's* side that enclosed the hand-
    off, so a child process's root span can point back at it.  The
    header form is ``<trace_id>`` or ``<trace_id>-<parent_span>``,
    carried in ``X-Repro-Trace``.
    """

    trace_id: str
    parent_span: int | None = None

    @classmethod
    def from_header(cls, value: str) -> "TraceContext":
        """Parse an ``X-Repro-Trace`` header; raises ValueError if bad."""
        value = value.strip().lower()
        trace_id, dash, parent = value.partition("-")
        if not _TRACE_ID_RE.match(trace_id):
            raise ValueError(
                "trace id must be 8-64 lowercase hex characters"
            )
        if not dash:
            return cls(trace_id)
        if not parent.isdigit():
            raise ValueError("parent span id must be a decimal integer")
        return cls(trace_id, int(parent))


class Tracer:
    """The active span stack; closed spans append dicts to ``sink``.

    When ``trace_id`` is set, every closed span carries a ``"trace"``
    key; when it is None (the default for local runs) no extra key is
    written, keeping record schemas — and their serialised bytes —
    identical to untraced runs.
    """

    def __init__(self, sink: list, trace_id: str | None = None) -> None:
        self._sink = sink
        self._next_id = 1
        self._pid = os.getpid()
        self.trace_id = trace_id
        # Parallel stacks: open span ids, and the *merged* attributes at
        # each depth (so current_attrs() is a dict lookup, not a walk).
        self._stack: list[int] = []
        self._attrs: list[dict] = [{}]

    def current_attrs(self) -> dict:
        """Merged attributes of every open span, innermost winning."""
        return self._attrs[-1]

    @contextmanager
    def span(self, name: str, cat: str = "phase", **attrs):
        """Open a nested span; the record is written when it closes."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._attrs.append(
            {**self._attrs[-1], **attrs} if attrs else self._attrs[-1]
        )
        ts = time.time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            self._attrs.pop()
            record = {
                "type": "span",
                "name": name,
                "cat": cat,
                "ts": ts,
                "dur": duration,
                "span_id": span_id,
                "parent": parent,
                "pid": self._pid,
                "attrs": dict(attrs),
            }
            if self.trace_id is not None:
                record["trace"] = self.trace_id
            self._sink.append(record)


def chrome_trace_events(records: list[dict]) -> list[dict]:
    """Convert recorder records to Chrome trace-event dicts.

    Timestamps are microseconds relative to the earliest record, so the
    viewer opens at t=0 instead of the epoch.
    """
    stamps = [r["ts"] for r in records if "ts" in r]
    origin = min(stamps) if stamps else 0.0
    events: list[dict] = []
    for record in records:
        if record.get("type") == "span":
            events.append({
                "name": record["name"],
                "cat": record.get("cat", "phase"),
                "ph": "X",
                "ts": (record["ts"] - origin) * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": record.get("pid", 0),
                "tid": record.get("pid", 0),
                "args": record.get("attrs", {}),
            })
        elif record.get("type") == "event":
            events.append({
                "name": record["name"],
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": (record["ts"] - origin) * 1e6,
                "pid": record.get("pid", 0),
                "tid": record.get("pid", 0),
                "args": {
                    **record.get("ctx", {}),
                    **record.get("fields", {}),
                },
            })
    return events


def write_chrome_trace(records: list[dict], path: str) -> None:
    """Write records as a Chrome trace-event JSON file."""
    document = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as handle:
        json.dump(document, handle, default=_json_default)


def _json_default(value):
    """Make numpy scalars/arrays JSON-serialisable."""
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"not JSON serialisable: {type(value)!r}")
