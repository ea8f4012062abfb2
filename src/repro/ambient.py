"""Ambient sinks: a process-wide default with a per-thread override.

Three layers collect data from code that never receives them as
arguments: :mod:`repro.obs` (spans, events, metrics),
:mod:`repro.diagnose` (3C miss attribution) and
:mod:`repro.perf.profiler` (hot-path stacks).  Each registers one
:class:`Kind` here with its zero-overhead NULL sink, and exposes the
kind's :meth:`~Kind.current`, :meth:`~Kind.install` and
:meth:`~Kind.use` under its own module name.

A kind also says how its data crosses a process boundary, which is how
:func:`repro.engine.jobs.execute_job` ships a pool worker's sinks home:

* ``fresh(argument)`` makes a new sink in the worker from the picklable
  argument :func:`active` took from the parent's sink (``describe``);
* ``ship(sink)`` turns the worker's sink into a picklable payload;
* ``absorb(sink, payload)`` folds that payload into the parent's sink.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable

__all__ = ["KINDS", "NULL_CONTEXT", "Kind", "NullContext", "active"]

_TLS = threading.local()


class NullContext:
    """A reusable no-op context manager (what NULL sinks hand out)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


NULL_CONTEXT = NullContext()

#: Every registered kind, by name, in registration order.
KINDS: dict[str, "Kind"] = {}


class Kind:
    """One sink kind: its NULL default and its cross-process protocol."""

    def __init__(
        self,
        name: str,
        null,
        fresh: Callable,
        ship: Callable,
        absorb: Callable,
        describe: Callable = lambda sink: None,
    ) -> None:
        self.name = name
        self.null = null
        self.fresh = fresh
        self.ship = ship
        self.absorb = absorb
        self.describe = describe
        self._default = null
        KINDS[name] = self

    def current(self):
        """The sink to write to (never ``None``).

        A thread's :meth:`use` override wins over the process-wide
        :meth:`install` default, so concurrent service worker threads
        each write into their own sink.
        """
        override = getattr(_TLS, self.name, None)
        return override if override is not None else self._default

    def install(self, sink):
        """Make ``sink`` the process-wide default.

        Also clears this thread's :meth:`use` override: a forked pool
        worker inherits the parent's override, and its explicit install
        must supersede that dead-end sink.
        """
        self._default = sink
        setattr(_TLS, self.name, None)
        return sink

    @contextmanager
    def use(self, sink):
        """Make ``sink`` current for this thread, restoring on exit."""
        previous = getattr(_TLS, self.name, None)
        setattr(_TLS, self.name, sink)
        try:
            yield sink
        finally:
            setattr(_TLS, self.name, previous)


def active() -> dict:
    """``{kind name: fresh() argument}`` for this thread's enabled sinks.

    Picklable, so it travels with a job to a pool worker.
    """
    described = {}
    for name, kind in KINDS.items():
        sink = kind.current()
        if sink.enabled:
            described[name] = kind.describe(sink)
    return described
