"""Ambient hot-path profiling with a zero-overhead null default.

This is the ``profile`` kind of :mod:`repro.ambient`, like
:mod:`repro.obs` and :mod:`repro.diagnose`: :func:`current` returns
:data:`NULL` unless a run opted in with ``--profile-out``, and the null
path allocates nothing — engine code does::

    with perf_profiler.current().capture():
        value = run_the_job()

A real :class:`ProfileCollector` wraps the block in :mod:`cProfile`,
collapses the stats into flamegraph-style semicolon stacks
(``main;run;simulate 0.041``), and accumulates them.  Collapsed stacks
are plain ``{str: float}`` dicts, so a forked pool worker ships its
collector's state home in :class:`~repro.engine.jobs.JobOutcome`'s
sidecars and the parent folds it in with :meth:`ProfileCollector.record`
— exactly how obs records and diagnose attributions travel.

cProfile keeps caller→callee edges, not full stacks, so
:func:`collapse_profile` reconstructs one representative stack per
function by walking the dominant-caller chain (the caller contributing
the most cumulative time) up to a root.  That loses minority call
paths but keeps the hot ones honest, which is what a flamegraph is
for.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from contextlib import contextmanager

from repro import ambient

__all__ = [
    "NULL",
    "NullProfileCollector",
    "ProfileCollector",
    "collapse_profile",
    "current",
    "install",
    "use",
]


class NullProfileCollector:
    """Absorbs nothing, allocates nothing."""

    enabled = False

    def capture(self):
        return ambient.NULL_CONTEXT

    def record(self, stacks):
        pass


class ProfileCollector:
    """Accumulates collapsed stacks for one run."""

    enabled = True

    def __init__(self) -> None:
        self.stacks: dict[str, float] = {}
        self._pid = os.getpid()

    @contextmanager
    def capture(self):
        """Profile the block and fold its collapsed stacks in."""
        profile = cProfile.Profile()
        try:
            profile.enable()
        except ValueError:
            # Another profiler (an outer capture, coverage tooling) is
            # already active on this thread; observe nothing rather
            # than crash the job.
            yield self
            return
        try:
            yield self
        finally:
            profile.disable()
            self.record(collapse_profile(profile))

    def record(self, stacks: dict | None) -> None:
        """Merge collapsed stacks (local or shipped from a worker)."""
        if not stacks:
            return
        for stack, seconds in stacks.items():
            self.stacks[stack] = self.stacks.get(stack, 0.0) + float(seconds)


#: The zero-overhead default collector.
NULL = NullProfileCollector()

_KIND = ambient.Kind(
    "profile", NULL,
    fresh=lambda _: ProfileCollector(),
    ship=lambda collector: dict(collector.stacks),
    absorb=ProfileCollector.record,
)
current = _KIND.current
install = _KIND.install
use = _KIND.use


# -- cProfile → collapsed stacks -------------------------------------------


def _frame_label(func: tuple) -> str:
    filename, lineno, name = func
    if filename.startswith("~") or filename == "<string>":
        return name
    base = os.path.basename(filename)
    if base.endswith(".py"):
        base = base[:-3]
    return f"{base}:{name}"


def collapse_profile(profile: cProfile.Profile) -> dict[str, float]:
    """Collapsed semicolon stacks (root first) → self seconds.

    Each function's *total* (self) time lands on one stack: the chain
    of dominant callers above it.  Values therefore sum to the profiled
    wall time spent executing Python frames, and merging across
    workers is plain addition.
    """
    stats = pstats.Stats(profile).stats
    dominant: dict[tuple, tuple | None] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        best, best_ct = None, -1.0
        for caller, caller_stats in callers.items():
            caller_ct = caller_stats[3]
            if caller_ct > best_ct:
                best, best_ct = caller, caller_ct
        dominant[func] = best

    paths: dict[tuple, list[str]] = {}

    def path_of(func: tuple) -> list[str]:
        cached = paths.get(func)
        if cached is not None:
            return cached
        chain: list[tuple] = []
        seen: set[tuple] = set()
        node: tuple | None = func
        while node is not None and node not in seen:
            seen.add(node)
            chain.append(node)
            node = dominant.get(node)
        labels = [_frame_label(f) for f in reversed(chain)]
        paths[func] = labels
        return labels

    stacks: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0.0:
            continue
        key = ";".join(path_of(func))
        stacks[key] = stacks.get(key, 0.0) + tt
    return stacks
