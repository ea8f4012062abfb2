"""Miss attribution: 3C classification and symbol-level conflict maps.

The obs layer records *how many* misses happen; this package records
*why*.  Alongside each real cache simulation a fully-associative LRU
shadow of the same capacity classifies every miss as compulsory (first
touch), capacity (the shadow misses too), or conflict (a mapping
artifact — the measured gap to the paper's fully-associative Smith
baselines), and the linked image's symbol table attributes each miss to
the (function, basic block, trace) whose placement caused it, recording
the evicting function for conflict misses.  That yields the
inter-function conflict matrix that makes the paper's DFS-vs-natural
layout claim directly observable (``repro explain``, ``repro report
--html``).

The shadow and the first touches depend only on the trace, so a layout
the runner replays many times registers its :class:`Reference` with its
symbol table: each (granule, capacity) is simulated once per process,
and a later attribution of that trace reuses it (counted as
``shadow_reuses``).

Attribution is the ``diagnose`` kind of :mod:`repro.ambient`: the
process-wide default is :data:`NULL`, whose every operation is a no-op,
and every hook in the simulators is guarded by ``enabled`` — an
unattributed run computes nothing extra and its :class:`CacheStats` are
byte-identical (test-asserted).  When on, each worker process collects
into its own :class:`Collector` and ships ``to_dict()`` back through
``JobOutcome.sidecars``; merging replaces whole entries (replays of
one configuration are deterministic), so ``--jobs N`` attribution is
identical to ``--jobs 1``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro import ambient
from repro.diagnose.classify import (
    Attribution,
    MissProbe,
    Reference,
    attribute,
)
from repro.diagnose.symbols import SymbolTable

__all__ = [
    "Attribution",
    "Collector",
    "MissProbe",
    "NULL",
    "NullCollector",
    "Reference",
    "SymbolTable",
    "attribute",
    "current",
    "install",
    "use",
]


class NullCollector:
    """Absorbs every attribution call without doing anything."""

    enabled = False

    def scope(self, workload=None, layout=None):
        return ambient.NULL_CONTEXT

    def register_symbols(self, workload, layout, symbols, reference=None):
        pass

    def record(self, organization, cache_bytes, block_bytes, addresses,
               probe, set_misses=None):
        pass

    def merge_dict(self, data):
        pass


class Collector:
    """Accumulates per-configuration attributions for one run.

    Entries are keyed by ``(workload, layout, organization, cache_bytes,
    block_bytes)``; the ambient (workload, layout) comes from the
    :meth:`scope` context manager the experiment tables open around
    their simulate loops, and symbol tables are registered per
    (workload, layout) by whoever linked the image (the runner), with the
    3C :class:`Reference` of the layout's replayed trace when it keeps
    one: a simulation of that very trace then reuses its first touches
    and fully-associative shadow.
    """

    enabled = True

    def __init__(self) -> None:
        self.entries: dict[tuple, Attribution] = {}
        self._symbols: dict[
            tuple[str, str], tuple[SymbolTable, Reference | None]
        ] = {}
        self._workload: str = "?"
        self._layout: str = "?"
        self._pid = os.getpid()

    @contextmanager
    def scope(self, workload: str | None = None, layout: str | None = None):
        """Set the ambient (workload, layout) for nested simulations."""
        previous = (self._workload, self._layout)
        if workload is not None:
            self._workload = workload
        if layout is not None:
            self._layout = layout
        try:
            yield self
        finally:
            self._workload, self._layout = previous

    def register_symbols(
        self, workload: str, layout: str, symbols: SymbolTable,
        reference: Reference | None = None,
    ) -> None:
        """Attach the symbol table for one (workload, layout) image, and
        the 3C reference of its replayed trace if there is one."""
        self._symbols[(workload, layout)] = (symbols, reference)

    def record(
        self,
        organization: str,
        cache_bytes: int,
        block_bytes: int,
        addresses,
        probe: MissProbe,
        set_misses=None,
    ) -> Attribution:
        """Classify one finished simulation and fold it into the run."""
        symbols, reference = self._symbols.get(
            (self._workload, self._layout), (None, None))
        result = attribute(
            addresses, probe, organization, cache_bytes, block_bytes,
            symbols=symbols, set_misses=set_misses, reference=reference,
        )
        key = (
            self._workload, self._layout, organization,
            int(cache_bytes), int(block_bytes),
        )
        # Replays of one configuration are deterministic, so the last
        # result wins (same convention as the obs report's miss_ratios);
        # summing would double-count a config two tables both simulate.
        self.entries[key] = result
        return result

    # -- cross-process shipping --------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form: ``{"workload|layout|org|cache|block": {...}}``."""
        return {
            "|".join(str(part) for part in key): entry.to_dict()
            for key, entry in sorted(self.entries.items())
        }

    def merge_dict(self, data: dict) -> None:
        """Fold a worker's :meth:`to_dict` into this collector."""
        for flat_key, payload in sorted(data.items()):
            workload, layout, organization, cache_bytes, block_bytes = (
                flat_key.split("|")
            )
            key = (
                workload, layout, organization,
                int(cache_bytes), int(block_bytes),
            )
            self.entries[key] = Attribution.from_dict(payload)


#: The zero-overhead default collector.
NULL = NullCollector()

_KIND = ambient.Kind(
    "diagnose", NULL,
    fresh=lambda _: Collector(),
    ship=Collector.to_dict,
    absorb=Collector.merge_dict,
)
current = _KIND.current
install = _KIND.install
use = _KIND.use
