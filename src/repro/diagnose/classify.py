"""3C miss classification against a fully-associative LRU shadow cache.

The paper's central comparison — IMPACT-I layouts versus Smith's
fully-associative design targets (its Table 1) — is, by definition, a
statement about *conflict* misses: the gap between a direct-mapped cache
and a fully-associative one of the same size.  This module makes that gap
a measured, per-miss quantity using the standard 3C model (Hill):

* **compulsory** — the first access ever to a memory granule (misses in
  any cache, of any size);
* **capacity**  — a non-first-touch miss that a fully-associative LRU
  cache of the same capacity *also* misses (the working set simply does
  not fit);
* **conflict**  — everything else: the real cache missed where the
  fully-associative shadow hit, i.e. a mapping artifact the layout could
  have avoided.

The three classes partition the real miss stream by construction, so
``compulsory + capacity + conflict == misses`` holds for every simulator
(test-asserted).  LRU is not inclusion-ordered across organisations, so
the shadow can occasionally miss where the real cache hits; those
accesses are *hits* (not counted in any class) but are tallied as
``anomaly``, giving the exact algebraic identity::

    conflict == real_misses - shadow_misses + anomaly

which for our traces makes "conflict misses" literally the measured gap
to the paper's fully-associative baseline (``anomaly`` is zero on every
bundled workload; the tests pin the identity anyway).

Classification granularity follows each simulator's fill unit: whole
blocks for direct/set-associative/prefetching caches, sectors for the
sectored cache, 4-byte words for partial loading, pages for paging.  The
shadow is a fully-associative LRU cache of the same byte capacity
organised in those granules, simulated by the one LRU model of
:mod:`repro.cache.lru`; a simulator that *is* that cache (fully
associative LRU at the shadow's granule and capacity) marks its probe,
and its own misses serve as the shadow.  First touches are found on the
granule transitions only (a first touch always changes granule), so the
classifier never sorts the full trace.

First touches and the shadow depend only on the trace, the granule and
the capacity, not on the simulated geometry.  An owner that replays one
trace many times (a runner's layout slot) keeps them in a
:class:`Reference`, and :func:`attribute` reads them from it when handed
one for that very trace: each is computed once per (granule, capacity),
and every later attribution only classifies its own misses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cache.lru import lru_misses, transitions

__all__ = [
    "Attribution",
    "MissProbe",
    "Reference",
    "attribute",
    "fully_associative_miss_positions",
]


class MissProbe:
    """Per-miss evidence a simulator collects when attribution is on.

    ``positions`` are indices into the simulated address trace, one per
    miss, in trace order.  ``evictors`` is parallel: the granule number
    previously resident in the frame this miss displaced (``-1`` when the
    frame was empty — a cold fill evicts nobody).  Both are lists filled
    by :meth:`miss`, or int64 arrays a vectorised simulator hands over
    whole.  ``granule_bytes`` is the simulator's fill unit (block,
    sector, word, or page) and ``capacity_bytes`` the total capacity the
    fully-associative shadow should be given.  ``fully_associative``
    marks a simulator that is itself that shadow (an LRU cache of one
    set at the same granule and capacity), so its misses are reused as
    the shadow's instead of simulated twice.
    """

    __slots__ = ("granule_bytes", "capacity_bytes", "positions", "evictors",
                 "fully_associative")

    def __init__(self, granule_bytes: int, capacity_bytes: int) -> None:
        self.granule_bytes = granule_bytes
        self.capacity_bytes = capacity_bytes
        self.positions: list[int] | np.ndarray = []
        self.evictors: list[int] | np.ndarray = []
        self.fully_associative = False

    def miss(self, position: int, evicted: int = -1) -> None:
        """Record one miss at trace ``position`` displacing ``evicted``."""
        self.positions.append(position)
        self.evictors.append(evicted)


@dataclass
class Attribution:
    """The 3C + symbol-level accounting of one simulation's misses.

    :meth:`merge` is plain counter addition, used when *aggregating*
    attributions of different configurations for rendering (a collector
    never sums replays of the same configuration — last result wins,
    they are deterministic).
    """

    organization: str = ""
    cache_bytes: int = 0
    block_bytes: int = 0
    granule_bytes: int = 0
    accesses: int = 0
    misses: int = 0
    compulsory: int = 0
    capacity: int = 0
    conflict: int = 0
    anomaly: int = 0
    shadow_misses: int = 0
    #: function -> [compulsory, capacity, conflict] miss counts.
    function_misses: dict[str, list[int]] = field(default_factory=dict)
    #: (victim function, evictor function) -> conflict-miss count.
    conflict_pairs: dict[tuple[str, str], int] = field(default_factory=dict)
    #: basic-block bid -> total misses landing in it (symbolised runs only).
    block_misses: dict[int, int] = field(default_factory=dict)
    #: cache set index -> misses (copied from the simulator when present).
    set_misses: dict[int, int] = field(default_factory=dict)

    def merge(self, other: "Attribution") -> "Attribution":
        """Fold another attribution of the same configuration in."""
        self.accesses += other.accesses
        self.misses += other.misses
        self.compulsory += other.compulsory
        self.capacity += other.capacity
        self.conflict += other.conflict
        self.anomaly += other.anomaly
        self.shadow_misses += other.shadow_misses
        for name, counts in other.function_misses.items():
            mine = self.function_misses.setdefault(name, [0, 0, 0])
            for i in range(3):
                mine[i] += counts[i]
        for pair, count in other.conflict_pairs.items():
            self.conflict_pairs[pair] = self.conflict_pairs.get(pair, 0) + count
        for bid, count in other.block_misses.items():
            self.block_misses[bid] = self.block_misses.get(bid, 0) + count
        for index, count in other.set_misses.items():
            self.set_misses[index] = self.set_misses.get(index, 0) + count
        return self

    # -- serialisation (JSON-safe: tuple keys flattened) -------------------

    def to_dict(self) -> dict:
        return {
            "organization": self.organization,
            "cache_bytes": self.cache_bytes,
            "block_bytes": self.block_bytes,
            "granule_bytes": self.granule_bytes,
            "accesses": self.accesses,
            "misses": self.misses,
            "compulsory": self.compulsory,
            "capacity": self.capacity,
            "conflict": self.conflict,
            "anomaly": self.anomaly,
            "shadow_misses": self.shadow_misses,
            "function_misses": {
                name: list(counts)
                for name, counts in sorted(self.function_misses.items())
            },
            "conflict_pairs": [
                [victim, evictor, count]
                for (victim, evictor), count in sorted(
                    self.conflict_pairs.items()
                )
            ],
            "block_misses": {
                str(bid): count
                for bid, count in sorted(self.block_misses.items())
            },
            "set_misses": {
                str(index): count
                for index, count in sorted(self.set_misses.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Attribution":
        return cls(
            organization=data.get("organization", ""),
            cache_bytes=int(data.get("cache_bytes", 0)),
            block_bytes=int(data.get("block_bytes", 0)),
            granule_bytes=int(data.get("granule_bytes", 0)),
            accesses=int(data.get("accesses", 0)),
            misses=int(data.get("misses", 0)),
            compulsory=int(data.get("compulsory", 0)),
            capacity=int(data.get("capacity", 0)),
            conflict=int(data.get("conflict", 0)),
            anomaly=int(data.get("anomaly", 0)),
            shadow_misses=int(data.get("shadow_misses", 0)),
            function_misses={
                name: list(map(int, counts))
                for name, counts in data.get("function_misses", {}).items()
            },
            conflict_pairs={
                (victim, evictor): int(count)
                for victim, evictor, count in data.get("conflict_pairs", [])
            },
            block_misses={
                int(bid): int(count)
                for bid, count in data.get("block_misses", {}).items()
            },
            set_misses={
                int(index): int(count)
                for index, count in data.get("set_misses", {}).items()
            },
        )


def fully_associative_miss_positions(
    granules: np.ndarray, capacity_granules: int
) -> np.ndarray:
    """Positions (trace order) missing in a fully-associative LRU cache."""
    return lru_misses(granules, capacity_granules)[0]


def _first_touch_positions(granules: np.ndarray) -> np.ndarray:
    """The position of the first access to each distinct granule.

    A first touch always changes granule, so only the transitions are
    searched, and their first occurrences map back through the
    transition positions.
    """
    steps = transitions(granules)
    _, first = np.unique(granules[steps], return_index=True)
    return steps[np.sort(first)]


class Reference:
    """The 3C reference of one fixed address trace, kept across attributions.

    Holds read-only first-touch positions per granule size and
    fully-associative miss positions per (granule, capacity), each
    computed on first use.  :func:`attribute` reads them only for a trace
    :meth:`covers` (every address equal), so no other trace can get
    them.  The arrays kept total at most ``budget_bytes``, the byte size
    of ``addresses`` itself; the least recently used go first, and an
    array larger than the budget is not kept.  Fills are race-safe: two
    threads may both compute an array, and the first one stored is the
    one every later caller gets.
    """

    def __init__(self, addresses: np.ndarray) -> None:
        self.addresses = addresses
        self.budget_bytes = addresses.nbytes
        self._arrays: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def covers(self, addresses: np.ndarray) -> bool:
        """Whether ``addresses`` is this reference's trace."""
        return len(addresses) == len(self.addresses) and bool(
            np.array_equal(addresses, self.addresses))

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays kept."""
        return self._bytes

    def first_touches(self, addresses: np.ndarray, shift: int) -> np.ndarray:
        """:func:`_first_touch_positions` of the trace (``addresses``, as
        ``int64``) at ``2**shift``-byte granules."""
        return self._get(("first_touch", shift),
                         lambda: _first_touch_positions(addresses >> shift))[0]

    def shadow(self, addresses: np.ndarray, shift: int,
               capacity_granules: int) -> np.ndarray:
        """:func:`fully_associative_miss_positions` of the trace at
        ``2**shift``-byte granules; a reuse is counted as
        ``shadow_reuses`` on the ambient recorder."""
        positions, reused = self._get(
            ("shadow", shift, capacity_granules),
            lambda: fully_associative_miss_positions(
                addresses >> shift, capacity_granules),
        )
        if reused:
            obs.current().count("shadow_reuses", 1)
        return positions

    def _get(self, key: tuple, compute) -> tuple[np.ndarray, bool]:
        """``(array, reused)``: the kept array, or a computed one."""
        with self._lock:
            array = self._arrays.get(key)
            if array is not None:
                self._arrays.move_to_end(key)
                return array, True
        array = compute()
        array.flags.writeable = False
        if array.nbytes > self.budget_bytes:
            return array, False
        with self._lock:
            kept = self._arrays.setdefault(key, array)
            self._arrays.move_to_end(key)
            if kept is array:
                self._bytes += array.nbytes
                while self._bytes > self.budget_bytes:
                    _, dropped = self._arrays.popitem(last=False)
                    self._bytes -= dropped.nbytes
            return kept, False


def attribute(
    addresses: np.ndarray,
    probe: MissProbe,
    organization: str,
    cache_bytes: int,
    block_bytes: int,
    symbols=None,
    set_misses=None,
    reference: Reference | None = None,
) -> Attribution:
    """Classify one simulation's misses and attribute them to symbols.

    ``addresses`` is the very trace the simulator consumed; ``probe``
    carries its per-miss positions and evictors.  ``symbols`` (a
    :class:`repro.diagnose.symbols.SymbolTable` or ``None``) turns
    addresses into (function, basic block); without it the attribution
    still produces exact 3C totals, just no symbol tables.  A
    ``reference`` that :meth:`~Reference.covers` ``addresses`` supplies
    the first touches and the shadow; any other trace computes its own.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    n = len(addresses)
    shift = probe.granule_bytes.bit_length() - 1
    capacity_granules = max(1, probe.capacity_bytes // probe.granule_bytes)
    miss_positions = np.asarray(probe.positions, dtype=np.int64)
    if reference is not None and reference.covers(addresses):
        first_touch = reference.first_touches(addresses, shift)
        shadow = (miss_positions if probe.fully_associative else
                  reference.shadow(addresses, shift, capacity_granules))
    else:
        granules = addresses >> shift
        first_touch = _first_touch_positions(granules)
        shadow = (miss_positions if probe.fully_associative else
                  fully_associative_miss_positions(
                      granules, capacity_granules))
    evictors = np.asarray(probe.evictors, dtype=np.int64)

    # Membership tests via searchsorted: every array is sorted & unique
    # in trace order (first_touch by construction, shadow because LRU
    # yields positions in order, miss positions because simulation does).
    def _member(positions: np.ndarray, of: np.ndarray) -> np.ndarray:
        if len(of) == 0:
            return np.zeros(len(positions), dtype=bool)
        idx = np.searchsorted(of, positions)
        idx = np.minimum(idx, len(of) - 1)
        return of[idx] == positions

    is_compulsory = _member(miss_positions, first_touch)
    in_shadow = _member(miss_positions, shadow)
    is_capacity = ~is_compulsory & in_shadow
    is_conflict = ~is_compulsory & ~in_shadow

    # Shadow misses where the real cache hit (LRU non-inclusion anomaly).
    anomaly = int(len(shadow) - int(in_shadow.sum()))

    result = Attribution(
        organization=organization,
        cache_bytes=cache_bytes,
        block_bytes=block_bytes,
        granule_bytes=probe.granule_bytes,
        accesses=n,
        misses=len(miss_positions),
        compulsory=int(is_compulsory.sum()),
        capacity=int(is_capacity.sum()),
        conflict=int(is_conflict.sum()),
        anomaly=anomaly,
        shadow_misses=len(shadow),
    )
    if set_misses is not None:
        result.set_misses = {
            int(index): int(count)
            for index, count in (
                set_misses.items() if hasattr(set_misses, "items")
                else enumerate(set_misses)
            )
            if count
        }

    if symbols is None or len(miss_positions) == 0:
        return result

    # Tallies count interval and function numbers; names are looked up
    # once per distinct function or pair, not once per miss.
    names = symbols.function_names
    located = symbols.locate(addresses[miss_positions])
    functions = symbols.function_ids[located]
    classes = np.where(is_compulsory, 0, np.where(is_capacity, 1, 2))
    counts = np.bincount(
        3 * functions + classes, minlength=3 * len(names)
    ).reshape(-1, 3)
    for function in np.flatnonzero(counts.any(axis=1)).tolist():
        result.function_misses[names[function]] = counts[function].tolist()
    bids = symbols.bids[located]
    bids, bid_counts = np.unique(bids[bids >= 0], return_counts=True)
    result.block_misses = dict(zip(bids.tolist(), bid_counts.tolist()))

    conflict_idx = np.flatnonzero(is_conflict & (evictors >= 0))
    if len(conflict_idx):
        evictor_functions = symbols.function_ids[
            symbols.locate(evictors[conflict_idx] << shift)]
        pairs, pair_counts = np.unique(
            len(names) * functions[conflict_idx] + evictor_functions,
            return_counts=True,
        )
        result.conflict_pairs = {
            (names[pair // len(names)], names[pair % len(names)]): count
            for pair, count in zip(pairs.tolist(), pair_counts.tolist())
        }
    return result
