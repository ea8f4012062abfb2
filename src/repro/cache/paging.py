"""Instruction paging simulation (the paper's Section 5, second research
direction: "experiments on the instruction paging performance.  The design
parameters under investigation include working set size, page size, and
page sectoring").

Three measurements over an instruction-fetch address trace:

* :func:`simulate_paging` — page faults under LRU with a fixed number of
  resident page frames;
* :func:`simulate_sectored_paging` — the same with page *sectoring*: a
  fault brings in only the touched sector of the page, trading fewer
  transferred bytes for extra sector faults (the page-level analogue of
  the Table 8 sector cache);
* :func:`working_set_profile` — Denning working-set statistics: the mean
  and peak number of distinct pages touched in a sliding window.

The IMPACT-I region split (effective code packed together, never-executed
code moved away) is precisely a paging optimisation — "when a page is
transferred from the secondary memory to the main memory, all the bytes
of that page are likely to be used" — and these simulators are what make
that claim measurable.  Page residency in both paging simulators is the
one LRU model of :mod:`repro.cache.lru`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    emit_cache_sim,
    new_probe,
    require_power_of_two,
)
from repro.cache.lru import lru_misses, transitions

__all__ = [
    "PagingStats",
    "WorkingSetStats",
    "simulate_paging",
    "simulate_sectored_paging",
    "working_set_profile",
]


@dataclass(frozen=True)
class PagingStats:
    """Outcome of one paging simulation."""

    accesses: int
    faults: int
    bytes_transferred: int
    distinct_pages: int

    @property
    def fault_ratio(self) -> float:
        """Faults per instruction access."""
        return self.faults / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class WorkingSetStats:
    """Denning working-set statistics for one window size."""

    window: int
    mean_pages: float
    peak_pages: int


def _emit_paging(stats: PagingStats, addresses, page_bytes: int,
                 resident_pages: int, organization: str, page_faults,
                 probe) -> None:
    emit_cache_sim(
        CacheStats(
            accesses=stats.accesses,
            misses=stats.faults,
            words_transferred=stats.bytes_transferred // BUS_WORD_BYTES,
            extras={"distinct_pages": float(stats.distinct_pages)},
        ),
        page_bytes * resident_pages, page_bytes, organization,
        set_misses=page_faults, addresses=addresses, probe=probe,
    )


def simulate_paging(
    addresses: np.ndarray, page_bytes: int, resident_pages: int
) -> PagingStats:
    """LRU paging with ``resident_pages`` frames of ``page_bytes`` each."""
    require_power_of_two(page_bytes, "page_bytes")
    if resident_pages < 1:
        raise ValueError("need at least one resident page")
    pages = np.asarray(addresses, dtype=np.int64) >> (
        page_bytes.bit_length() - 1
    )
    positions, evicted = lru_misses(pages, resident_pages)
    stats = PagingStats(
        accesses=len(addresses),
        faults=len(positions),
        bytes_transferred=len(positions) * page_bytes,
        distinct_pages=len(np.unique(pages)),
    )
    # The fill unit is a page and the real cache *is* fully-associative
    # LRU, so its faults serve as the 3C shadow and classification
    # degenerates to compulsory + capacity — a useful degenerate case
    # the 3C tests pin (conflict == 0).
    probe = new_probe(page_bytes, page_bytes * resident_pages)
    if obs.current().enabled or probe is not None:
        if probe is not None:
            probe.positions = positions
            probe.evictors = evicted
            probe.fully_associative = True
        # Per-page fault counts (sparse: page number -> faults), in
        # first-fault order.
        page_faults = dict(Counter(pages[positions].tolist()))
        _emit_paging(stats, addresses, page_bytes, resident_pages,
                     "paging", page_faults, probe)
    return stats


def simulate_sectored_paging(
    addresses: np.ndarray,
    page_bytes: int,
    resident_pages: int,
    sector_bytes: int,
) -> PagingStats:
    """LRU paging where a fault loads only the touched page sector.

    A page is resident or not as a whole (it occupies a frame), but its
    sectors become valid lazily; touching an invalid sector of a resident
    page is a (cheap) sector fault.  Page residency is the LRU model's;
    this function adds only the per-page sector-valid bitmap.
    """
    require_power_of_two(page_bytes, "page_bytes")
    require_power_of_two(sector_bytes, "sector_bytes")
    if sector_bytes > page_bytes:
        raise ValueError("sector larger than page")
    if resident_pages < 1:
        raise ValueError("need at least one resident page")

    pages_shift = (page_bytes // sector_bytes).bit_length() - 1
    sectors = np.asarray(addresses, dtype=np.int64) >> (
        sector_bytes.bit_length() - 1
    )
    pages = sectors >> pages_shift
    # Page loads happen at page transitions, which are sector transitions
    # too, so the sector walk below meets every one of them.
    loads, evicted = lru_misses(pages, resident_pages)
    load_evicts = dict(zip(loads.tolist(), evicted.tolist()))

    # The fill unit is a sector, so the 3C shadow is a fully-associative
    # sector cache of the same byte capacity; the eviction of a whole
    # page charges the displaced page's first sector as the evictor.
    probe = new_probe(sector_bytes, page_bytes * resident_pages)
    #: Per-page sector-fault counts (sparse: page number -> faults).
    page_faults: dict[int, int] = {}
    valid: dict[int, int] = {}      # resident page -> sector bitmap
    sector_mask = (1 << pages_shift) - 1
    faults = 0
    steps = transitions(sectors)
    for position, sector in zip(steps.tolist(), sectors[steps].tolist()):
        page = sector >> pages_shift
        victim = load_evicts.get(position)
        if victim is not None:
            valid.pop(victim, None)
            valid[page] = 0
        bit = 1 << (sector & sector_mask)
        if not valid[page] & bit:
            valid[page] |= bit
            faults += 1
            page_faults[page] = page_faults.get(page, 0) + 1
            if probe is not None:
                probe.miss(
                    position,
                    -1 if victim is None or victim < 0
                    else victim << pages_shift,
                )

    stats = PagingStats(
        accesses=len(addresses),
        faults=faults,
        bytes_transferred=faults * sector_bytes,
        distinct_pages=len(np.unique(pages)),
    )
    if obs.current().enabled or probe is not None:
        _emit_paging(stats, addresses, page_bytes, resident_pages,
                     f"sectored-paging/{sector_bytes}B", page_faults, probe)
    return stats


def working_set_profile(
    addresses: np.ndarray, page_bytes: int, window: int
) -> WorkingSetStats:
    """Mean/peak distinct pages over sliding windows of ``window`` fetches.

    Windows are evaluated at half-window stride, which is plenty for the
    mean/peak statistics and keeps the computation linear.
    """
    require_power_of_two(page_bytes, "page_bytes")
    if window < 1:
        raise ValueError("window must be positive")
    pages = np.asarray(addresses, dtype=np.int64) >> (
        page_bytes.bit_length() - 1
    )
    n = len(pages)
    if n == 0:
        return WorkingSetStats(window=window, mean_pages=0.0, peak_pages=0)

    stride = max(window // 2, 1)
    sizes = []
    for start in range(0, max(n - window, 0) + 1, stride):
        sizes.append(len(np.unique(pages[start:start + window])))
    if not sizes:
        sizes = [len(np.unique(pages))]
    return WorkingSetStats(
        window=window,
        mean_pages=float(np.mean(sizes)),
        peak_pages=int(max(sizes)),
    )
