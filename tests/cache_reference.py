"""Reference LRU simulators: the differential oracle for ``repro.cache.lru``.

Every LRU simulation in the package (set-associative, fully associative,
both paging simulators and the 3C shadow) runs on one transition-
compressed ``OrderedDict`` kernel.  This module keeps the per-access
loops that kernel replaced: every access, repeats included, walks an
MRU-first Python list.  Slow but obvious, which is what an oracle should
be.  It records no observability events and is not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReferenceRun:
    """What one reference simulation observed, in trace order."""

    positions: list[int] = field(default_factory=list)
    evictors: list[int] = field(default_factory=list)
    #: Misses per set index (per page for the paging simulators).
    set_misses: dict[int, int] = field(default_factory=dict)

    @property
    def misses(self) -> int:
        return len(self.positions)


def reference_lru(granules, ways: int, num_sets: int = 1) -> ReferenceRun:
    """LRU over every access: ``num_sets`` MRU-first lists of ``ways``."""
    sets: list[list[int]] = [[] for _ in range(num_sets)]
    run = ReferenceRun()
    for position, granule in enumerate(granules):
        granule = int(granule)
        index = granule & (num_sets - 1)
        lru = sets[index]
        try:
            lru.remove(granule)
        except ValueError:
            run.positions.append(position)
            run.evictors.append(lru.pop() if len(lru) >= ways else -1)
            run.set_misses[index] = run.set_misses.get(index, 0) + 1
        lru.insert(0, granule)
    return run


def reference_set_associative(
    addresses, cache_bytes: int, block_bytes: int, associativity: int
) -> ReferenceRun:
    """An n-way LRU cache over whole-block fills."""
    shift = block_bytes.bit_length() - 1
    num_sets = cache_bytes // block_bytes // associativity
    return reference_lru(
        [int(address) >> shift for address in addresses],
        associativity, num_sets,
    )


def reference_paging(
    addresses, page_bytes: int, resident_pages: int
) -> ReferenceRun:
    """LRU paging; ``set_misses`` counts faults per page number."""
    shift = page_bytes.bit_length() - 1
    pages = [int(address) >> shift for address in addresses]
    run = reference_lru(pages, resident_pages)
    run.set_misses = {}
    for position in run.positions:
        page = pages[position]
        run.set_misses[page] = run.set_misses.get(page, 0) + 1
    return run


def reference_sectored_paging(
    addresses, page_bytes: int, resident_pages: int, sector_bytes: int
) -> ReferenceRun:
    """LRU paging whose faults load one sector of the touched page.

    An evicting page load charges the displaced page's first sector as
    the evictor of the sector fault it causes.
    """
    sector_shift = sector_bytes.bit_length() - 1
    pages_shift = page_bytes.bit_length() - 1 - sector_shift
    sectors_per_page = page_bytes // sector_bytes
    lru: list[int] = []
    valid: dict[int, int] = {}
    run = ReferenceRun()
    for position, address in enumerate(addresses):
        sector = int(address) >> sector_shift
        page = sector >> pages_shift
        bit = 1 << (sector & (sectors_per_page - 1))
        evicted = -1
        try:
            lru.remove(page)
        except ValueError:
            if len(lru) >= resident_pages:
                evicted = lru.pop()
                valid.pop(evicted, None)
            valid[page] = 0
        lru.insert(0, page)
        if not valid[page] & bit:
            valid[page] |= bit
            run.positions.append(position)
            run.evictors.append(
                -1 if evicted < 0 else evicted << pages_shift
            )
            run.set_misses[page] = run.set_misses.get(page, 0) + 1
    return run
