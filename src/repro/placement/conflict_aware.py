"""Conflict-aware global function placement (a post-paper refinement).

The extended-suite study exposed the weakness of the appendix's DFS
global layout: when interacting hot functions together exceed the cache,
DFS adjacency says nothing about *cache-set* conflicts, and the layout
becomes luck (awk regresses against declaration order; see
EXPERIMENTS.md).  Later work — Gloy & Smith's temporal-relation
placement, and ultimately BOLT — fixes this by placing functions so that
functions that interleave in time do not collide in the cache.

This module implements the lightweight version of that idea on top of
the pipeline's steps 1-4:

* interleaving is approximated by the symmetric call-graph weight between
  two functions (callers interleave with their callees — exactly awk's
  main<->action pattern);
* each function's *effective region* occupies an interval of cache sets
  determined by its placement address; the expected conflict cost of a
  placement is ``sum over placed pairs of interleave(F, G) x
  set_overlap(F, G)``;
* functions are placed greedily, hottest first, each at the end of the
  sequence whose resulting set interval minimises the added cost — with
  the option of inserting a small alignment gap (up to one cache's worth
  of positions is implicitly explored because every candidate order
  shifts all successors).

Cold (non-executed) regions are appended afterwards, as in Step 5.
"""

from __future__ import annotations

from repro.ir.instructions import INSTRUCTION_BYTES
from repro.placement.function_layout import FunctionLayout
from repro.placement.profile_data import ProfileData
from repro.ir.program import Program

__all__ = ["conflict_aware_order"]

#: Granularity at which set overlap is evaluated (one typical block).
_LINE_BYTES = 64


def _effective_bytes(
    program: Program, layout: FunctionLayout
) -> int:
    """Approximate placed size of a function's effective region."""
    sizes = program.block_num_instructions
    return sum(
        sizes[bid] * INSTRUCTION_BYTES for bid in layout.effective_blocks
    )


def _footprint(start: int, size: int, cache_bytes: int) -> frozenset[int]:
    """The cache lines (mod cache) a [start, start+size) region covers."""
    if size <= 0:
        return frozenset()
    lines_per_cache = cache_bytes // _LINE_BYTES
    first = start // _LINE_BYTES
    last = (start + size - 1) // _LINE_BYTES
    if last - first + 1 >= lines_per_cache:
        return frozenset(range(lines_per_cache))
    return frozenset(
        line % lines_per_cache for line in range(first, last + 1)
    )


def conflict_aware_order(
    program: Program,
    profile: ProfileData,
    layouts: dict[str, FunctionLayout],
    cache_bytes: int = 2048,
) -> list[int]:
    """Produce a whole-program block order minimising estimated conflicts.

    ``layouts`` are the per-function body layouts from Step 4; the cache
    geometry the placement is optimised for must be given (the paper's
    flagship 2K by default).
    """
    names = [function.name for function in program]
    weights = profile.call_graph_weights()
    interleave: dict[tuple[str, str], int] = {}
    for (caller, callee), weight in weights.items():
        key = (min(caller, callee), max(caller, callee))
        interleave[key] = interleave.get(key, 0) + weight

    sizes = {
        name: _effective_bytes(program, layouts[name]) for name in names
    }
    hotness = {name: profile.function_weight(name) for name in names}

    # Greedy placement, entry first, then hottest-first; each candidate
    # position is "the current end", but candidates are considered in an
    # order we control, so the search is over sequences.
    remaining = [n for n in names if sizes[n] > 0]
    remaining.sort(key=lambda n: (-hotness[n], n))
    if program.entry in remaining:
        remaining.remove(program.entry)
        remaining.insert(0, program.entry)

    placed: list[str] = []
    footprints: dict[str, frozenset[int]] = {}
    address = 0

    while remaining:
        best_name = None
        best_cost = None
        for candidate in remaining:
            footprint = _footprint(address, sizes[candidate], cache_bytes)
            cost = 0
            for other in placed:
                key = (min(candidate, other), max(candidate, other))
                pair_weight = interleave.get(key, 0)
                if pair_weight:
                    cost += pair_weight * len(
                        footprint & footprints[other]
                    )
            if best_cost is None or cost < best_cost:
                best_name, best_cost = candidate, cost
            if cost == 0:
                break  # cannot do better than conflict-free
        assert best_name is not None
        remaining.remove(best_name)
        placed.append(best_name)
        footprints[best_name] = _footprint(
            address, sizes[best_name], cache_bytes
        )
        address += sizes[best_name]

    # Functions with empty effective regions join the cold tail.
    cold_only = [n for n in names if sizes[n] == 0]

    order: list[int] = []
    for name in placed:
        order.extend(layouts[name].effective_blocks)
    for name in placed + cold_only:
        order.extend(layouts[name].non_executed_blocks)
    for name in cold_only:
        order.extend(layouts[name].effective_blocks)  # empty by definition
    if len(order) != program.num_blocks:
        raise ValueError("conflict-aware order does not cover the program")
    return order

