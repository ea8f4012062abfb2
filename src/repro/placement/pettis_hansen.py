"""Pettis-Hansen-style profile-guided code positioning.

Pettis & Hansen (PLDI 1990) is the best-known follow-on to this paper's
layout work; implementing its two core heuristics gives the reproduction
a second, independent profile-guided layout to compare the IMPACT-I
pipeline against:

* **Function ordering by closest-is-best merging** — treat the weighted
  (undirected) call graph as a set of chains, repeatedly merge the two
  chains connected by the heaviest remaining edge, orienting the merge so
  the two endpoints of that edge end up as close as possible.
* **Intra-function bottom-up basic-block chaining** — grow block chains
  along the heaviest control arcs (instead of IMPACT-I's seed-and-extend
  trace selection), then emit chains hottest-first with the function
  entry's chain first.

Both reuse this package's profile and linker machinery, so the
comparison isolates the *layout policy*, not the surrounding substrate.
"""

from __future__ import annotations

from repro.ir.program import Program
from repro.placement.profile_data import ProfileData

__all__ = [
    "pettis_hansen_function_order",
    "pettis_hansen_block_order",
    "pettis_hansen_order",
]


def pettis_hansen_function_order(
    program: Program, profile: ProfileData
) -> list[str]:
    """Order functions by closest-is-best chain merging."""
    # Undirected call-graph edge weights.
    weights: dict[tuple[str, str], int] = {}
    for (caller, callee), weight in profile.call_graph_weights().items():
        key = (min(caller, callee), max(caller, callee))
        weights[key] = weights.get(key, 0) + weight

    chains: dict[str, list[str]] = {
        function.name: [function.name] for function in program
    }
    chain_of: dict[str, str] = {
        function.name: function.name for function in program
    }

    # Heaviest edges first; deterministic tie-break on names.
    edges = sorted(
        weights.items(), key=lambda item: (-item[1], item[0])
    )
    for (a, b), weight in edges:
        if weight == 0:
            break
        chain_a, chain_b = chain_of[a], chain_of[b]
        if chain_a == chain_b:
            continue
        left, right = chains[chain_a], chains[chain_b]
        # Orient so a and b end up adjacent-ish: a at left's tail, b at
        # right's head.
        if left.index(a) < len(left) / 2:
            left.reverse()
        if right.index(b) > len(right) / 2:
            right.reverse()
        merged = left + right
        chains[chain_a] = merged
        del chains[chain_b]
        for name in merged:
            chain_of[name] = chain_a

    # Emit chains by total invocation weight, but always start with the
    # chain containing the program entry.
    def chain_weight(names: list[str]) -> int:
        return sum(profile.function_weight(name) for name in names)

    ordered_chains = sorted(
        chains.values(), key=lambda names: -chain_weight(names)
    )
    ordered_chains.sort(key=lambda names: program.entry not in names)
    return [name for chain in ordered_chains for name in chain]


def pettis_hansen_block_order(
    program: Program, profile: ProfileData, function_name: str
) -> list[int]:
    """Bottom-up chain the blocks of one function along heavy arcs."""
    function = program.function(function_name)
    bids = [block.bid for block in function.blocks]

    chain_head: dict[int, int] = {bid: bid for bid in bids}
    chains: dict[int, list[int]] = {bid: [bid] for bid in bids}
    has_successor: set[int] = set()
    has_predecessor: set[int] = set()

    arcs = sorted(
        (arc for arc in profile.control_arcs(function) if arc.weight > 0),
        key=lambda arc: (-arc.weight, arc.src, arc.dst),
    )
    for arc in arcs:
        if arc.src in has_successor or arc.dst in has_predecessor:
            continue
        head_src, head_dst = chain_head[arc.src], chain_head[arc.dst]
        if head_src == head_dst:
            continue  # would close a cycle
        if chains[head_src][-1] != arc.src or chains[head_dst][0] != arc.dst:
            continue  # endpoints buried inside chains
        merged = chains[head_src] + chains[head_dst]
        chains[head_src] = merged
        del chains[head_dst]
        for bid in merged:
            chain_head[bid] = head_src
        has_successor.add(arc.src)
        has_predecessor.add(arc.dst)

    entry_bid = function.entry.bid
    assert entry_bid is not None

    def chain_weight(chain: list[int]) -> int:
        return sum(int(profile.block_weights[b]) for b in chain)

    ordered = sorted(chains.values(), key=chain_weight, reverse=True)
    ordered.sort(key=lambda chain: entry_bid not in chain)
    # The entry must be first overall: rotate its chain if the chaining
    # put a predecessor in front of it.
    first = ordered[0]
    if first[0] != entry_bid:
        index = first.index(entry_bid)
        ordered[0] = first[index:] + first[:index]
    return [bid for chain in ordered for bid in chain]


def pettis_hansen_order(
    program: Program, profile: ProfileData
) -> list[int]:
    """Whole-program block order: PH function order x PH block chains."""
    order: list[int] = []
    for name in pettis_hansen_function_order(program, profile):
        order.extend(pettis_hansen_block_order(program, profile, name))
    return order

