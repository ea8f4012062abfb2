"""Pluggable search strategies for ``repro tune``.

A strategy answers three questions for the search driver
(:func:`repro.search.evaluate.run_search`):

1. :meth:`~Strategy.propose` — which candidates should be tried, given a
   trial budget?  Proposals are deduplicated by fingerprint and the
   paper-default candidate is always prepended by the driver, so every
   run has a known baseline to diff against.
2. :meth:`~Strategy.rung_workloads` — which workloads does rung *n*
   evaluate on?  Single-rung strategies (grid, random) evaluate every
   candidate on the full workload list at rung 0 and stop.  Successive
   halving probes a cheap subset first and only promotes survivors to
   the full suite.
3. :meth:`~Strategy.promote` — given a completed rung's trial records,
   which trial indices continue?  Everything not promoted is *pruned*
   (counted under the ``search.pruned`` metric).

All strategies are deterministic: random search derives every draw from
``random.Random(seed)``, and halving breaks score ties by trial index —
so the same ``--seed``/``--budget`` produce the same trial sequence at
any ``--jobs`` level.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from repro.search.space import SearchSpace

__all__ = [
    "Strategy",
    "GridStrategy",
    "RandomStrategy",
    "SuccessiveHalvingStrategy",
    "make_strategy",
    "STRATEGY_NAMES",
]

STRATEGY_NAMES = ("grid", "random", "halving")

#: Workloads successive halving probes at rung 0 (read at call time).
PROBE_COUNT = 2

#: Successive halving promotes the best ``ceil(n / ETA)`` candidates.
ETA = 3


class Strategy:
    """Base interface; subclasses override the three hooks."""

    name = "abstract"

    def propose(self, space: SearchSpace, budget: int) -> list[dict]:
        """Candidates to evaluate, best-effort up to ``budget``."""
        raise NotImplementedError

    def rung_workloads(self, rung: int, workloads: Sequence[str]) -> list[str]:
        """Workloads rung ``rung`` evaluates on; ``[]`` ends the search."""
        if rung == 0:
            return list(workloads)
        return []

    def promote(self, rung: int, results: Sequence[dict]) -> list[int]:
        """Trial indices (from ``results[i]["trial"]``) that advance."""
        return []


class GridStrategy(Strategy):
    """Exhaustive sweep in grid order, truncated to the budget.

    Meant for small, restricted spaces (``--axes min_prob,cache_bytes``);
    the full default space has thousands of points and a budget-truncated
    walk of it would only ever vary the fastest axes.
    """

    name = "grid"

    def propose(self, space: SearchSpace, budget: int) -> list[dict]:
        out = []
        for candidate in space.grid():
            if len(out) >= budget:
                break
            out.append(candidate)
        return out


class RandomStrategy(Strategy):
    """Seeded uniform random search, deduplicated by fingerprint."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def propose(self, space: SearchSpace, budget: int) -> list[dict]:
        rng = random.Random(self.seed)
        out: list[dict] = []
        seen: set[str] = set()
        # Bounded attempts so a tiny (restricted) space can't spin forever.
        attempts = 0
        max_attempts = max(64, budget * 16)
        while len(out) < budget and attempts < max_attempts:
            attempts += 1
            candidate = space.sample(rng)
            fp = space.fingerprint(candidate)
            if fp in seen:
                continue
            seen.add(fp)
            out.append(candidate)
        return out


class SuccessiveHalvingStrategy(Strategy):
    """Random proposals + early pruning on a cheap workload subset.

    Rung 0 evaluates every candidate on the first :data:`PROBE_COUNT`
    workloads only; the best ``ceil(n / ETA)`` candidates by mean miss
    ratio are promoted to rung 1, which runs the full workload list.
    Ties break by trial index (lower wins) so promotion is deterministic
    regardless of parallelism.
    """

    name = "halving"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._random = RandomStrategy(seed)

    def propose(self, space: SearchSpace, budget: int) -> list[dict]:
        return self._random.propose(space, budget)

    def rung_workloads(self, rung: int, workloads: Sequence[str]) -> list[str]:
        workloads = list(workloads)
        if rung == 0:
            probe = workloads[:PROBE_COUNT]
            # A probe identical to the full suite would make rung 1 a
            # pure re-run; collapse to single-rung in that case.
            return probe if len(probe) < len(workloads) else workloads
        if rung == 1 and PROBE_COUNT < len(workloads):
            return workloads
        return []

    def promote(self, rung: int, results: Sequence[dict]) -> list[int]:
        if rung != 0:
            return []
        scored = sorted(
            results,
            key=lambda r: (r["objectives"]["miss_ratio"], r["trial"]),
        )
        keep = max(1, math.ceil(len(scored) / ETA))
        return [r["trial"] for r in scored[:keep]]


def make_strategy(name: str, seed: int = 0) -> Strategy:
    """CLI entry point: strategy by name."""
    if name == "grid":
        return GridStrategy()
    if name == "random":
        return RandomStrategy(seed)
    if name == "halving":
        return SuccessiveHalvingStrategy(seed)
    raise ValueError(f"unknown strategy {name!r}; known: {STRATEGY_NAMES}")
