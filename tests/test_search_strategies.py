"""Search strategies: proposal order, determinism, and pruning."""

from __future__ import annotations

import pytest

from repro.search.space import SearchSpace, default_space, integer
from repro.search.strategies import (
    GridStrategy,
    RandomStrategy,
    SuccessiveHalvingStrategy,
    make_strategy,
)


def _record(trial: int, miss: float) -> dict:
    return {"trial": trial, "objectives": {"miss_ratio": miss}}


class TestGrid:
    def test_proposes_grid_order_truncated(self):
        space = SearchSpace(axes=(
            integer("a", (1, 2), 1), integer("b", (10, 20, 30), 10),
        ))
        proposals = GridStrategy().propose(space, budget=4)
        assert [tuple(c.values()) for c in proposals] == [
            (1, 10), (1, 20), (1, 30), (2, 10),
        ]

    def test_single_rung(self):
        strategy = GridStrategy()
        assert strategy.rung_workloads(0, ["a", "b"]) == ["a", "b"]
        assert strategy.rung_workloads(1, ["a", "b"]) == []
        assert strategy.promote(0, [_record(0, 0.1)]) == []


class TestRandom:
    def test_same_seed_same_sequence(self):
        space = default_space()
        a = RandomStrategy(seed=7).propose(space, budget=8)
        b = RandomStrategy(seed=7).propose(space, budget=8)
        assert a == b

    def test_different_seed_differs(self):
        space = default_space()
        assert (
            RandomStrategy(seed=7).propose(space, budget=8)
            != RandomStrategy(seed=8).propose(space, budget=8)
        )

    def test_proposals_are_unique(self):
        space = default_space()
        proposals = RandomStrategy(seed=0).propose(space, budget=16)
        fingerprints = [space.fingerprint(c) for c in proposals]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_tiny_space_terminates_short(self):
        space = SearchSpace(axes=(integer("a", (1, 2), 1),))
        proposals = RandomStrategy(seed=0).propose(space, budget=10)
        assert len(proposals) == 2        # space only has two points


class TestSuccessiveHalving:
    def test_probe_then_full(self):
        strategy = SuccessiveHalvingStrategy(seed=0)
        workloads = ["a", "b", "c", "d"]
        assert strategy.rung_workloads(0, workloads) == ["a", "b"]
        assert strategy.rung_workloads(1, workloads) == workloads
        assert strategy.rung_workloads(2, workloads) == []

    def test_probe_covering_everything_collapses_to_one_rung(self):
        strategy = SuccessiveHalvingStrategy(seed=0)
        assert strategy.rung_workloads(0, ["a", "b"]) == ["a", "b"]
        assert strategy.rung_workloads(1, ["a", "b"]) == []

    def test_promotes_best_third_with_index_tiebreak(self):
        strategy = SuccessiveHalvingStrategy(seed=0)
        results = [
            _record(0, 0.30), _record(1, 0.10), _record(2, 0.10),
            _record(3, 0.20), _record(4, 0.40), _record(5, 0.50),
        ]
        # ceil(6/3) = 2 survivors; 0.10 ties break toward trial 1.
        assert strategy.promote(0, results) == [1, 2]

    def test_promotes_at_least_one(self):
        strategy = SuccessiveHalvingStrategy(seed=0)
        assert strategy.promote(0, [_record(0, 0.5)]) == [0]

    def test_no_promotion_past_rung_zero(self):
        strategy = SuccessiveHalvingStrategy(seed=0)
        assert strategy.promote(1, [_record(0, 0.5)]) == []


class TestFactory:
    def test_known_names(self):
        assert make_strategy("grid").name == "grid"
        assert make_strategy("random", seed=3).seed == 3
        assert make_strategy("halving", seed=3).name == "halving"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("bayesian")
