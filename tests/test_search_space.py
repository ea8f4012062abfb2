"""The declarative parameter-space model (repro.search.space)."""

from __future__ import annotations

import random

import pytest

from repro.engine.store import options_fingerprint
from repro.placement.pipeline import PlacementOptions
from repro.placement.trace_selection import MIN_PROB
from repro.search.space import (
    Axis,
    SearchSpace,
    categorical,
    default_space,
    integer,
    placement_options,
    real,
)


class TestAxis:
    def test_kinds_and_constructors(self):
        assert categorical("layout", ("a", "b"), "a").kind == "categorical"
        assert integer("cache", (512, 1024), 512).values == (512, 1024)
        assert real("p", (0.5, 0.7), 0.7).default == 0.7

    def test_default_must_be_a_value(self):
        with pytest.raises(ValueError, match="default"):
            integer("cache", (512, 1024), 2048)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            integer("cache", (512, 512), 512)
        with pytest.raises(ValueError, match="no values"):
            Axis(name="x", kind="int", values=(), default=None)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Axis(name="x", kind="enum", values=(1,), default=1)

    def test_validate_value(self):
        axis = integer("cache", (512, 1024), 512)
        axis.validate(1024)
        with pytest.raises(ValueError, match="not one of"):
            axis.validate(2048)


class TestSearchSpace:
    def test_default_candidate_is_paper_config(self):
        space = default_space()
        candidate = space.default_candidate()
        assert candidate["min_prob"] == MIN_PROB
        assert candidate["layout"] == "optimized"
        assert candidate["cache_bytes"] == 2048
        assert candidate["block_bytes"] == 64
        assert candidate["associativity"] == 1
        space.validate(candidate)

    def test_size_is_grid_cardinality(self):
        space = default_space()
        assert space.size == len(list(space.grid()))

    def test_grid_order_last_axis_fastest(self):
        space = SearchSpace(axes=(
            integer("a", (1, 2), 1), integer("b", (10, 20), 10),
        ))
        assert [tuple(c.values()) for c in space.grid()] == [
            (1, 10), (1, 20), (2, 10), (2, 20),
        ]

    def test_sample_is_deterministic_per_seed(self):
        space = default_space()
        a = [space.sample(random.Random(7)) for _ in range(3)]
        b = [space.sample(random.Random(7)) for _ in range(3)]
        assert a == b
        for candidate in a:
            space.validate(candidate)

    def test_restrict_pins_other_axes(self):
        space = default_space().restrict(["min_prob", "cache_bytes"])
        assert space.size == 25
        for candidate in space.grid():
            assert candidate["block_bytes"] == 64
            assert candidate["layout"] == "optimized"

    def test_restrict_unknown_axis_raises(self):
        with pytest.raises(KeyError, match="unknown axis"):
            default_space().restrict(["minprob"])

    def test_validate_rejects_missing_and_unknown(self):
        space = default_space()
        candidate = space.default_candidate()
        with pytest.raises(ValueError, match="missing axis"):
            space.validate({k: v for k, v in candidate.items()
                            if k != "layout"})
        with pytest.raises(ValueError, match="unknown axes"):
            space.validate({**candidate, "bogus": 1})

    def test_fingerprint_distinguishes_candidates(self):
        space = default_space()
        default = space.default_candidate()
        tweaked = {**default, "min_prob": 0.8}
        assert space.fingerprint(default) != space.fingerprint(tweaked)
        assert space.fingerprint(default) == space.fingerprint(dict(default))

    def test_describe_roundtrips_defaults(self):
        described = default_space().describe()
        assert {row["name"] for row in described} == set(
            default_space().names
        )
        for row in described:
            assert row["default"] in row["values"]


class TestPlacementLowering:
    def test_default_candidate_maps_to_default_options(self):
        candidate = default_space().default_candidate()
        options = placement_options(candidate)
        assert options == PlacementOptions()
        assert options == PlacementOptions.paper()
        assert (
            options_fingerprint(options)
            == options_fingerprint(PlacementOptions())
        )

    def test_tuned_axes_reach_the_options(self):
        candidate = {
            **default_space().default_candidate(),
            "min_prob": 0.9,
            "inline_min_count": 125,
            "inline_budget": 2.0,
        }
        options = placement_options(candidate)
        assert options.min_prob == 0.9
        assert options.inline.min_call_count == 125
        assert options.inline.max_code_growth == 2.0
