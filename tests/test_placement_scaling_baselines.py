"""Unit tests for code scaling and the baseline layouts."""

import numpy as np
import pytest

from repro.placement.baselines import (
    natural_image,
    natural_order,
    random_order,
)
from repro.placement.scaling import SCALING_FACTORS, scaled_sizes


class TestScaledSizes:
    def test_identity_factor_keeps_sizes(self, call_program):
        sizes = scaled_sizes(call_program, 1.0)
        assert list(sizes) == call_program.block_num_instructions

    def test_half_factor_rounds_to_nearest(self, loop_program):
        sizes = scaled_sizes(loop_program, 0.5)
        for block, scaled in zip(loop_program.blocks, sizes):
            expected = max(1, int(np.floor(block.num_instructions * 0.5 + 0.5)))
            assert scaled == expected

    def test_minimum_is_one_instruction(self, call_program):
        sizes = scaled_sizes(call_program, 0.01)
        assert (sizes == 1).all()

    def test_upscaling_grows_blocks(self, loop_program):
        sizes = scaled_sizes(loop_program, 2.0)
        assert (sizes >= np.asarray(loop_program.block_num_instructions)).all()
        assert sizes.sum() > loop_program.num_instructions

    def test_non_positive_factor_rejected(self, loop_program):
        with pytest.raises(ValueError):
            scaled_sizes(loop_program, 0.0)
        with pytest.raises(ValueError):
            scaled_sizes(loop_program, -1.0)

    def test_paper_factors_constant(self):
        assert SCALING_FACTORS == (0.5, 0.7, 1.0, 1.1)


class TestBaselines:
    def test_natural_order_is_identity(self, call_program):
        assert natural_order(call_program) == list(
            range(call_program.num_blocks)
        )

    def test_natural_image_builds(self, call_program):
        image = natural_image(call_program)
        assert image.total_bytes > 0

    def test_random_order_is_permutation(self, branchy_program):
        order = random_order(branchy_program, seed=7)
        assert sorted(order) == list(range(branchy_program.num_blocks))

    def test_random_order_is_seed_deterministic(self, branchy_program):
        assert random_order(branchy_program, 1) == random_order(
            branchy_program, 1
        )

    def test_random_order_varies_with_seed(self, branchy_program):
        orders = {tuple(random_order(branchy_program, s)) for s in range(8)}
        assert len(orders) > 1

    def test_random_keeps_functions_contiguous(self, call_program):
        order = random_order(call_program, seed=2)
        functions = [call_program.block_function[b] for b in order]
        # Once we leave a function we never come back.
        seen = []
        for name in functions:
            if not seen or seen[-1] != name:
                assert name not in seen
                seen.append(name)
