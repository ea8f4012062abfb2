"""Unit tests for block traces and fetch-address expansion."""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.interp.interpreter import run_program
from repro.interp.trace import BlockTrace, expand_addresses
from repro.placement.baselines import natural_image


class TestExpansion:
    def test_straightline_block_is_sequential(self, loop_program):
        image = natural_image(loop_program)
        trace = BlockTrace.from_execution(run_program(loop_program))
        addresses = trace.addresses(image)
        # Within each block, consecutive fetches are 4 bytes apart.
        entry = loop_program.function("main").entry
        base = image.block_address(entry.bid)
        first = addresses[: image.fetch_lengths[0, entry.bid]]
        assert list(first) == [base + 4 * i for i in range(len(first))]

    def test_addresses_are_block_aligned_starts(self, call_program):
        image = natural_image(call_program)
        trace = BlockTrace.from_execution(run_program(call_program, [1, 2]))
        addresses = trace.addresses(image)
        starts = set(image.fetch_base[trace.block_ids])
        # The first fetch of the trace is the entry block's base.
        assert addresses[0] in starts

    def test_instruction_count_matches_expansion_length(self, call_program):
        image = natural_image(call_program)
        trace = BlockTrace.from_execution(run_program(call_program, [3]))
        addresses = trace.addresses(image)
        assert len(addresses) == trace.instruction_count(image)

    def test_empty_trace_expands_to_empty(self, loop_program):
        image = natural_image(loop_program)
        out = expand_addresses(
            np.empty(0, np.int32), np.empty(0, np.uint8), image
        )
        assert len(out) == 0

    def test_expansion_is_deterministic(self, branchy_program):
        image = natural_image(branchy_program)
        trace = BlockTrace.from_execution(
            run_program(branchy_program, [1, 2, 3])
        )
        a = trace.addresses(image)
        b = trace.addresses(image)
        assert np.array_equal(a, b)

    def test_addresses_within_image_span(self, branchy_program):
        image = natural_image(branchy_program)
        trace = BlockTrace.from_execution(
            run_program(branchy_program, [5, -3, 2])
        )
        addresses = trace.addresses(image)
        low, high = image.span()
        assert addresses.min() >= low
        assert addresses.max() < high

    def test_dtype_is_int64(self, loop_program):
        image = natural_image(loop_program)
        trace = BlockTrace.from_execution(run_program(loop_program))
        assert trace.addresses(image).dtype == np.int64

    def test_len_counts_blocks(self, loop_program):
        result = run_program(loop_program)
        trace = BlockTrace.from_execution(result)
        assert len(trace) == result.num_blocks_executed


class TestLayoutSensitivity:
    def test_different_layouts_give_different_addresses(self, call_program):
        from repro.placement.baselines import random_image

        trace = BlockTrace.from_execution(run_program(call_program, [1]))
        nat = trace.addresses(natural_image(call_program))
        rnd = trace.addresses(random_image(call_program, seed=3))
        assert not np.array_equal(nat, rnd)

    def test_not_taken_branch_fetches_inserted_jump(self):
        """When the fall successor is placed away, the linker's appended
        jump is fetched on the not-taken path only."""
        from repro.ir.builder import ProgramBuilder
        from repro.placement.image import MemoryImage

        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.beq("r1", 0, taken="t", fall="f")
        f.block("t").halt()
        b = f.block("f")
        b.out("r1")
        b.halt()
        program = pb.build()
        entry, t, fb = (program.function("main").block(n) for n in
                        ("entry", "t", "f"))
        # Place f's fall successor NOT adjacent: order entry, t, f.
        image = MemoryImage.build(program, [entry.bid, t.bid, fb.bid])
        trace = BlockTrace.from_execution(run_program(program, []))
        # r1 = 0 -> branch taken: no appended jump fetched.
        taken_addresses = trace.addresses(image)
        assert len(taken_addresses) == 1 + 1  # beq, halt

        # Same program, entry falls through now (r1 != 0 never happens
        # here, so craft input-driven version instead).
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.in_("r1")
        b.beq("r1", 0, taken="t", fall="f")
        f.block("t").halt()
        b = f.block("f")
        b.out("r1")
        b.halt()
        program = pb.build()
        entry, t, fb = (program.function("main").block(n) for n in
                        ("entry", "t", "f"))
        image = MemoryImage.build(program, [entry.bid, t.bid, fb.bid])
        trace = BlockTrace.from_execution(run_program(program, [7]))
        addresses = trace.addresses(image)
        # in + beq + appended jmp, then f's out + halt.
        assert len(addresses) == 3 + 2
        # The appended jump is contiguous with the branch.
        assert addresses[2] == addresses[1] + 4
        # ...and the landing at f is NOT contiguous (t sits in between).
        assert addresses[3] != addresses[2] + 4


def _expand_by_entry(block_ids, via, image) -> np.ndarray:
    """The oracle: each trace entry's fetches, one entry at a time."""
    out: list[int] = []
    for bid, exit_kind in zip(block_ids, via):
        base = int(image.fetch_base[bid])
        length = int(image.fetch_lengths[exit_kind, bid])
        out.extend(base + 4 * i for i in range(length))
    return np.asarray(out, dtype=np.int64)


@st.composite
def _images_and_traces(draw):
    blocks = draw(st.integers(1, 8))
    # Length 0 is a block the linker elided entirely (a lone JMP to the
    # block placed right after it).
    lengths = draw(st.lists(st.integers(0, 6), min_size=3 * blocks,
                            max_size=3 * blocks))
    bases = draw(st.lists(st.integers(0, 1 << 14).map(lambda b: 4 * b),
                          min_size=blocks, max_size=blocks))
    entries = draw(st.lists(
        st.tuples(st.integers(0, blocks - 1), st.integers(0, 2)),
        max_size=40,
    ))
    image = SimpleNamespace(
        fetch_base=np.asarray(bases, dtype=np.int64),
        fetch_lengths=np.asarray(lengths, dtype=np.int64).reshape(3, blocks),
    )
    block_ids = np.asarray([bid for bid, _ in entries], dtype=np.int32)
    via = np.asarray([kind for _, kind in entries], dtype=np.uint8)
    return image, block_ids, via


@settings(max_examples=200, deadline=None)
@given(_images_and_traces())
@example((
    SimpleNamespace(
        fetch_base=np.asarray([0, 8, 12], dtype=np.int64),
        fetch_lengths=np.asarray([[2, 0, 3]] * 3, dtype=np.int64),
    ),
    np.asarray([0, 1, 2, 1, 0], dtype=np.int32),
    np.asarray([0, 0, 0, 0, 0], dtype=np.uint8),
))
def test_expansion_matches_per_entry_loop(case):
    image, block_ids, via = case
    out = expand_addresses(block_ids, via, image)
    assert out.dtype == np.int64
    assert np.array_equal(out, _expand_by_entry(block_ids, via, image))
