"""The numpy context fold against the walk it replaced.

:class:`tests.contexts_reference.ReferenceContexts` walks a run's CALL
and RET events one at a time.  :class:`ContextProfiler` must give the
same codes, the same contexts in the same first-appearance order, the
same folded counts and the same error, and :func:`derive_trace` the same
trace, on the workloads' runs, on generated programs with recursion and
syscalls, on a deep non-recursive call chain and on arbitrary event
sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.interp.interpreter import Interpreter, run_program
from repro.interp.trace import BlockTrace
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import Opcode
from repro.placement.contexts import ContextProfiler, derive_trace
from repro.placement.inline import InlinePolicy, inline_expand
from repro.workloads.registry import get_workload, workload_names
from tests.contexts_reference import ReferenceContexts, reference_derive_trace
from tests.test_properties import context_programs

WORKLOADS = workload_names() + workload_names("extended")

EAGER = InlinePolicy(
    min_call_fraction=0.0, min_call_count=1, max_code_growth=20.0
)


def fold(program, runs):
    """Fold ``runs`` both ways; assert codes and contexts agree per run.

    Returns the profiler, so callers can compare what it finished with.
    """
    profiler = ContextProfiler(program)
    reference = ReferenceContexts(program)
    n = program.num_blocks
    totals = np.zeros(0, dtype=np.int64)
    for run in runs:
        expected = reference.codes(run.block_ids)
        codes = profiler.codes(run.block_ids)
        assert codes.dtype == expected.dtype
        np.testing.assert_array_equal(codes, expected)
        assert profiler.contexts == reference.contexts
        profiler.record(run)
        folded = np.bincount(expected * 3 + run.via,
                             minlength=len(reference.contexts) * n * 3)
        folded[: len(totals)] += totals
        totals = folded
    profile = profiler.finish()
    assert list(profile.contexts) == reference.contexts
    dense = np.zeros(len(reference.contexts) * n * 3, dtype=np.int64)
    dense[: len(totals)] = totals
    dense = dense.reshape(-1, 3)
    keys = np.flatnonzero(dense.any(axis=1))
    np.testing.assert_array_equal(profile.keys, keys)
    np.testing.assert_array_equal(profile.counts, dense[keys])
    sizes = np.asarray(program.block_num_instructions, dtype=np.int64)
    assert profile.run_instructions == tuple(
        int(sizes[run.block_ids].sum()) for run in runs)
    return profile


def assert_derived_equal(program, profile, trace, policy=EAGER):
    _, report = inline_expand(program, profile.project(), policy)
    derived = derive_trace(program, report, trace)
    expected = reference_derive_trace(program, report, trace)
    np.testing.assert_array_equal(derived.block_ids, expected.block_ids)
    np.testing.assert_array_equal(derived.via, expected.via)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_fold_like_the_walk(name):
    workload = get_workload(name)
    program = workload.build()
    interpreter = Interpreter(program)
    runs = [interpreter.run(values)
            for values in workload.profiling_inputs("small")]
    trace_run = interpreter.run(workload.trace_input("small"))
    profile = fold(program, runs + [trace_run])
    trace = BlockTrace.from_execution(trace_run)
    assert_derived_equal(program, profile, trace, InlinePolicy())
    assert_derived_equal(program, profile, trace)


@given(
    context_programs(),
    st.lists(st.lists(st.integers(-4, 4), max_size=6),
             min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_recursion_and_syscalls_fold_like_the_walk(program, inputs):
    runs = [run_program(program, values) for values in inputs]
    profile = fold(program, runs)
    assert_derived_equal(program, profile,
                         BlockTrace.from_execution(runs[0]))


def build_chain(levels: int = 9):
    """``f0`` (main) calls ``f1`` from two sites, ``f1`` calls ``f2``
    from two sites, and so on down to ``f{levels}``, which calls a
    syscall: 2**k contexts of length k at every level k, none recursive.
    The second call of each level runs only while ``r1`` is positive,
    and ``f3`` reads ``r1`` from the input, so inputs change which
    contexts appear first."""
    pb = ProgramBuilder()
    for level in range(levels):
        f = pb.function(f"f{level}")
        b = f.block("entry")
        if level == 3:
            b.in_("r1")
        b.add("r2", "r2", 1)
        b.call(f"f{level + 1}", cont="mid")
        b = f.block("mid")
        b.ble("r1", 0, taken="done", fall="again")
        b = f.block("again")
        b.call(f"f{level + 1}", cont="done")
        b = f.block("done")
        if level:
            b.ret()
        else:
            b.out("r2")
            b.halt()
    f = pb.function(f"f{levels}")
    b = f.block("entry")
    b.call("sys", cont="done")
    b = f.block("done")
    b.ret()
    f = pb.function("sys", is_syscall=True)
    b = f.block("entry")
    b.out("r2")
    b.ret()
    return pb.build(entry="f0")


def test_deep_call_chain_folds_like_the_walk():
    program = build_chain()
    runs = [run_program(program, values)
            for values in ([1, 0], [0], [5, 1, -1], [])]
    profile = fold(program, runs)
    assert max(len(context) for context in profile.contexts) == 9
    for run in runs:
        assert_derived_equal(program, profile,
                             BlockTrace.from_execution(run))


def _events(program):
    blocks = program.blocks
    calls = [b.bid for b in blocks if b.callee is not None]
    rets = [b.bid for b in blocks if b.kind is Opcode.RET]
    plain = [b.bid for b in blocks
             if b.callee is None and b.kind is not Opcode.RET]
    return calls, rets, plain


@st.composite
def event_runs(draw, program):
    """Block sequences of ``program`` whose calls and returns nest
    arbitrarily deep; one in four may return past an empty stack."""
    calls, rets, plain = _events(program)
    underflow = draw(st.integers(0, 3)) == 0
    depth, bids = 0, []
    for kind in draw(st.lists(st.sampled_from("ccrp"), max_size=80)):
        if kind == "r" and (depth or underflow):
            bids.append(draw(st.sampled_from(rets)))
            depth -= 1
        elif kind == "c":
            bids.append(draw(st.sampled_from(calls)))
            depth += 1
        elif plain:
            bids.append(draw(st.sampled_from(plain)))
    return np.asarray(bids, dtype=np.int32)


def _outcome(walker, block_ids):
    try:
        return walker.codes(block_ids).tolist()
    except ValueError as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_arbitrary_event_sequences_fold_like_the_walk(data):
    program = data.draw(st.one_of(st.just(build_chain(4)),
                                  context_programs()))
    profiler = ContextProfiler(program)
    reference = ReferenceContexts(program)
    for block_ids in data.draw(st.lists(event_runs(program), max_size=4)):
        expected = _outcome(reference, block_ids)
        if isinstance(expected, str):
            # The walk may number contexts before it meets the bad
            # return; start both over from the same state.
            profiler = ContextProfiler(program)
            reference = ReferenceContexts(program)
        assert _outcome(profiler, block_ids) == expected
        assert profiler.contexts == reference.contexts


def test_empty_stack_return_raises_like_the_walk():
    program = build_chain(2)
    calls, rets, plain = _events(program)
    block_ids = np.asarray([plain[0], calls[0], rets[0], rets[0], plain[0]],
                           dtype=np.int32)
    for walker in (ReferenceContexts(program), ContextProfiler(program)):
        with pytest.raises(ValueError,
                           match="returns with an empty call stack"):
            walker.codes(block_ids)


def test_deep_nesting_folds_like_the_walk():
    program = build_chain(1)
    outer = program.function_entry_bid["f0"]      # calls f1
    inner = program.function_entry_bid["f1"]      # calls the syscall
    ret = program.function("f1").block("done").bid
    block_ids = np.asarray([outer, inner] * 20_000 + [ret] * 40_000,
                           dtype=np.int32)
    reference = ReferenceContexts(program)
    profiler = ContextProfiler(program)
    np.testing.assert_array_equal(profiler.codes(block_ids),
                                  reference.codes(block_ids))
    assert profiler.contexts == reference.contexts
