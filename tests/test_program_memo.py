"""The process-wide memo of built programs.

The runner builds each workload builder's program once per process and
hands the same object to every cold build and hydration, so the
interpreter's per-program state (block code, first-run counts, regions)
serves every request for it.  That is sound only because
``Workload.build`` is deterministic and no stage mutates its input
program; both are checked here, and so is the result: explains are
byte-identical with the memo and with a fresh build per request.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading

import pytest

from repro import obs
from repro.engine import scheduler
from repro.engine.jobs import request_plan
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner, clear_memo
from repro.interp import regions as interp_regions
from repro.interp.interpreter import Interpreter
from repro.interp.profiler import profile_program
from repro.ir.printer import format_program
from repro.obs.recorder import Recorder
from repro.opt import ALL_PASSES, OptOptions, run_opt
from repro.workloads import registry
from repro.workloads.registry import (
    extended_workload_names, get_workload, workload_names,
)

SCALE = "small"

#: Every layout family the runner replays, as ``(layout, scaling)``.
LAYOUTS = (
    ("natural", 1.0), ("random", 1.0), ("pettis_hansen", 1.0),
    ("conflict_aware", 1.0), ("optimized", 1.0), ("optimized", 1.5),
)

#: Tells apart the names each test registers (the registry is global).
_TAGS = itertools.count()


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def fresh():
    """``fresh(base, copy)`` registers ``base`` under a never-seen name
    with other inputs (the builder is the base's), as the cold benchmark
    does; the names are unregistered after the test."""
    names = []

    def register_fresh(base: str, copy: int) -> str:
        workload = get_workload(base)
        name = f"{base}.memo{next(_TAGS)}"
        registry.register(dataclasses.replace(
            workload, name=name,
            profile_seeds=tuple(seed + 1000 * (copy + 1)
                                for seed in workload.profile_seeds),
            trace_seed=workload.trace_seed + 1000 * (copy + 1),
        ))
        names.append(name)
        return name

    yield register_fresh
    for name in names:
        registry._REGISTRY.pop(name, None)
        registry._SUITE_OF.pop(name, None)


def explain(workload: str, store_dir: str, opt: str = "none") -> str:
    request = {
        "kind": "explain", "workload": workload, "scale": SCALE,
        "cache_bytes": 2048, "block_bytes": 64, "assoc": 1, "opt": opt,
    }
    return scheduler.run_jobs(
        request_plan(request), cache_dir=store_dir, use_cache=True,
    )[f"explain:{workload}"]


def snapshot(program) -> tuple:
    """Everything a stage could change in place: the listing, the flat
    bid-indexed tables, and each block's own bid."""
    return (
        format_program(program),
        list(program.block_taken), list(program.block_fall),
        list(program.block_callee_entry), list(program.block_function),
        list(program.block_num_instructions),
        dict(program.function_entry_bid),
        [block.bid for block in program.blocks],
        [block.bid for function in program for block in function.blocks],
    )


def all_names() -> list[str]:
    names = workload_names() + extended_workload_names()
    assert len(names) == 14
    return names


def test_build_is_deterministic():
    for name in all_names():
        workload = get_workload(name)
        assert snapshot(workload.build()) == snapshot(workload.build()), name


def test_one_program_per_builder(fresh):
    wc = get_workload("wc")
    program = runner_module._program(wc)
    assert runner_module._program(get_workload(fresh("wc", 0))) is program
    assert runner_module._program(get_workload("cmp")) is not program
    clear_memo()
    assert runner_module._program(wc) is not program


@pytest.mark.parametrize("opt", ["none", "all"])
def test_memoized_explains_equal_fresh_builds(tmp_path, fresh, opt):
    paper = workload_names()
    assert len(paper) == 10
    names = [fresh(name, copy) for copy in range(2) for name in paper]
    memoized = {name: explain(name, str(tmp_path / "memo"), opt)
                for name in names}
    for name in names:
        clear_memo()
        assert explain(name, str(tmp_path / "fresh"), opt) == \
            memoized[name], name


def test_second_cold_build_reuses_compiled_state(monkeypatch, fresh):
    formed = []

    class Spy(interp_regions.Regions):
        def __init__(self, program, counts):
            super().__init__(program, counts)
            formed.append(self)

    region_dispatches = []
    real_code = interp_regions.Regions.code

    def code(self, program, bid):
        found = real_code(self, program, bid)
        if found is not None:
            region_dispatches[-1] += 1
        return found

    real_run = Interpreter.run

    def run(self, *args, **kwargs):
        region_dispatches.append(0)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(interp_regions, "Regions", Spy)
    monkeypatch.setattr(interp_regions.Regions, "code", code)
    monkeypatch.setattr(Interpreter, "run", run)

    def cold_build(name: str):
        region_dispatches.clear()
        recorder = Recorder()
        with obs.use(recorder):
            art = ExperimentRunner(scale=SCALE, store=None).artifacts(name)
        return art, recorder.metrics.counter_values()

    first, _ = cold_build(fresh("compress", 0))
    assert formed and region_dispatches[0] == 0
    formed.clear()
    second, counters = cold_build(fresh("compress", 1))
    assert second.original_program is first.original_program
    assert counters.get("interp_compiled_blocks", 0) == 0
    assert counters.get("interp_compiled_regions", 0) == 0
    assert not formed
    assert region_dispatches[0] > 0


def test_no_stage_mutates_the_shared_program(tmp_path):
    store = str(tmp_path)
    programs = {name: runner_module._program(get_workload(name))
                for name in all_names()}
    before = {name: snapshot(program) for name, program in programs.items()}
    for name in all_names():
        explain(name, store, opt="all")
        runner = ExperimentRunner(scale=SCALE, store=None)
        for layout, scaling in LAYOUTS:
            runner.replay(name, layout, scaling, seed=3)
        # Each pass alone, too: under "all", lvn rewrites every function
        # first, so a later pass never sees the shared program.
        inputs = get_workload(name).profiling_inputs(SCALE)
        for pass_name in ALL_PASSES:
            run_opt(programs[name], OptOptions.parse(pass_name),
                    profile_source=lambda p: profile_program(p, inputs))
    for name, program in programs.items():
        assert runner_module._program(get_workload(name)) is program
        assert snapshot(program) == before[name], name


def test_threads_share_one_program(tmp_path, fresh):
    names = [fresh("grep", copy) for copy in range(4)]
    sequential = {}
    for name in names:
        clear_memo()
        sequential[name] = explain(name, str(tmp_path / "sequential"))
    clear_memo()
    barrier = threading.Barrier(len(names))
    outputs, errors = {}, []

    def worker(name: str) -> None:
        try:
            barrier.wait()
            outputs[name] = explain(name, str(tmp_path / "threaded"))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(name,))
               for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert outputs == sequential
