"""The optimizing middle-end: pass semantics, wiring, and acceptance gates.

Four layers of coverage:

* per-pass golden tests on small hand-built programs (DCE sweeps, LVN
  folds/CSEs, simplify reshapes loops, LICM hoists, superblock clones);
* the semantics matrix — every registered workload runs byte-identically
  (OUT stream) through the full pass stack and through superblock
  formation alone, and the scalar stack shrinks the IR on most of them;
* preservation of the repo's defaults — with no passes configured the
  pipeline, the tables, and ``repro explain`` are byte-identical to a
  build without the middle-end, and the store fingerprints only change
  when passes are actually enabled;
* the tune surface — the ``opt`` axis searches pass stacks and finds a
  configuration Pareto-dominating the paper default on
  (miss ratio, code bytes).
"""

from __future__ import annotations

import pytest

from repro import experiments, obs
from repro.engine.store import options_fingerprint
from repro.experiments.runner import ExperimentRunner
from repro.interp.interpreter import run_program
from repro.interp.profiler import profile_program
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import Opcode
from repro.ir.validate import ValidationError, validate_optimized
from repro.opt import ALL_PASSES, OptOptions, PASS_NAMES, run_opt
from repro.placement.pipeline import PlacementOptions
from repro.placement.trace_selection import select_traces
from repro.workloads.registry import get_workload, workload_names

from .conftest import (
    build_branchy_program,
    build_call_program,
    build_counted_loop,
    build_recursive_program,
)

MAX_STEPS = 5_000_000

ALL_WORKLOADS = workload_names("paper") + workload_names("extended")

#: Representative inputs for each conftest program factory.
FACTORY_CASES = (
    (build_counted_loop, []),
    (build_call_program, [1, 2, 3, -1]),
    (build_branchy_program, [3, 4, -2, 5, -1]),
    (build_recursive_program, [5]),
)


def run_passes(program, spec, profiling_inputs=None):
    """Run a pass spec; wire a profile source when inputs are given."""
    source = None
    if profiling_inputs is not None:
        source = lambda p: profile_program(p, profiling_inputs)
    return run_opt(program, OptOptions.parse(spec), profile_source=source)


class TestOptOptions:
    def test_parse_none(self):
        for spec in (None, "", "none"):
            assert OptOptions.parse(spec).passes == ()
        assert OptOptions.parse("none").spec == "none"

    def test_parse_all_is_the_canonical_order(self):
        assert OptOptions.parse("all").passes == ALL_PASSES
        assert set(ALL_PASSES) == set(PASS_NAMES)

    def test_parse_list_and_spec_round_trip(self):
        options = OptOptions.parse(" dce , lvn ")
        assert options.passes == ("dce", "lvn")
        assert options.spec == "dce,lvn"
        assert OptOptions.parse(options.spec) == options

    def test_parse_rejects_unknown_pass(self):
        with pytest.raises(ValueError, match="unknown"):
            OptOptions.parse("dce,frobnicate")

    def test_no_passes_returns_the_same_program(self):
        program = build_counted_loop()
        optimized, report, profiles = run_opt(program, OptOptions())
        assert optimized is program
        assert report.passes == ()
        assert profiles == []


class TestDce:
    def test_removes_dead_overwritten_definition(self):
        # HALT is an all-registers-live barrier (machine state is
        # observable), so a *trailing* write survives; a write killed by
        # a later redefinition before any use is provably dead.
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.li("r3", 7)          # overwritten below before any read
        b.li("r3", 9)
        b.out("r3")
        b.halt()
        program = pb.build()
        optimized, _, _ = run_passes(program, "dce")
        assert optimized.num_instructions == program.num_instructions - 1
        folded = optimized.function("main").blocks[0].instructions[0]
        assert folded.op is Opcode.LI and folded.imm == 9

    def test_keeps_side_effects_and_io(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.in_("r1")
        b.st("r1", "r0", 100)   # store: always live
        b.out("r1")
        b.halt()
        program = pb.build()
        optimized, _, _ = run_passes(program, "dce")
        assert optimized.num_instructions == program.num_instructions


class TestLvn:
    def test_folds_constant_alu_to_li(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.li("r1", 2)
        b.li("r2", 3)
        b.add("r3", "r1", "r2")
        b.out("r3")
        b.halt()
        program = pb.build()
        optimized, _, _ = run_passes(program, "lvn")
        folded = optimized.function("main").blocks[0].instructions[2]
        assert folded.op is Opcode.LI and folded.imm == 5
        assert (run_program(optimized, [], MAX_STEPS).output
                == run_program(program, [], MAX_STEPS).output)

    def test_cse_turns_recomputation_into_mov(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.in_("r1")
        b.in_("r2")
        b.add("r3", "r1", "r2")
        b.add("r4", "r2", "r1")     # commutative duplicate
        b.out("r3")
        b.out("r4")
        b.halt()
        program = pb.build()
        optimized, _, _ = run_passes(program, "lvn")
        ops = [i.op for i in optimized.function("main").blocks[0].instructions]
        assert Opcode.MOV in ops
        inputs = [7, 9]
        assert (run_program(optimized, inputs, MAX_STEPS).output
                == run_program(program, inputs, MAX_STEPS).output)

    def test_decides_constant_branch_and_prunes_dead_arm(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.li("r1", 0)
        b.beq("r1", 0, taken="yes", fall="no")
        b = f.block("yes")
        b.out("r1")
        b.halt()
        b = f.block("no")
        b.li("r2", 1)
        b.out("r2")
        b.halt()
        program = pb.build()
        optimized, _, _ = run_passes(program, "lvn")
        main = optimized.function("main")
        assert len(main.blocks) == 2           # "no" went unreachable
        assert main.blocks[0].terminator.op is Opcode.JMP
        assert (run_program(optimized, [], MAX_STEPS).output
                == run_program(program, [], MAX_STEPS).output)


class TestSimplify:
    def test_while_loop_becomes_test_at_bottom(self):
        program = build_counted_loop()
        optimized, _, _ = run_passes(program, "simplify")
        # Terminator duplication kills the one-instruction header and
        # straight-line merging reclaims a jump.
        assert optimized.num_instructions < program.num_instructions
        assert (run_program(optimized, [], MAX_STEPS).output
                == run_program(program, [], MAX_STEPS).output)

    def test_branches_fall_forward_in_declaration_order(self):
        optimized, _, _ = run_passes(build_counted_loop(), "simplify")
        for function in optimized:
            order = {b.name: i for i, b in enumerate(function.blocks)}
            for position, block in enumerate(function.blocks):
                if block.terminator.is_branch and block.fall is not None:
                    assert not (
                        order[block.fall] <= position < order[block.taken]
                    ), f"{block.name} falls backward"

    def test_same_target_branch_folds_to_jmp(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.in_("r1")
        b.beq("r1", 0, taken="join", fall="join")
        b = f.block("join")
        b.out("r1")
        b.halt()
        program = pb.build()
        optimized, _, _ = run_passes(program, "simplify")
        for block in optimized.function("main").blocks:
            assert not block.terminator.is_branch


class TestLicm:
    def build_bottom_test_loop(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.li("r1", 0)
        b.li("r2", 0)
        b.jmp("body")
        b = f.block("body")
        b.li("r4", 1234)            # loop-invariant
        b.add("r2", "r2", "r4")
        b.add("r1", "r1", 1)
        b.blt("r1", 50, taken="body", fall="done")
        b = f.block("done")
        b.out("r2")
        b.halt()
        return pb.build()

    def test_hoists_invariant_out_of_loop(self):
        program = self.build_bottom_test_loop()
        optimized, _, _ = run_passes(program, "licm")
        before = run_program(program, [], MAX_STEPS)
        after = run_program(optimized, [], MAX_STEPS)
        assert after.output == before.output
        assert after.instructions < before.instructions
        body = optimized.function("main").block("body")
        assert Opcode.LI not in [i.op for i in body.instructions]


class TestSuperblock:
    def build_join_loop(self):
        """A diamond whose arms re-join before the back edge: the hot
        trace through the join has a side entrance from the cold arm,
        which is exactly what superblock formation tail-duplicates."""
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.li("r2", 0)
        b.jmp("head")
        b = f.block("head")
        b.in_("r1")
        b.beq("r1", -1, taken="done", fall="body")
        b = f.block("body")
        b.blt("r1", 0, taken="neg", fall="pos")
        b = f.block("pos")
        b.add("r2", "r2", "r1")
        b.jmp("join")
        b = f.block("neg")
        b.sub("r2", "r2", "r1")
        b.jmp("join")
        b = f.block("join")
        b.add("r2", "r2", 1)
        b.jmp("head")
        b = f.block("done")
        b.out("r2")
        b.halt()
        return pb.build()

    def test_clones_the_hot_trace_and_preserves_output(self):
        program = self.build_join_loop()
        inputs = [[1, 2, 3, 4, 5, -1], [6, 7, 8, -1]]
        optimized, _, _ = run_passes(
            program, "superblock", profiling_inputs=inputs
        )
        # The join block is tail-duplicated into the hot pos-arm trace
        # (then spliced into it by straight-line merging): the hot arm
        # absorbs the join body, so the pos block grows and the hot path
        # runs jump-free to the back edge.
        assert optimized.num_instructions >= program.num_instructions
        hot = optimized.function("main").block("pos")
        assert hot.num_instructions > program.function("main").block(
            "pos").num_instructions
        for trace in ([2, 4, -3, 5, -1], [-2, -1], []):
            assert (run_program(optimized, trace + [-1], MAX_STEPS).output
                    == run_program(program, trace + [-1], MAX_STEPS).output)

    @pytest.mark.parametrize("name", ("join_loop", "make", "cccp", "yacc"))
    def test_clones_are_suffixes_of_selected_traces(self, name, monkeypatch):
        # Keep the clones as blocks of their own (no straight-line
        # merge), so each one's name still carries its origin label.
        monkeypatch.setattr(
            "repro.opt.superblock.merge_straight_line", lambda blocks: blocks
        )
        if name == "join_loop":
            program = self.build_join_loop()
            inputs = [[1, 2, 3, 4, 5, -1], [6, 7, 8, -1]]
        else:
            wl = get_workload(name)
            program, inputs = wl.build(), wl.profiling_inputs("small")
        optimized, _, _ = run_passes(
            program, "superblock", profiling_inputs=inputs
        )
        profile = profile_program(program, inputs)
        cloned = 0
        for function in program:
            origins = {
                block.name.split("__", 2)[2]
                for block in optimized.function(function.name).blocks
                if block.name.startswith("__sb")
            }
            cloned += len(origins)
            name_of = {block.bid: block.name for block in function.blocks}
            for trace in select_traces(function, profile).traces:
                labels = [name_of[bid] for bid in trace.blocks]
                tail = [label for label in labels if label in origins]
                assert tail == labels[len(labels) - len(tail):]
                origins.difference_update(tail)
            assert not origins
        assert cloned > 0

    def test_selector_counters_stay_with_the_layout_stage(self):
        from repro.obs import Recorder

        wl = get_workload("wc")
        recorder = Recorder()
        with obs.use(recorder):
            run_passes(
                wl.build(), "superblock",
                profiling_inputs=wl.profiling_inputs("small"),
            )
        counters = recorder.metrics.counter_values()
        assert not {
            name for name in counters
            if name == "traces_selected" or name.startswith("trace_cutoff_")
        }
        assert recorder.metrics.histogram("trace_length_blocks").count == 0

        recorder = Recorder()
        with obs.use(recorder):
            art = ExperimentRunner(
                scale="small",
                options=PlacementOptions.tuned(opt_passes="superblock"),
                store=None,
            ).artifacts("wc")
        assert recorder.metrics.counter_values()["traces_selected"] == sum(
            len(selection.traces)
            for selection in art.placement.selections.values()
        )

    def test_requires_a_profile_source(self):
        with pytest.raises(RuntimeError):
            run_opt(build_counted_loop(), OptOptions.parse("superblock"))


class TestInvariants:
    @pytest.mark.parametrize("spec", PASS_NAMES + ("all",))
    @pytest.mark.parametrize(
        "factory,inputs", FACTORY_CASES,
        ids=[case[0].__name__ for case in FACTORY_CASES],
    )
    def test_passes_preserve_semantics_and_validate(
        self, spec, factory, inputs
    ):
        program = factory()
        optimized, _, _ = run_passes(
            program, spec, profiling_inputs=[inputs],
        )
        validate_optimized(optimized)
        assert (run_program(optimized, inputs, MAX_STEPS).output
                == run_program(program, inputs, MAX_STEPS).output)

    def test_validate_optimized_rejects_orphan_blocks(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.halt()
        b = f.block("orphan")
        b.halt()
        program = pb.build()
        with pytest.raises(ValidationError, match="orphan"):
            validate_optimized(program)


class TestWorkloadMatrix:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_full_stack_preserves_out_stream(self, name):
        wl = get_workload(name)
        program = wl.build()
        optimized, report, _ = run_passes(
            program, "all", profiling_inputs=wl.profiling_inputs("small"),
        )
        validate_optimized(optimized)
        trace = wl.trace_input("small")
        assert (run_program(optimized, trace, MAX_STEPS).output
                == run_program(program, trace, MAX_STEPS).output)

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_superblock_alone_preserves_out_stream(self, name):
        wl = get_workload(name)
        program = wl.build()
        optimized, _, _ = run_passes(
            program, "superblock",
            profiling_inputs=wl.profiling_inputs("small"),
        )
        validate_optimized(optimized)
        trace = wl.trace_input("small")
        assert (run_program(optimized, trace, MAX_STEPS).output
                == run_program(program, trace, MAX_STEPS).output)

    def test_scalar_stack_shrinks_most_workloads(self):
        shrunk = 0
        for name in ALL_WORKLOADS:
            program = get_workload(name).build()
            optimized, _, _ = run_passes(program, "lvn,simplify,dce,licm")
            assert optimized.num_instructions <= program.num_instructions
            shrunk += optimized.num_instructions < program.num_instructions
        assert shrunk >= 10, f"only {shrunk}/{len(ALL_WORKLOADS)} shrank"


class TestDefaultsUntouched:
    def test_tuned_opt_none_is_the_default_options(self):
        assert PlacementOptions.tuned(opt_passes=None) == PlacementOptions()
        assert PlacementOptions().opt == OptOptions()
        assert (options_fingerprint(PlacementOptions.tuned(opt_passes=None))
                == options_fingerprint(PlacementOptions()))

    def test_enabling_passes_changes_the_fingerprint(self):
        default = options_fingerprint(PlacementOptions())
        seen = {default}
        for spec in ("dce", "lvn,simplify,dce", "all"):
            fingerprint = options_fingerprint(
                PlacementOptions.tuned(opt_passes=spec)
            )
            assert fingerprint not in seen
            seen.add(fingerprint)

    @pytest.mark.parametrize("table", ("table6", "table7"))
    def test_tables_byte_identical_with_explicit_no_opt(
        self, table, small_runner
    ):
        explicit = ExperimentRunner(
            scale="small", options=PlacementOptions.tuned(opt_passes=None),
        )
        assert (getattr(experiments, table).run(small_runner)
                == getattr(experiments, table).run(explicit))

    def test_explain_byte_identical_when_opt_off(self, small_runner):
        from repro.diagnose.explain import explain_with_runner

        plain = explain_with_runner(small_runner, "wc")
        assert explain_with_runner(small_runner, "wc", opt=None) == plain
        assert explain_with_runner(small_runner, "wc", opt="none") == plain

    def test_explain_opt_section_appends_the_diff(self, small_runner):
        from repro.diagnose.explain import explain_with_runner

        text = explain_with_runner(small_runner, "wc", opt="lvn,dce")
        plain = explain_with_runner(small_runner, "wc")
        assert text.startswith(plain)
        assert "[middle-end: lvn,dce]" in text
        assert "miss ratio:" in text


class TestEngineWiring:
    def test_table_plan_threads_opt_into_every_job(self):
        from repro.engine.jobs import table_plan

        for spec in table_plan(["table6"], "small", opt="dce"):
            assert spec.params["placement"] == {"opt": "dce"}
        for spec in table_plan(["table6"], "small", opt=None):
            assert "placement" not in spec.params
        for spec in table_plan(["table6"], "small", opt="none"):
            assert "placement" not in spec.params

    def test_request_plan_forwards_explain_opt(self):
        from repro.engine.jobs import request_plan

        plan = request_plan({
            "kind": "explain", "workload": "wc", "scale": "small",
            "opt": "dce",
        })
        explain_spec = next(s for s in plan if s.kind == "explain")
        assert explain_spec.params["opt"] == "dce"

    def test_schema_canonicalizes_opt(self):
        from repro.service.schemas import RequestError, normalize_request

        table = normalize_request({"kind": "table", "table": "table6"})
        assert table["opt"] == "none"
        explain = normalize_request({
            "kind": "explain", "workload": "wc", "opt": "all",
        })
        assert explain["opt"] == ",".join(ALL_PASSES)
        with pytest.raises(RequestError):
            normalize_request({
                "kind": "table", "table": "table6", "opt": "frobnicate",
            })

    def test_opt_artifacts_rehydrate_without_interpreting(self, tmp_path):
        from repro.engine.store import ArtifactStore
        from repro.engine.telemetry import Telemetry

        store = ArtifactStore(str(tmp_path / "cache"))
        options = PlacementOptions.tuned(opt_passes="lvn,simplify,dce")
        cold = ExperimentRunner(scale="small", options=options, store=store)
        cold_art = cold.artifacts("cmp")

        telemetry = Telemetry()
        warm = ExperimentRunner(
            scale="small", options=options, store=store, telemetry=telemetry,
        )
        warm_art = warm.artifacts("cmp")
        totals = telemetry.totals()
        assert totals["store_hits"] == 1
        assert totals["interp_instructions"] == 0
        assert warm_art.image.total_bytes == cold_art.image.total_bytes
        assert (warm_art.placement.opt_report.instructions_removed
                == cold_art.placement.opt_report.instructions_removed)
        assert (warm_art.original_program.num_instructions
                > warm_art.placement.pre_inline_profile.program
                .num_instructions)


class TestTuneOverPasses:
    def test_opt_axis_finds_a_dominating_config(self):
        from repro.search import default_space
        from repro.search.evaluate import run_search
        from repro.search.strategies import GridStrategy

        space = default_space().restrict(["opt"])
        result = run_search(
            space, GridStrategy(), workloads=["awk", "tar"],
            budget=6, scale="small",
        )
        by_opt = {
            rec["candidate"]["opt"]: rec["objectives"]
            for rec in result.trials
        }
        base = by_opt["none"]
        dominating = [
            spec for spec, o in by_opt.items()
            if spec != "none"
            and o["miss_ratio"] <= base["miss_ratio"]
            and o["code_bytes"] <= base["code_bytes"]
            and (o["miss_ratio"] < base["miss_ratio"]
                 or o["code_bytes"] < base["code_bytes"])
        ]
        assert dominating, "no pass stack Pareto-dominates the paper default"
        front_opts = {rec["candidate"]["opt"] for rec in result.front}
        assert front_opts & set(dominating)
