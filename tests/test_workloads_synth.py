"""Unit tests for the program-synthesis helpers."""

import random

from repro.interp.interpreter import run_program
from repro.ir.builder import ProgramBuilder
from repro.ir.validate import validate_program
from repro.workloads.synth import (
    add_generated_handler,
    handler_family,
)


def _with_main(pb, callee):
    f = pb.function("main")
    b = f.block("entry")
    b.in_("r1")
    b.call(callee, cont="report")
    b = f.block("report")
    b.out("r1")
    b.halt()
    return pb.build()


class TestGeneratedHandler:
    def test_handler_validates_and_terminates(self):
        pb = ProgramBuilder()
        add_generated_handler(pb, "h", random.Random(1), diamonds=3)
        program = _with_main(pb, "h")
        validate_program(program)
        result = run_program(program, [13], max_instructions=10_000)
        assert result.halted

    def test_handler_is_argument_sensitive(self):
        pb = ProgramBuilder()
        add_generated_handler(pb, "h", random.Random(2), diamonds=2)
        program = _with_main(pb, "h")
        outputs = {run_program(program, [v]).output[0] for v in range(8)}
        assert len(outputs) > 1

    def test_handler_result_is_bounded(self):
        pb = ProgramBuilder()
        add_generated_handler(pb, "h", random.Random(3), body_arith=12)
        program = _with_main(pb, "h")
        for value in (0, 5, 999, 123456):
            out = run_program(program, [value]).output[0]
            assert 0 <= out <= 0xFFFFF

    def test_memory_base_adds_loads_and_stores(self):
        from repro.ir.instructions import Opcode

        pb = ProgramBuilder()
        add_generated_handler(
            pb, "h", random.Random(4), memory_base=0x100
        )
        program = _with_main(pb, "h")
        ops = {
            i.op
            for block in program.function("h").blocks
            for i in block.instructions
        }
        assert Opcode.LD in ops and Opcode.ST in ops

    def test_build_time_rng_is_deterministic(self):
        pb1, pb2 = ProgramBuilder(), ProgramBuilder()
        add_generated_handler(pb1, "h", random.Random(9))
        add_generated_handler(pb2, "h", random.Random(9))
        p1, p2 = _with_main(pb1, "h"), _with_main(pb2, "h")
        i1 = [str(i) for b in p1.function("h").blocks for i in b.instructions]
        i2 = [str(i) for b in p2.function("h").blocks for i in b.instructions]
        assert i1 == i2


class TestHandlerFamily:
    def test_family_size_and_names(self):
        pb = ProgramBuilder()
        names = handler_family(pb, "op", count=5, seed=1)
        assert names == [f"op{i}" for i in range(5)]

    def test_family_members_vary_structurally(self):
        pb = ProgramBuilder()
        handler_family(pb, "op", count=8, seed=1)
        pb.function("main").block("entry").halt()
        program = pb.build()
        sizes = {program.function(f"op{i}").num_instructions
                 for i in range(8)}
        assert len(sizes) > 1

    def test_family_is_seed_deterministic(self):
        pb1, pb2 = ProgramBuilder(), ProgramBuilder()
        handler_family(pb1, "op", count=4, seed=7)
        handler_family(pb2, "op", count=4, seed=7)
        pb1.function("main").block("entry").halt()
        pb2.function("main").block("entry").halt()
        p1, p2 = pb1.build(), pb2.build()
        assert p1.num_instructions == p2.num_instructions

