"""Program-synthesis helpers shared by the ten workloads.

The real benchmarks owe their cache behaviour to structure the hand-written
cores alone cannot reach: cccp has dozens of directive handlers, yacc has
one reduce action per grammar rule, lex has per-token-class actions.  The
helpers here generate such families of *genuinely executing* functions —
each a different composition of branch diamonds, small loops, and memory
traffic, derived from a build-time RNG — so a workload's static footprint
and phase behaviour can be tuned to the paper's (scaled-down) shape
without writing thousands of lines by hand.

Calling convention used throughout the workloads:

* ``r1``-``r3`` carry arguments; ``r1`` carries the return value;
* callees may clobber ``r1``-``r15``;
* ``r20``-``r31`` are caller-owned (workload drivers keep their state
  there across calls).
"""

from __future__ import annotations

import random

from repro.ir.builder import ProgramBuilder

__all__ = [
    "add_generated_handler",
    "handler_family",
]


def add_generated_handler(
    pb: ProgramBuilder,
    name: str,
    rng: random.Random,
    diamonds: int = 2,
    loop_mod: int = 4,
    body_arith: int = 6,
    memory_base: int | None = None,
) -> None:
    """Generate one handler function ``name``: arg in r1, result in r1.

    Structure: an entry computation, ``diamonds`` data-dependent if/else
    diamonds (each side ``body_arith`` ALU instructions), then a loop of
    ``(r1 mod loop_mod) + 1`` iterations whose body does ``body_arith``
    ALU instructions plus (optionally) a load and a store at
    ``memory_base``.  Every instruction executes real data flow, so the
    handler's dynamic behaviour varies with its argument the way real
    handler code does.
    """
    f = pb.function(name)

    b = f.block("entry")
    b.mov("r8", "r1")
    b.add("r9", "r1", rng.randint(1, 97))
    b.li("r10", 0)
    b.jmp("d0_test")

    for d in range(diamonds):
        bit = rng.randint(0, 3)
        b = f.block(f"d{d}_test")
        b.shr("r11", "r8", bit)
        b.and_("r11", "r11", 1)
        b.beq("r11", 0, taken=f"d{d}_else", fall=f"d{d}_then")

        join = f"d{d + 1}_test" if d + 1 < diamonds else "loop_init"
        b = f.block(f"d{d}_then")
        _arith_burst(b, rng, body_arith, src="r9", acc="r10")
        b.jmp(join)
        b = f.block(f"d{d}_else")
        _arith_burst(b, rng, body_arith, src="r8", acc="r10")
        b.jmp(join)

    b = f.block("loop_init")
    b.rem("r12", "r8", loop_mod)
    b.add("r12", "r12", 1)           # 1..loop_mod iterations
    b.li("r13", 0)
    b.jmp("loop_head")

    b = f.block("loop_head")
    b.bge("r13", "r12", taken="done", fall="loop_body")

    b = f.block("loop_body")
    _arith_burst(b, rng, body_arith, src="r13", acc="r10")
    if memory_base is not None:
        slot = rng.randint(0, 63)
        b.and_("r14", "r10", 63)
        b.add("r14", "r14", memory_base + slot)
        b.ld("r15", "r14", 0)
        b.add("r10", "r10", "r15")
        b.st("r10", "r14", 0)
    b.add("r13", "r13", 1)
    b.jmp("loop_head")

    b = f.block("done")
    b.mov("r1", "r10")
    b.ret()


def _arith_burst(block, rng: random.Random, count: int,
                 src: str, acc: str) -> None:
    """Emit ``count`` dependent ALU instructions mixing acc and src.

    The burst ends by masking the accumulator to 20 bits: the mini machine
    has arbitrary-precision registers, and without a periodic mask the
    shift-left chains would grow values without bound (a 32-bit machine
    wraps for free).
    """
    ops = ("add", "xor", "sub", "or_", "and_", "add", "shl", "shr")
    for _ in range(max(count - 1, 1)):
        op = rng.choice(ops)
        if op in ("shl", "shr"):
            getattr(block, op)(acc, acc, rng.randint(1, 3))
        elif rng.random() < 0.5:
            getattr(block, op)(acc, acc, src)
        else:
            getattr(block, op)(acc, acc, rng.randint(1, 255))
    block.and_(acc, acc, 0xFFFFF)


def handler_family(
    pb: ProgramBuilder,
    prefix: str,
    count: int,
    seed: int,
    diamonds_range: tuple[int, int] = (1, 3),
    body_range: tuple[int, int] = (4, 10),
    loop_mod_range: tuple[int, int] = (2, 6),
    memory_base: int | None = None,
) -> list[str]:
    """Generate ``count`` structurally varied handlers; returns their names.

    Each handler draws its shape from a deterministic per-family RNG, so a
    family is reproducible but internally diverse — like the handler sets
    of real directive/action-table programs.
    """
    rng = random.Random(repr((prefix, seed)))
    names = []
    for i in range(count):
        name = f"{prefix}{i}"
        add_generated_handler(
            pb,
            name,
            rng,
            diamonds=rng.randint(*diamonds_range),
            loop_mod=rng.randint(*loop_mod_range),
            body_arith=rng.randint(*body_range),
            memory_base=(
                memory_base + 64 * i if memory_base is not None else None
            ),
        )
        names.append(name)
    return names
