"""Baseline code layouts the optimized placement is compared against.

The paper's published baseline is A. J. Smith's fully-associative design
targets (their Table 1); these layouts give us *executable* baselines as
well:

* **natural** — functions in declaration order, blocks in source order;
  what a compiler without placement optimization emits.
* **random** — functions and intra-function block order shuffled with a
  seeded RNG; a worst-plausible layout useful for bounding the effect.
"""

from __future__ import annotations

import random

from repro.ir.program import Program
from repro.placement.image import MemoryImage

__all__ = [
    "natural_order",
    "natural_image",
    "random_order",
    "random_image",
]


def natural_order(program: Program) -> list[int]:
    """Declaration order: the unoptimized layout."""
    return list(range(program.num_blocks))


def natural_image(program: Program, **kwargs) -> MemoryImage:
    """Link the program in declaration order."""
    return MemoryImage.build(program, natural_order(program), **kwargs)


def random_order(program: Program, seed: int = 0) -> list[int]:
    """Shuffle function order and block order within each function.

    Function bodies stay contiguous (a linker cannot scatter a function's
    blocks arbitrarily without breaking symbols in a real toolchain — and
    keeping them contiguous makes this a fair "bad but plausible" layout).
    """
    rng = random.Random(seed)
    functions = list(program.functions)
    rng.shuffle(functions)
    order: list[int] = []
    for function in functions:
        bids = [block.bid for block in function.blocks]
        rng.shuffle(bids)
        order.extend(bids)  # type: ignore[arg-type]
    return order


def random_image(program: Program, seed: int = 0, **kwargs) -> MemoryImage:
    """Link the program in a seeded random order."""
    return MemoryImage.build(program, random_order(program, seed), **kwargs)

