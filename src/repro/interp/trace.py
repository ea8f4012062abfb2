"""Dynamic traces and their expansion into instruction-fetch addresses.

A :class:`BlockTrace` is the layout-independent record of one execution:
which basic blocks ran, in order, and how control left each one.  Given a
linked memory image (any layout, any code-scaling factor), the trace is
expanded into the exact sequence of 4-byte instruction-fetch addresses the
instruction cache would see — including the unconditional jumps the linker
materialises when a fall-through successor is not placed adjacently, and
excluding jumps the linker elided.

The expansion is fully vectorised; this is the reproduction's equivalent of
the paper's multi-million-instruction "dynamic traces" feeding the cache
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.interp.interpreter import ExecutionResult
from repro.ir.instructions import INSTRUCTION_BYTES

__all__ = ["BlockTrace", "FetchModel", "expand_addresses"]


class FetchModel(Protocol):
    """What a linked image must expose for address expansion.

    Implemented by :class:`repro.placement.image.MemoryImage`.
    """

    #: ``int64[num_blocks]`` — byte address of each block's first instruction.
    fetch_base: np.ndarray

    #: ``int64[3, num_blocks]`` — instructions fetched when leaving block
    #: ``b`` via exit kind ``v`` (``VIA_TERM``/``VIA_TAKEN``/``VIA_FALL``).
    fetch_lengths: np.ndarray


@dataclass(frozen=True)
class BlockTrace:
    """The dynamic basic-block sequence of one execution."""

    block_ids: np.ndarray
    via: np.ndarray

    @classmethod
    def from_execution(cls, result: ExecutionResult) -> "BlockTrace":
        """Extract the trace from an interpreter run."""
        return cls(block_ids=result.block_ids, via=result.via)

    def __len__(self) -> int:
        return len(self.block_ids)

    def instruction_count(self, image: FetchModel) -> int:
        """Dynamic instruction fetches under ``image`` (trace length in
        instructions, including linker-inserted jumps)."""
        return int(
            image.fetch_lengths[self.via, self.block_ids].sum()
        )

    def addresses(self, image: FetchModel) -> np.ndarray:
        """Expand into the byte address of every instruction fetch."""
        return expand_addresses(self.block_ids, self.via, image)


def expand_addresses(
    block_ids: np.ndarray, via: np.ndarray, image: FetchModel
) -> np.ndarray:
    """Expand a block trace into per-instruction fetch addresses.

    For each trace entry the number of instructions fetched depends on the
    block *and* the exit kind (a not-taken conditional branch also fetches
    the linker-appended jump, when one exists).  The result is an ``int64``
    array of byte addresses, 4 bytes apart within a block.
    """
    lengths = image.fetch_lengths[via, block_ids]
    bases = image.fetch_base[block_ids]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Fetch i of the entry starting at trace position s is at
    # base + 4*(i - s): one repeat of (base - 4*s) plus a global ramp.
    starts = np.cumsum(lengths) - lengths
    return (
        np.repeat(bases - INSTRUCTION_BYTES * starts, lengths)
        + INSTRUCTION_BYTES * np.arange(total, dtype=np.int64)
    )
