"""Address-to-symbol resolution over a linked memory image.

A :class:`SymbolTable` is the diagnose layer's view of a
:class:`~repro.placement.image.MemoryImage`: sorted basic-block address
intervals carrying (function, bid, trace id), so any instruction-fetch
address — or a granule number from the 3C classifier — resolves to the
symbol whose placement decision put it there.  Alignment padding between
functions resolves to the *preceding* block's function (padding is never
fetched; evictor granule numbers rounded to a granule boundary can land
there, and the owning block is the right attribution).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SymbolTable"]


class SymbolTable:
    """Sorted block intervals of one linked image, vectorised lookup."""

    def __init__(
        self,
        starts: np.ndarray,
        bids: np.ndarray,
        functions: list[str],
        block_traces: dict[int, int] | None = None,
    ) -> None:
        self.starts = starts          # int64, ascending block start addresses
        self.bids = bids              # int64, bid per interval
        self.functions = functions    # function name per interval
        #: Distinct function names, in first-interval order, and each
        #: interval's index into them.
        numbers: dict[str, int] = {}
        self.function_ids = np.asarray(
            [numbers.setdefault(name, len(numbers)) for name in functions],
            dtype=np.int64,
        )
        self.function_names = list(numbers)
        #: bid -> index of the selected trace containing it (optimized
        #: layouts only; empty for baselines).
        self.block_traces = block_traces or {}

    @classmethod
    def from_image(cls, image, selections=None) -> "SymbolTable":
        """Build the table from a linked image.

        ``selections`` (optional) is the placement's per-function
        :class:`TraceSelection` mapping; when given, each block is also
        labelled with the index of the trace it was placed in.
        """
        program = image.program
        order = list(image.order)
        starts = np.asarray(
            [int(image.fetch_base[bid]) for bid in order], dtype=np.int64
        )
        bids = np.asarray(order, dtype=np.int64)
        functions = [program.block_function[bid] for bid in order]

        block_traces: dict[int, int] = {}
        if selections is not None:
            for selection in selections.values():
                for trace_index, trace in enumerate(selection.traces):
                    for bid in trace.blocks:
                        block_traces[int(bid)] = trace_index
        return cls(starts, bids, functions, block_traces)

    def locate(self, addresses: np.ndarray) -> np.ndarray:
        """The interval index of each byte address in an array.

        Addresses below the first placed block fall in the first
        interval (defensive: base addresses are 0 in practice).
        """
        index = np.searchsorted(self.starts, addresses, side="right") - 1
        return np.clip(index, 0, len(self.starts) - 1)

    def trace_of(self, bid: int) -> int | None:
        """Index of the selected trace a block was placed in, if known."""
        return self.block_traces.get(int(bid))

    def __len__(self) -> int:
        return len(self.starts)
