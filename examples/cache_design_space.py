"""Explore the instruction-cache design space for one workload.

Sweeps cache size x block size x fill scheme (whole-block, partial
loading, 8B-sectored) on a placement-optimized workload, reporting the
miss ratio and memory traffic ratio of each fill scheme.

This is the search the paper's conclusion wants to run "with billions of
dynamic accesses"; here it runs in seconds on the simulated traces.

Run:  python examples/cache_design_space.py [benchmark]
"""

import sys

from repro.cache import (
    simulate_direct_vectorized,
    simulate_partial,
    simulate_sectored,
)
from repro.experiments.report import fmt_pct, render_table
from repro.engine import cached_runner

CACHE_SIZES = (512, 1024, 2048, 4096)
BLOCK_SIZES = (16, 32, 64, 128)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "cccp"
    runner = cached_runner()
    addresses = runner.addresses(name, "optimized")

    rows = []
    for cache_bytes in CACHE_SIZES:
        for block_bytes in BLOCK_SIZES:
            fills = (
                simulate_direct_vectorized(
                    addresses, cache_bytes, block_bytes
                ),
                simulate_partial(addresses, cache_bytes, block_bytes),
                simulate_sectored(
                    addresses, cache_bytes, block_bytes, min(8, block_bytes)
                ),
            )
            row = [f"{cache_bytes}B/{block_bytes}B"]
            for stats in fills:
                row += [fmt_pct(stats.miss_ratio),
                        fmt_pct(stats.traffic_ratio)]
            rows.append(row)

    print(render_table(
        f"Instruction cache design space — {name} (optimized layout)",
        ["cache/block", "whole miss", "whole traffic", "partial miss",
         "partial traffic", "sector miss", "sector traffic"],
        rows,
        note="whole = whole-block fill; partial = load from the missed "
        "word to the block end; sector = 8B sectors.",
    ))


if __name__ == "__main__":
    main()
