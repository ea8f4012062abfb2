"""Compare code layouts on a paper workload.

For one benchmark (default: lex, the paper's most layout-sensitive
program), measure the direct-mapped miss ratio of three layouts across
the paper's cache sizes: the optimized IMPACT-I placement, the natural
declaration order, and a random layout.

Run:  python examples/layout_comparison.py [benchmark]
"""

import sys

from repro.cache import simulate_direct_vectorized
from repro.experiments.report import fmt_pct, render_table
from repro.engine import cached_runner

CACHE_SIZES = (8192, 4096, 2048, 1024, 512)
BLOCK_BYTES = 64


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "lex"
    runner = cached_runner()

    layouts = {
        "optimized": runner.addresses(name, "optimized"),
        "natural": runner.addresses(name, "natural"),
        "random": runner.addresses(name, "random"),
    }

    rows = []
    for label, addresses in layouts.items():
        row = [label]
        for cache_bytes in CACHE_SIZES:
            stats = simulate_direct_vectorized(
                addresses, cache_bytes, BLOCK_BYTES
            )
            row.append(fmt_pct(stats.miss_ratio))
        rows.append(row)

    headers = ["layout"] + [
        f"{c // 1024}K" if c >= 1024 else "0.5K" for c in CACHE_SIZES
    ]
    print(render_table(
        f"Direct-mapped miss ratio by layout — {name} "
        f"({BLOCK_BYTES}B blocks)",
        headers,
        rows,
        note="optimized = full IMPACT-I pipeline; the others replay the "
        "same execution on the uninlined program.",
    ))


if __name__ == "__main__":
    main()
