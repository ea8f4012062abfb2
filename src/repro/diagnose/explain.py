"""``repro explain`` — why does this workload miss?

Runs one workload's trace through the requested cache geometry under the
optimized layout *and* a baseline layout, with the miss-attribution
collector on, then renders:

* the 3C breakdown (compulsory / capacity / conflict, plus the LRU
  non-inclusion anomaly count that reconciles conflict with the
  fully-associative gap);
* a per-function miss table (which functions eat the misses, and of
  what class);
* the inter-function conflict map (victim function, evicting function,
  conflict misses) — the paper's DFS-vs-natural claim made visible: the
  optimized layout's top pairs should shrink against the baseline's;
* an ASCII per-set heat map of where in the cache the misses land.

Everything is store-backed: a warm run rehydrates artifacts from the
content-addressed store and replays only the (cheap) requested cache
geometry — zero interpreter steps.
"""

from __future__ import annotations

from repro import diagnose
from repro.diagnose.classify import Attribution

__all__ = [
    "explain_with_runner",
    "render_attribution",
    "render_comparison",
    "render_set_heatmap",
]

#: Shade ramp for the set heat map, coldest to hottest.
_SHADES = " .:-=+*#%@"
#: Sets per heat-map row.
_HEAT_COLS = 64


def _simulate(addresses, cache_bytes: int, block_bytes: int,
              assoc: int) -> None:
    """Run the geometry's simulator for its attribution side effect."""
    if assoc == 1:
        from repro.cache.vectorized import simulate_direct_vectorized

        simulate_direct_vectorized(addresses, cache_bytes, block_bytes)
    else:
        from repro.cache.set_assoc import simulate_set_associative

        simulate_set_associative(addresses, cache_bytes, block_bytes, assoc)


def explain_with_runner(
    runner,
    workload: str,
    cache_bytes: int = 2048,
    block_bytes: int = 64,
    assoc: int = 1,
    layout: str = "optimized",
    baseline: str = "natural",
    top: int = 10,
    opt: str | None = None,
) -> str:
    """The full ``repro explain`` text for one workload.

    The engine's ``explain`` job kind lands here with the scheduler's
    shared runner, whose artifact dependencies have already been
    satisfied from the store — so an explain from the CLI, the service
    or the benchmark replays only the requested geometry.

    ``opt`` (a middle-end pass spec) appends an optimized-vs-unoptimized
    section: the same trace semantics re-placed after running those
    passes, simulated at the same geometry, and diffed against the
    pass-free pipeline on code bytes, miss ratio, and the 3C mix.  When
    it is ``None``/``"none"`` the output is byte-identical to a build
    without the middle-end.
    """
    collector = diagnose.Collector()
    with diagnose.use(collector):
        for which in (layout, baseline):
            addresses = runner.addresses(workload, which)
            with collector.scope(workload=workload, layout=which):
                _simulate(addresses, cache_bytes, block_bytes, assoc)

    entries = {key[1]: entry for key, entry in collector.entries.items()}
    primary, base = entries[layout], entries[baseline]

    lines: list[str] = []
    header = (
        f"explain {workload} — {cache_bytes}B cache, {block_bytes}B blocks, "
        f"{'direct-mapped' if assoc == 1 else f'{assoc}-way'}, "
        f"scale={runner.scale}"
    )
    lines.append(header)
    lines.append("=" * len(header))
    for which, entry in ((layout, primary), (baseline, base)):
        lines.append("")
        lines.append(f"[{which} layout]")
        lines.extend(render_attribution(entry, top=top))
    lines.append("")
    lines.extend(render_comparison(primary, base, layout, baseline, top=top))

    from repro.opt import OptOptions

    opt_options = OptOptions.parse(opt)
    if opt_options.passes:
        lines.append("")
        lines.extend(
            _render_opt_section(
                runner, workload, opt_options,
                cache_bytes, block_bytes, assoc, primary,
            )
        )
    return "\n".join(lines)


def _render_opt_section(
    runner,
    workload: str,
    opt_options,
    cache_bytes: int,
    block_bytes: int,
    assoc: int,
    unoptimized: Attribution,
) -> list[str]:
    """The opt-vs-no-opt diff: code bytes, miss ratio, 3C mix shifts."""
    from dataclasses import replace as dc_replace

    from repro.experiments.runner import ExperimentRunner

    opt_runner = ExperimentRunner(
        scale=runner.scale,
        options=dc_replace(runner.options, opt=opt_options),
        store=runner.store,
    )
    collector = diagnose.Collector()
    with diagnose.use(collector):
        addresses = opt_runner.addresses(workload, "optimized")
        with collector.scope(workload=workload, layout="opt"):
            _simulate(addresses, cache_bytes, block_bytes, assoc)
    (optimized,) = collector.entries.values()

    art = runner.artifacts(workload)
    opt_art = opt_runner.artifacts(workload)
    report = opt_art.placement.opt_report
    before_bytes = opt_art.placement.original_profile.program.size_bytes
    spec = ",".join(opt_options.passes)

    lines = [f"[middle-end: {spec}]"]
    lines.append(
        f"IR code bytes: {before_bytes} -> "
        f"{opt_art.placement.pre_inline_profile.program.size_bytes} "
        f"({report.instructions_removed:+d} instructions removed); "
        f"placed image bytes: {art.image.total_bytes} -> "
        f"{opt_art.image.total_bytes}"
    )
    for pass_report in report.passes:
        lines.append(
            f"  {pass_report.name:<12} {pass_report.before_instructions:>6} "
            f"-> {pass_report.after_instructions:<6} instrs "
            f"({pass_report.instructions_removed:+d})"
        )
    ratio = 100 * optimized.misses / max(optimized.accesses, 1)
    base_ratio = 100 * unoptimized.misses / max(unoptimized.accesses, 1)
    lines.append(
        f"miss ratio: {base_ratio:.2f}% (no passes) -> {ratio:.2f}% "
        f"({spec})"
    )
    lines.append(
        "3C shift: "
        f"compulsory {unoptimized.compulsory} -> {optimized.compulsory}, "
        f"capacity {unoptimized.capacity} -> {optimized.capacity}, "
        f"conflict {unoptimized.conflict} -> {optimized.conflict}"
    )
    return lines


def _top_pairs(entry: Attribution, top: int) -> list[tuple]:
    """``((victim, evictor), misses)`` rows, deterministic order."""
    return sorted(
        entry.conflict_pairs.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top]


def render_attribution(entry: Attribution, top: int = 10) -> list[str]:
    """Text block for one attribution entry."""
    lines: list[str] = []
    misses = entry.misses or 1
    lines.append(
        f"accesses {entry.accesses}, misses {entry.misses} "
        f"(miss ratio {100 * entry.misses / max(entry.accesses, 1):.2f}%)"
    )
    lines.append(
        "3C: "
        f"compulsory {entry.compulsory} ({100 * entry.compulsory / misses:.0f}%), "
        f"capacity {entry.capacity} ({100 * entry.capacity / misses:.0f}%), "
        f"conflict {entry.conflict} ({100 * entry.conflict / misses:.0f}%)"
    )
    if entry.anomaly:
        lines.append(
            f"    (fully-associative shadow missed {entry.shadow_misses}; "
            f"{entry.anomaly} LRU non-inclusion anomalies reconcile the gap)"
        )

    functions = sorted(
        entry.function_misses.items(),
        key=lambda kv: (-sum(kv[1]), kv[0]),
    )[:top]
    if functions:
        lines.append("")
        lines.append(f"{'function':<24} {'misses':>7} {'comp':>6} "
                     f"{'cap':>6} {'conf':>6}")
        for name, (comp, cap, conf) in functions:
            lines.append(
                f"{name:<24} {comp + cap + conf:>7} {comp:>6} "
                f"{cap:>6} {conf:>6}"
            )

    pairs = _top_pairs(entry, top)
    if pairs:
        lines.append("")
        lines.append(f"{'victim -> evictor':<40} {'conflict misses':>15}")
        for (victim, evictor), count in pairs:
            lines.append(f"{victim + ' <- ' + evictor:<40} {count:>15}")

    heat = render_set_heatmap(entry.set_misses,
                              entry.cache_bytes // entry.block_bytes)
    if heat:
        lines.append("")
        lines.append(f"per-set miss heat map ({_SHADES!r} cold->hot)")
        lines.extend(heat)
    return lines


def render_set_heatmap(
    set_misses: dict[int, int], num_sets: int
) -> list[str]:
    """ASCII rows shading each cache set by its miss count."""
    if not set_misses or num_sets <= 0:
        return []
    peak = max(set_misses.values())
    if peak <= 0:
        return []
    lines = []
    for start in range(0, num_sets, _HEAT_COLS):
        row = []
        for index in range(start, min(start + _HEAT_COLS, num_sets)):
            count = set_misses.get(index, 0)
            shade = _SHADES[
                min(len(_SHADES) - 1,
                    int(count / peak * (len(_SHADES) - 1) + 0.5))
            ]
            row.append(shade)
        lines.append(f"  set {start:>5} |{''.join(row)}|")
    return lines


def render_comparison(
    primary: Attribution,
    base: Attribution,
    layout: str,
    baseline: str,
    top: int = 10,
) -> list[str]:
    """The DFS-vs-natural verdict: conflict totals and top-pair shrink."""
    lines = [f"[{layout} vs {baseline}]"]
    lines.append(
        f"conflict misses: {primary.conflict} ({layout}) vs "
        f"{base.conflict} ({baseline})"
        + (
            f" — {layout} removes "
            f"{100 * (1 - primary.conflict / base.conflict):.0f}%"
            if base.conflict > primary.conflict else ""
        )
    )
    top_primary = _top_pairs(primary, 1)
    top_base = _top_pairs(base, 1)
    if top_base:
        (victim, evictor), count = top_base[0]
        line = (f"top {baseline} pair: {victim} <- {evictor} "
                f"({count} conflict misses)")
        if top_primary:
            line += (f"; top {layout} pair: "
                     f"{top_primary[0][0][0]} <- {top_primary[0][0][1]} "
                     f"({top_primary[0][1]})")
        lines.append(line)
    return lines
