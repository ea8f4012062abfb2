"""Run reports: summarise one observability run, or diff two.

A *run file* is the JSONL a ``--trace-out`` run dumps (see
:meth:`repro.obs.recorder.Recorder.dump_jsonl`).  :class:`RunReport`
parses one back into queryable form and renders the human-readable
summary behind ``repro report RUN.jsonl``: per-phase span timings,
per-workload miss ratios, top conflict sets, hottest traces,
effective-region sizes, and store hit rates.

:func:`compare` diffs two runs and flags miss-ratio regressions beyond a
threshold — ``repro report --compare A B`` exits non-zero when any are
found, which is what CI gates on.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.recorder import Recorder

__all__ = ["RunReport", "compare"]


def _fmt_pct(fraction: float) -> str:
    return f"{100 * fraction:.2f}%"


def _cache_label(cache_bytes: int, block_bytes: int) -> str:
    kb = (
        f"{cache_bytes // 1024}K" if cache_bytes >= 1024
        else f"{cache_bytes}B"
    )
    return f"{kb}/{block_bytes}B"


class RunReport:
    """One parsed run file, with the aggregations the renderer needs."""

    def __init__(self, document: dict) -> None:
        self.meta = document.get("meta", {})
        self.records = document.get("records", [])
        self.metrics = document.get("metrics", {})

    @classmethod
    def load(cls, path: str) -> RunReport:
        return cls(Recorder.load_jsonl(path))

    # -- queries -----------------------------------------------------------

    def spans(self) -> list[dict]:
        return [r for r in self.records if r.get("type") == "span"]

    def events(self, name: str | None = None) -> list[dict]:
        events = [r for r in self.records if r.get("type") == "event"]
        if name is not None:
            events = [e for e in events if e.get("name") == name]
        return events

    def phase_timings(self) -> list[tuple[str, str, int, float]]:
        """``(cat, name, count, total_seconds)`` rows, slowest first."""
        groups: dict[tuple[str, str], list[float]] = defaultdict(list)
        for span in self.spans():
            groups[(span.get("cat", "phase"), span["name"])].append(
                float(span.get("dur", 0.0))
            )
        rows = [
            (cat, name, len(durs), sum(durs))
            for (cat, name), durs in groups.items()
        ]
        # Tie-break on (cat, name) so equal-duration phases (common in
        # replayed runs) render in a stable order.
        rows.sort(key=lambda row: (-row[3], row[0], row[1]))
        return rows

    def miss_ratios(self) -> dict[tuple, dict]:
        """``(workload, layout, cache_bytes, block_bytes) -> cache_sim``.

        When the same configuration was simulated more than once the last
        event wins (they are deterministic replays of the same trace).
        """
        table: dict[tuple, dict] = {}
        for event in self.events("cache_sim"):
            ctx = event.get("ctx", {})
            fields = event.get("fields", {})
            key = (
                ctx.get("workload", fields.get("workload", "?")),
                ctx.get("layout", fields.get("layout", "?")),
                fields.get("cache_bytes"),
                fields.get("block_bytes"),
            )
            table[key] = fields
        return table

    def top_conflict_sets(self, n: int = 5) -> list[tuple]:
        """``(misses, workload, label, set_index)``, worst first."""
        rows = []
        for event in self.events("cache_sim"):
            ctx = event.get("ctx", {})
            fields = event.get("fields", {})
            label = _cache_label(
                fields.get("cache_bytes", 0), fields.get("block_bytes", 0)
            )
            for set_index, misses in fields.get("top_sets", []):
                rows.append((
                    int(misses),
                    ctx.get("workload", "?"),
                    label,
                    int(set_index),
                ))
        rows.sort(key=lambda row: (-row[0], row[1], row[3]))
        return rows[:n]

    def hottest_traces(self, n: int = 5) -> list[tuple]:
        """``(weight, workload, function, length)``, hottest first.

        Deduplicated on (workload, function): a placement event fires
        both when artifacts are computed and when they are rehydrated,
        and both describe the same deterministic placement.
        """
        best: dict[tuple[str, str], tuple] = {}
        for event in self.events("placement"):
            fields = event.get("fields", {})
            workload = fields.get(
                "workload", event.get("ctx", {}).get("workload", "?")
            )
            for function, length, weight in fields.get("top_traces", []):
                key = (workload, function)
                row = (int(weight), workload, function, int(length))
                if key not in best or row[0] > best[key][0]:
                    best[key] = row
        rows = sorted(best.values(), key=lambda row: (-row[0], row[1], row[2]))
        return rows[:n]

    def effective_regions(self) -> list[tuple]:
        """``(workload, total_bytes, effective_bytes)`` per workload."""
        seen: dict[str, tuple] = {}
        for event in self.events("placement"):
            fields = event.get("fields", {})
            workload = fields.get(
                "workload", event.get("ctx", {}).get("workload", "?")
            )
            seen[workload] = (
                workload,
                int(fields.get("total_bytes", 0)),
                int(fields.get("effective_bytes", 0)),
            )
        return [seen[name] for name in sorted(seen)]

    def is_tune_log(self) -> bool:
        """True for a ``repro tune`` trial log (rendered as a Pareto
        report rather than a span summary)."""
        return self.meta.get("kind") == "tune" and any(
            r.get("type") == "trial" for r in self.records
        )

    def trial_spans(self) -> list[tuple]:
        """``(fingerprint, trials, count, total_seconds)`` rows from a
        tune run's *trace* file, grouped by candidate, slowest first."""
        groups: dict[str, dict] = {}
        for span in self.spans():
            attrs = span.get("attrs", {})
            if span.get("name") != "trial" or "fingerprint" not in attrs:
                continue
            entry = groups.setdefault(
                attrs["fingerprint"], {"trials": set(), "durs": []}
            )
            entry["trials"].add(attrs.get("trial"))
            entry["durs"].append(float(span.get("dur", 0.0)))
        rows = [
            (
                fingerprint,
                sorted(entry["trials"]),
                len(entry["durs"]),
                sum(entry["durs"]),
            )
            for fingerprint, entry in groups.items()
        ]
        rows.sort(key=lambda row: (-row[3], row[0]))
        return rows

    def attributions(self) -> list[tuple[tuple, "object"]]:
        """Embedded miss attributions: ``(key, Attribution)`` rows.

        ``key`` is ``(workload, layout, organization, cache_bytes,
        block_bytes)``; present only for runs recorded with
        ``--attribution``.
        """
        from repro.diagnose.classify import Attribution

        rows = []
        for flat_key, payload in sorted(
            self.meta.get("attribution", {}).items()
        ):
            parts = flat_key.split("|")
            if len(parts) != 5:
                continue        # unrecognizable key; skip, don't crash
            workload, layout, organization, cache_bytes, block_bytes = parts
            try:
                cache_int, block_int = int(cache_bytes), int(block_bytes)
            except ValueError:
                cache_int = block_int = 0
            rows.append((
                (workload, layout, organization, cache_int, block_int),
                Attribution.from_dict(payload),
            ))
        return rows

    def counters(self) -> dict[str, int]:
        return dict(self.metrics.get("counters", {}))

    def totals(self) -> dict:
        """The engine telemetry totals the run embedded in its meta."""
        return dict(self.meta.get("telemetry_totals", {}))

    # -- rendering ---------------------------------------------------------

    def render(self, top: int = 10) -> str:
        """The full human-readable summary.

        A tune trial log (``repro tune --out``) is a different animal
        from a span trace — candidates and objectives, not phases and
        timings — so it renders through the search reporter instead of
        as an anonymous span soup.
        """
        if self.is_tune_log():
            from repro.search.report import render_from_document

            return render_from_document({
                "meta": self.meta,
                "records": self.records,
                "metrics": self.metrics,
            }).rstrip("\n")

        lines: list[str] = []
        meta = self.meta
        header = "observability run"
        if meta.get("kind") == "tune":
            header += (
                f" — tune trace: strategy={meta.get('strategy', '?')}"
                f" budget={meta.get('budget', '?')}"
            )
        if meta.get("tables"):
            header += f" — tables: {', '.join(meta['tables'])}"
        if meta.get("scale"):
            header += f" (scale={meta['scale']})"
        lines.append(header)
        lines.append("=" * len(header))

        totals = self.totals()
        counters = self.counters()
        if totals or counters:
            lines.append("")
            lines.append("engine")
            if totals:
                lines.append(
                    f"  jobs {totals.get('jobs', 0)}, "
                    f"interp instructions {totals.get('interp_instructions', 0)}"
                )
                lines.append(
                    f"  wall: table jobs "
                    f"{totals.get('wall_s_sum', 0.0):.2f}s, all jobs "
                    f"{totals.get('jobs_wall_s_sum', 0.0):.2f}s"
                )
                hits = totals.get("store_hits", 0)
                misses = totals.get("store_misses", 0)
                looked = hits + misses
                rate = f"{100 * hits / looked:.0f}%" if looked else "n/a"
                lines.append(
                    f"  store: {hits} hits / {misses} misses "
                    f"(hit rate {rate}), memo hits "
                    f"{totals.get('memo_hits', 0)}"
                )
            robust = {
                k: v for k, v in counters.items()
                if k in ("retries", "timeouts", "quarantined", "pool_restarts")
                and v
            }
            if robust:
                lines.append(f"  robustness: {robust}")

        trial_groups = self.trial_spans()
        if trial_groups:
            lines.append("")
            lines.append("tune trials by candidate "
                         "(fingerprint, trials, spans, total)")
            counters_all = self.counters()
            for fingerprint, trials, count, total in trial_groups[:15]:
                trial_list = ",".join(
                    f"t{trial:03d}" for trial in trials
                    if trial is not None
                )
                lines.append(
                    f"  {fingerprint:<14} {trial_list:<20} {count:>3}x  "
                    f"{total:8.3f}s"
                )
            ran = counters_all.get("search.trials", 0)
            pruned = counters_all.get("search.pruned", 0)
            if ran or pruned:
                lines.append(f"  {ran} trial evaluations, {pruned} pruned")

        timings = self.phase_timings()
        if timings:
            lines.append("")
            lines.append("per-phase span timings")
            for cat, name, count, total in timings[:max(top, 15)]:
                lines.append(
                    f"  {cat:>9}:{name:<18} {count:>4}x  {total:8.3f}s total"
                )

        ratios = self.miss_ratios()
        if ratios:
            lines.append("")
            lines.append("per-workload miss ratios")
            by_workload: dict[tuple, list] = defaultdict(list)
            for (workload, layout, cache, block), f in sorted(
                ratios.items(),
                key=lambda kv: (str(kv[0][0]), str(kv[0][1]),
                                -(kv[0][2] or 0), kv[0][3] or 0),
            ):
                by_workload[(workload, layout)].append((cache, block, f))
            for (workload, layout), configs in by_workload.items():
                cells = "  ".join(
                    f"{_cache_label(cache, block)}:"
                    f"{_fmt_pct(f.get('miss_ratio', 0.0))}"
                    for cache, block, f in configs
                )
                lines.append(f"  {workload:<10} {layout:<12} {cells}")

        conflicts = self.top_conflict_sets(n=top)
        if conflicts:
            lines.append("")
            lines.append("top conflict sets (misses, workload, cache, set)")
            for misses, workload, label, set_index in conflicts:
                lines.append(
                    f"  {misses:>8}  {workload:<10} {label:<9} set {set_index}"
                )

        attributions = self.attributions()
        if attributions:
            lines.append("")
            total = len(attributions)
            shown = sorted(
                attributions,
                key=lambda row: (-row[1].conflict, row[0]),
            )[:top]
            shown.sort(key=lambda row: row[0])
            suffix = (
                f" (top {len(shown)} of {total} by conflict misses)"
                if total > len(shown) else ""
            )
            lines.append(f"miss attribution (3C; comp/cap/conf){suffix}")
            for (workload, layout, org, cache, block), a in shown:
                misses = a.misses or 1
                lines.append(
                    f"  {workload:<10} {layout:<12} "
                    f"{_cache_label(cache, block):<9} {org:<20} "
                    f"{a.misses:>7} misses = "
                    f"{a.compulsory} + {a.capacity} + {a.conflict} "
                    f"({100 * a.conflict / misses:.0f}% conflict)"
                )
            pairs = sorted(
                (
                    (count, workload, layout, victim, evictor)
                    for (workload, layout, _, _, _), a in attributions
                    for (victim, evictor), count in a.conflict_pairs.items()
                ),
                key=lambda row: (-row[0], row[1], row[2], row[3], row[4]),
            )[:top]
            if pairs:
                lines.append("")
                lines.append(
                    "top conflicting function pairs "
                    "(misses, workload, layout, victim <- evictor)"
                )
                for count, workload, layout, victim, evictor in pairs:
                    lines.append(
                        f"  {count:>8}  {workload:<10} {layout:<12} "
                        f"{victim} <- {evictor}"
                    )

        traces = self.hottest_traces(n=top)
        if traces:
            lines.append("")
            lines.append("hottest traces (weight, workload, function, blocks)")
            for weight, workload, function, length in traces:
                lines.append(
                    f"  {weight:>10}  {workload:<10} {function:<20} "
                    f"{length} blocks"
                )

        regions = self.effective_regions()
        if regions:
            lines.append("")
            lines.append("effective-region sizes")
            for workload, total_bytes, effective_bytes in regions:
                pct = (
                    f"{100 * effective_bytes / total_bytes:.0f}%"
                    if total_bytes else "n/a"
                )
                lines.append(
                    f"  {workload:<10} {total_bytes:>8}B total  "
                    f"{effective_bytes:>8}B effective ({pct})"
                )

        return "\n".join(lines)


def compare(
    a: RunReport, b: RunReport, threshold: float = 0.10
) -> tuple[str, list[str]]:
    """Diff two runs; returns ``(text, regressions)``.

    A configuration regresses when run B's miss ratio exceeds run A's by
    more than ``threshold`` relatively (with a small absolute floor so a
    0.000% -> 0.001% flicker does not trip the gate).  Wall-time changes
    are reported but never flagged — they are environment noise.
    """
    lines: list[str] = []
    regressions: list[str] = []
    ratios_a = a.miss_ratios()
    ratios_b = b.miss_ratios()
    shared = sorted(
        set(ratios_a) & set(ratios_b),
        key=lambda key: tuple(str(part) for part in key),
    )
    lines.append(
        f"comparing {len(shared)} shared cache configurations "
        f"(threshold {100 * threshold:.0f}%)"
    )
    for key in shared:
        workload, layout, cache, block = key
        old = float(ratios_a[key].get("miss_ratio", 0.0))
        new = float(ratios_b[key].get("miss_ratio", 0.0))
        if new <= old:
            continue
        worse_rel = (new - old) / old if old > 0 else float("inf")
        label = (
            f"{workload}/{layout} {_cache_label(cache or 0, block or 0)}: "
            f"miss {_fmt_pct(old)} -> {_fmt_pct(new)}"
        )
        if worse_rel > threshold and (new - old) > 1e-6:
            regressions.append(label)
            lines.append(f"  REGRESSION {label} (+{100 * worse_rel:.0f}%)")
        else:
            lines.append(f"  worse      {label}")
    only_a = sorted(set(ratios_a) - set(ratios_b))
    only_b = sorted(set(ratios_b) - set(ratios_a))
    if only_a:
        lines.append(f"  {len(only_a)} configuration(s) only in run A")
    if only_b:
        lines.append(f"  {len(only_b)} configuration(s) only in run B")

    # Totals and counters grow new keys over time (store hits, service
    # counts...).  A run recorded before a key existed simply lacks it:
    # treat the absence as 0 and say so, instead of refusing to compare
    # old runs against new ones.
    totals_a, totals_b = a.totals(), b.totals()
    counters_a, counters_b = a.counters(), b.counters()
    for label, doc_a, doc_b in (
        ("totals", totals_a, totals_b),
        ("counters", counters_a, counters_b),
    ):
        for key in sorted(set(doc_a) | set(doc_b)):
            value_a, value_b = doc_a.get(key), doc_b.get(key)
            if not isinstance(value_a, (int, float)) and value_a is not None:
                continue
            if not isinstance(value_b, (int, float)) and value_b is not None:
                continue
            if value_a is None or value_b is None:
                missing_from = "A" if value_a is None else "B"
                lines.append(
                    f"  warning: run {missing_from} has no {label[:-1]} "
                    f"{key!r} (older format?); treating it as 0"
                )
            if label == "counters" and value_a == value_b:
                continue        # only counter *changes* are interesting
            lines.append(
                f"  {key}: {value_a or 0} -> {value_b or 0}"
            )

    if regressions:
        lines.append(
            f"{len(regressions)} miss-ratio regression(s) beyond "
            f"{100 * threshold:.0f}%"
        )
    else:
        lines.append("no miss-ratio regressions")
    return "\n".join(lines), regressions
