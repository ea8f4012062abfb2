"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the bundled benchmarks.
``table NAME``
    Regenerate a paper table (``table1``..``table9``), the Section 4.2.4
    ``comparison``, an extension study (``ablation``, ``paging``,
    ``estimator``, ``associativity``), or ``all``.  Table names are also
    accepted directly (``python -m repro table6``).  Runs through the
    parallel engine: ``--jobs N`` fans the per-workload pipeline out over
    N processes, and the content-addressed artifact cache (under
    ``~/.cache/repro`` or ``--cache-dir``) makes warm reruns skip
    interpretation entirely.  ``--retries N`` retries failing jobs with
    backoff, ``--job-timeout S`` bounds each parallel job's wall time,
    and a run with exhausted retries exits 3 with a partial-failure
    summary (failed and skipped jobs) instead of a traceback.
    ``--telemetry PATH`` dumps per-job wall times, interpreter step
    counts, cache hit/miss counters, and robustness counters (retries,
    timeouts, quarantined entries, pool restarts) as JSON.
    ``--trace-out PATH`` records the full observability run — nested
    spans per pipeline phase and engine job, point events from the
    interpreter/placement/cache layers, and the final metrics snapshot —
    as JSONL; ``--chrome-trace PATH`` additionally exports the spans in
    Chrome trace-event format (viewable in Perfetto / chrome://tracing).
    ``--attribution`` (with ``--trace-out``) additionally classifies
    every miss (compulsory/capacity/conflict against a fully-associative
    LRU shadow) and attributes it to the function whose placement caused
    it; the result is embedded in the run file for ``repro report``.
    ``--opt PASSES`` runs the optimizing middle-end (``repro.opt``:
    dce, lvn, simplify, licm, superblock — or ``all``) ahead of
    placement, so the tables measure the optimized programs; the
    default (no passes) is byte-identical to builds without the
    middle-end.
``tune [run]``
    Search the placement/cache design space: ``--strategy
    {grid,random,halving}`` picks candidates (grid order, seeded random
    draws, or successive halving with early pruning on a cheap workload
    subset), ``--budget N`` bounds the trial count, ``--axes A,B``
    restricts which axes vary (the rest stay at the paper's values), and
    ``--jobs N`` fans trials out through the engine — so reruns hit the
    artifact store and inherit ``--retries``/``--job-timeout`` fault
    semantics.  Trial 0 is always the paper's configuration.  Writes a
    JSONL trial log (``--out``, default ``tune_trials.jsonl``) and prints
    the Pareto front (miss ratio / traffic / code size), the best-config
    diff against the paper defaults, per-workload winners, and an axis
    sensitivity ranking.
``tune report TRIALS.jsonl``
    Re-render a trial log's Pareto report; exits 1 if the log contains
    no Pareto-optimal trial (CI's smoke gate).
``report RUN.jsonl``
    Summarize an observability run file: per-phase span timings,
    per-workload miss ratios, hottest traces, top conflict sets, and
    effective-region sizes.  Tune trial logs are recognized and rendered
    as Pareto reports; trace files from tune runs group their trial
    spans by candidate.  ``report --compare A B`` diffs two runs and
    exits 1 when any miss ratio or counter regresses beyond
    ``--threshold`` (default 10%).  ``--html OUT.html`` renders the run
    (including any embedded miss attribution) as a self-contained HTML
    dashboard — inline CSS only, no external assets; ``--top N`` bounds
    every ranking.
``explain WORKLOAD``
    Classify one workload's misses at a chosen cache geometry: the 3C
    breakdown (compulsory/capacity/conflict), per-function miss tables,
    the inter-function conflict map (victim <- evictor), and a per-set
    heat map, for the optimized layout and a ``--baseline`` layout side
    by side.  Store-backed: warm runs replay without interpreting.
    ``--opt PASSES`` appends a middle-end diff: the same workload
    rebuilt through those passes, with code bytes, miss ratio, and the
    3C mix compared against the pass-free build.
``cache {ls,stats,verify,clear,gc}``
    Inspect, integrity-check, or empty the artifact cache.  ``verify``
    checks every entry's SHA-256 manifest and quarantines corrupt ones
    (exit 1 when any are found); ``stats`` includes the quarantine
    directory's entry count and size.  ``gc --max-bytes N`` shrinks the
    cache to a byte budget: quarantined entries count against the
    budget and are evicted first, then live entries go least-recently-
    used first.
``serve``
    Run the experiment service: a long-lived HTTP daemon that accepts
    ``table`` / ``tune`` / ``explain`` requests from many concurrent
    clients (``POST /v1/jobs``), coalesces identical in-flight requests
    by fingerprint, applies 429 + ``Retry-After`` backpressure past
    ``--queue-depth``, exposes ``/healthz`` and ``/metrics``, and on
    SIGTERM drains every accepted job before exiting 0.  ``--workers``
    sets service worker threads; ``--jobs`` fans each request's
    engine DAG out over processes.  Crash safety: a write-ahead job
    journal (``--journal-dir``, default ``<cache>/journal``; disable
    with ``--no-journal``) makes every accepted job durable before its
    202 — after a crash, restart replays the journal, serves finished
    results, and re-executes interrupted jobs.  ``--retries`` bounds
    per-job re-execution; ``--job-timeout`` arms the watchdog that
    reaps hung attempts.
``submit KIND [NAME]``
    Submit one request to a running daemon (``--url``).  ``repro submit
    table table6 --scale small --wait`` prints the rendered table —
    byte-identical to ``repro table table6 --scale small`` — and
    ``--receipt PATH`` saves the provenance receipt (store keys,
    fingerprint, telemetry counters) as JSON.  Extra request fields ride
    ``--param KEY=VALUE``.
``status [JOB_ID]``
    Poll a daemon: without an id, its health and queue stats; with one,
    that job's status document.  ``--recovered`` prints what the last
    startup recovery did (journal records replayed, jobs restored and
    re-enqueued, corrupt records skipped, torn-tail bytes cut).
``optimize``
    Run the placement pipeline on one benchmark and report inline /
    trace-selection / footprint statistics plus cache ratios for a chosen
    geometry and layout.
``disasm``
    Print a benchmark's IR, or its placed linker map (``--map``).

All commands accept ``--scale small`` for quick runs on the test-sized
inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import types

__all__ = ["main", "build_parser", "TABLE_CHOICES"]

#: Table names accepted by ``table`` (and as direct shorthand commands).
TABLE_CHOICES = (
    "table1", "table2", "table3", "table4", "table5",
    "table6", "table7", "table8", "table9",
    "comparison", "ablation", "paging", "estimator", "associativity",
    "extended", "prefetch_study", "all",
)


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="artifact cache location (default ~/.cache/repro)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Hwu & Chang (ISCA 1989): profile-guided "
            "instruction placement for high instruction cache performance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the bundled benchmarks")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("name", metavar="NAME",
                       help=f"one of: {', '.join(TABLE_CHOICES)}")
    table.add_argument("--scale", default="default",
                       choices=("default", "small"))
    table.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the experiment DAG")
    table.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry a failing job up to N times "
                            "(exponential backoff, default 0)")
    table.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-time limit (parallel runs only); "
                            "a timed-out attempt counts against --retries")
    table.add_argument("--no-cache", action="store_true",
                       help="do not persist artifacts to the cache")
    table.add_argument("--telemetry", default=None, metavar="PATH",
                       help="dump per-job engine telemetry as JSON")
    table.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record spans/events/metrics for the run "
                            "as an observability JSONL file")
    table.add_argument("--chrome-trace", default=None, metavar="PATH",
                       help="also export spans as a Chrome trace-event "
                            "JSON file (Perfetto-viewable)")
    table.add_argument("--attribution", action="store_true",
                       help="classify every miss (3C + symbol attribution) "
                            "and embed the result in the --trace-out run "
                            "file (requires --trace-out)")
    table.add_argument("--opt", default=None, metavar="PASSES",
                       help="run middle-end passes ahead of placement: a "
                            "comma-separated pass list, 'all', or 'none' "
                            "(default: none, the paper's unoptimized IR)")
    table.add_argument("--profile-out", default=None, metavar="PREFIX",
                       help="cProfile every engine job and write collapsed "
                            "stacks to PREFIX.collapsed plus a self-"
                            "contained flamegraph to PREFIX.html "
                            "(zero overhead when absent)")
    _add_cache_arguments(table)

    tune = sub.add_parser(
        "tune", help="search the placement/cache design space"
    )
    tune_sub = tune.add_subparsers(dest="tune_command", required=True)
    tune_run = tune_sub.add_parser(
        "run", help="run a design-space search (also: plain `repro tune`)"
    )
    tune_run.add_argument("--strategy", default="random",
                          choices=("grid", "random", "halving"),
                          help="candidate selection (default random)")
    tune_run.add_argument("--budget", type=int, default=12, metavar="N",
                          help="maximum number of trials (default 12; "
                               "trial 0 is always the paper defaults)")
    tune_run.add_argument("--seed", type=int, default=0, metavar="N",
                          help="PRNG seed for random/halving proposals")
    tune_run.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for the trial DAG")
    tune_run.add_argument("--scale", default="small",
                          choices=("default", "small"),
                          help="workload input scale (default small)")
    tune_run.add_argument("--workloads", default=None, metavar="A,B,...",
                          help="comma-separated workload subset "
                               "(default: the paper's ten benchmarks)")
    tune_run.add_argument("--axes", default=None, metavar="A,B,...",
                          help="comma-separated axes to vary; all other "
                               "axes stay at the paper's values")
    tune_run.add_argument("--out", default="tune_trials.jsonl",
                          metavar="PATH",
                          help="JSONL trial log (default tune_trials.jsonl)")
    tune_run.add_argument("--retries", type=int, default=0, metavar="N",
                          help="retry a failing job up to N times")
    tune_run.add_argument("--job-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-job wall-time limit (parallel runs only)")
    tune_run.add_argument("--no-cache", action="store_true",
                          help="do not persist artifacts to the cache")
    tune_run.add_argument("--telemetry", default=None, metavar="PATH",
                          help="dump per-job engine telemetry as JSON")
    tune_run.add_argument("--trace-out", default=None, metavar="PATH",
                          help="record spans/events/metrics for the run "
                               "as an observability JSONL file")
    tune_run.add_argument("--profile-out", default=None, metavar="PREFIX",
                          help="cProfile every engine job and write "
                               "collapsed stacks to PREFIX.collapsed plus "
                               "a self-contained flamegraph to PREFIX.html")
    _add_cache_arguments(tune_run)
    tune_report = tune_sub.add_parser(
        "report", help="re-render a trial log's Pareto report"
    )
    tune_report.add_argument("run", metavar="TRIALS.jsonl",
                             help="trial log written by tune run --out")

    report = sub.add_parser(
        "report", help="summarize or compare observability run files"
    )
    report.add_argument("run", nargs="?", default=None, metavar="RUN.jsonl",
                        help="run file written by table --trace-out")
    report.add_argument("--compare", nargs=2, default=None,
                        metavar=("BASELINE", "CANDIDATE"),
                        help="diff two run files and flag regressions")
    report.add_argument("--threshold", type=float, default=0.10,
                        metavar="FRACTION",
                        help="relative regression threshold for --compare "
                             "(default 0.10)")
    report.add_argument("--html", default=None, metavar="OUT.html",
                        help="write a self-contained HTML dashboard "
                             "(inline CSS/SVG, no external assets)")
    report.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows per ranking in report output "
                             "(default 10)")
    report.add_argument("--ledger", default=None, metavar="PATH",
                        help="with --html: append per-metric history "
                             "sparklines from this perf ledger")

    explain = sub.add_parser(
        "explain",
        help="classify one workload's misses (3C + conflict map)",
    )
    explain.add_argument("workload")
    explain.add_argument("--cache-bytes", type=int, default=2048,
                         metavar="N", help="cache size (default 2048)")
    explain.add_argument("--block-bytes", type=int, default=64,
                         metavar="N", help="block size (default 64)")
    explain.add_argument("--assoc", type=int, default=1, metavar="N",
                         help="associativity (1 = direct-mapped, default)")
    explain.add_argument("--layout", default="optimized",
                         choices=("optimized", "natural", "random",
                                  "conflict_aware", "pettis_hansen"))
    explain.add_argument("--baseline", default="natural",
                         choices=("optimized", "natural", "random",
                                  "conflict_aware", "pettis_hansen"),
                         help="comparison layout (default natural)")
    explain.add_argument("--scale", default="small",
                         choices=("default", "small"),
                         help="workload input scale (default small)")
    explain.add_argument("--top", type=int, default=10, metavar="N",
                         help="rows per ranking (default 10)")
    explain.add_argument("--opt", default=None, metavar="PASSES",
                         help="also diff the 3C mix against a build run "
                              "through these middle-end passes (a comma-"
                              "separated pass list or 'all')")
    explain.add_argument("--no-cache", action="store_true",
                         help="do not persist artifacts to the cache")
    _add_cache_arguments(explain)

    cache = sub.add_parser("cache", help="inspect the artifact cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("ls", "list cached artifact entries"),
        ("stats", "aggregate cache statistics"),
        ("verify", "integrity-check all entries, quarantining corrupt ones"),
        ("clear", "remove every cached entry"),
    ):
        _add_cache_arguments(cache_sub.add_parser(name, help=help_text))
    cache_gc = cache_sub.add_parser(
        "gc", help="evict down to a byte budget (LRU, quarantine first)"
    )
    cache_gc.add_argument("--max-bytes", type=int, required=True,
                          metavar="N",
                          help="target total size; quarantined entries "
                               "are evicted first, then LRU entries")
    _add_cache_arguments(cache_gc)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant experiment service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787, metavar="N",
                       help="listen port (default 8787; 0 = ephemeral)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="engine worker processes per request")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="service worker threads (default 1)")
    serve.add_argument("--queue-depth", type=int, default=64, metavar="N",
                       help="max queued+running jobs before 429 "
                            "backpressure (default 64)")
    serve.add_argument("--trace-dir", default=None, metavar="PATH",
                       help="dump one observability JSONL per request")
    serve.add_argument("--log-dir", default=None, metavar="PATH",
                       help="write a leveled structured JSONL event log "
                            "(size-rotated) under this directory")
    serve.add_argument("--journal-dir", default=None, metavar="PATH",
                       help="write-ahead job journal directory (default: "
                            "<cache-dir>/journal)")
    serve.add_argument("--no-journal", action="store_true",
                       help="disable the job journal (no crash recovery)")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="re-execution budget per job after a crashed, "
                            "hung, or failed attempt (default 1)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="watchdog deadline: running attempts past this "
                            "are reaped and retried (default: off)")
    serve.add_argument("--ledger", default=None, metavar="PATH",
                       help="perf ledger whose trends the /dashboard page "
                            "renders (default: no trend section)")
    _add_cache_arguments(serve)

    submit = sub.add_parser(
        "submit", help="submit one request to a running service daemon"
    )
    submit.add_argument("kind", choices=("table", "tune", "explain"))
    submit.add_argument("name", nargs="?", default=None, metavar="NAME",
                        help="table name (kind=table) or workload name "
                             "(kind=explain); unused for tune")
    submit.add_argument("--scale", default=None,
                        choices=("default", "small"),
                        help="workload input scale (service default: "
                             "CLI defaults per kind)")
    submit.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra request field (repeatable); integers "
                             "parse as integers, comma-lists as lists")
    submit.add_argument("--url", default="http://127.0.0.1:8787",
                        help="service base URL")
    submit.add_argument("--wait", action="store_true",
                        help="poll until done and print the result output")
    submit.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="--wait polling deadline (default 600)")
    submit.add_argument("--receipt", default=None, metavar="PATH",
                        help="with --wait: save the provenance receipt "
                             "as JSON")

    status = sub.add_parser(
        "status", help="query a running service daemon"
    )
    status.add_argument("job_id", nargs="?", default=None, metavar="JOB_ID",
                        help="job to inspect (omit for daemon health)")
    status.add_argument("--url", default="http://127.0.0.1:8787",
                        help="service base URL")
    status.add_argument("--recovered", action="store_true",
                        help="print the daemon's startup recovery summary "
                             "(journal replay, restored jobs, corrupt records)")

    trace = sub.add_parser(
        "trace", help="reconstruct one request's cross-process timeline"
    )
    trace.add_argument("job_id", metavar="JOB_ID",
                       help="the job whose trace to reconstruct")
    trace.add_argument("--url", default=None,
                       help="running daemon to query for the job's status "
                            "(needs the daemon's --trace-dir too)")
    trace.add_argument("--trace-dir", default=None, metavar="PATH",
                       help="the daemon's --trace-dir holding "
                            "<JOB_ID>.jsonl (required)")
    trace.add_argument("--chrome-trace", default=None, metavar="OUT",
                       help="also export the timeline as a Chrome "
                            "chrome://tracing JSON file")

    slo = sub.add_parser(
        "slo", help="check a run document or metrics snapshot against SLOs"
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_sub.add_parser(
        "check", help="evaluate SLO objectives; exit 1 on any violation"
    )
    slo_check.add_argument("document", metavar="RUN_OR_METRICS_JSON",
                           help="a repro run JSONL/JSON or a /metrics "
                                "JSON snapshot")
    slo_check.add_argument("--slo", default=None, metavar="FILE",
                           help="SLO objectives file (repro-slo-v1; "
                                "default: built-in service objectives)")

    perf = sub.add_parser(
        "perf",
        help="the performance observatory: ledger, history, regressions",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_record = perf_sub.add_parser(
        "record", help="append one run record to the perf ledger"
    )
    perf_record.add_argument("--ledger", default="perf_ledger.jsonl",
                             metavar="PATH",
                             help="ledger file (default perf_ledger.jsonl)")
    perf_record.add_argument("--sha", default=None, metavar="SHA",
                             help="commit to stamp the record with "
                                  "(default: git rev-parse --short HEAD)")
    perf_record.add_argument("--label", default="local", metavar="LABEL",
                             help="run label, e.g. ci / local (default "
                                  "local)")
    perf_record.add_argument("--bench-dir", default=".", metavar="DIR",
                             help="directory whose BENCH_*.json files to "
                                  "harvest (default .)")
    perf_record.add_argument("--run", action="append", default=[],
                             metavar="RUN.jsonl",
                             help="also harvest an observability run "
                                  "file's metric snapshot (repeatable)")
    perf_record.add_argument("--metric", action="append", default=[],
                             metavar="KEY=VALUE",
                             help="extra metric (repeatable)")
    perf_history = perf_sub.add_parser(
        "history", help="render one or more metrics' ledger history"
    )
    perf_history.add_argument("--ledger", default="perf_ledger.jsonl",
                              metavar="PATH")
    perf_history.add_argument("--metric", action="append", default=[],
                              metavar="SUBSTRING",
                              help="only metrics whose name contains this "
                                   "(repeatable; default: all)")
    perf_history.add_argument("--last", type=int, default=12, metavar="N",
                              help="runs to show per metric (default 12)")
    perf_compare = perf_sub.add_parser(
        "compare", help="diff two ledger records metric-by-metric"
    )
    perf_compare.add_argument("--ledger", default="perf_ledger.jsonl",
                              metavar="PATH")
    perf_compare.add_argument("baseline", nargs="?", default=None,
                              metavar="SHA_OR_SEQ",
                              help="baseline record (default: second-"
                                   "newest)")
    perf_compare.add_argument("candidate", nargs="?", default=None,
                              metavar="SHA_OR_SEQ",
                              help="candidate record (default: newest)")
    perf_compare.add_argument("--top", type=int, default=20, metavar="N",
                              help="largest relative deltas shown "
                                   "(default 20)")
    perf_check = perf_sub.add_parser(
        "check",
        help="regression sentinel: newest record vs the rolling window "
             "(exit 1 on regression, 2 when uncheckable)",
    )
    perf_check.add_argument("--ledger", default="perf_ledger.jsonl",
                            metavar="PATH")
    perf_check.add_argument("--window", type=int, default=8, metavar="N",
                            help="rolling window size (default 8)")
    perf_check.add_argument("--k", type=float, default=3.0, metavar="K",
                            help="MAD multiplier (default 3.0)")
    perf_check.add_argument("--min-rel", type=float, default=0.10,
                            metavar="FRACTION",
                            help="relative tolerance floor so a flat "
                                 "window does not flag jitter "
                                 "(default 0.10)")
    perf_check.add_argument("--metric", action="append", default=[],
                            metavar="NAME",
                            help="only check these metrics (repeatable; "
                                 "default: every metric in the newest "
                                 "record)")

    optimize = sub.add_parser(
        "optimize", help="run the placement pipeline on one benchmark"
    )
    optimize.add_argument("workload")
    optimize.add_argument("--scale", default="default",
                          choices=("default", "small"))
    optimize.add_argument("--cache", type=int, default=2048,
                          help="cache size in bytes (default 2048)")
    optimize.add_argument("--block", type=int, default=64,
                          help="block size in bytes (default 64)")
    optimize.add_argument(
        "--layout", default="optimized",
        choices=("optimized", "natural", "random", "pettis_hansen"),
    )

    disasm = sub.add_parser(
        "disasm", help="print a benchmark's IR or its placed linker map"
    )
    disasm.add_argument("workload")
    disasm.add_argument("--function", default=None,
                        help="restrict to one function")
    disasm.add_argument("--map", action="store_true",
                        help="print the optimized linker map instead")
    disasm.add_argument("--scale", default="small",
                        choices=("default", "small"),
                        help="profiling scale for --map (default small)")
    return parser


def _cmd_list() -> int:
    from repro.experiments.report import render_table
    from repro.workloads import all_workloads

    rows = []
    for suite in ("paper", "extended"):
        for workload in all_workloads(suite):
            program = workload.build()
            rows.append([
                workload.name,
                suite,
                program.num_instructions,
                len(program.functions),
                workload.num_runs,
                workload.description,
            ])
    print(render_table(
        "Bundled benchmarks (paper Table 2 suite + extended suite)",
        ["name", "suite", "static instrs", "functions", "runs",
         "input description"],
        rows,
    ))
    return 0


#: Exit code for a run that finished with failed/skipped jobs.
EXIT_PARTIAL_FAILURE = 3


def _check_opt(spec: str | None, command: str) -> bool:
    """Validate an ``--opt`` pass spec; print a usage error if bad."""
    from repro.opt import OptOptions

    try:
        OptOptions.parse(spec)
    except ValueError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return False
    return True


def _write_profile(prefix: str, stacks: dict, title: str) -> None:
    """``--profile-out`` outputs: PREFIX.collapsed + PREFIX.html.

    Announced on stderr — stdout carries the table text, which must
    stay byte-identical with and without profiling.
    """
    from repro.perf.flame import render_flamegraph, write_collapsed

    collapsed_path = f"{prefix}.collapsed"
    html_path = f"{prefix}.html"
    write_collapsed(stacks, collapsed_path)
    with open(html_path, "w", encoding="utf-8") as handle:
        handle.write(render_flamegraph(stacks, title=title))
    print(
        f"profile: {len(stacks)} collapsed stack(s) -> {collapsed_path}, "
        f"flamegraph -> {html_path}",
        file=sys.stderr,
    )


@contextlib.contextmanager
def _engine_run(args: argparse.Namespace, meta: dict):
    """The set-up and teardown ``repro table`` and ``repro tune run`` share.

    Installs the recorder (with ``--trace-out``/``--chrome-trace``), the
    ``--attribution`` collector and the ``--profile-out`` profiler, and
    yields the run's ``telemetry``, ``profiler``, ``cache_dir`` and
    ``use_cache``; ``--no-cache --jobs N`` gets a throwaway store,
    because workers can only exchange artifacts through one.  On exit
    the store is removed and an observed run's file is written, its
    meta holding ``meta``, the job count and the telemetry totals.
    """
    from repro import diagnose, obs
    from repro.engine.telemetry import Telemetry
    from repro.perf import profiler as perf_profiler

    chrome_trace = getattr(args, "chrome_trace", None)
    observing = bool(args.trace_out or chrome_trace)
    recorder = obs.Recorder() if observing else obs.NULL
    collector = (diagnose.Collector() if getattr(args, "attribution", False)
                 else diagnose.NULL)
    run = types.SimpleNamespace(
        profiler=(perf_profiler.ProfileCollector() if args.profile_out
                  else perf_profiler.NULL),
        # One metric namespace: the run's robustness counters and the
        # observability counters land in the same registry.
        telemetry=Telemetry(
            registry=recorder.metrics if observing else None
        ),
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    temp_cache = None
    if not run.use_cache and args.jobs > 1:
        import tempfile

        temp_cache = tempfile.TemporaryDirectory(prefix="repro-cache-")
        run.cache_dir, run.use_cache = temp_cache.name, True
    try:
        with obs.use(recorder), diagnose.use(collector), \
                perf_profiler.use(run.profiler):
            yield run
    finally:
        if temp_cache is not None:
            temp_cache.cleanup()
        if observing:
            recorder.meta.update(
                meta,
                jobs=args.jobs,
                telemetry_totals=run.telemetry.totals(),
                telemetry_counters=run.telemetry.counters,
            )
            if collector.enabled:
                recorder.meta["attribution"] = collector.to_dict()
            if args.trace_out:
                recorder.dump_jsonl(args.trace_out)
            if chrome_trace:
                recorder.dump_chrome_trace(chrome_trace)


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.engine.jobs import ALL_TABLE_NAMES, table_plan
    from repro.engine.scheduler import ExperimentFailure, run_jobs

    name = args.name
    if name not in TABLE_CHOICES:
        print(
            f"repro table: unknown table {name!r}\n"
            f"usage: repro table NAME [--scale {{default,small}}] "
            f"[--jobs N] [--retries N] [--job-timeout SECONDS] "
            f"[--cache-dir PATH] [--no-cache] [--telemetry PATH] "
            f"[--trace-out PATH] [--chrome-trace PATH]\n"
            f"NAME is one of: {', '.join(TABLE_CHOICES)}",
            file=sys.stderr,
        )
        return 2

    tables = list(ALL_TABLE_NAMES) if name == "all" else [name]
    if not _check_opt(args.opt, "table"):
        return 2
    if args.attribution and not args.trace_out:
        print(
            "repro table: --attribution needs --trace-out PATH (the run "
            "file is where the attribution is stored; render it with "
            "`repro report PATH` or `repro report PATH --html OUT.html`)",
            file=sys.stderr,
        )
        return 2
    failure = None
    meta = {"tables": tables, "scale": args.scale}
    with _engine_run(args, meta) as run:
        try:
            values = run_jobs(
                table_plan(tables, args.scale, opt=args.opt),
                jobs=args.jobs,
                cache_dir=run.cache_dir,
                use_cache=run.use_cache,
                telemetry=run.telemetry,
                retries=args.retries,
                job_timeout=args.job_timeout,
            )
        except ExperimentFailure as exc:
            failure = exc
            values = exc.values
    rendered = [
        values[f"table:{table}"] for table in tables
        if f"table:{table}" in values
    ]
    if rendered:
        print("\n".join(rendered))
    if args.telemetry:
        run.telemetry.meta.update(meta)
        run.telemetry.dump(args.telemetry)
    if args.profile_out:
        _write_profile(
            args.profile_out, run.profiler.stacks,
            title=f"repro table {' '.join(tables)} hot paths",
        )
    if failure is not None:
        print(f"repro table: {failure.summary()}", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    return 0


def _cmd_tune_run(args: argparse.Namespace) -> int:
    from repro.engine.scheduler import ExperimentFailure
    from repro.search import default_space, make_strategy, run_search
    from repro.search.evaluate import write_trials
    from repro.search.report import render_result
    from repro.workloads.registry import workload_names

    space = default_space()
    if args.axes:
        axes = [name.strip() for name in args.axes.split(",") if name.strip()]
        try:
            space = space.restrict(axes)
        except KeyError as exc:
            print(f"repro tune: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.workloads:
        workloads = [
            name.strip() for name in args.workloads.split(",") if name.strip()
        ]
        known = workload_names() + workload_names("extended")
        unknown = [name for name in workloads if name not in known]
        if unknown:
            print(
                f"repro tune: unknown workloads {unknown!r}; "
                f"known: {', '.join(known)}",
                file=sys.stderr,
            )
            return 2
    else:
        workloads = workload_names()

    meta = {"kind": "tune", "strategy": args.strategy,
            "budget": args.budget, "seed": args.seed, "scale": args.scale}
    with _engine_run(args, {**meta, "workloads": workloads}) as run:
        try:
            result = run_search(
                space,
                make_strategy(args.strategy, args.seed),
                workloads,
                budget=args.budget,
                scale=args.scale,
                jobs=args.jobs,
                cache_dir=run.cache_dir,
                use_cache=run.use_cache,
                telemetry=run.telemetry,
                retries=args.retries,
                job_timeout=args.job_timeout,
                seed=args.seed,
            )
        except ExperimentFailure as exc:
            print(f"repro tune: {exc.summary()}", file=sys.stderr)
            return EXIT_PARTIAL_FAILURE
    write_trials(result, args.out)
    if args.profile_out:
        _write_profile(
            args.profile_out, run.profiler.stacks,
            title="repro tune hot paths",
        )
    print(render_result(result))
    print(f"trial log: {args.out} "
          f"({len(result.records)} records, {result.pruned} pruned)")
    if args.telemetry:
        run.telemetry.meta.update(meta)
        run.telemetry.dump(args.telemetry)
    return 0


def _cmd_tune_report(args: argparse.Namespace) -> int:
    from repro.obs.recorder import Recorder
    from repro.search.report import front_from_document, render_from_document

    document = Recorder.load_jsonl(args.run)
    print(render_from_document(document), end="")
    if not front_from_document(document):
        print("repro tune report: Pareto front is empty", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import RunReport, compare

    if args.compare is not None:
        baseline, candidate = args.compare
        text, regressions = compare(
            RunReport.load(baseline), RunReport.load(candidate),
            threshold=args.threshold,
        )
        print(text)
        return 1 if regressions else 0
    if args.run is None:
        print("repro report: a RUN.jsonl argument or --compare A B "
              "is required", file=sys.stderr)
        return 2
    report = RunReport.load(args.run)
    ledger_records = None
    if args.ledger:
        from repro.perf.ledger import LedgerError, PerfLedger

        try:
            view = PerfLedger(args.ledger).read()
        except LedgerError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        ledger_records = view.records
        if view.corrupt:
            print(f"repro report: skipped {view.corrupt} corrupt ledger "
                  f"record(s)", file=sys.stderr)
    if args.html:
        from repro.diagnose.html import render_html

        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(
                report, top=args.top, ledger_records=ledger_records,
            ))
        print(f"wrote {args.html}")
        return 0
    print(report.render(top=args.top))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.engine.jobs import request_plan
    from repro.engine.scheduler import ExperimentFailure, run_jobs
    from repro.service.schemas import RequestError, normalize_request

    # The daemon's validation, so the CLI and ``repro serve`` accept the
    # same requests; it runs before any artifact is built.
    try:
        request = normalize_request({
            "kind": "explain", "workload": args.workload,
            "scale": args.scale, "cache_bytes": args.cache_bytes,
            "block_bytes": args.block_bytes, "assoc": args.assoc,
            "layout": args.layout, "baseline": args.baseline,
            "top": args.top, "opt": args.opt or "none",
        })
    except RequestError as exc:
        print(f"repro explain: {exc}", file=sys.stderr)
        return 2
    try:
        values = run_jobs(request_plan(request), cache_dir=args.cache_dir,
                          use_cache=not args.no_cache)
    except ExperimentFailure as exc:
        print(f"repro explain: {exc.summary()}", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    print(values[f"explain:{args.workload}"])
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import time

    from repro.engine.store import ArtifactStore
    from repro.experiments.report import render_table

    store = ArtifactStore(args.cache_dir)
    if args.cache_command == "ls":
        rows = [
            [
                entry.key,
                entry.workload,
                entry.scale,
                f"{entry.nbytes / 1024:.1f}K",
                time.strftime(
                    "%Y-%m-%d %H:%M", time.localtime(entry.last_used)
                ),
            ]
            for entry in store.entries()
        ]
        print(render_table(
            f"Artifact cache at {store.root}",
            ["key", "workload", "scale", "size", "last used"],
            rows,
        ))
    elif args.cache_command == "stats":
        stats = store.stats()
        print(f"root:               {stats['root']}")
        print(f"entries:            {stats['entries']}")
        print(f"bytes:              {stats['bytes']}")
        print(f"quarantine entries: {stats['quarantine_entries']}")
        print(f"quarantine bytes:   {stats['quarantine_bytes']}")
    elif args.cache_command == "verify":
        report = store.verify()
        print(f"checked {report['checked']} entr"
              f"{'y' if report['checked'] == 1 else 'ies'}: "
              f"{report['ok']} ok, {len(report['corrupt'])} corrupt")
        if report["corrupt"]:
            for key in report["corrupt"]:
                print(f"  quarantined {key}")
            print(f"corrupt entries moved under {store.quarantine_dir}")
            return 1
    elif args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached entr"
              f"{'y' if removed == 1 else 'ies'} from {store.root}")
    elif args.cache_command == "gc":
        if args.max_bytes < 0:
            print("repro cache gc: --max-bytes must be >= 0",
                  file=sys.stderr)
            return 2
        report = store.gc(args.max_bytes)
        print(f"gc {store.root}: {report['bytes_before']} -> "
              f"{report['bytes_after']} bytes (budget {args.max_bytes})")
        print(f"  quarantine removed: {report['quarantine_removed']}")
        print(f"  entries evicted:    {report['evicted']}")
    else:  # pragma: no cover - subparser enforces the choice
        raise AssertionError(args.cache_command)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine.store import default_cache_dir
    from repro.service import ExperimentService
    from repro.service.journal import JournalLocked

    if args.workers < 1 or args.jobs < 1 or args.queue_depth < 1:
        print("repro serve: --workers, --jobs and --queue-depth must be "
              ">= 1", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("repro serve: --retries must be >= 0", file=sys.stderr)
        return 2
    if args.no_journal and args.journal_dir:
        print("repro serve: --no-journal and --journal-dir conflict",
              file=sys.stderr)
        return 2
    journal_dir = None
    if not args.no_journal:
        journal_dir = args.journal_dir or os.path.join(
            args.cache_dir or default_cache_dir(), "journal"
        )
    try:
        service = ExperimentService(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            workers=args.workers,
            queue_depth=args.queue_depth,
            trace_dir=args.trace_dir,
            log_dir=args.log_dir,
            journal_dir=journal_dir,
            retries=args.retries,
            job_timeout=args.job_timeout,
            ledger=args.ledger,
        )
    except JournalLocked as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 1
    print(f"repro serve: listening on {service.url} "
          f"(workers={args.workers}, jobs={args.jobs}, "
          f"queue-depth={args.queue_depth}, "
          f"journal={journal_dir or 'off'})",
          file=sys.stderr, flush=True)
    code = service.run_forever()
    print("repro serve: drained, exiting", file=sys.stderr)
    return code


def _parse_param(raw: str):
    """``KEY=VALUE`` -> (key, typed value): ints, comma-lists, strings."""
    key, sep, value = raw.partition("=")
    if not sep or not key:
        raise ValueError(f"--param needs KEY=VALUE, got {raw!r}")
    if "," in value:
        return key, [part.strip() for part in value.split(",") if part.strip()]
    try:
        return key, int(value)
    except ValueError:
        return key, value


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    request: dict = {"kind": args.kind}
    if args.name is not None:
        request["table" if args.kind == "table" else "workload"] = args.name
    elif args.kind in ("table", "explain"):
        print(f"repro submit: kind {args.kind!r} needs a NAME "
              f"(a table or workload)", file=sys.stderr)
        return 2
    if args.scale is not None:
        request["scale"] = args.scale
    try:
        for raw in args.param:
            key, value = _parse_param(raw)
            request[key] = value
    except ValueError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2

    client = ServiceClient(args.url)
    try:
        accepted = client.submit(request)
        if not args.wait:
            print(json.dumps(accepted, indent=2))
            return 0
        document = client.wait(accepted["id"], timeout=args.timeout)
    except ServiceError as exc:
        if exc.status == 0:     # connection failure after retries
            print(f"repro submit: cannot reach {args.url}: "
                  f"{exc.document.get('error', exc)}", file=sys.stderr)
        else:
            print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise               # the reader went away; main() exits 0
    except OSError as exc:
        print(f"repro submit: cannot reach {args.url}: {exc}",
              file=sys.stderr)
        return 1
    # The rendered output, exactly as the equivalent CLI command prints
    # it — `repro submit table6 --wait | cmp - <(repro table table6)`.
    print(document["output"])
    if args.receipt:
        with open(args.receipt, "w", encoding="utf-8") as handle:
            json.dump(document.get("receipt", {}), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.recovered:
            print(json.dumps(client.recovery(), indent=2))
            return 0
        if args.job_id is None:
            document = client.healthz()
            if "status" not in document:    # connection failure doc
                raise OSError(document.get("error", "connection failed"))
            print(json.dumps(document, indent=2))
            return 0
        print(json.dumps(client.status(args.job_id), indent=2))
        return 0
    except ServiceError as exc:
        if exc.status == 0:     # connection failure after retries
            print(f"repro status: cannot reach {args.url}: "
                  f"{exc.document.get('error', exc)}", file=sys.stderr)
        else:
            print(f"repro status: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise               # the reader went away; main() exits 0
    except OSError as exc:
        print(f"repro status: cannot reach {args.url}: {exc}",
              file=sys.stderr)
        return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.timeline import (
        load_trace, render_timeline, write_timeline_chrome_trace,
    )

    if args.trace_dir is None:
        print("repro trace: --trace-dir is required (the daemon's "
              "--trace-dir holding <JOB_ID>.jsonl)", file=sys.stderr)
        return 2
    path = os.path.join(args.trace_dir, f"{args.job_id}.jsonl")
    if not os.path.exists(path):
        print(f"repro trace: no trace file at {path} (was the daemon "
              f"started with --trace-dir? has the job finished?)",
              file=sys.stderr)
        return 1
    try:
        doc = load_trace(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro trace: cannot read {path}: {exc}", file=sys.stderr)
        return 1

    status = None
    if args.url:
        from repro.service.client import ServiceClient, ServiceError

        try:
            status = ServiceClient(args.url).status(args.job_id)
        except (ServiceError, OSError) as exc:
            # The trace file is self-sufficient; the daemon's view is a
            # bonus (authoritative state + timestamps), not a requirement.
            print(f"repro trace: daemon at {args.url} unavailable "
                  f"({exc}); rendering from the trace file alone",
                  file=sys.stderr)

    print(render_timeline(doc, status=status))
    if args.chrome_trace:
        write_timeline_chrome_trace(doc, args.chrome_trace, status=status)
        print(f"chrome trace written to {args.chrome_trace} "
              f"(load via chrome://tracing)", file=sys.stderr)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs.slo import (
        SloError, evaluate_slo, load_slo, render_results,
    )

    try:
        slo = load_slo(args.slo) if args.slo else None
    except (OSError, json.JSONDecodeError, SloError) as exc:
        print(f"repro slo check: bad --slo file: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.document, encoding="utf-8") as handle:
            text = handle.read()
        try:
            # A /metrics snapshot (one JSON object, possibly pretty-
            # printed) parses whole...
            document = json.loads(text)
        except json.JSONDecodeError:
            # ...a JSONL run dump does not: meta line, records, metrics.
            from repro.obs.recorder import Recorder

            document = Recorder.load_jsonl(args.document)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro slo check: cannot read {args.document}: {exc}",
              file=sys.stderr)
        return 2
    try:
        results = evaluate_slo(document, slo=slo)
    except SloError as exc:
        print(f"repro slo check: {exc}", file=sys.stderr)
        return 2
    print(render_results(results))
    return 1 if any(r["status"] == "fail" for r in results) else 0


def _git_sha() -> str:
    """The short HEAD sha, or ``unknown`` outside a git checkout."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def _harvest_run_file(path: str) -> dict:
    """Flatten one observability run file's metric snapshot for the ledger."""
    from repro.obs.recorder import Recorder

    document = Recorder.load_jsonl(path)
    metrics: dict = {}
    snapshot = document.get("metrics", {})
    for name, value in (snapshot.get("counters") or {}).items():
        metrics[f"run.counters.{name}"] = value
    for name, value in (snapshot.get("gauges") or {}).items():
        metrics[f"run.gauges.{name}"] = value
    for name, summary in (snapshot.get("histograms") or {}).items():
        for stat in ("count", "sum", "mean", "p50", "p90", "p99"):
            value = (summary or {}).get(stat)
            if isinstance(value, (int, float)):
                metrics[f"run.{name}.{stat}"] = value
    totals = (document.get("meta") or {}).get("telemetry_totals") or {}
    for name, value in totals.items():
        if isinstance(value, (int, float)):
            metrics[f"run.totals.{name}"] = value
    return metrics


def _resolve_ledger_record(records: list[dict], selector: str | None,
                           default_index: int) -> dict | None:
    """A record by seq number or sha prefix; ``None`` when absent."""
    if selector is None:
        return (
            records[default_index]
            if -len(records) <= default_index < len(records) else None
        )
    if selector.isdigit():
        for record in records:
            if record.get("seq") == int(selector):
                return record
    matches = [
        record for record in records
        if str(record.get("sha", "")).startswith(selector)
    ]
    return matches[-1] if matches else None


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf.ledger import LedgerError, PerfLedger, harvest_metrics

    ledger = PerfLedger(args.ledger)

    if args.perf_command == "record":
        metrics = harvest_metrics(args.bench_dir)
        for path in args.run:
            try:
                metrics.update(_harvest_run_file(path))
            except OSError as exc:
                print(f"repro perf record: cannot read {path}: {exc}",
                      file=sys.stderr)
                return 2
        for raw in args.metric:
            key, sep, value = raw.partition("=")
            try:
                if not sep or not key:
                    raise ValueError
                metrics[key] = float(value)
            except ValueError:
                print(f"repro perf record: --metric needs KEY=NUMBER, "
                      f"got {raw!r}", file=sys.stderr)
                return 2
        if not metrics:
            print(f"repro perf record: nothing to record — no BENCH_*.json "
                  f"under {args.bench_dir!r} and no --run/--metric values",
                  file=sys.stderr)
            return 2
        sha = args.sha or _git_sha()
        try:
            record = ledger.append(
                sha, args.label, metrics,
                meta={"bench_dir": os.path.abspath(args.bench_dir)},
            )
        except LedgerError as exc:
            print(f"repro perf record: {exc}", file=sys.stderr)
            return 2
        print(f"recorded seq {record['seq']} ({sha}, {args.label}): "
              f"{len(record['metrics'])} metric(s) -> {args.ledger}")
        return 0

    try:
        view = ledger.read()
    except LedgerError as exc:
        print(f"repro perf: {exc}", file=sys.stderr)
        return 2
    if view.corrupt:
        print(f"repro perf: skipped {view.corrupt} corrupt ledger "
              f"record(s)", file=sys.stderr)
    if not view.records:
        print(f"repro perf: ledger {args.ledger} has no intact records",
              file=sys.stderr)
        return 2

    if args.perf_command == "history":
        names = view.metric_names()
        if args.metric:
            wanted = [part.lower() for part in args.metric]
            names = [
                name for name in names
                if any(part in name.lower() for part in wanted)
            ]
        if not names:
            print("repro perf history: no matching metrics",
                  file=sys.stderr)
            return 1
        for name in names:
            rows = view.history(name)[-args.last:]
            if not rows:
                continue
            print(name)
            for record, value in rows:
                print(f"  {str(record.get('sha', '?')):<14} "
                      f"{str(record.get('label', '?')):<10} {value:.6g}")
        print(f"{len(view.records)} run(s) in {args.ledger}, "
              f"{len(names)} metric(s) shown")
        return 0

    if args.perf_command == "compare":
        baseline = _resolve_ledger_record(view.records, args.baseline, -2)
        candidate = _resolve_ledger_record(view.records, args.candidate, -1)
        if baseline is None or candidate is None:
            which = "baseline" if baseline is None else "candidate"
            print(f"repro perf compare: cannot resolve the {which} record "
                  f"(need two records, or a seq/sha that exists)",
                  file=sys.stderr)
            return 2
        a, b = baseline.get("metrics", {}), candidate.get("metrics", {})
        print(f"comparing {baseline.get('sha')} ({baseline.get('label')}) "
              f"-> {candidate.get('sha')} ({candidate.get('label')})")
        rows = []
        for name in sorted(set(a) | set(b)):
            old, new = a.get(name), b.get(name)
            if old is None or new is None:
                rows.append((0.0, name, old, new, "only one side"))
                continue
            rel = (new - old) / old if old else (0.0 if new == old else
                                                float("inf"))
            rows.append((abs(rel), name, old, new, f"{100 * rel:+.1f}%"))
        rows.sort(key=lambda row: (-row[0], row[1]))
        for _, name, old, new, delta in rows[:args.top]:
            shown_old = "–" if old is None else f"{old:.6g}"
            shown_new = "–" if new is None else f"{new:.6g}"
            print(f"  {name:<52} {shown_old:>12} -> {shown_new:>12}  "
                  f"{delta}")
        if len(rows) > args.top:
            print(f"  ... {len(rows) - args.top} more metric(s)")
        return 0

    # perf check: the regression sentinel.
    from repro.perf.sentinel import check_window

    try:
        report = check_window(
            view.records,
            window=args.window,
            k=args.k,
            min_rel=args.min_rel,
            metrics=args.metric or None,
        )
    except ValueError as exc:
        print(f"repro perf check: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_optimize(
    workload_name: str, scale: str, cache: int, block: int, layout: str
) -> int:
    from repro.cache.vectorized import simulate_direct_vectorized
    from repro.engine import cached_runner
    from repro.experiments.report import fmt_pct
    from repro.placement.stats import trace_selection_stats

    runner = cached_runner(scale=scale)
    art = runner.artifacts(workload_name)
    placement = art.placement

    report = placement.inline_report
    print(f"benchmark:        {workload_name} ({scale} scale)")
    print(f"inline expansion: +{report.code_increase_pct:.0f}% code, "
          f"-{report.call_decrease_pct:.0f}% dynamic calls "
          f"({len(report.inlined_sites)} sites)")
    stats = trace_selection_stats(
        placement.program, placement.profile, placement.selections
    )
    print(f"trace selection:  {stats.desirable_pct:.1f}% desirable, "
          f"{stats.neutral_pct:.1f}% neutral, "
          f"{stats.undesirable_pct:.1f}% undesirable; "
          f"avg trace {stats.avg_trace_length:.1f} blocks")
    mask = placement.profile.effective_blocks()
    print(f"footprint:        {placement.image.total_bytes}B total, "
          f"{placement.image.static_bytes(mask)}B effective")

    addresses = runner.addresses(workload_name, layout)
    cache_stats = simulate_direct_vectorized(addresses, cache, block)
    print(f"{layout} layout on {cache}B/{block}B direct-mapped: "
          f"miss {fmt_pct(cache_stats.miss_ratio)}, "
          f"traffic {fmt_pct(cache_stats.traffic_ratio)} "
          f"({cache_stats.accesses} fetches)")
    return 0


def _cmd_disasm(
    workload_name: str, function: str | None, as_map: bool, scale: str
) -> int:
    from repro.ir.printer import format_function, format_image, format_program
    from repro.workloads import get_workload

    workload = get_workload(workload_name)
    if as_map:
        from repro.engine import cached_runner

        runner = cached_runner(scale=scale)
        art = runner.artifacts(workload_name)
        print(format_image(
            art.image, art.placement.profile, function=function
        ))
        return 0
    program = workload.build()
    if function is not None:
        print(format_function(program.function(function)))
    else:
        print(format_program(program))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in TABLE_CHOICES:
        # Shorthand: ``repro table6 --scale small`` == ``repro table table6``.
        argv.insert(0, "table")
    if (
        argv and argv[0] == "tune"
        and (len(argv) == 1 or argv[1] not in ("run", "report", "-h",
                                               "--help"))
    ):
        # Shorthand: ``repro tune --budget 12`` == ``repro tune run ...``.
        argv.insert(1, "run")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "tune":
            if args.tune_command == "report":
                return _cmd_tune_report(args)
            return _cmd_tune_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "slo":
            return _cmd_slo(args)
        if args.command == "perf":
            return _cmd_perf(args)
        if args.command == "optimize":
            return _cmd_optimize(
                args.workload, args.scale, args.cache, args.block, args.layout
            )
        if args.command == "disasm":
            return _cmd_disasm(args.workload, args.function, args.map, args.scale)
    except BrokenPipeError:
        # The reader went away (``repro cache ls | head``); exit quietly.
        # Point stdout at devnull so the interpreter's shutdown flush does
        # not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
