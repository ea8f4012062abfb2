"""The explain-request benchmark.

One op is one ``explain`` request, lowered by
``repro.engine.jobs.request_plan`` and run by
``repro.engine.scheduler.run_jobs`` — the path ``repro explain`` and the
``repro serve`` worker share.  Three workloads cover three store and
transport states, all on the paper's ten programs at ``scale=small``:

``cold_explain``
    One caller, closed loop.  Each op explains a program registered
    under a fresh name, with profiling and trace inputs drawn from the
    seed, at 2 KB / 64 B direct-mapped: build, profiling, inlining,
    re-profiling, layout, both trace runs, a store write and one
    attributed simulation.  Interpretation dominates.
``warm_explain``
    One caller, closed loop, over a store the set-up filled.  Requests
    are seeded shuffles of the ten programs x the geometry grid; ops
    rebuild and re-place on hydrate, then simulate and attribute.
``serve_explain``
    The warm request stream sent over HTTP to a ``repro serve`` daemon
    (own process, journal on, warm store) as an open loop at
    :data:`SERVE_RATE` requests/s.

Run from the root of a checkout::

    python3 explainbench/run.py --workload warm_explain --seed 1 \\
        --seconds 22 --trace 0

``--trace 0`` prints the seven end-to-end metrics; ``--trace 1`` runs
half the time untraced and half with span wrappers on every layer, and
prints the per-layer metrics plus the tracing overhead.  Op times are
scaled to a reference host speed (see ``hostspeed.py``); the unscaled
figures are printed too.  The last line of standard output is the JSON
result; the exit code is 1 when any op failed or any correctness check
did not hold, and 2 outside a checkout with the ``repro`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".explainbench")

WORKLOADS = ("cold_explain", "warm_explain", "serve_explain")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Open-loop rate of ``serve_explain``: one full round of the warm grid
#: (110 requests) in a 22 s run, a fifth of the one-worker daemon's
#: capacity (about 25 warm explains/s on a 2-vCPU host), so every run
#: sends the same request mix and a slow host window adds little
#: queueing on top of the slower service it causes.
SERVE_RATE = 110 / 22

#: Warm outputs re-run with the store off, per run (check (c)).
UNCACHED_SAMPLE = 4

#: Leading ``cold_explain`` rounds every run completes; checks (a) and
#: (b) and the placement-quality means cover their ops, so those
#: metrics repeat exactly for a seed.
QUALITY_ROUNDS = 4

#: Rounds an untraced ``cold_explain`` run completes even past its
#: deadline.  ``compress`` ops cost ~1.5x the next program's, so they
#: alone fill the tail: with one per round, 12 rounds put the tail rank
#: (ten ops beyond it) inside their cluster rather than on its edge,
#: when a slow host fits fewer rounds in a run.
TAIL_ROUNDS = 12

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MiB", "miss_ratio_2k": "ratio",
    "code_kb": "KiB",
}

SERVICE_METRICS = {
    "service.accept_ms": "ms", "service.queue_wait_ms": "ms",
    "service.exec_ms": "ms", "service.journal_fsync_ms": "ms",
    "service.refused": "count", "service.coalesced": "ratio",
    "service.late_ms": "ms",
}


def explain(request: dict, store_dir: str | None, telemetry=None) -> str:
    """One explain request through the engine's public entry points."""
    from repro.engine import scheduler
    from repro.engine.jobs import request_plan

    values = scheduler.run_jobs(
        request_plan(request), cache_dir=store_dir,
        use_cache=store_dir is not None, telemetry=telemetry,
    )
    return values[f"explain:{request['workload']}"]


# -- set-up ----------------------------------------------------------------


def prepare(kind: str, store_dir: str) -> int:
    """Set-up body, run in a fresh interpreter: import the op path and
    create the store; for ``warm`` also fill it with one cold explain
    per paper program."""
    from repro.workloads.registry import workload_names
    from streams import explain_request

    os.makedirs(store_dir, exist_ok=True)
    if kind == "warm":
        for name in workload_names():
            explain(explain_request(name), store_dir)
    return 0


def run_prepare(kind: str, store_dir: str) -> None:
    """:func:`prepare` in a fresh interpreter, as a user's first call
    would run it, and without its memory counting in this process."""
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--prepare", kind,
         store_dir],
        check=True, timeout=170,
    )


# -- closed loops ----------------------------------------------------------


def closed_loop(stream, store_dir: str, seconds: float, speed,
                min_rounds: int = 1, spans=None,
                first_op: int = 0) -> tuple[list[dict], float]:
    """Run ops from ``stream`` for ``seconds``, and at least the ops of
    its first ``min_rounds`` rounds.

    Returns the op records and the seconds spent in ops.  Each record
    keeps its request, round, duration, a digest of its output, whether
    the output's 3C sums hold, the interpreter instructions its
    telemetry reports, and an error string when it raised.  ``speed``
    samples the host between ops.
    """
    from checks import attribution_sums_ok, digest
    from repro.engine.telemetry import Telemetry
    from streams import base_program

    ops: list[dict] = []
    calibrating = speed.spent_s
    started = time.perf_counter()
    deadline = started + seconds
    for round_index, request in stream:
        if round_index >= min_rounds and time.perf_counter() >= deadline:
            break
        telemetry = Telemetry()
        if spans is not None:
            spans.set_op(first_op + len(ops))
        op_start = time.perf_counter()
        try:
            output = explain(request, store_dir, telemetry)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            output, error = "", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - op_start
        if spans is not None:
            spans.set_op(None)
        name = request["workload"]
        ops.append({
            "request": request, "round": round_index, "ms": 1e3 * elapsed,
            "program": base_program(name),
            "digest": digest(output),
            "sums_ok": error is None and attribution_sums_ok(output),
            "interp": telemetry.totals()["interp_instructions"],
            "error": error,
        })
        speed.maybe_sample()
    busy = time.perf_counter() - started - (speed.spent_s - calibrating)
    return ops, busy


def cold_stream(programs):
    from streams import explain_request

    for round_index, program in programs.rounds():
        yield round_index, explain_request(
            programs.fresh(program, round_index))


def timed_setups(kind: str, workdir: str, repeats: int, then=None):
    """Run the set-up ``repeats`` times; keep the last store.

    ``then(store_dir)`` extends each set-up (the serve daemon start) and
    returns what the caller keeps; the previous one is released through
    its ``stop``.  Returns ``(store_dir, kept, set-up seconds)``.

    Set-up times are reported unscaled: they are mostly interpreter
    start-up, imports and file I/O, and over runs of identical code they
    did not follow the host-speed kernel (scaling them widened their
    spread instead of narrowing it).
    """
    setups, store_dir, kept = [], None, None
    for repeat in range(repeats):
        if kept is not None:
            kept.stop()
        if store_dir is not None:
            shutil.rmtree(store_dir)
        started = time.perf_counter()
        store_dir = os.path.join(workdir, f"store{repeat}")
        run_prepare(kind, store_dir)
        if then is not None:
            kept = then(store_dir)
        setups.append(time.perf_counter() - started)
    return store_dir, kept, setups


def run_closed(workload: str, args, workdir: str) -> dict:
    from hostspeed import HostSpeed
    from streams import ColdPrograms, warm_rounds

    cold = workload == "cold_explain"
    store_dir, _daemon, setups = timed_setups(
        "cold" if cold else "warm", workdir,
        1 if args.trace else SETUP_REPEATS)

    def stream(tag: str = ""):
        return cold_stream(ColdPrograms(args.seed, tag)) if cold \
            else warm_rounds(args.seed)

    speed = HostSpeed()
    if not args.trace:
        ops, busy = closed_loop(stream(), store_dir, args.seconds, speed,
                                TAIL_ROUNDS if cold else 1)
        peak = _peak_rss_mb()
        failed, quality = check_closed(cold, ops, store_dir, args.seed)
        return {
            "ops": ops, "failed": failed,
            "metrics": end_to_end(
                [op["ms"] for op in ops if op["error"] is None],
                _labels(ops), setups,
                len(ops) / busy / speed.factor(), speed.factor(), peak,
                quality,
            ),
        }

    from spans import SpanLog, layer_metrics

    # Both halves replay the same requests (the traced cold ops under
    # other names), so their op-time difference is the tracing cost.
    plain, _ = closed_loop(stream(), store_dir, args.seconds / 2, speed,
                           QUALITY_ROUNDS if cold else 1)
    plain_factor = speed.factor()
    speed = HostSpeed()
    log = SpanLog()
    log.install()
    try:
        traced, _ = closed_loop(stream(".t"), store_dir, args.seconds / 2,
                                speed, spans=log, first_op=len(plain))
    finally:
        log.uninstall()
    log.dump(spans_path(workload, args.seed))
    ops = plain + traced
    failed, _quality = check_closed(cold, ops, store_dir, args.seed)
    layers = scaled(layer_metrics(log.spans, len(traced)), speed.factor())
    layers.update(trace_overhead(
        [op["ms"] for op in plain], plain_factor,
        [op["ms"] for op in traced], speed.factor()))
    layers.update(
        (name, (0.0, unit)) for name, unit in SERVICE_METRICS.items())
    return {"ops": ops, "failed": failed, "metrics": layers}


def check_closed(cold: bool, ops: list[dict], store_dir: str,
                 seed: int) -> tuple[set[int], dict]:
    """Failed op indices after checks (a), (b), (c) and (e), plus the
    placement-quality metrics."""
    from checks import digest, program_checks

    failed = {i for i, op in enumerate(ops)
              if op["error"] is not None or not op["sums_ok"]}
    if cold:
        names = {
            op["request"]["workload"]: i for i, op in enumerate(ops)
            if op["round"] < QUALITY_ROUNDS and i not in failed
        }
        bad_names, quality = program_checks(store_dir, list(names))
        failed |= {names[name] for name in bad_names}
        return failed, quality

    from repro.workloads.registry import workload_names

    bad, quality = program_checks(store_dir, workload_names())
    failed |= {i for i, op in enumerate(ops)
               if op["program"] in bad or op["interp"] != 0}
    rng = random.Random(f"explainbench-uncached:{seed}")
    for i in rng.sample(range(len(ops)), min(UNCACHED_SAMPLE, len(ops))):
        if digest(explain(ops[i]["request"], None)) != ops[i]["digest"]:
            failed.add(i)
    return failed, quality


# -- served open loop ------------------------------------------------------


def run_serve(args, workdir: str) -> dict:
    from hostspeed import HostSpeed
    from served import Daemon, open_loop
    from streams import warm_rounds

    from repro.service.client import ServiceClient

    def start_daemon(store_dir: str) -> Daemon:
        daemon = Daemon(store_dir, os.path.join(workdir, "serve.log"))
        daemon.start()
        return daemon

    store_dir, daemon, setups = timed_setups(
        "warm", workdir, 1 if args.trace else SETUP_REPEATS,
        then=start_daemon)

    def requests():
        return (request for _round, request in warm_rounds(args.seed))

    window = args.seconds / 2 if args.trace else args.seconds
    speed = HostSpeed()
    try:
        plain = open_loop(daemon.url, requests(), SERVE_RATE, window, speed)
        peak = daemon.peak_rss_mb()
        scrape = ServiceClient(daemon.url).metrics()
    finally:
        daemon.stop()
    plain_factor = speed.factor()

    traced = None
    if args.trace:
        traced_daemon = Daemon(
            store_dir, os.path.join(workdir, "traced.log"),
            spans_path=spans_path("serve_explain", args.seed))
        traced_daemon.start()
        speed = HostSpeed()
        try:
            traced = open_loop(traced_daemon.url, requests(), SERVE_RATE,
                               window, speed)
        finally:
            traced_daemon.stop()

    ops = plain["ops"] + (traced["ops"] if traced else [])
    failed, quality = check_serve(ops, store_dir)
    done = [op for op in plain["ops"] if op.get("error") is None]
    if traced is None:
        # The open loop fixes the offered rate, so completions per
        # second are reported as measured, without host scaling.
        span_s = max(op["status"]["finished"] for op in done) - plain["start"]
        return {
            "ops": ops, "failed": failed,
            "metrics": end_to_end(
                [_latency_ms(op) for op in done], _labels(done), setups,
                len(done) / span_s, plain_factor, peak,
                quality,
            ),
        }

    from spans import layer_metrics, load_spans

    traced_done = [op for op in traced["ops"] if op.get("error") is None]
    layers = scaled(layer_metrics(
        load_spans(spans_path("serve_explain", args.seed)),
        len(traced_done)), speed.factor())
    layers.update(trace_overhead(
        [_latency_ms(op) for op in done], plain_factor,
        [_latency_ms(op) for op in traced_done], speed.factor()))
    layers.update(scaled(service_metrics(plain["ops"], scrape), plain_factor))
    return {"ops": ops, "failed": failed, "metrics": layers}


def _latency_ms(op: dict) -> float:
    """Due time to the ticket's ``finished`` timestamp (one host clock)."""
    return 1e3 * (op["status"]["finished"] - op["due"])


def check_serve(ops: list[dict], store_dir: str) -> tuple[set[int], dict]:
    """Failed op indices after checks (a), (b), (d) and (e)."""
    from checks import attribution_sums_ok, digest, program_checks
    from streams import base_program

    from repro.workloads.registry import workload_names

    bad, quality = program_checks(store_dir, workload_names())
    failed = set()
    expected: dict[str, str] = {}
    for i, op in enumerate(ops):
        if op.get("error") is not None:
            failed.add(i)
            continue
        request = op["request"]
        key = json.dumps(request, sort_keys=True)
        if key not in expected:
            expected[key] = digest(explain(request, store_dir))
        output = op["result"]["output"]
        totals = op["result"]["receipt"]["telemetry"]["totals"]
        if (digest(output) != expected[key]
                or totals["interp_instructions"] != 0
                or not attribution_sums_ok(output)
                or base_program(request["workload"]) in bad):
            failed.add(i)
    return failed, quality


def service_metrics(ops: list[dict], scrape: dict) -> dict:
    """Per-op service-layer numbers from status documents and /metrics."""
    done = [op for op in ops if op.get("error") is None]
    n = max(len(done), 1)

    def mean_ms(start, end) -> float:
        return 1e3 * sum(end(op) - start(op) for op in done) / n

    fsync = scrape.get("histograms", {}).get("service.journal_fsync_s", {})
    values = {
        "service.accept_ms": mean_ms(
            lambda op: op["due"], lambda op: op["status"]["created"]),
        "service.queue_wait_ms": mean_ms(
            lambda op: op["status"]["created"],
            lambda op: op["status"]["started"]),
        "service.exec_ms": mean_ms(
            lambda op: op["status"]["started"],
            lambda op: op["status"]["finished"]),
        "service.journal_fsync_ms": 1e3 * (fsync.get("sum") or 0.0) / n,
        "service.refused": float(sum(
            1 for op in ops
            if str(op.get("error", "")).startswith("refused"))),
        "service.coalesced": sum(
            1 for op in ops if op.get("coalesced")) / max(len(ops), 1),
        "service.late_ms": 1e3 * sum(
            op["sent"] - op["due"] for op in ops) / max(len(ops), 1),
    }
    return {name: (values[name], unit)
            for name, unit in SERVICE_METRICS.items()}


# -- metrics ---------------------------------------------------------------


def _labels(ops: list[dict]) -> list[str]:
    """Cost-cluster label of each op: program and geometry."""
    from streams import base_program

    return [
        f"{base_program(op['request']['workload'])}"
        f"@{op['request']['cache_bytes']}/{op['request']['block_bytes']}"
        f"/{op['request']['assoc']}"
        for op in ops
    ]


def end_to_end(durations, labels, setups, ops_per_s, factor, peak,
               quality) -> dict:
    """The seven end-to-end metrics; op durations are scaled by the
    host factor, ``ops_per_s`` comes final."""
    from streams import median, tail, tail_cluster

    tail_ms, percentile, _rank = tail(durations)
    label, below, above = tail_cluster(durations, labels)
    print(f"host factor {factor:.4f}; unscaled: op_p50_ms "
          f"{median(durations):.4f}, op_tail_ms {tail_ms:.4f}")
    print(f"op_tail_ms is p{percentile:.2f} of {len(durations)} ops; the "
          f"tail op is {label}, with {below} ops of its kind below the "
          f"rank and {above} above")
    values = {
        "setup_s": median(setups),
        "ops_per_s": ops_per_s,
        "op_p50_ms": median(durations) * factor,
        "op_tail_ms": tail_ms * factor,
        "peak_rss_mb": peak,
        "miss_ratio_2k": quality["miss_ratio_2k"],
        "code_kb": quality["code_kb"],
    }
    return {name: (values[name], UNITS[name]) for name in UNITS}


def scaled(metrics: dict, factor: float) -> dict:
    """Scale the times (and the interpreter's rate) by a host factor."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("ms", "s"):
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        out[name] = (value, unit)
    return out


def trace_overhead(plain_ms, plain_factor, traced_ms, traced_factor) -> dict:
    from streams import median

    plain = median(plain_ms) * plain_factor
    traced = median(traced_ms) * traced_factor
    return {
        "bench.untraced_op_p50_ms": (plain, "ms"),
        "bench.traced_op_p50_ms": (traced, "ms"),
        "bench.trace_overhead_ms": (traced - plain, "ms"),
        "bench.host_factor": (traced_factor, "x"),
    }


def spans_path(workload: str, seed: int) -> str:
    return os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")


def _peak_rss_mb() -> float:
    from served import peak_rss_mb

    return peak_rss_mb()


# -- entry point -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    from streams import DEFAULT_SEED

    parser = argparse.ArgumentParser(
        description="Explain-request benchmark (see module docstring).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", nargs=2, metavar=("KIND", "STORE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still stops its daemon and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"explainbench: no repro sources under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    os.makedirs(WORK, exist_ok=True)
    # Keep every store, journal and temporary file inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(WORK, "default-store")
    os.environ["TMPDIR"] = WORK
    if args.prepare:
        return prepare(*args.prepare)
    if args.workload is None:
        parser.error("--workload is required")

    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.workload == "serve_explain":
            result = run_serve(args, workdir)
        else:
            result = run_closed(args.workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(result["ops"]), len(result["failed"])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<26} {value:>14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
