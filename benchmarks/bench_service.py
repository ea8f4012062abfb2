"""Benchmark of the experiment service: cold vs. warm, 1/4/16 clients.

Starts one in-process daemon on an ephemeral port, then drives it with
the stdlib load-test harness at three concurrency levels over a mix of
table and explain requests.  The cold phase (empty store) pays for
interpretation; warm phases replay everything from the content-addressed
store, so their latencies measure the service path itself (HTTP + queue
+ hydrate).  Identical concurrent requests coalesce onto one in-flight
execution, and the measured hit rate of that dedup lands in the output.

The rendered comparison goes to ``results/service.txt`` and the raw
numbers to ``BENCH_service.json`` at the repo root, which the benchmark
trajectory graphs across commits.
"""

from __future__ import annotations

import os
import tempfile
import time

from benchmarks.conftest import _BENCH_OBS, emit_bench, record_runner
from repro.experiments.report import render_table
from repro.service import ExperimentService
from repro.service.client import ServiceClient, load_test

SCALE = "small"
CLIENT_LEVELS = (1, 4, 16)
#: Mixed traffic: tables (multi-workload DAGs) + explains (single
#: workload, diagnose-heavy).  Sixteen requests covers the 16-client run.
REQUESTS = (
    [{"kind": "table", "table": name, "scale": SCALE}
     for name in ("table4", "table6", "table7", "table8")] * 2
    + [{"kind": "explain", "workload": name, "scale": SCALE, "top": 5}
       for name in ("wc", "cmp", "grep", "tee")] * 2
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _phase(url: str, clients: int) -> dict:
    outcome = load_test(url, list(REQUESTS), clients=clients, timeout=600.0)
    assert outcome["failed"] == 0, outcome["errors"]
    return outcome


def test_service_cold_warm_concurrency(benchmark):
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as root:
        service = ExperimentService(
            port=0, cache_dir=os.path.join(root, "cache"),
            workers=4, queue_depth=64,
        )
        service.start()
        try:
            # Cold: first contact, empty store, 16 concurrent clients —
            # the acceptance scenario (mixed traffic, zero failures).
            cold = benchmark.pedantic(
                _phase, args=(service.url, 16), rounds=1, iterations=1,
            )
            warm = {
                clients: _phase(service.url, clients)
                for clients in CLIENT_LEVELS
            }
            metrics = ExperimentServiceMetrics(service)
        finally:
            drained = service.shutdown(timeout=30.0)
        assert drained

    rows = [
        [
            label,
            clients,
            outcome["requests"],
            f"{outcome['wall_s']:.2f}s",
            f"{outcome['latency_s']['p50'] * 1000:.0f}ms",
            f"{outcome['latency_s']['p99'] * 1000:.0f}ms",
            outcome["coalesced"],
            outcome["store_hits"],
            outcome["store_misses"],
        ]
        for label, clients, outcome in (
            [("cold", 16, cold)]
            + [(f"warm", clients, warm[clients])
               for clients in CLIENT_LEVELS]
        )
    ]
    text = render_table(
        f"Experiment service: {len(REQUESTS)} mixed table/explain "
        f"requests ({SCALE} scale, 4 workers)",
        ["phase", "clients", "requests", "wall", "p50", "p99",
         "coalesced", "store hits", "store misses"],
        rows,
        note=(
            "cold pays for interpretation once; warm runs replay from "
            "the content-addressed store, so p50/p99 measure the "
            "service path itself.  Identical concurrent requests "
            "coalesce onto one in-flight execution."
        ),
    )
    document = {
        "scale": SCALE,
        "requests": len(REQUESTS),
        "workers": 4,
        "cold": _doc(cold),
        "warm": {str(clients): _doc(warm[clients])
                 for clients in CLIENT_LEVELS},
        "coalescing_hit_rate": metrics.coalescing_hit_rate,
        "daemon_counters": metrics.counters,
    }
    emit_bench("service", text=text, snapshot=document)

    # The daemon IS this bench's execution engine — feed its counters
    # into BENCH_observability.json so a service-only bench selection
    # still emits real runner numbers (they used to come out empty).
    record_runner(
        counters=metrics.counters,
        totals={
            "jobs": metrics.counters.get("service.completed", 0),
            "store_hits": metrics.counters.get("store_hits", 0),
            "store_misses": metrics.counters.get("store_misses", 0),
        },
    )
    assert metrics.counters, "daemon registry produced no counters"
    assert _BENCH_OBS["runner_counters"], "runner_counters came out empty"
    assert _BENCH_OBS["runner_totals"], "runner_totals came out empty"

    # Acceptance: 16 concurrent clients, zero failures, and the warm
    # 16-client run must be store-served (no recomputation).
    assert cold["ok"] == len(REQUESTS) and cold["failed"] == 0
    for clients in CLIENT_LEVELS:
        assert warm[clients]["failed"] == 0
    assert warm[16]["store_misses"] == 0
    assert warm[16]["store_hits"] > 0


#: Journal-overhead acceptance: warm-accept p50 with the journal on may
#: exceed the journal-off p50 by at most 10% plus this absolute slack.
#: The slack absorbs fsync jitter on shared CI disks — a single fsync
#: costs a low single-digit number of milliseconds there, which would
#: dwarf a pure-relative bound on a sub-millisecond accept path.
JOURNAL_OVERHEAD_EPSILON_S = 0.005
ACCEPT_SAMPLES = 80


def _accept_latencies(url: str, samples: int = ACCEPT_SAMPLES) -> list[float]:
    """Sequential submit round-trip times against a warm daemon."""
    client = ServiceClient(url, timeout=60.0)
    latencies = []
    for index in range(samples):
        request = {"kind": "explain", "workload": "wc", "scale": SCALE,
                   "top": 1 + index % 5}
        started = time.perf_counter()
        client.submit(request)
        latencies.append(time.perf_counter() - started)
    return latencies


def _accept_phase(root: str, journal: bool) -> dict:
    """One daemon (journal on or off), warm store, measured accepts."""
    label = "on" if journal else "off"
    service = ExperimentService(
        port=0, cache_dir=os.path.join(root, f"cache-{label}"),
        workers=4, queue_depth=256,
        journal_dir=os.path.join(root, f"journal-{label}")
        if journal else None,
    )
    service.start()
    try:
        # Warm-up: populate the store and settle imports so the
        # measured accepts see identical downstream work in both modes.
        client = ServiceClient(service.url, timeout=120.0)
        for top in range(1, 6):
            client.run({"kind": "explain", "workload": "wc",
                        "scale": SCALE, "top": top}, timeout=120.0)
        latencies = sorted(_accept_latencies(service.url))
        counters = service.registry.counter_values()
    finally:
        assert service.shutdown(timeout=60.0)

    # The daemon is this bench's engine too: feed its counters so a
    # journal-only selection still emits real runner numbers.
    record_runner(
        counters=counters,
        totals={"jobs": counters.get("service.completed", 0)},
    )

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "samples": len(latencies),
        "p50_s": pct(0.50),
        "p99_s": pct(0.99),
        "mean_s": sum(latencies) / len(latencies),
        "max_s": latencies[-1],
    }


def test_journal_accept_overhead():
    """Accept latency with the write-ahead journal on vs. off.

    Every accepted submission pays one fsync'd journal append before
    its 202 — the durability cost of crash-safety.  This pins that
    cost: warm-accept p50 with the journal on must stay within 10% of
    journal-off plus a small absolute slack for fsync jitter.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as root:
        off = _accept_phase(root, journal=False)
        on = _accept_phase(root, journal=True)

    overhead = (on["p50_s"] - off["p50_s"]) / off["p50_s"] if off["p50_s"] \
        else 0.0
    text = render_table(
        f"Journal overhead: {ACCEPT_SAMPLES} warm accepts "
        f"({SCALE} scale, 4 workers)",
        ["journal", "samples", "p50", "p99", "mean", "max"],
        [
            [label, doc["samples"],
             f"{doc['p50_s'] * 1000:.2f}ms", f"{doc['p99_s'] * 1000:.2f}ms",
             f"{doc['mean_s'] * 1000:.2f}ms", f"{doc['max_s'] * 1000:.2f}ms"]
            for label, doc in (("off", off), ("on", on))
        ],
        note=(
            "each journal-on accept pays one fsync'd append before the "
            "202; the gate holds that durability tax to 10% of the "
            "journal-off p50 plus "
            f"{JOURNAL_OVERHEAD_EPSILON_S * 1000:.0f}ms fsync slack."
        ),
    )
    emit_bench("service_journal", text=text, snapshot_name="service",
               snapshot={
                   "journal_overhead": {
                       "journal_off": off,
                       "journal_on": on,
                       "p50_overhead_frac": overhead,
                       "epsilon_s": JOURNAL_OVERHEAD_EPSILON_S,
                   },
               })

    # Acceptance: the durability tax on the warm accept path stays
    # under 10%, modulo the absolute fsync slack.
    budget = off["p50_s"] * 1.10 + JOURNAL_OVERHEAD_EPSILON_S
    assert on["p50_s"] <= budget, (
        f"journal-on accept p50 {on['p50_s'] * 1000:.2f}ms exceeds "
        f"journal-off p50 {off['p50_s'] * 1000:.2f}ms + 10% + "
        f"{JOURNAL_OVERHEAD_EPSILON_S * 1000:.0f}ms slack"
    )


#: Tracing/logging-overhead acceptance: warm-accept p50 with tracing,
#: structured logging, and a client trace header all on may exceed the
#: everything-off p50 by at most 10% plus this absolute slack (disk
#: jitter on the log append and trace-dir dump, same rationale as the
#: journal slack above).
TRACING_OVERHEAD_EPSILON_S = 0.005


def _observed_accept_phase(root: str, observed: bool) -> tuple[dict, dict]:
    """One daemon (tracing+logging on or off), warm store, measured accepts.

    The ``on`` phase runs with ``--trace-dir`` and ``--log-dir`` wired
    and every measured submit carrying an ``X-Repro-Trace`` header —
    the full observability tax.  The ``off`` phase is the zero-overhead
    baseline (no sink attached anywhere).  Both run journaled, each on
    its own journal directory, as ``repro serve`` does by default: the
    fsync tax (pinned by :func:`test_journal_accept_overhead`) lands on
    both sides of this comparison, and the observed daemon's snapshot
    carries ``service.journal_fsync_s`` for the ``journal-fsync-p99``
    objective.  Returns ``(latency_doc, metrics_snapshot)``.
    """
    label = "on" if observed else "off"
    extras = {}
    if observed:
        extras = {
            "trace_dir": os.path.join(root, "traces"),
            "log_dir": os.path.join(root, "logs"),
        }
    service = ExperimentService(
        port=0, cache_dir=os.path.join(root, f"cache-{label}"),
        workers=4, queue_depth=256,
        journal_dir=os.path.join(root, f"journal-{label}"), **extras,
    )
    service.start()
    try:
        # Warm-up: populate the store and settle imports so the measured
        # accepts see identical downstream work in both modes.
        client = ServiceClient(service.url, timeout=120.0)
        for top in range(1, 6):
            client.run({"kind": "explain", "workload": "wc",
                        "scale": SCALE, "top": top}, timeout=120.0)
        latencies = []
        for index in range(ACCEPT_SAMPLES):
            request = {"kind": "explain", "workload": "wc", "scale": SCALE,
                       "top": 1 + index % 5}
            trace = f"{index:032x}" if observed else None
            started = time.perf_counter()
            client.submit(request, trace=trace)
            latencies.append(time.perf_counter() - started)
        latencies.sort()
        snapshot = client.metrics()
    finally:
        assert service.shutdown(timeout=60.0)

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "samples": len(latencies),
        "p50_s": pct(0.50),
        "p99_s": pct(0.99),
        "mean_s": sum(latencies) / len(latencies),
        "max_s": latencies[-1],
    }, snapshot


def test_tracing_overhead_and_slo():
    """End-to-end observability tax and the service SLO gate.

    Tracing + structured logging + a client trace header must cost the
    warm accept path under 10% at p50 (plus absolute disk slack) versus
    the no-sink baseline — observability that taxes the hot path gets
    turned off in production, which is worse than not having it.  The
    observed daemon's final metrics snapshot is then checked against
    ``SLO_service.json``; any violated objective fails the bench, which
    is the regression exit code CI keys off.
    """
    from repro.obs.slo import evaluate_slo, load_slo, render_results

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as root:
        off, _ = _observed_accept_phase(root, observed=False)
        on, snapshot = _observed_accept_phase(root, observed=True)

    overhead = (on["p50_s"] - off["p50_s"]) / off["p50_s"] if off["p50_s"] \
        else 0.0
    text = render_table(
        f"Tracing+logging overhead: {ACCEPT_SAMPLES} warm traced accepts "
        f"({SCALE} scale, 4 workers)",
        ["observability", "samples", "p50", "p99", "mean", "max"],
        [
            [label, doc["samples"],
             f"{doc['p50_s'] * 1000:.2f}ms", f"{doc['p99_s'] * 1000:.2f}ms",
             f"{doc['mean_s'] * 1000:.2f}ms", f"{doc['max_s'] * 1000:.2f}ms"]
            for label, doc in (("off", off), ("on", on))
        ],
        note=(
            "the on row pays trace-id stamping, the structured log "
            "append, and the per-request trace-dir dump; the gate holds "
            "that to 10% of the no-sink p50 plus "
            f"{TRACING_OVERHEAD_EPSILON_S * 1000:.0f}ms disk slack."
        ),
    )
    slo = load_slo(os.path.join(_REPO_ROOT, "SLO_service.json"))
    results = evaluate_slo(snapshot, slo=slo)
    print("\n" + render_results(results))
    emit_bench("service_tracing", text=text, snapshot_name="service",
               snapshot={
                   "tracing_overhead": {
                       "observability_off": off,
                       "observability_on": on,
                       "p50_overhead_frac": overhead,
                       "epsilon_s": TRACING_OVERHEAD_EPSILON_S,
                   },
                   "slo": {
                       "file": "SLO_service.json",
                       "results": results,
                   },
               })

    # Feed the observed daemon's counters into the runner sections so
    # this selection never writes them out empty.
    record_runner(counters={
        name: value
        for name, value in (snapshot.get("counters") or {}).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    })

    # Acceptance: the observability tax on the warm accept path stays
    # under 10% at p50, modulo the absolute disk slack...
    budget = off["p50_s"] * 1.10 + TRACING_OVERHEAD_EPSILON_S
    assert on["p50_s"] <= budget, (
        f"observed accept p50 {on['p50_s'] * 1000:.2f}ms exceeds no-sink "
        f"p50 {off['p50_s'] * 1000:.2f}ms + 10% + "
        f"{TRACING_OVERHEAD_EPSILON_S * 1000:.0f}ms slack"
    )
    # ...and the observed run meets every service-level objective.
    violated = [r for r in results if r["status"] == "fail"]
    assert not violated, "SLO violations:\n" + render_results(results)


class ExperimentServiceMetrics:
    """Snapshot the daemon-side numbers before shutdown tears them down."""

    def __init__(self, service: ExperimentService) -> None:
        self.counters = service.registry.counter_values()
        requests = self.counters.get("service.requests", 0)
        coalesced = self.counters.get("service.coalesced", 0)
        submissions = requests + coalesced
        #: Fraction of submissions absorbed by an in-flight ticket.
        self.coalescing_hit_rate = (
            coalesced / submissions if submissions else 0.0
        )


def _doc(outcome: dict) -> dict:
    return {
        "clients": outcome["clients"],
        "ok": outcome["ok"],
        "failed": outcome["failed"],
        "wall_s": outcome["wall_s"],
        "latency_s": outcome["latency_s"],
        "coalesced": outcome["coalesced"],
        "store_hits": outcome["store_hits"],
        "store_misses": outcome["store_misses"],
    }
