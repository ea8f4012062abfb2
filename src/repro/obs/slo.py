"""Declarative service-level objectives checked against metrics.

An SLO file is JSON::

    {
      "slo": "repro-slo-v1",
      "objectives": [
        {"name": "warm-latency-p99", "metric": "service.latency_s",
         "stat": "p99", "max": 2.0},
        {"name": "error-rate", "ratio": {
            "num": ["service.failed"],
            "den": ["service.completed", "service.failed"]},
         "max": 0.01},
        {"name": "store-hit-rate", "ratio": {
            "num": ["store_hits"],
            "den": ["store_hits", "store_misses"]},
         "min": 0.5}
      ]
    }

Two objective shapes:

* ``metric`` — a histogram statistic (``stat`` one of count/sum/min/
  max/mean/p50/p90/p99) or, with no ``stat``, a counter/gauge value.
* ``ratio`` — numerator counters over denominator counters, the shape
  of error rates and hit rates.

Trends over the perf ledger's history are gated by ``repro perf
check``, not here.

Each objective bounds its value with ``max`` and/or ``min``; a field
other than ``name``, ``metric``, ``stat``, ``ratio``, ``max``, ``min``
and ``required`` fails validation.  A metric absent from the document
is a *warning*, not a violation, unless the objective sets
``"required": true`` — old run files predate some metrics and must
stay checkable.

:func:`evaluate_slo` accepts either a bare metrics snapshot
(``/metrics`` JSON: counters/gauges/histograms) or a full run document
(``Recorder.load_jsonl``: meta/records/metrics) — the shape the
``repro slo check RUN.jsonl`` command reads.
"""

from __future__ import annotations

import json

__all__ = [
    "DEFAULT_SLO",
    "SloError",
    "evaluate_slo",
    "load_slo",
    "render_results",
]

SLO_FORMAT = "repro-slo-v1"

_STATS = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99")

_FIELDS = {"name", "metric", "stat", "ratio", "max", "min", "required"}

#: Objectives applied when no SLO file is given: the service stays
#: responsive, requests succeed, and the result store actually caches.
DEFAULT_SLO = {
    "slo": SLO_FORMAT,
    "objectives": [
        {
            "name": "request-latency-p99",
            "metric": "service.latency_s",
            "stat": "p99",
            "max": 30.0,
        },
        {
            "name": "error-rate",
            "ratio": {
                "num": ["service.failed"],
                "den": ["service.completed", "service.failed"],
            },
            "max": 0.05,
        },
        {
            "name": "store-hit-rate",
            "ratio": {
                "num": ["store_hits"],
                "den": ["store_hits", "store_misses"],
            },
            "min": 0.25,
        },
    ],
}


class SloError(Exception):
    """A malformed SLO file or objective."""


def load_slo(path: str) -> dict:
    """Read and validate an SLO file."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SloError(f"cannot read SLO file {path}: {error}") from error
    return _validate(document)


def _validate(document: dict) -> dict:
    if not isinstance(document, dict):
        raise SloError("SLO document must be a JSON object")
    if document.get("slo") != SLO_FORMAT:
        raise SloError(f'SLO document must declare "slo": "{SLO_FORMAT}"')
    objectives = document.get("objectives")
    if not isinstance(objectives, list) or not objectives:
        raise SloError("SLO document needs a non-empty objectives list")
    for objective in objectives:
        if not isinstance(objective, dict) or "name" not in objective:
            raise SloError("every objective needs a name")
        name = objective["name"]
        unknown = sorted(set(objective) - _FIELDS)
        if unknown:
            raise SloError(
                f"objective {name}: unknown field(s) {', '.join(unknown)}"
            )
        has_metric = "metric" in objective
        has_ratio = "ratio" in objective
        if has_metric == has_ratio:
            raise SloError(
                f"objective {name}: exactly one of metric/ratio required"
            )
        if has_metric and "stat" in objective:
            if objective["stat"] not in _STATS:
                raise SloError(
                    f"objective {name}: stat must be one of {_STATS}"
                )
        if has_ratio:
            ratio = objective["ratio"]
            if (
                not isinstance(ratio, dict)
                or not ratio.get("num")
                or not ratio.get("den")
            ):
                raise SloError(
                    f"objective {name}: ratio needs num and den counter lists"
                )
        if "max" not in objective and "min" not in objective:
            raise SloError(f"objective {name}: needs a max and/or min bound")
    return document


def _as_metrics(document: dict) -> dict:
    """Accept a /metrics snapshot or a full run document."""
    if "metrics" in document and "histograms" not in document:
        metrics = dict(document.get("metrics") or {})
        # Run files carry engine totals (store hits/misses, instruction
        # counts) in meta rather than as counters; fold them in so
        # ratio objectives see them.
        totals = (document.get("meta") or {}).get("telemetry_totals") or {}
        counters = dict(metrics.get("counters") or {})
        for name, value in totals.items():
            if isinstance(value, (int, float)) and name not in counters:
                counters[name] = value
        metrics["counters"] = counters
        return metrics
    return document


def _lookup(metrics: dict, objective: dict):
    """(value, note) — value None when the metric is absent."""
    if "ratio" in objective:
        counters = metrics.get("counters") or {}
        ratio = objective["ratio"]
        num = [counters[n] for n in ratio["num"] if n in counters]
        den = [counters[n] for n in ratio["den"] if n in counters]
        if not den:
            missing = [n for n in ratio["den"] if n not in counters]
            return None, f"counters absent: {', '.join(missing)}"
        total = sum(den)
        if total == 0:
            return None, "denominator is zero (no traffic)"
        return sum(num) / total, None
    name = objective["metric"]
    stat = objective.get("stat")
    if stat is None:
        for section in ("counters", "gauges"):
            values = metrics.get(section) or {}
            if name in values:
                return values[name], None
        return None, f"no counter/gauge named {name}"
    summary = (metrics.get("histograms") or {}).get(name)
    if summary is None:
        return None, f"no histogram named {name}"
    value = summary.get(stat)
    if value is None:
        return None, f"histogram {name} has no {stat}"
    return value, None


def evaluate_slo(document: dict, slo: dict | None = None) -> list[dict]:
    """Check every objective; returns one result dict per objective.

    Each result carries ``name``, ``status`` ("pass", "fail", or
    "skipped"), the observed ``value``, the violated or satisfied
    ``bound`` description, and a ``note`` for skips.
    """
    slo = _validate(dict(slo) if slo else DEFAULT_SLO)
    metrics = _as_metrics(document)
    results = []
    for objective in slo["objectives"]:
        value, note = _lookup(metrics, objective)
        if value is None:
            status = "fail" if objective.get("required") else "skipped"
            results.append({
                "name": objective["name"],
                "status": status,
                "value": None,
                "bound": _bound_text(objective),
                "note": note,
            })
            continue
        failed = []
        if "max" in objective and value > objective["max"]:
            failed.append(f"> max {objective['max']}")
        if "min" in objective and value < objective["min"]:
            failed.append(f"< min {objective['min']}")
        results.append({
            "name": objective["name"],
            "status": "fail" if failed else "pass",
            "value": value,
            "bound": "; ".join(failed) if failed else _bound_text(objective),
            "note": None,
        })
    return results


def _bound_text(objective: dict) -> str:
    parts = []
    if "max" in objective:
        parts.append(f"max {objective['max']}")
    if "min" in objective:
        parts.append(f"min {objective['min']}")
    return ", ".join(parts)


def render_results(results: list[dict]) -> str:
    """Human-readable one-line-per-objective report."""
    lines = []
    for result in results:
        marker = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[
            result["status"]
        ]
        value = result["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"{marker}  {result['name']}: {shown} ({result['bound']})"
        if result["note"]:
            line += f" — {result['note']}"
        lines.append(line)
    failed = sum(1 for r in results if r["status"] == "fail")
    skipped = sum(1 for r in results if r["status"] == "skipped")
    lines.append(
        f"{len(results)} objectives: "
        f"{len(results) - failed - skipped} passed, "
        f"{failed} failed, {skipped} skipped"
    )
    return "\n".join(lines)
