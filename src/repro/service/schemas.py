"""Request schemas: what a client may POST and how it normalizes.

A request is a flat JSON object with a ``kind`` plus kind-specific
fields.  Normalization validates every field against the layers that
will consume it — table names against :data:`repro.engine.jobs
.ALL_TABLE_NAMES`, workloads against the registry, tune axes and
strategies against :mod:`repro.search`, explain layouts against the
diagnose layer — and fills in the same defaults the CLI uses, so a
minimal request and its fully-spelled-out equivalent are the *same*
request.

That sameness is load-bearing: :func:`request_fingerprint` hashes the
normalized form (plus the engine's code version), and the submission
queue coalesces concurrent requests by that fingerprint — two clients
asking for ``table6`` at small scale share one in-flight computation
no matter how they spelled the request.

Supported kinds
---------------

``table``   ``{"kind": "table", "table": "table6", "scale": "small",
            "opt": "none"}``
``explain`` ``{"kind": "explain", "workload": "wc", "cache_bytes": …,
            "block_bytes": …, "assoc": …, "layout": …, "baseline": …,
            "top": …, "scale": …, "opt": …}``
``tune``    ``{"kind": "tune", "strategy": "random", "budget": 6,
            "seed": 0, "scale": "small", "workloads": [...],
            "axes": [...]}``
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "REQUEST_KINDS",
    "RequestError",
    "normalize_request",
    "normalize_trace",
    "request_fingerprint",
]

REQUEST_KINDS = ("table", "tune", "explain")

_SCALES = ("default", "small")

#: Explain layout choices, mirroring the ``repro explain`` CLI.
_EXPLAIN_LAYOUTS = (
    "optimized", "natural", "random", "conflict_aware", "pettis_hansen",
)

#: Hard ceiling on a tune request's trial budget: one request must not
#: be able to monopolize the daemon for hours.
MAX_TUNE_BUDGET = 64


class RequestError(ValueError):
    """A request that failed validation (HTTP 400)."""


def _require_int(doc: dict, field: str, default: int,
                 low: int, high: int) -> int:
    value = doc.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise RequestError(
            f"{field} must be between {low} and {high}, got {value}"
        )
    return value


def _require_choice(doc: dict, field: str, choices, default) -> str:
    value = doc.get(field, default)
    if value not in choices:
        raise RequestError(
            f"{field} must be one of {', '.join(choices)}, got {value!r}"
        )
    return value


def normalize_request(doc: object) -> dict:
    """Validate a raw request document; return its canonical form.

    The canonical form has every field present, defaulted exactly like
    the CLI, with deterministic key order — ready for
    :func:`request_fingerprint`.  Raises :class:`RequestError` with a
    client-actionable message on any invalid field.
    """
    if not isinstance(doc, dict):
        raise RequestError("request body must be a JSON object")
    kind = doc.get("kind")
    if kind not in REQUEST_KINDS:
        raise RequestError(
            f"kind must be one of {', '.join(REQUEST_KINDS)}, got {kind!r}"
        )
    if kind == "table":
        return _normalize_table(doc)
    if kind == "explain":
        return _normalize_explain(doc)
    return _normalize_tune(doc)


def _normalize_opt(doc: dict) -> str:
    """Canonicalize a middle-end pass spec field (default: ``"none"``)."""
    from repro.opt import OptOptions

    value = doc.get("opt", "none")
    if not isinstance(value, str):
        raise RequestError(f"opt must be a pass spec string, got {value!r}")
    try:
        return OptOptions.parse(value).spec
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


def _normalize_table(doc: dict) -> dict:
    from repro.engine.jobs import ALL_TABLE_NAMES

    table = _require_choice(doc, "table", ALL_TABLE_NAMES, None)
    scale = _require_choice(doc, "scale", _SCALES, "default")
    return {
        "kind": "table", "table": table, "scale": scale,
        "opt": _normalize_opt(doc),
    }


def _normalize_explain(doc: dict) -> dict:
    from repro.cache.base import cache_sets
    from repro.workloads.registry import workload_names

    workload = doc.get("workload")
    if workload not in workload_names():
        raise RequestError(
            f"unknown workload {workload!r}; "
            f"known: {', '.join(workload_names())}"
        )
    scale = _require_choice(doc, "scale", _SCALES, "small")
    layout = _require_choice(doc, "layout", _EXPLAIN_LAYOUTS, "optimized")
    baseline = _require_choice(doc, "baseline", _EXPLAIN_LAYOUTS, "natural")
    cache_bytes = _require_int(doc, "cache_bytes", 2048, 64, 1 << 24)
    block_bytes = _require_int(doc, "block_bytes", 64, 4, 4096)
    assoc = _require_int(doc, "assoc", 1, 1, 64)
    try:
        cache_sets(cache_bytes, block_bytes, assoc)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    return {
        "kind": "explain",
        "workload": workload,
        "scale": scale,
        "cache_bytes": cache_bytes,
        "block_bytes": block_bytes,
        "assoc": assoc,
        "layout": layout,
        "baseline": baseline,
        "top": _require_int(doc, "top", 10, 1, 100),
        "opt": _normalize_opt(doc),
    }


def _normalize_tune(doc: dict) -> dict:
    from repro.search import STRATEGY_NAMES, default_space
    from repro.workloads.registry import workload_names

    strategy = _require_choice(doc, "strategy", STRATEGY_NAMES, "random")
    scale = _require_choice(doc, "scale", _SCALES, "small")
    budget = _require_int(doc, "budget", 12, 1, MAX_TUNE_BUDGET)
    seed = _require_int(doc, "seed", 0, 0, 2**31 - 1)

    workloads = doc.get("workloads")
    if workloads is None:
        workloads = list(workload_names())
    if (not isinstance(workloads, list) or not workloads
            or len(set(workloads)) != len(workloads)):
        raise RequestError("workloads must be a non-empty list of "
                           "distinct workload names")
    unknown = [name for name in workloads if name not in workload_names()]
    if unknown:
        raise RequestError(
            f"unknown workloads {unknown!r}; "
            f"known: {', '.join(workload_names())}"
        )

    space = default_space()
    axes = doc.get("axes")
    if axes is None:
        axes = list(space.names)
    if not isinstance(axes, list) or not axes:
        raise RequestError("axes must be a non-empty list of axis names")
    try:
        space.restrict(axes)
    except KeyError as exc:
        raise RequestError(str(exc.args[0])) from exc

    return {
        "kind": "tune",
        "strategy": strategy,
        "budget": budget,
        "seed": seed,
        "scale": scale,
        "workloads": sorted(workloads),
        "axes": [name for name in space.names if name in axes],
    }


def normalize_trace(header: str | None) -> str | None:
    """Validate an ``X-Repro-Trace`` header; return its trace id.

    ``None`` (no header) passes through: the daemon mints a trace id of
    its own.  The trace id is deliberately *not* part of
    :func:`request_fingerprint` — two traced clients asking for the
    same computation still coalesce onto one ticket; the ticket keeps
    the first requester's trace and every response reports which trace
    actually ran.
    """
    if header is None or not header.strip():
        return None
    from repro.obs import TraceContext

    try:
        return TraceContext.from_header(header).trace_id
    except ValueError as exc:
        raise RequestError(f"invalid X-Repro-Trace header: {exc}") from exc


def request_fingerprint(normalized: dict) -> str:
    """The coalescing key: canonical request JSON + engine code version.

    Including the code version means a daemon restarted onto new code
    never serves a stale coalesced result for an old request shape, for
    exactly the reason the artifact store keys on it.
    """
    from repro.engine.store import code_version

    payload = json.dumps(normalized, sort_keys=True)
    return hashlib.sha256(
        f"{payload}\0{code_version()}".encode()
    ).hexdigest()[:24]
