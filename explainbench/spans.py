"""Span recording around the repro layers' public functions.

A traced run installs :class:`SpanLog` wrappers on the functions each
layer exposes, patched where callers look the names up (a module that
did ``from x import f`` is patched on its own binding).  A span holds
its name, start, end, parent span, op id and a count taken from the
return value (interpreter instructions, cache accesses, store hits).
Spans stay in memory until :meth:`SpanLog.dump` writes them out.

:func:`layer_metrics` turns spans into per-op, per-layer numbers using
self time: a span's duration minus the part its child spans cover.
Untraced runs install no wrappers, so end-to-end numbers carry no
tracing cost.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: ``(span name, count extractor)`` per wrapped function, by location.
#: A location is ``(module, attribute path)``; a dotted path patches a
#: method on a class.
_TARGETS = (
    ("repro.workloads.registry", "Workload.build", "workloads.build", None),
    ("repro.workloads.registry", "Workload.profiling_inputs",
     "workloads.inputs", None),
    ("repro.workloads.registry", "Workload.trace_input",
     "workloads.inputs", None),
    ("repro.interp.interpreter", "Interpreter.run", "interp.run",
     lambda result: result.instructions),
    ("repro.interp.trace", "BlockTrace.addresses", "interp.expand", None),
    ("repro.placement.pipeline", "inline_expand", "placement.inline", None),
    ("repro.placement.pipeline", "place", "placement.layout", None),
    ("repro.placement.image", "MemoryImage.build", "placement.link", None),
    ("repro.cache.vectorized", "simulate_direct_vectorized", "cache.sim",
     lambda stats: stats.accesses),
    ("repro.cache.direct", "simulate_direct", "cache.sim",
     lambda stats: stats.accesses),
    ("repro.cache.set_assoc", "simulate_set_associative", "cache.sim",
     lambda stats: stats.accesses),
    ("repro.cache.set_assoc", "simulate_fully_associative", "cache.sim",
     lambda stats: stats.accesses),
    ("repro.diagnose", "attribute", "diagnose.attribute", None),
    ("repro.diagnose.classify", "attribute", "diagnose.attribute", None),
    ("repro.diagnose.classify", "fully_associative_miss_positions",
     "diagnose.shadow", None),
    ("repro.diagnose.explain", "explain_with_runner", "diagnose.explain",
     None),
    ("repro.engine.store", "ArtifactStore.get", "engine.store_get",
     lambda payload: int(payload is not None)),
    ("repro.engine.store", "ArtifactStore.put", "engine.store_put", None),
    ("repro.engine.scheduler", "run_jobs", "engine.sched", None),
    ("repro.engine.scheduler", "execute_job", "engine.sched", None),
    ("repro.experiments.runner", "ExperimentRunner.artifacts",
     "engine.artifacts", None),
)

#: Per-layer metric -> (unit, how it is computed from the spans).
#: ``self:<span>`` is self time in ms per op, ``calls:<span>`` calls per
#: op, ``count:<span>`` the summed return-value count per op (in
#: millions for an ``M`` unit), ``misses:<span>`` calls that returned a
#: zero count per op, and ``rate:<span>`` count per second of self time.
LAYER_METRICS = {
    "interp.run_ms": ("ms", "self:interp.run"),
    "interp.runs": ("count", "calls:interp.run"),
    "interp.minsn": ("Minsn", "count:interp.run"),
    "interp.minsn_per_s": ("Minsn/s", "rate:interp.run"),
    "interp.expand_ms": ("ms", "self:interp.expand"),
    "workloads.build_ms": ("ms", "self:workloads.build"),
    "workloads.inputs_ms": ("ms", "self:workloads.inputs"),
    "placement.inline_ms": ("ms", "self:placement.inline"),
    "placement.layout_ms": ("ms", "self:placement.layout"),
    "placement.link_ms": ("ms", "self:placement.link"),
    "cache.sim_ms": ("ms", "self:cache.sim"),
    "cache.maccesses": ("Maccesses", "count:cache.sim"),
    "diagnose.attribute_ms": ("ms", "self:diagnose.attribute"),
    "diagnose.shadow_ms": ("ms", "self:diagnose.shadow"),
    "diagnose.explain_ms": ("ms", "self:diagnose.explain"),
    "engine.store_get_ms": ("ms", "self:engine.store_get"),
    "engine.store_hits": ("count", "count:engine.store_get"),
    "engine.store_misses": ("count", "misses:engine.store_get"),
    "engine.store_put_ms": ("ms", "self:engine.store_put"),
    "engine.artifacts_ms": ("ms", "self:engine.artifacts"),
    "engine.sched_ms": ("ms", "self:engine.sched"),
}


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class SpanLog:
    """In-memory spans from every thread; one span stack per thread."""

    def __init__(self) -> None:
        # name, start, end, parent index, op id, count
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def set_op(self, op_id) -> None:
        """Stamp spans this thread opens from now on with ``op_id``."""
        self._local.op = op_id

    def _wrap(self, name: str, fn, count):
        spans = self.spans
        local = self._local
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1,
                    getattr(local, "op", None), 0]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, name, count in _TARGETS:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__, count))
            else:
                patched = self._wrap(name, raw, count)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "op", "count")
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                record = dict(zip(fields, span))
                record["id"] = index
                handle.write(json.dumps(record) + "\n")


def load_spans(path: str) -> list[list]:
    """Read a :meth:`SpanLog.dump` file back into span rows."""
    rows = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            rows.append([record["name"], record["start"], record["end"],
                         record["parent"], record["op"], record["count"]])
    return rows


def layer_metrics(spans: list[list], ops: int) -> dict[str, tuple]:
    """Per-op layer numbers: ``{metric: (value, unit)}``.

    A count from a span nested in a span of the same name (the fully
    associative simulator calling the set-associative one) is counted
    once, at the outer span.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    for index, span in enumerate(spans):
        name = span[0]
        self_s[name] = self_s.get(name, 0.0) + (
            span[2] - span[1] - child_s[index])
        nested = span[3] >= 0 and spans[span[3]][0] == name
        if not nested:
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + span[5]
    ops = max(ops, 1)
    metrics = {}
    for metric, (unit, rule) in LAYER_METRICS.items():
        kind, name = rule.split(":")
        if kind == "self":
            value = 1e3 * self_s.get(name, 0.0) / ops
        elif kind == "calls":
            value = calls.get(name, 0) / ops
        elif kind == "misses":
            value = (calls.get(name, 0) - counts.get(name, 0)) / ops
        elif kind == "rate":
            busy = self_s.get(name, 0.0)
            value = counts.get(name, 0) / busy / 1e6 if busy else 0.0
        else:
            value = counts.get(name, 0) / ops
            if unit.startswith("M"):
                value /= 1e6
        metrics[metric] = (value, unit)
    return metrics
