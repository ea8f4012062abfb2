"""Common result types and helpers of the cache simulators.

Metric definitions are pinned by the paper's own numbers (see DESIGN.md):

* **miss ratio** — misses / instruction accesses (one access per 4-byte
  instruction fetch);
* **memory traffic ratio** — 4-byte bus words transferred from memory /
  instruction accesses.  A 2K-byte cache with 64-byte blocks at the
  paper's average 0.5% miss ratio transfers 16 words per miss, giving the
  abstract's 8% traffic ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import diagnose, obs

__all__ = [
    "CacheStats",
    "cache_sets",
    "emit_cache_sim",
    "new_probe",
    "require_power_of_two",
    "top_sets",
    "BUS_WORD_BYTES",
]

#: Width of the memory bus in bytes (paper Section 4.2.1: "a 4-byte
#: memory bus").
BUS_WORD_BYTES = 4


@dataclass(frozen=True)
class CacheStats:
    """Outcome of simulating one address trace through one cache."""

    accesses: int
    misses: int
    words_transferred: int
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def miss_ratio(self) -> float:
        """Misses per instruction access."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def traffic_ratio(self) -> float:
        """Memory bus words transferred per instruction access."""
        return self.words_transferred / self.accesses if self.accesses else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.accesses} accesses, {self.misses} misses "
            f"(miss {100 * self.miss_ratio:.2f}%, "
            f"traffic {100 * self.traffic_ratio:.2f}%)"
        )


def require_power_of_two(value: int, name: str) -> int:
    """Validate a cache geometry parameter."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


def cache_sets(cache_bytes: int, block_bytes: int, assoc: int) -> int:
    """Validate an LRU cache geometry and return its number of sets.

    Sizes must be powers of two, a block must fit in the cache, and
    ``assoc`` must divide the block count (1 is direct-mapped, the
    block count fully associative).
    """
    require_power_of_two(cache_bytes, "cache_bytes")
    require_power_of_two(block_bytes, "block_bytes")
    if block_bytes > cache_bytes:
        raise ValueError(
            f"block_bytes {block_bytes} exceeds cache_bytes {cache_bytes}"
        )
    num_blocks = cache_bytes // block_bytes
    if assoc < 1 or num_blocks % assoc:
        raise ValueError(
            f"assoc must divide the block count {num_blocks}, got {assoc}"
        )
    return num_blocks // assoc


def top_sets(set_misses, n: int = 8) -> list[tuple[int, int]]:
    """The ``n`` cache sets with the most misses: ``(set_index, misses)``.

    ``set_misses`` is either a dense per-set sequence or a sparse
    ``{index: count}`` mapping (the paging simulators count faults per
    page number, which is too sparse for a dense array).  Ties break on
    the lower index, so the ranking is deterministic.
    """
    items = (
        set_misses.items() if hasattr(set_misses, "items")
        else enumerate(set_misses)
    )
    ranked = sorted(
        ((int(index), int(count)) for index, count in items if count),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:n]


def new_probe(
    granule_bytes: int, capacity_bytes: int
) -> diagnose.MissProbe | None:
    """A miss probe when attribution is on, else ``None``.

    The simulators call this once per run and guard every per-miss
    recording behind ``probe is not None`` — the off path stays
    byte-identical and does no extra work.
    """
    if not diagnose.current().enabled:
        return None
    return diagnose.MissProbe(granule_bytes, capacity_bytes)


def emit_cache_sim(
    stats: CacheStats,
    cache_bytes: int,
    block_bytes: int,
    organization: str,
    set_misses=None,
    addresses=None,
    probe=None,
) -> None:
    """Report one finished simulation to the active recorder and collector.

    A no-op under the null recorder / null collector.  The obs event
    inherits whatever span context is open (workload, layout, table),
    which is how the report renderer attributes conflict sets to
    workloads; the diagnose collector classifies the probe's miss stream
    (3C + symbols) under its ambient scope.
    """
    if probe is not None and addresses is not None:
        diagnose.current().record(
            organization, cache_bytes, block_bytes, addresses, probe,
            set_misses=set_misses,
        )
    recorder = obs.current()
    if not recorder.enabled:
        return
    fields = {
        "organization": organization,
        "cache_bytes": cache_bytes,
        "block_bytes": block_bytes,
        "accesses": stats.accesses,
        "misses": stats.misses,
        "miss_ratio": stats.miss_ratio,
        "traffic_ratio": stats.traffic_ratio,
    }
    if set_misses is not None:
        fields["top_sets"] = top_sets(set_misses)
    recorder.event("cache_sim", **fields)
    recorder.count("cache_sims", 1)
    recorder.count("cache_sim_accesses", stats.accesses)
    recorder.count("cache_sim_misses", stats.misses)
    recorder.observe("cache_sim_miss_ratio", stats.miss_ratio)
