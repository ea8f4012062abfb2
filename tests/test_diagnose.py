"""Tests for the miss-attribution subsystem (3C + symbol conflict maps)."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest

from repro import diagnose, obs
from repro.cache.lru import lru_misses
from repro.cache.direct import simulate_direct
from repro.cache.paging import simulate_paging, simulate_sectored_paging
from repro.cache.partial import simulate_partial
from repro.cache.prefetch import simulate_prefetch
from repro.cache.sectored import simulate_sectored
from repro.cache.set_assoc import (
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.cache.vectorized import simulate_direct_vectorized


def synthetic_trace(seed: int = 0, runs: int = 150) -> np.ndarray:
    """Mostly-sequential fetch runs with taken-branch discontinuities."""
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(runs):
        start = int(rng.integers(0, 4096)) * 4
        length = int(rng.integers(4, 40))
        chunks.append(np.arange(start, start + length * 4, 4))
    return np.concatenate(chunks).astype(np.int64)


def collect(simulate, *args) -> diagnose.Collector:
    collector = diagnose.Collector()
    with diagnose.use(collector):
        with collector.scope(workload="synth", layout="natural"):
            simulate(*args)
    assert collector.entries, "simulation recorded no attribution"
    return collector


def only_entry(collector: diagnose.Collector):
    (entry,) = collector.entries.values()
    return entry


ALL_SIMULATORS = [
    pytest.param(simulate_direct, (2048, 64), id="direct"),
    pytest.param(simulate_direct_vectorized, (2048, 64), id="vectorized"),
    pytest.param(simulate_set_associative, (2048, 64, 2), id="2way"),
    pytest.param(simulate_fully_associative, (2048, 64), id="fully"),
    pytest.param(simulate_sectored, (2048, 64, 8), id="sectored"),
    pytest.param(simulate_partial, (2048, 64), id="partial"),
    pytest.param(simulate_prefetch, (2048, 64, "tagged"), id="prefetch"),
    pytest.param(simulate_paging, (512, 4), id="paging"),
    pytest.param(simulate_sectored_paging, (512, 4, 64), id="sect-paging"),
]


class TestThreeCInvariants:
    @pytest.mark.parametrize("simulate,args", ALL_SIMULATORS)
    def test_classes_partition_the_misses(self, simulate, args):
        entry = only_entry(collect(simulate, synthetic_trace(), *args))
        assert entry.compulsory + entry.capacity + entry.conflict \
            == entry.misses
        assert entry.compulsory >= 0
        assert entry.capacity >= 0
        assert entry.conflict >= 0

    @pytest.mark.parametrize("simulate,args", ALL_SIMULATORS)
    def test_conflict_reconciles_with_the_shadow_gap(self, simulate, args):
        # conflict == real - shadow + anomaly is the algebraic identity
        # tying "conflict" to the measured gap against a fully-
        # associative cache of the same capacity.
        entry = only_entry(collect(simulate, synthetic_trace(), *args))
        assert entry.conflict \
            == entry.misses - entry.shadow_misses + entry.anomaly

    def test_fully_associative_has_zero_conflict(self):
        entry = only_entry(
            collect(simulate_fully_associative, synthetic_trace(), 2048, 64)
        )
        assert entry.conflict == 0
        assert entry.anomaly == 0

    def test_paging_is_its_own_shadow(self):
        # LRU paging *is* fully-associative LRU at page granularity, so
        # classification degenerates to compulsory + capacity exactly.
        entry = only_entry(
            collect(simulate_paging, synthetic_trace(), 512, 4)
        )
        assert entry.conflict == 0
        assert entry.anomaly == 0

    def test_compulsory_equals_distinct_granules(self):
        trace = synthetic_trace()
        entry = only_entry(collect(simulate_direct, trace, 2048, 64))
        assert entry.compulsory == len(np.unique(trace >> 6))

    def test_direct_and_vectorized_classify_identically(self):
        trace = synthetic_trace()
        a = only_entry(collect(simulate_direct, trace, 2048, 64))
        b = only_entry(collect(simulate_direct_vectorized, trace, 2048, 64))
        assert (a.misses, a.compulsory, a.capacity, a.conflict, a.anomaly) \
            == (b.misses, b.compulsory, b.capacity, b.conflict, b.anomaly)
        assert a.set_misses == b.set_misses


class TestZeroOverheadWhenOff:
    def test_default_collector_is_null(self):
        assert diagnose.current() is diagnose.NULL
        assert not diagnose.NULL.enabled

    @pytest.mark.parametrize("simulate,args", ALL_SIMULATORS)
    def test_stats_identical_with_attribution_on(self, simulate, args):
        trace = synthetic_trace(seed=3)
        plain = simulate(trace, *args)
        with diagnose.use(diagnose.Collector()):
            attributed = simulate(trace, *args)
        assert plain == attributed

    def test_use_restores_the_previous_collector(self):
        with diagnose.use(diagnose.Collector()) as installed:
            assert diagnose.current() is installed
        assert diagnose.current() is diagnose.NULL


class TestCollector:
    def test_replay_replaces_instead_of_double_counting(self):
        trace = synthetic_trace()
        collector = diagnose.Collector()
        with diagnose.use(collector):
            with collector.scope(workload="w", layout="natural"):
                simulate_direct(trace, 2048, 64)
                simulate_direct(trace, 2048, 64)
        entry = only_entry(collector)
        assert entry.misses == simulate_direct(trace, 2048, 64).misses

    def test_roundtrip_through_dict(self):
        collector = collect(simulate_direct, synthetic_trace(), 2048, 64)
        data = collector.to_dict()
        other = diagnose.Collector()
        other.merge_dict(data)
        assert other.to_dict() == data
        assert set(other.entries) == set(collector.entries)

    def test_scopes_nest_and_restore(self):
        collector = diagnose.Collector()
        with collector.scope(workload="a", layout="natural"):
            with collector.scope(layout="optimized"):
                assert collector._workload == "a"
                assert collector._layout == "optimized"
            assert collector._layout == "natural"
        assert collector._workload == "?"


class TestSymbolAttribution:
    @pytest.fixture(scope="class")
    def attributed(self, small_runner):
        collector = diagnose.Collector()
        with diagnose.use(collector):
            for layout in ("optimized", "natural"):
                addresses = small_runner.addresses("cccp", layout)
                with collector.scope(workload="cccp", layout=layout):
                    simulate_direct_vectorized(addresses, 2048, 64)
        return {key[1]: entry for key, entry in collector.entries.items()}

    def test_misses_attribute_to_real_functions(self, attributed):
        functions = set(attributed["optimized"].function_misses)
        assert "main" in functions
        per_class = [
            sum(counts) for counts in
            attributed["optimized"].function_misses.values()
        ]
        assert sum(per_class) == attributed["optimized"].misses

    def test_conflict_pairs_name_victim_and_evictor(self, attributed):
        pairs = attributed["optimized"].conflict_pairs
        assert pairs
        assert sum(pairs.values()) <= attributed["optimized"].conflict
        for victim, evictor in pairs:
            assert isinstance(victim, str) and isinstance(evictor, str)

    def test_optimized_layout_shrinks_the_conflict_map(self, attributed):
        # The acceptance claim: DFS placement reduces both total conflict
        # misses and the worst inter-function conflict pair vs. natural
        # declaration order.
        optimized, natural = attributed["optimized"], attributed["natural"]
        assert optimized.conflict < natural.conflict
        worst = lambda entry: max(entry.conflict_pairs.values())  # noqa: E731
        assert worst(optimized) <= worst(natural)


class TestReference:
    def test_covers_only_the_very_trace(self):
        trace = synthetic_trace()
        reference = diagnose.Reference(trace.astype(np.uint32))
        assert reference.covers(trace)
        altered = trace.copy()
        altered[len(trace) // 2] += 4
        assert not reference.covers(altered)
        assert not reference.covers(trace[:-1])
        assert reference.budget_bytes == 4 * len(trace)

    def test_arrays_equal_recomputed_ones_and_reuses_are_counted(self):
        trace = synthetic_trace()
        reference = diagnose.Reference(trace)
        recorder = obs.Recorder()
        with obs.use(recorder):
            for _ in range(3):
                shadow = reference.shadow(trace, 6, 16)
                first = reference.first_touches(trace, 6)
        expected = lru_misses(trace >> 6, 16)[0]
        assert np.array_equal(shadow, expected)
        assert first.tolist() \
            == np.sort(np.unique(trace >> 6, return_index=True)[1]).tolist()
        assert not shadow.flags.writeable and not first.flags.writeable
        assert recorder.metrics.counter_values()["shadow_reuses"] == 2
        assert reference.nbytes == shadow.nbytes + first.nbytes

    def test_bound_evicts_least_recently_used(self, monkeypatch):
        from repro.diagnose import classify

        trace = phased_trace()
        calls: list[int] = []
        shadow = classify.fully_associative_miss_positions

        def counting(granules, capacity_granules):
            calls.append(capacity_granules)
            return shadow(granules, capacity_granules)

        monkeypatch.setattr(classify, "fully_associative_miss_positions",
                            counting)
        # Like a replay slot, the reference holds uint32 addresses, so its
        # budget is 4 bytes per fetch.
        reference = diagnose.Reference(trace.astype(np.uint32))
        budget = reference.budget_bytes
        a, b, c = (shadow(trace >> 6, capacity).nbytes
                   for capacity in (8, 4, 16))
        assert a + b <= budget < a + b + c and a + c <= budget

        def kept() -> list[int]:
            return [key[2] for key in reference._arrays]

        for capacity in (8, 4, 8, 16):     # 8 is used again before 16
            reference.shadow(trace, 6, capacity)
        assert calls == [8, 4, 16]
        assert kept() == [8, 16]            # 4 was least recently used
        reference.shadow(trace, 6, 4)
        assert calls == [8, 4, 16, 4]
        assert kept() == [16, 4]
        assert reference.nbytes == b + c

    def test_array_over_the_budget_is_not_kept(self):
        trace = phased_trace()
        reference = diagnose.Reference(trace.astype(np.uint32))
        # Two granules of LRU cycling over four or more: every fetch
        # misses, 8 bytes each against the budget's 4 per fetch.
        positions = reference.shadow(trace, 6, 2)
        assert len(positions) == len(trace)
        assert reference.nbytes == 0 and not reference._arrays


def phased_trace() -> np.ndarray:
    """Three phases cycling over 4, 8 and 16 distinct 64 B granules (150,
    10 and 10 rounds): a fully-associative LRU cache of 16, 8 and 4
    granules misses 28, 172 and 244 times in its 840 fetches."""
    phases = [(0, 4, 150), (100, 8, 10), (200, 16, 10)]
    return np.concatenate([
        np.tile(64 * (base + np.arange(count)), rounds)
        for base, count, rounds in phases
    ]).astype(np.int64)


def loop_tallies(addresses, probe, symbols):
    """The per-miss loop the vectorised tallies replaced: function,
    block and conflict-pair dicts, each miss resolved on its own."""
    shift = probe.granule_bytes.bit_length() - 1
    granules = addresses >> shift
    capacity = max(1, probe.capacity_bytes // probe.granule_bytes)
    first = set(np.unique(granules, return_index=True)[1].tolist())
    shadow = set(lru_misses(granules, capacity)[0].tolist())
    starts = symbols.starts.tolist()

    def interval(address: int) -> int:
        return min(max(bisect_right(starts, address) - 1, 0),
                   len(starts) - 1)

    functions: dict[str, list[int]] = {}
    blocks: dict[int, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    for position, evictor in zip(probe.positions, probe.evictors):
        index = interval(int(addresses[position]))
        name, bid = symbols.functions[index], int(symbols.bids[index])
        cls = 0 if position in first else 1 if position in shadow else 2
        functions.setdefault(name, [0, 0, 0])[cls] += 1
        if bid >= 0:
            blocks[bid] = blocks.get(bid, 0) + 1
        if cls == 2 and evictor >= 0:
            evicting = symbols.functions[interval(int(evictor) << shift)]
            pairs[name, evicting] = pairs.get((name, evicting), 0) + 1
    return functions, blocks, pairs


class _Probing(diagnose.Collector):
    """A collector that also keeps each simulation's probe."""

    def record(self, organization, cache_bytes, block_bytes, addresses,
               probe, set_misses=None):
        self.probe = probe
        return super().record(organization, cache_bytes, block_bytes,
                              addresses, probe, set_misses=set_misses)


class TestVectorisedTallies:
    @pytest.mark.parametrize("workload", ["cccp", "yacc", "make", "tee"])
    @pytest.mark.parametrize("layout", ["optimized", "natural"])
    @pytest.mark.parametrize("simulate,args", [
        pytest.param(simulate_direct_vectorized, (2048, 64), id="2k64"),
        pytest.param(simulate_direct_vectorized, (1024, 16), id="1k16"),
        pytest.param(simulate_set_associative, (2048, 64, 2), id="2way"),
        pytest.param(simulate_sectored, (2048, 64, 8), id="sectored"),
    ])
    def test_tallies_equal_the_per_miss_loop(
        self, small_runner, workload, layout, simulate, args
    ):
        collector = _Probing()
        with diagnose.use(collector):
            addresses = small_runner.addresses(workload, layout)
            with collector.scope(workload=workload, layout=layout):
                simulate(addresses, *args)
        (entry,) = collector.entries.values()
        symbols = small_runner.replay(workload, layout).symbols
        functions, blocks, pairs = loop_tallies(
            addresses, collector.probe, symbols)
        assert entry.function_misses == functions
        assert entry.block_misses == blocks
        assert entry.conflict_pairs == pairs
        assert sum(map(sum, functions.values())) == entry.misses


class TestEngineThreading:
    def test_execute_job_ships_attribution(self, tmp_path):
        from repro.engine.jobs import JobSpec, execute_job

        execute_job(
            JobSpec(job_id="artifacts:wc", kind="artifacts",
                    params={"workload": "wc", "scale": "small"}),
            cache_dir=str(tmp_path),
        )
        outcome = execute_job(
            JobSpec(job_id="table:table6", kind="table",
                    params={"table": "table6", "scale": "small"}),
            cache_dir=str(tmp_path),
            sinks={"diagnose": None},
        )
        assert outcome.sidecars["diagnose"]
        key = next(iter(sorted(outcome.sidecars["diagnose"])))
        assert key.count("|") == 4
        payload = outcome.sidecars["diagnose"][key]
        assert payload["compulsory"] + payload["capacity"] \
            + payload["conflict"] == payload["misses"]

    def test_unattributed_job_ships_nothing(self, tmp_path):
        from repro.engine.jobs import JobSpec, execute_job

        outcome = execute_job(
            JobSpec(job_id="artifacts:wc", kind="artifacts",
                    params={"workload": "wc", "scale": "small"}),
            cache_dir=str(tmp_path),
        )
        assert outcome.sidecars == {}
