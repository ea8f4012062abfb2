"""The process-wide memo of store-hydrated workload artifacts.

The memo sits behind a verified store read and replaces only the
rebuild-and-replay of hydration, so explains stay byte-identical, store
accounting is unchanged, and store-less runners never see it.  Memoized
artifacts carry their layouts' replay slots, so each layout is linked
and expanded once per process, and its 3C reference (first touches and
fully-associative shadows) is computed once per (granule, capacity).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro import diagnose, obs
from repro.cache.lru import lru_misses
from repro.cache.vectorized import simulate_direct_vectorized
from repro.diagnose import classify
from repro.engine import scheduler
from repro.engine.jobs import request_plan
from repro.engine.store import ArtifactStore, artifact_key
from repro.engine.telemetry import Telemetry
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner, clear_memo
from repro.experiments.table6 import CACHE_SIZES
from repro.experiments.table7 import BLOCK_SIZES
from repro.interp.trace import BlockTrace
from repro.placement.image import MemoryImage
from repro.placement.pipeline import PlacementOptions
from repro.workloads.registry import workload_names

SCALE = "small"

#: Table 6 sizes at 64 B, Table 7 block sizes at 2 KB, then 2-way, 4-way
#: and fully associative at 2 KB / 64 B.
GRID = (
    [(size, 64, 1) for size in CACHE_SIZES]
    + [(2048, block, 1) for block in BLOCK_SIZES if block != 64]
    + [(2048, 64, ways) for ways in (2, 4, 2048 // 64)]
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def explain(workload: str, store_dir: str | None, geometry=(2048, 64, 1)):
    """One explain request through the engine; (output, telemetry totals)."""
    cache_bytes, block_bytes, assoc = geometry
    request = {
        "kind": "explain", "workload": workload, "scale": SCALE,
        "cache_bytes": cache_bytes, "block_bytes": block_bytes,
        "assoc": assoc,
    }
    telemetry = Telemetry()
    values = scheduler.run_jobs(
        request_plan(request), cache_dir=store_dir,
        use_cache=store_dir is not None, telemetry=telemetry,
    )
    return values[f"explain:{workload}"], telemetry.totals()


def manifest(store_dir: str, workload: str) -> str:
    key = artifact_key(workload, SCALE, PlacementOptions().opt)
    return os.path.join(store_dir, "objects", key, "meta.json")


def backdate_manifest(store_dir: str, workload: str) -> bytes:
    """Stamp an entry's manifest 1 s past the epoch; returns its bytes."""
    path = manifest(store_dir, workload)
    os.utime(path, ns=(10**9, 10**9))
    with open(path, "rb") as handle:
        return handle.read()


def hit_recorded(store_dir: str, workload: str, before: bytes) -> bool:
    """Whether a lookup since :func:`backdate_manifest` stamped the
    manifest's mtime; it must leave the manifest's bytes as they were."""
    path = manifest(store_dir, workload)
    with open(path, "rb") as handle:
        assert handle.read() == before
    return os.stat(path).st_mtime_ns > 10**9


def test_grid_explains_identical_with_memo_and_without(tmp_path):
    store_dir = str(tmp_path)
    names = workload_names()
    assert len(names) == 10 and len(GRID) == 11
    for name in names:
        explain(name, store_dir)
    clear_memo()
    memoized, memo_hits = {}, 0
    for name in names:
        for geometry in GRID:
            output, totals = explain(name, store_dir, geometry)
            memoized[name, geometry] = output
            memo_hits += totals["memo_hits"]
            assert totals["store_hits"] == 1
            assert totals["interp_instructions"] == 0
    assert memo_hits == len(names) * (len(GRID) - 1)
    for name in names:
        for geometry in GRID:
            clear_memo()
            output, totals = explain(name, store_dir, geometry)
            assert totals["memo_hits"] == 0
            assert output == memoized[name, geometry], (name, geometry)


def test_store_accounting_unchanged_by_memo(tmp_path):
    store_dir = str(tmp_path)
    stream = ["wc", "cmp", "wc", "wc", "cmp", "tee", "wc", "tee"]
    hits = misses = memo_hits = 0
    for i, name in enumerate(stream):
        stored = name in stream[:i]
        if stored:
            before = backdate_manifest(store_dir, name)
        _output, totals = explain(name, store_dir)
        hits += totals["store_hits"]
        misses += totals["store_misses"]
        memo_hits += totals["memo_hits"]
        # Every hit, memo hits included, stamps the entry's last use.
        if stored:
            assert hit_recorded(store_dir, name, before)
    # Every request reads the store: the first of each program misses
    # and every later one is a store hit, whether or not the memo then
    # answers the hydration.  A computed entry is not memoized, so only
    # the third and later requests for one program are memo hits.
    assert (hits, misses) == (5, 3)
    assert memo_hits == 2


def test_cleared_store_misses_and_reinterprets(tmp_path):
    store_dir = str(tmp_path)
    for _ in range(3):
        _output, totals = explain("wc", store_dir)
    assert (totals["store_hits"], totals["memo_hits"]) == (1, 1)
    ArtifactStore(store_dir).clear()
    _output, totals = explain("wc", store_dir)
    assert totals["store_misses"] == 1
    assert totals["memo_hits"] == 0
    assert totals["interp_instructions"] > 0


def test_quarantined_entry_misses_and_reinterprets(tmp_path):
    store_dir = str(tmp_path)
    expected, _ = explain("cmp", store_dir)
    explain("cmp", store_dir)
    key = artifact_key("cmp", SCALE, PlacementOptions().opt)
    arrays = os.path.join(store_dir, "objects", key, "arrays.npz")
    with open(arrays, "r+b") as handle:
        handle.seek(40)
        byte = handle.read(1)
        handle.seek(40)
        handle.write(bytes([byte[0] ^ 0xFF]))
    store = ArtifactStore(store_dir)
    runner = ExperimentRunner(scale=SCALE, store=store,
                              telemetry=Telemetry())
    runner.artifacts("cmp")
    assert store.quarantined == 1
    totals = runner.telemetry.totals()
    assert totals["store_misses"] == 1
    assert totals["memo_hits"] == 0
    assert totals["interp_instructions"] > 0
    output, totals = explain("cmp", store_dir)
    assert output == expected
    assert totals["store_hits"] == 1


def test_storeless_runner_never_sees_the_memo(tmp_path):
    store = ArtifactStore(str(tmp_path))
    ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    hydrated = ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    memoized = ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    assert memoized is hydrated
    storeless = ExperimentRunner(scale=SCALE, telemetry=Telemetry())
    assert storeless.artifacts("wc") is not hydrated
    totals = storeless.telemetry.totals()
    assert totals["memo_hits"] == 0
    assert totals["interp_instructions"] > 0


def test_memo_hit_is_counted_and_skips_the_hydrate_span(tmp_path):
    store = ArtifactStore(str(tmp_path))
    ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    recorder = obs.Recorder()
    with obs.use(recorder):
        for _ in range(3):
            ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    spans = [record["name"] for record in recorder.records
             if record["type"] == "span"]
    assert spans.count("artifacts") == 3
    assert spans.count("hydrate") == 1
    counters = recorder.metrics.counter_values()
    assert counters["artifacts_memo_hits"] == 2
    assert counters["store_hits"] == 3


def test_memoized_traces_are_read_only(tmp_path):
    store = ArtifactStore(str(tmp_path))
    ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    art = ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    for trace in (art.trace, art.original_trace):
        with pytest.raises(ValueError):
            trace.block_ids[0] = 0
        with pytest.raises(ValueError):
            trace.via[0] = 0


def test_cap_evicts_least_recently_used(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_module, "MEMO_CAPACITY", 2)
    store_dir = str(tmp_path)
    for name in ("wc", "cmp", "tee"):
        explain(name, store_dir)
    clear_memo()

    def memo_hit(name: str) -> bool:
        return explain(name, store_dir)[1]["memo_hits"] == 1

    assert not memo_hit("wc")        # memo: wc
    assert not memo_hit("cmp")       # memo: wc, cmp
    assert memo_hit("wc")            # memo: cmp, wc
    assert not memo_hit("tee")       # evicts cmp -> wc, tee
    assert memo_hit("wc")
    assert not memo_hit("cmp")       # evicts tee -> wc, cmp
    assert not memo_hit("tee")       # evicts wc -> cmp, tee
    assert memo_hit("cmp")


def test_threads_explaining_concurrently_agree(tmp_path):
    store_dir = str(tmp_path)
    names = ["wc", "cmp", "tee", "grep"]
    expected = {name: explain(name, store_dir)[0] for name in names}
    clear_memo()
    results: list[tuple[str, str, int]] = []
    errors: list[Exception] = []

    def work(offset: int) -> None:
        try:
            for step in range(2 * len(names)):
                name = names[(offset + step) % len(names)]
                output, _totals = explain(name, store_dir)
                art = ExperimentRunner(
                    scale=SCALE, store=ArtifactStore(store_dir)
                ).artifacts(name)
                results.append((name, output, id(art)))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    # More threads than cores, switching often, so hydrations of one
    # program race to be admitted.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 4 * 2 * len(names)
    shared: dict[str, set[int]] = {}
    for name, output, art_id in results:
        assert output == expected[name]
        shared.setdefault(name, set()).add(art_id)
    # Every racing hydration handed back the one admitted entry.
    assert all(len(ids) == 1 for ids in shared.values())


def test_memo_hit_verifies_the_entry_without_decoding_it(
    tmp_path, monkeypatch
):
    store_dir = str(tmp_path)
    explain("wc", store_dir)
    explain("wc", store_dir)           # hydrates and fills the memo

    def no_decode(*args, **kwargs):
        raise AssertionError("a memo hit decoded the entry")

    monkeypatch.setattr(np, "load", no_decode)
    before = backdate_manifest(store_dir, "wc")
    _output, totals = explain("wc", store_dir)
    assert (totals["store_hits"], totals["memo_hits"]) == (1, 1)
    assert hit_recorded(store_dir, "wc", before)


def test_memo_hit_on_a_damaged_entry_is_a_quarantined_miss(tmp_path):
    store_dir = str(tmp_path)
    expected, _ = explain("tee", store_dir)
    explain("tee", store_dir)          # hydrates and fills the memo
    key = artifact_key("tee", SCALE, PlacementOptions().opt)
    profiles = os.path.join(store_dir, "objects", key, "profiles.json")
    with open(profiles, "ab") as handle:
        handle.write(b" ")
    store = ArtifactStore(store_dir)
    runner = ExperimentRunner(scale=SCALE, store=store,
                              telemetry=Telemetry())
    runner.artifacts("tee")
    assert store.quarantined == 1
    totals = runner.telemetry.totals()
    assert (totals["store_misses"], totals["memo_hits"]) == (1, 0)
    assert totals["interp_instructions"] > 0
    assert explain("tee", store_dir)[0] == expected


def test_grid_links_and_expands_each_layout_once(tmp_path, monkeypatch):
    store_dir = str(tmp_path)
    names = workload_names()
    for name in names:
        explain(name, store_dir)
    clear_memo()
    linked: list = []
    expansions = []
    build = MemoryImage.build.__func__
    expand = BlockTrace.addresses

    def counting_build(cls, program, *args, **kwargs):
        linked.append(program)
        return build(cls, program, *args, **kwargs)

    def counting_expand(trace, image):
        expansions.append(image)
        return expand(trace, image)

    monkeypatch.setattr(MemoryImage, "build", classmethod(counting_build))
    monkeypatch.setattr(BlockTrace, "addresses", counting_expand)
    for name in names:
        for geometry in GRID:
            explain(name, store_dir, geometry)
    assert len(linked) == 2 * len(names)
    assert len(expansions) == 2 * len(names)
    for name in names:
        art = ExperimentRunner(
            scale=SCALE, store=ArtifactStore(store_dir)).artifacts(name)
        # The natural image is linked on first use, the optimized one
        # only by the hydration's placement.
        assert sum(p is art.original_program for p in linked) == 1
        assert sum(p is art.program for p in linked) == 1
        assert art.replays["optimized"].image is art.image


def test_slots_are_read_only_uint32_and_match_the_expansion(tmp_path):
    store = ArtifactStore(str(tmp_path))
    runner = ExperimentRunner(scale=SCALE, store=store)
    for name in workload_names():
        art = runner.artifacts(name)
        for layout, trace in (("optimized", art.trace),
                              ("natural", art.original_trace)):
            slot = runner.replay(name, layout)
            assert slot.addresses.dtype == np.uint32
            assert not slot.addresses.flags.writeable
            with pytest.raises(ValueError):
                slot.addresses[0] = 0
            addresses = runner.addresses(name, layout)
            assert addresses.dtype == np.int64
            expected = trace.addresses(runner.image_for(name, layout))
            assert np.array_equal(addresses, expected), (name, layout)


def test_threads_share_one_slot(tmp_path):
    store_dir = str(tmp_path)
    explain("wc", store_dir)
    clear_memo()
    slots: list = []
    errors: list[Exception] = []

    def work() -> None:
        try:
            runner = ExperimentRunner(scale=SCALE,
                                      store=ArtifactStore(store_dir))
            for layout in ("optimized", "natural"):
                runner.addresses("wc", layout)
                slots.append((layout, runner.replay("wc", layout)))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(slots) == 8
    for layout in ("optimized", "natural"):
        assert len({id(slot) for kind, slot in slots if kind == layout}) == 1


def test_storeless_runner_and_cleared_memo_get_their_own_slots(tmp_path):
    store = ArtifactStore(str(tmp_path))
    ExperimentRunner(scale=SCALE, store=store).artifacts("wc")
    shared = ExperimentRunner(scale=SCALE, store=store).replay("wc")
    assert ExperimentRunner(scale=SCALE, store=store).replay("wc") is shared
    storeless = ExperimentRunner(scale=SCALE)
    own = storeless.replay("wc")
    assert own is not shared
    # A runner keeps its artifacts' slots for its whole life.
    assert storeless.replay("wc") is own
    assert np.array_equal(own.addresses, shared.addresses)
    clear_memo()
    fresh = ExperimentRunner(scale=SCALE, store=store).replay("wc")
    assert fresh is not shared
    assert np.array_equal(fresh.addresses, shared.addresses)


# -- the 3C reference each replay slot keeps ------------------------------


@pytest.fixture(scope="module")
def grid_store(tmp_path_factory):
    """A store holding the ten programs' executions."""
    store_dir = str(tmp_path_factory.mktemp("grid-store"))
    for name in workload_names():
        explain(name, store_dir)
    return store_dir


def memo_slots():
    """``(workload, layout, slot)`` of every memoized replay slot."""
    return [(art.workload.name, layout, slot)
            for art in runner_module._MEMO.values()
            for layout, slot in art.replays.items()]


def counting_shadows(monkeypatch) -> list:
    """Record ``(granule trace bytes, capacity)`` per shadow simulation."""
    calls: list = []
    shadow = classify.fully_associative_miss_positions

    def counting(granules, capacity_granules):
        calls.append((granules.tobytes(), capacity_granules))
        return shadow(granules, capacity_granules)

    monkeypatch.setattr(classify, "fully_associative_miss_positions",
                        counting)
    return calls


def test_grid_references_equal_recomputed_ones(grid_store):
    for name in workload_names():
        for geometry in GRID:
            explain(name, grid_store, geometry)
    slots = memo_slots()
    assert len(slots) == 2 * len(workload_names())
    for name, layout, slot in slots:
        addresses = slot.addresses.astype(np.int64)
        kept = dict(slot.reference._arrays)
        # Four granules; five sizes at 64 B and three other block sizes
        # at 2 KB (the 32-way cache is its own shadow).
        assert sorted(key[0] for key in kept) \
            == ["first_touch"] * 4 + ["shadow"] * 8, (name, layout)
        assert slot.reference.nbytes <= slot.addresses.nbytes
        for key, positions in kept.items():
            assert not positions.flags.writeable
            granules = addresses >> key[1]
            if key[0] == "first_touch":
                expected = classify._first_touch_positions(granules)
            else:
                expected = lru_misses(granules, key[2])[0]
            assert np.array_equal(positions, expected), (name, layout, key)


def test_shadow_runs_once_per_slot_granule_and_capacity(
    grid_store, monkeypatch
):
    calls = counting_shadows(monkeypatch)
    recorder = obs.Recorder()
    with obs.use(recorder):
        for name in workload_names():
            for geometry in GRID:
                explain(name, grid_store, geometry)
        first_round = len(calls)
        for name in workload_names():
            for geometry in GRID:
                explain(name, grid_store, geometry)
    # 10 programs x 2 layouts x 8 (granule, capacity) pairs, each once
    # (two slots may share a granule trace: tee's layouts coincide).
    assert first_round == len(calls) == 160
    expected = Counter(
        ((slot.addresses.astype(np.int64) >> shift).tobytes(), capacity)
        for _, _, slot in memo_slots()
        for shift, capacity in {
            (block_bytes.bit_length() - 1, cache_bytes // block_bytes)
            for cache_bytes, block_bytes, ways in GRID if ways < 32
        }
    )
    assert Counter(calls) == expected
    # Every other non-fully-associative attribution reused a shadow:
    # 2 KB / 64 B is shared by 1-, 2- and 4-way in the first round.
    reuses = recorder.metrics.counter_values()["shadow_reuses"]
    assert reuses == 2 * 10 * (2 * 10 - 8)


def test_other_traces_never_read_a_slot_reference(grid_store, monkeypatch):
    reads: list = []
    for method in ("first_touches", "shadow"):
        original = getattr(diagnose.Reference, method)

        def spying(self, *args, _original=original):
            reads.append(self)
            return _original(self, *args)

        monkeypatch.setattr(diagnose.Reference, method, spying)
    runner = ExperimentRunner(scale=SCALE, store=ArtifactStore(grid_store))
    collector = diagnose.Collector()
    with diagnose.use(collector):
        slot_trace = runner.addresses("cccp", "optimized")
        # Same length as the slot's trace, one address different.
        altered = slot_trace.copy()
        altered[len(altered) // 2] += 4096
        others = {
            "scaled": runner.addresses("cccp", "optimized", scaling=1.5),
            "random": runner.addresses("cccp", "random", seed=3),
            "pettis_hansen": runner.addresses("cccp", "pettis_hansen"),
            "altered": altered,
        }
        # Simulated under the slot's own scope, so the registered
        # reference is the one the collector hands to attribute().
        with collector.scope(workload="cccp", layout="optimized"):
            for label, trace in others.items():
                entry = simulate_and_attribute(collector, trace)
                assert entry == fresh_attribution(trace, collector), label
            assert not reads
            simulate_and_attribute(collector, slot_trace)
    slot = runner.replay("cccp", "optimized")
    assert reads and all(reference is slot.reference for reference in reads)


def simulate_and_attribute(collector, trace, geometry=(2048, 64)):
    simulate_direct_vectorized(trace, *geometry)
    return collector.entries["cccp", "optimized", "direct-vectorized",
                             *geometry]


def fresh_attribution(trace, collector, geometry=(2048, 64)):
    """The same simulation attributed with the symbols but no reference."""
    symbols, _ = collector._symbols["cccp", "optimized"]
    plain = diagnose.Collector()
    plain.register_symbols("cccp", "optimized", symbols)
    with diagnose.use(plain), plain.scope(workload="cccp",
                                          layout="optimized"):
        return simulate_and_attribute(plain, trace, geometry)


def test_threads_attributing_through_one_slot_agree(grid_store):
    geometries = [(size, 64) for size in CACHE_SIZES] \
        + [(2048, block) for block in BLOCK_SIZES if block != 64]
    runner = ExperimentRunner(scale=SCALE, store=ArtifactStore(grid_store))
    trace = runner.addresses("yacc", "natural")
    slot = runner.replay("yacc", "natural")
    expected = {}
    for geometry in geometries:
        plain = diagnose.Collector()
        plain.register_symbols("yacc", "natural", slot.symbols)
        with diagnose.use(plain), plain.scope(workload="yacc",
                                              layout="natural"):
            simulate_direct_vectorized(trace, *geometry)
        (expected[geometry],) = plain.entries.values()
    results: list = []
    errors: list[Exception] = []

    def work(offset: int) -> None:
        try:
            collector = diagnose.Collector()
            with diagnose.use(collector):
                own = runner.addresses("yacc", "natural")
                with collector.scope(workload="yacc", layout="natural"):
                    for step in range(len(geometries)):
                        geometry = geometries[(offset + step)
                                              % len(geometries)]
                        simulate_direct_vectorized(own, *geometry)
            results.append(collector.entries)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 4
    for entries in results:
        assert {(key[3], key[4]): entry for key, entry in entries.items()} \
            == expected
    # One shadow per geometry, one first-touch array per block size.
    assert len(slot.reference._arrays) == len(geometries) + len(BLOCK_SIZES)


def test_cleared_memo_and_storeless_runner_recompute(grid_store, monkeypatch):
    calls = counting_shadows(monkeypatch)

    def attribute_wc(runner) -> diagnose.Attribution:
        collector = diagnose.Collector()
        with diagnose.use(collector):
            trace = runner.addresses("wc", "natural")
            with collector.scope(workload="wc", layout="natural"):
                simulate_direct_vectorized(trace, 2048, 64)
        (entry,) = collector.entries.values()
        return entry

    store = ArtifactStore(grid_store)
    first = attribute_wc(ExperimentRunner(scale=SCALE, store=store))
    assert len(calls) == 1
    assert attribute_wc(ExperimentRunner(scale=SCALE, store=store)) == first
    assert len(calls) == 1
    clear_memo()
    assert attribute_wc(ExperimentRunner(scale=SCALE, store=store)) == first
    assert len(calls) == 2
    storeless = ExperimentRunner(scale=SCALE)
    assert attribute_wc(storeless) == first
    assert len(calls) == 3
    # A store-less runner keeps its own slot, and reuses its reference.
    assert attribute_wc(storeless) == first
    assert len(calls) == 3
    assert len(set(calls)) == 1
