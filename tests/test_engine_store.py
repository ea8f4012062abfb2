"""Unit tests for the content-addressed artifact store."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.engine.store import (
    ArtifactPayload,
    ArtifactStore,
    artifact_key,
    code_version,
    options_fingerprint,
)
from repro.engine.telemetry import Telemetry
from repro.experiments.runner import ExperimentRunner
from repro.opt import OptOptions
from repro.placement.pipeline import PlacementOptions


def _payload(tag: int = 0) -> ArtifactPayload:
    return ArtifactPayload(
        profiles={"pre": {"tag": tag}, "post": {"tag": tag}},
        arrays={
            "trace_block_ids": np.arange(10, dtype=np.int32) + tag,
            "trace_via": np.zeros(10, dtype=np.uint8),
        },
        meta={"workload": f"wl{tag}", "scale": "small"},
    )


class TestKeys:
    def test_fingerprint_is_canonical_json(self):
        fp = options_fingerprint(PlacementOptions())
        assert fp == options_fingerprint(PlacementOptions())
        assert json.loads(fp)["min_prob"] > 0

    def test_fingerprint_none(self):
        assert options_fingerprint(None) == "null"

    def test_key_sensitivity(self):
        base = artifact_key("wc", "small", OptOptions())
        assert base == artifact_key("wc", "small", OptOptions())
        assert base != artifact_key("wc", "default", OptOptions())
        assert base != artifact_key("lex", "small", OptOptions())
        assert base != artifact_key("wc", "small", OptOptions.parse("dce"))
        assert base != artifact_key(
            "wc", "small", OptOptions(), version="other"
        )

    def test_code_version_is_stable_and_short(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("k" * 24) is None
        assert store.misses == 1
        store.put("k" * 24, _payload(3))
        loaded = store.get("k" * 24)
        assert loaded is not None and store.hits == 1
        assert loaded.profiles["pre"] == {"tag": 3}
        assert np.array_equal(
            loaded.arrays["trace_block_ids"],
            np.arange(10, dtype=np.int32) + 3,
        )
        assert loaded.arrays["trace_via"].dtype == np.uint8

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.put("a" * 24, _payload(1))
        assert store.put("a" * 24, _payload(2))   # keeps the first write
        assert store.get("a" * 24).profiles["pre"] == {"tag": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("b" * 24, _payload())
        with open(
            os.path.join(store._entry_dir("b" * 24), "profiles.json"), "w"
        ) as handle:
            handle.write("{not json")
        assert store.get("b" * 24) is None
        assert store.misses == 1

    def test_checksum_manifest_written(self, tmp_path):
        import hashlib

        store = ArtifactStore(tmp_path)
        store.put("m" * 24, _payload())
        entry_dir = store._entry_dir("m" * 24)
        with open(os.path.join(entry_dir, "meta.json")) as handle:
            meta = json.load(handle)
        for name in ("profiles.json", "arrays.npz"):
            with open(os.path.join(entry_dir, name), "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            assert meta["checksums"][name] == digest

    def test_entries_and_index(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("c" * 24, _payload(1))
        store.put("d" * 24, _payload(2))
        entries = store.entries()
        assert {entry.workload for entry in entries} == {"wl1", "wl2"}
        assert all(entry.nbytes > 0 for entry in entries)
        with open(os.path.join(store.root, "index.json")) as handle:
            index = json.load(handle)
        assert set(index["entries"]) == {"c" * 24, "d" * 24}

    def test_hit_counts_persist(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("e" * 24, _payload())
        store.get("e" * 24)
        store.get("e" * 24)
        (entry,) = store.entries()
        assert entry.hits == 2

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("f" * 24, _payload())
        assert store.clear() == 1
        assert store.entries() == []

    def test_lru_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(4):
            store.put(f"{i}" * 24, _payload(i))
        store.get("0" * 24)   # freshen the oldest entry
        sizes = {entry.key: entry.nbytes for entry in store.entries()}
        report = store.gc(sizes["0" * 24] + sizes["3" * 24])
        assert report["evicted"] == 2
        keys = {entry.key for entry in store.entries()}
        assert keys == {"0" * 24, "3" * 24}

    def test_put_respects_max_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)   # evict everything old
        store.put("g" * 24, _payload(1))
        store.put("h" * 24, _payload(2))
        assert len(store.entries()) <= 1


class TestIndexedPut:
    """A put under budget updates ``index.json`` without a full scan."""

    @staticmethod
    def _count_scans(monkeypatch) -> list[int]:
        scans = [0]
        scan = ArtifactStore.entries

        def counting_entries(self):
            scans[0] += 1
            return scan(self)

        monkeypatch.setattr(ArtifactStore, "entries", counting_entries)
        return scans

    def test_puts_under_budget_scan_at_most_once(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        scans = self._count_scans(monkeypatch)
        for i in range(30):
            store.put(f"{i:02d}" * 12, _payload(i))
        assert scans[0] <= 1
        with open(os.path.join(store.root, "index.json")) as handle:
            index = json.load(handle)
        assert len(index["entries"]) == 30
        monkeypatch.undo()
        by_key = {entry.key: entry.nbytes for entry in store.entries()}
        assert {
            key: row["bytes"] for key, row in index["entries"].items()
        } == by_key

    def test_over_budget_put_evicts_least_recently_used(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("a" * 24, _payload(1))
        store.put("b" * 24, _payload(2))
        size = max(entry.nbytes for entry in store.entries())
        store.get("a" * 24)          # "b" is now least recently used
        store.max_bytes = int(2.5 * size)
        store.put("c" * 24, _payload(3))
        keys = {entry.key for entry in store.entries()}
        assert keys == {"a" * 24, "c" * 24}
        index = store.load_index()
        assert set(index["entries"]) == keys

    @pytest.mark.parametrize("damage", ["delete", "garbage"])
    def test_damaged_index_is_rebuilt_on_put(self, tmp_path, damage):
        store = ArtifactStore(tmp_path)
        store.put("a" * 24, _payload(1))
        index_path = os.path.join(store.root, "index.json")
        if damage == "delete":
            os.unlink(index_path)
        else:
            with open(index_path, "w") as handle:
                handle.write('{"format": "repro-index-v1", "entries": [')
        store.put("b" * 24, _payload(2))
        with open(index_path) as handle:
            index = json.load(handle)
        assert set(index["entries"]) == {"a" * 24, "b" * 24}


class TestIntegrity:
    """Corrupt, truncated, or racing entries are misses, never crashes."""

    @staticmethod
    def _store_with_entry(tmp_path) -> tuple[ArtifactStore, str]:
        store = ArtifactStore(tmp_path)
        key = "q" * 24
        store.put(key, _payload(7))
        return store, key

    def _assert_quarantined(self, store, key):
        assert store.get(key) is None
        assert store.misses == 1
        assert store.quarantined == 1
        assert key not in store
        assert os.path.exists(os.path.join(store.quarantine_dir, key))

    def test_truncated_arrays_quarantined(self, tmp_path):
        store, key = self._store_with_entry(tmp_path)
        path = os.path.join(store._entry_dir(key), "arrays.npz")
        with open(path, "r+b") as handle:
            handle.truncate(10)
        self._assert_quarantined(store, key)

    def test_invalid_json_meta_quarantined(self, tmp_path):
        store, key = self._store_with_entry(tmp_path)
        with open(
            os.path.join(store._entry_dir(key), "meta.json"), "w"
        ) as handle:
            handle.write("{definitely not json")
        self._assert_quarantined(store, key)

    def test_invalid_json_profiles_quarantined(self, tmp_path):
        store, key = self._store_with_entry(tmp_path)
        with open(
            os.path.join(store._entry_dir(key), "profiles.json"), "w"
        ) as handle:
            handle.write("{not json")
        self._assert_quarantined(store, key)

    def test_wrong_checksum_quarantined(self, tmp_path):
        store, key = self._store_with_entry(tmp_path)
        path = os.path.join(store._entry_dir(key), "arrays.npz")
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            data[len(data) // 2] ^= 0xFF      # same size, different bytes
            handle.seek(0)
            handle.write(data)
        self._assert_quarantined(store, key)

    def test_missing_checksum_manifest_quarantined(self, tmp_path):
        # A pre-manifest (v1-era) entry fails verification outright.
        store, key = self._store_with_entry(tmp_path)
        meta_path = os.path.join(store._entry_dir(key), "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        del meta["checksums"]
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        self._assert_quarantined(store, key)

    def test_half_present_entry_quarantined(self, tmp_path):
        # meta.json survives but a payload file is gone: without
        # quarantining, ``put`` would see the key as present and the
        # entry would miss forever.
        store, key = self._store_with_entry(tmp_path)
        os.unlink(os.path.join(store._entry_dir(key), "arrays.npz"))
        self._assert_quarantined(store, key)
        assert store.put(key, _payload(7))    # repair is possible again
        assert store.get(key) is not None

    def test_eviction_mid_read_is_a_clean_miss(self, tmp_path, monkeypatch):
        # A concurrent eviction between the meta.json read and the
        # payload reads must be a miss — not an exception, and not a
        # quarantine (there is nothing left to quarantine).
        import builtins
        import shutil

        store, key = self._store_with_entry(tmp_path)
        entry_dir = store._entry_dir(key)
        real_open = builtins.open

        def racing_open(path, *args, **kwargs):
            if str(path).endswith("arrays.npz") and os.path.isdir(entry_dir):
                shutil.rmtree(entry_dir)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", racing_open)
        assert store.get(key) is None
        monkeypatch.setattr(builtins, "open", real_open)
        assert store.misses == 1
        assert store.quarantined == 0

    def test_quarantine_names_never_collide(self, tmp_path):
        store, key = self._store_with_entry(tmp_path)
        for tag in (1, 2):
            path = os.path.join(store._entry_dir(key), "profiles.json")
            with open(path, "w") as handle:
                handle.write("{broken")
            assert store.get(key) is None
            store.put(key, _payload(tag))
        assert store.quarantined == 2
        assert len(os.listdir(store.quarantine_dir)) == 2

    def test_verify_reports_and_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag, key in enumerate(("r" * 24, "s" * 24, "t" * 24)):
            store.put(key, _payload(tag))
        with open(
            os.path.join(store._entry_dir("s" * 24), "arrays.npz"), "r+b"
        ) as handle:
            handle.truncate(4)
        report = store.verify()
        assert report == {"checked": 3, "ok": 2, "corrupt": ["s" * 24]}
        assert store.quarantined == 1
        assert store.verify() == {"checked": 2, "ok": 2, "corrupt": []}

    def test_index_rebuilt_when_missing_or_unparsable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("u" * 24, _payload(1))
        index_path = os.path.join(store.root, "index.json")
        os.unlink(index_path)
        assert set(store.load_index()["entries"]) == {"u" * 24}
        with open(index_path, "w") as handle:
            handle.write("not json at all")
        assert set(store.load_index()["entries"]) == {"u" * 24}
        assert "u" * 24 in json.load(open(index_path))["entries"]

    def test_quarantined_session_counter_in_stats(self, tmp_path):
        store, key = self._store_with_entry(tmp_path)
        with open(
            os.path.join(store._entry_dir(key), "profiles.json"), "w"
        ) as handle:
            handle.write("{broken")
        store.get(key)
        assert store.stats()["session_quarantined"] == 1


class TestRunnerIntegration:
    def test_warm_run_executes_zero_interpreter_steps(self, tmp_path):
        cold_tel, warm_tel = Telemetry(), Telemetry()
        cold = ExperimentRunner(
            scale="small", store=ArtifactStore(tmp_path), telemetry=cold_tel
        )
        warm = ExperimentRunner(
            scale="small", store=ArtifactStore(tmp_path), telemetry=warm_tel
        )
        cold_art = cold.artifacts("tee")
        warm_art = warm.artifacts("tee")

        assert cold_tel.records[0].store == "miss"
        assert cold_tel.totals()["interp_instructions"] > 0
        assert warm_tel.records[0].store == "hit"
        assert warm_tel.totals()["interp_instructions"] == 0

        from repro.ir.printer import format_program

        assert format_program(warm_art.placement.program) == format_program(
            cold_art.placement.program
        )
        assert warm_art.placement.order == cold_art.placement.order
        assert np.array_equal(
            warm.addresses("tee", "optimized"),
            cold.addresses("tee", "optimized"),
        )
        assert np.array_equal(
            warm.addresses("tee", "natural"),
            cold.addresses("tee", "natural"),
        )

    def test_entries_split_on_opt_passes_only(self, tmp_path):
        store = ArtifactStore(tmp_path)
        telemetry = Telemetry()
        for options in (
            PlacementOptions(),
            PlacementOptions(inline=None),
            PlacementOptions(min_prob=0.9, select_traces=False),
        ):
            ExperimentRunner(
                scale="small", options=options, store=store,
                telemetry=telemetry,
            ).artifacts("tee")
        assert len(store.entries()) == 1
        assert telemetry.totals()["store_misses"] == 1
        ExperimentRunner(
            scale="small", options=PlacementOptions.tuned(opt_passes="dce"),
            store=store,
        ).artifacts("tee")
        assert len(store.entries()) == 2

    def test_store_off_still_works(self):
        telemetry = Telemetry()
        runner = ExperimentRunner(scale="small", telemetry=telemetry)
        runner.artifacts("tee")
        assert telemetry.records[0].store == "off"
        assert telemetry.totals()["interp_instructions"] > 0
