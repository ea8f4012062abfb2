"""Store GC, per-key compute locks, and multi-process safety."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.engine import store as store_module
from repro.engine.store import ArtifactPayload, ArtifactStore


def _payload(tag: int = 0, size: int = 10) -> ArtifactPayload:
    return ArtifactPayload(
        profiles={"pre": {"tag": tag}},
        arrays={"trace_block_ids": np.arange(size, dtype=np.int32) + tag},
        meta={"workload": f"wl{tag}", "scale": "small"},
    )


def _key(tag: int) -> str:
    return f"{tag:024d}"


# -- gc --------------------------------------------------------------------


class TestGC:
    def test_empty_store(self, tmp_path):
        report = ArtifactStore(tmp_path).gc(0)
        assert report == {
            "bytes_before": 0, "bytes_after": 0,
            "quarantine_removed": 0, "evicted": 0,
        }

    def test_fits_within_budget_evicts_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag in range(3):
            store.put(_key(tag), _payload(tag))
        report = store.gc(1 << 30)
        assert report["evicted"] == 0
        assert report["quarantine_removed"] == 0
        assert len(store.entries()) == 3

    def test_evicts_lru_first_down_to_budget(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag in range(4):
            store.put(_key(tag), _payload(tag))
        # Touch entries 2 and 3 so 0 and 1 are the LRU victims.
        time.sleep(0.01)
        store.get(_key(2))
        store.get(_key(3))
        sizes = {entry.key: entry.nbytes for entry in store.entries()}
        budget = sizes[_key(2)] + sizes[_key(3)]
        report = store.gc(budget)
        assert report["evicted"] == 2
        kept = {entry.key for entry in store.entries()}
        assert kept == {_key(2), _key(3)}
        assert report["bytes_after"] <= budget

    def test_quarantine_counts_and_goes_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag in range(2):
            store.put(_key(tag), _payload(tag))
        # Corrupt one entry; verify() moves it to quarantine.
        victim_dir = os.path.join(store.objects_dir, _key(0))
        with open(os.path.join(victim_dir, "profiles.json"), "w") as out:
            out.write("garbage")
        report = store.verify()
        assert report["corrupt"] == [_key(0)]
        stats = store.stats()
        assert stats["quarantine_entries"] == 1

        live = sum(entry.nbytes for entry in store.entries())
        # A budget that fits the live set exactly forces the quarantine
        # corpse out but keeps every live entry.
        gc_report = store.gc(live)
        assert gc_report["quarantine_removed"] == 1
        assert gc_report["evicted"] == 0
        assert store.stats()["quarantine_entries"] == 0
        assert len(store.entries()) == 1

    def test_budget_zero_empties_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag in range(3):
            store.put(_key(tag), _payload(tag))
        report = store.gc(0)
        assert report["evicted"] == 3
        assert report["bytes_after"] == 0
        assert store.entries() == []

    def test_cli_gc_requires_max_bytes(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "gc", "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--max-bytes" in capsys.readouterr().err


# -- per-key compute locks -------------------------------------------------


class TestClaims:
    def test_single_claimant_wins(self, tmp_path):
        """One holder at a time, across two store objects."""
        first = ArtifactStore(tmp_path)
        second = ArtifactStore(tmp_path)
        events = []

        def enter_second():
            with second.computing(_key(7)) as published:
                events.append(("second in", published))

        with first.computing(_key(7)) as published:
            assert published is None
            thread = threading.Thread(target=enter_second)
            thread.start()
            time.sleep(0.3)
            events.append(("first out", None))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert events == [("first out", None), ("second in", None)]
        assert os.listdir(first.inflight_dir) == []

    def test_claim_refused_when_published(self, tmp_path):
        """A published key is handed back, never recomputed."""
        store = ArtifactStore(tmp_path)
        store.put(_key(7), _payload(7))
        with store.computing(_key(7)) as published:
            assert published is not None
            assert published.profiles["pre"] == {"tag": 7}

    def test_wait_for_returns_published_payload(self, tmp_path):
        producer = ArtifactStore(tmp_path)
        consumer = ArtifactStore(tmp_path)
        received = []

        def consume():
            with consumer.computing(_key(9)) as published:
                received.append(published)

        with producer.computing(_key(9)) as published:
            assert published is None
            thread = threading.Thread(target=consume)
            thread.start()
            time.sleep(0.1)
            producer.put(_key(9), _payload(9))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert received[0] is not None
        assert received[0].profiles["pre"] == {"tag": 9}
        assert consumer.waits == 1
        assert producer.waits == 0

    def test_wait_for_gives_up_on_dead_claimant(self, tmp_path, monkeypatch):
        """A ``kill -9``'d holder's lock dies with it: the waiter computes."""
        monkeypatch.setattr(store_module, "WAIT_LIMIT_S", 10.0)
        package_dir = os.path.dirname(os.path.dirname(store_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package_dir))
        script = (
            "import sys, time\n"
            "from repro.engine.store import ArtifactStore\n"
            "with ArtifactStore(sys.argv[1]).computing(sys.argv[2]):\n"
            "    print('held', flush=True)\n"
            "    time.sleep(60)\n"
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), _key(5)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            waiter = ArtifactStore(tmp_path)
            killer = threading.Timer(0.3, holder.kill)   # SIGKILL
            started = time.monotonic()
            killer.start()
            with waiter.computing(_key(5)) as published:
                waited = time.monotonic() - started
                assert published is None
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()
        assert 0.2 <= waited < 2.0
        assert os.listdir(waiter.inflight_dir) == []

    def test_wedged_holder_is_waited_out(self, tmp_path, monkeypatch):
        """A live holder that never finishes gives way after WAIT_LIMIT_S.

        Regression: a daemon worker that takes a key and then wedges
        (thread hung, never released) must not block its waiters forever.
        """
        monkeypatch.setattr(store_module, "WAIT_LIMIT_S", 0.3)
        holder = ArtifactStore(tmp_path)
        waiter = ArtifactStore(tmp_path)
        with holder.computing(_key(6)):
            started = time.monotonic()
            with waiter.computing(_key(6)) as published:
                assert published is None
            assert 0.3 <= time.monotonic() - started < 2.0
        assert os.listdir(holder.inflight_dir) == []

    def test_many_builders_compute_once(self, tmp_path):
        """More builders than cores race one key: one computes, all share."""
        stores = [ArtifactStore(tmp_path) for _ in range(6)]
        computed = []
        results = [None] * len(stores)

        def build(index):
            store = stores[index]
            with store.computing(_key(4)) as published:
                if published is None:
                    computed.append(index)
                    time.sleep(0.1)
                    store.put(_key(4), _payload(4))
                    published = store.get(_key(4))
                results[index] = published.profiles["pre"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=build, args=(index,))
                for index in range(len(stores))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(computed) == 1
        assert results == [{"tag": 4}] * len(stores)
        assert sum(store.waits for store in stores) == len(stores) - 1
        assert os.listdir(stores[0].inflight_dir) == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_does_not_pin_lock(self, tmp_path, monkeypatch):
        """A child forked while a lock is held does not keep it held.

        The child's copy of the descriptor shares the parent's ``flock``;
        without the store's at-fork close, a waiter already polling the
        file would stay blocked for the child's whole life.
        """
        monkeypatch.setattr(store_module, "WAIT_LIMIT_S", 5.0)
        holder = ArtifactStore(tmp_path)
        waiter = ArtifactStore(tmp_path)
        entered = []

        def wait():
            with waiter.computing(_key(8)) as published:
                entered.append((published, time.monotonic()))

        thread = threading.Thread(target=wait)
        with holder.computing(_key(8)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                child = os.fork()
            if child == 0:
                try:
                    time.sleep(30)
                finally:
                    os._exit(0)
            thread.start()
            time.sleep(0.3)      # the waiter now polls the held file
            released = time.monotonic()
        try:
            thread.join(timeout=10)
        finally:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
        assert not thread.is_alive()
        published, entered_at = entered[0]
        assert published is None
        assert entered_at - released < 2.0


# -- the double-execution regression ---------------------------------------


class _CountingRunner:
    """An ExperimentRunner whose compute step counts invocations."""

    def __init__(self, store, computed):
        from repro.experiments.runner import ExperimentRunner

        self.runner = ExperimentRunner(scale="small", store=store)
        self.computed = computed
        original = self.runner._compute

        def counting(workload):
            self.computed.append(workload.name)
            time.sleep(0.2)     # hold the lock long enough to race
            return original(workload)

        self.runner._compute = counting


def test_concurrent_same_artifact_executes_once(tmp_path):
    """Regression: two runners racing one key must compute it once.

    Without the store's per-key compute lock, both would interpret the
    workload and double-write; now the loser waits on the winner's lock
    and hydrates the published entry.
    """
    computed: list[str] = []
    runners = [
        _CountingRunner(ArtifactStore(tmp_path), computed) for _ in range(2)
    ]
    results = [None, None]

    def build(index):
        results[index] = runners[index].runner.artifacts("wc")

    threads = [
        threading.Thread(target=build, args=(index,)) for index in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert computed == ["wc"]        # exactly one execution
    assert results[0] is not None and results[1] is not None
    assert np.array_equal(
        results[0].trace.block_ids, results[1].trace.block_ids
    )
    # Exactly one of the two stores waited on the other's lock.
    assert sum(r.runner.store.waits for r in runners) == 1
    # No leftover lock files.
    assert os.listdir(ArtifactStore(tmp_path).inflight_dir) == []


# -- two processes hammering one cache dir ---------------------------------


def _hammer(cache_dir: str, seed: int, out_queue) -> None:
    """Worker process: interleaved puts and gets against a shared store."""
    store = ArtifactStore(cache_dir)
    digests = {}
    for round_number in range(8):
        for tag in range(4):
            key = _key(tag)
            store.put(key, _payload(tag, size=50))
            payload = store.get(key)
            if payload is None:
                out_queue.put(("miss-after-put", key))
                return
            digests[key] = payload.arrays["trace_block_ids"].tobytes()
        # Exercise the mutating paths under contention too.
        store.load_index()
        if seed % 2 == 0:
            store.verify()
    out_queue.put(("ok", digests))


def test_two_processes_shared_cache_dir_no_corruption(tmp_path):
    """Two processes through the flock path: no corruption, same bytes."""
    ctx = multiprocessing.get_context("spawn")
    out_queue = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer, args=(str(tmp_path), seed, out_queue))
        for seed in range(2)
    ]
    for proc in procs:
        proc.start()
    outcomes = [out_queue.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0

    assert all(status == "ok" for status, _ in outcomes), outcomes
    # Byte-identical reads across both processes.
    first, second = (digests for _status, digests in outcomes)
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key]

    # And the surviving store verifies clean.
    store = ArtifactStore(tmp_path)
    report = store.verify()
    assert report["corrupt"] == []
    assert report["checked"] == 4
