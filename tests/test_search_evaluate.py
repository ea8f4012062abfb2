"""The evaluator: trial lowering, engine integration, caching, determinism."""

from __future__ import annotations

import pytest

from repro import obs
from repro.engine.store import ArtifactStore, artifact_key
from repro.engine.telemetry import Telemetry
from repro.experiments import table6, table7
from repro.experiments.runner import ExperimentRunner
from repro.placement.pipeline import PlacementOptions
from repro.search import strategies
from repro.search.evaluate import run_search, trial_job_id, tune_plan
from repro.search.space import default_space
from repro.search.strategies import (
    GridStrategy,
    RandomStrategy,
    SuccessiveHalvingStrategy,
    make_strategy,
)

WORKLOADS = ["cmp", "wc"]


def _strip(records):
    """Trial records with the non-deterministic fields removed."""
    out = []
    for record in records:
        record = dict(record)
        record.pop("wall_s", None)
        out.append(record)
    return out


class TestTunePlan:
    def test_artifact_jobs_shared_across_cache_axes(self):
        space = default_space()
        default = space.default_candidate()
        trials = [
            {"trial": 0, "candidate": default,
             "fingerprint": space.fingerprint(default)},
            {"trial": 1, "candidate": {**default, "cache_bytes": 8192},
             "fingerprint": space.fingerprint(
                 {**default, "cache_bytes": 8192})},
        ]
        specs = tune_plan(trials, rung=0, workloads=WORKLOADS, scale="small")
        artifact_specs = [s for s in specs if s.kind == "artifacts"]
        trial_specs = [s for s in specs if s.kind == "trial"]
        # Same placement fingerprint -> one artifact job per workload.
        assert len(artifact_specs) == len(WORKLOADS)
        assert len(trial_specs) == 2
        assert trial_specs[0].deps == trial_specs[1].deps
        assert all("placement" in s.params for s in artifact_specs)

    def test_artifact_jobs_split_on_opt_only(self):
        # Store entries are executions keyed by (workload, passes): a
        # min_prob change re-places from the same execution, a pass
        # change needs an execution of its own.
        space = default_space()
        default = space.default_candidate()
        candidates = [
            default,
            {**default, "min_prob": 0.9},
            {**default, "opt": "dce"},
            {**default, "opt": "dce", "min_prob": 0.5},
        ]
        trials = [
            {"trial": index, "candidate": candidate,
             "fingerprint": space.fingerprint(candidate)}
            for index, candidate in enumerate(candidates)
        ]
        specs = tune_plan(trials, rung=0, workloads=WORKLOADS, scale="small")
        artifact_specs = [s for s in specs if s.kind == "artifacts"]
        trial_specs = [s for s in specs if s.kind == "trial"]
        assert len(artifact_specs) == 2 * len(WORKLOADS)
        assert trial_specs[0].deps == trial_specs[1].deps
        assert trial_specs[2].deps == trial_specs[3].deps
        assert not set(trial_specs[0].deps) & set(trial_specs[2].deps)
        assert sorted(s.params["placement"]["opt"] for s in artifact_specs) == (
            ["dce"] * len(WORKLOADS) + ["none"] * len(WORKLOADS)
        )

    def test_trial_job_ids_encode_trial_and_rung(self):
        assert trial_job_id(3, 1) == "trial:t003r1"


class TestStoreKeys:
    def test_min_prob_shares_artifact_key(self):
        a = PlacementOptions.tuned(min_prob=0.7)
        b = PlacementOptions.tuned(min_prob=0.8)
        assert (
            artifact_key("cmp", "small", a.opt)
            == artifact_key("cmp", "small", b.opt)
        )
        c = PlacementOptions.tuned(min_prob=0.7, opt_passes="dce")
        assert (
            artifact_key("cmp", "small", a.opt)
            != artifact_key("cmp", "small", c.opt)
        )

    def test_configs_differing_in_min_prob_share_one_entry(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        telemetry_a = Telemetry()
        first = ExperimentRunner(
            scale="small", options=PlacementOptions.tuned(min_prob=0.7),
            store=store, telemetry=telemetry_a,
        ).artifacts("cmp")
        assert telemetry_a.totals()["store_misses"] == 1

        # A different MIN_PROB replays the first config's execution...
        telemetry_b = Telemetry()
        ExperimentRunner(
            scale="small", options=PlacementOptions.tuned(min_prob=0.8),
            store=store, telemetry=telemetry_b,
        ).artifacts("cmp")
        totals_b = telemetry_b.totals()
        assert totals_b["store_hits"] == 1
        assert totals_b["interp_instructions"] == 0

        # ...and the identical config rehydrates what it computed.
        telemetry_c = Telemetry()
        again = ExperimentRunner(
            scale="small", options=PlacementOptions.tuned(min_prob=0.7),
            store=store, telemetry=telemetry_c,
        ).artifacts("cmp")
        totals_c = telemetry_c.totals()
        assert totals_c["store_hits"] == 1
        assert totals_c["interp_instructions"] == 0
        assert again.placement.order == first.placement.order
        assert len(store.entries()) == 1


class TestExactTableReproduction:
    """At the paper defaults the evaluator must reproduce table6/table7
    miss ratios exactly — the parameterization refactor added no drift."""

    def test_cache_size_sweep_matches_table6(self, small_runner):
        expected = {
            row.name: row.results for row in table6.compute(small_runner)
        }
        space = default_space().restrict(["cache_bytes"])
        result = run_search(
            space, GridStrategy(),
            workloads=small_runner.names(),
            budget=len(table6.CACHE_SIZES),
            scale="small",
        )
        assert len(result.trials) == len(table6.CACHE_SIZES)
        for record in result.trials:
            cache_bytes = record["candidate"]["cache_bytes"]
            for name, stats in record["workloads"].items():
                miss, traffic = expected[name][cache_bytes]
                assert stats["miss_ratio"] == miss
                assert stats["traffic_ratio"] == traffic

    def test_block_size_sweep_matches_table7(self, small_runner):
        expected = {
            row.name: row.results for row in table7.compute(small_runner)
        }
        space = default_space().restrict(["block_bytes"])
        result = run_search(
            space, GridStrategy(),
            workloads=small_runner.names(),
            budget=len(table7.BLOCK_SIZES),
            scale="small",
        )
        assert len(result.trials) == len(table7.BLOCK_SIZES)
        for record in result.trials:
            block_bytes = record["candidate"]["block_bytes"]
            for name, stats in record["workloads"].items():
                miss, traffic = expected[name][block_bytes]
                assert stats["miss_ratio"] == miss
                assert stats["traffic_ratio"] == traffic


class TestRunSearch:
    def test_default_candidate_is_trial_zero(self):
        result = run_search(
            default_space(), RandomStrategy(seed=5), WORKLOADS,
            budget=3, scale="small",
        )
        default = result.default_trial()
        assert default is not None
        assert default["candidate"] == default_space().default_candidate()
        assert default["status"] == "ok"

    def test_same_seed_same_results_across_jobs(self):
        """Satellite: --jobs 1 and --jobs 4 produce the identical trial
        sequence and Pareto front for a fixed seed and budget."""
        kwargs = dict(workloads=WORKLOADS, budget=6, scale="small")
        sequential = run_search(
            default_space(), RandomStrategy(seed=7), jobs=1, **kwargs
        )
        parallel = run_search(
            default_space(), RandomStrategy(seed=7), jobs=4, **kwargs
        )
        assert _strip(sequential.records) == _strip(parallel.records)
        assert _strip(sequential.front) == _strip(parallel.front)
        assert sequential.winners == parallel.winners
        assert sequential.sensitivity == parallel.sensitivity

    def test_warm_rerun_is_store_served(self):
        kwargs = dict(workloads=WORKLOADS, budget=4, scale="small")
        run_search(default_space(), RandomStrategy(seed=11), **kwargs)
        telemetry = Telemetry()
        warm = run_search(
            default_space(), RandomStrategy(seed=11),
            telemetry=telemetry, **kwargs,
        )
        totals = telemetry.totals()
        assert totals["interp_instructions"] == 0
        assert totals["store_misses"] == 0
        assert totals["store_hits"] > 0
        assert warm.front

    def test_halving_prunes_and_fronts_only_complete_trials(self,
                                                            monkeypatch):
        monkeypatch.setattr(strategies, "PROBE_COUNT", 1)
        result = run_search(
            default_space(),
            SuccessiveHalvingStrategy(seed=2),
            workloads=["cmp", "wc", "tee"],
            budget=4,
            scale="small",
        )
        statuses = {r["trial"]: r["status"] for r in result.trials}
        assert sorted(statuses.values()).count("pruned") == result.pruned
        assert result.pruned > 0
        complete = {t for t, s in statuses.items() if s == "ok"}
        # Pruned trials only saw the probe workload; they never enter the
        # front, and complete trials carry all three workloads.
        assert {r["trial"] for r in result.front} <= complete
        for record in result.trials:
            if record["status"] == "ok":
                assert set(record["workloads"]) == {"cmp", "wc", "tee"}
            else:
                assert set(record["workloads"]) == {"cmp"}

    def test_observability_spans_and_metrics(self, monkeypatch):
        monkeypatch.setattr(strategies, "PROBE_COUNT", 1)
        recorder = obs.Recorder()
        with obs.use(recorder):
            run_search(
                default_space(),
                SuccessiveHalvingStrategy(seed=2),
                workloads=["cmp", "wc", "tee"],
                budget=4,
                scale="small",
            )
        span_names = {
            r["name"] for r in recorder.records if r["type"] == "span"
        }
        assert {"search", "trial", "job"} <= span_names
        counters = recorder.metrics.counter_values()
        assert counters["search.trials"] >= 4
        assert counters["search.pruned"] >= 1
        trial_spans = [
            r for r in recorder.records
            if r["type"] == "span" and r["name"] == "trial"
        ]
        assert all("fingerprint" in s["attrs"] for s in trial_spans)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="budget"):
            run_search(default_space(), GridStrategy(), WORKLOADS, budget=0)
        with pytest.raises(ValueError, match="workload"):
            run_search(default_space(), GridStrategy(), [], budget=1)

    def test_make_strategy_round_trip(self):
        result = run_search(
            default_space(), make_strategy("grid"),
            WORKLOADS, budget=2, scale="small",
        )
        assert result.strategy == "grid"
        assert len(result.trials) == 2
