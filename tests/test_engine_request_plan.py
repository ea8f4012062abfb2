"""Engine lowering of service requests (``request_plan`` + explain jobs)."""

from __future__ import annotations

import pytest

from repro.engine.jobs import request_plan
from repro.engine.scheduler import run_jobs


class TestRequestPlan:
    def test_table_request_lowers_to_table_plan(self):
        plan = request_plan({"kind": "table", "table": "table6",
                             "scale": "small"})
        kinds = {spec.kind for spec in plan}
        assert kinds == {"artifacts", "table"}
        table_specs = [spec for spec in plan if spec.kind == "table"]
        assert [spec.job_id for spec in table_specs] == ["table:table6"]
        assert table_specs[0].deps    # depends on every artifact job

    def test_explain_request_lowers_to_artifacts_then_explain(self):
        plan = request_plan({
            "kind": "explain", "workload": "wc", "scale": "small",
            "cache_bytes": 1024, "top": 3,
        })
        assert [(spec.job_id, spec.kind) for spec in plan] == [
            ("artifacts:wc", "artifacts"), ("explain:wc", "explain"),
        ]
        artifacts, explain = plan
        assert explain.deps == (artifacts.job_id,)
        assert explain.params["cache_bytes"] == 1024
        assert explain.params["top"] == 3
        # Unspecified knobs are left to explain_with_runner defaults.
        assert "assoc" not in explain.params

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="no engine lowering"):
            request_plan({"kind": "tune"})


def test_explain_job_matches_direct_explain(tmp_path, capsys):
    """``repro explain`` prints exactly the engine-lowered explain job."""
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    values = run_jobs(
        request_plan({"kind": "explain", "workload": "wc",
                      "scale": "small", "top": 3}),
        cache_dir=cache_dir,
        use_cache=True,
    )
    assert main(["explain", "wc", "--scale", "small", "--top", "3",
                 "--cache-dir", cache_dir]) == 0
    assert capsys.readouterr().out == values["explain:wc"] + "\n"
