"""Tests for the chaos campaign harness: the scenario catalogue, single
cells, the matrix runner, invariant checking, and the CLI."""

import json

import pytest

from repro.chaos import (
    CampaignConfig,
    export_campaign_metrics,
    get_scenario,
    run_campaign,
    run_scenario,
    scenario_names,
)
from repro.chaos.__main__ import main
from repro.obs import MetricsRegistry


def fast_config(**overrides):
    config = CampaignConfig.fast(seeds=(11,))
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


# -- the catalogue -------------------------------------------------------------


def test_catalogue_has_the_required_breadth():
    names = scenario_names()
    assert len(names) >= 6
    for required in (
        "baseline",
        "crash-restart",
        "partition-heal",
        "latency-spike",
        "gray-host",
        "flapping",
        "store-outage",
        "loss-burst",
    ):
        assert required in names
    for name in names:
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.description


def test_unknown_scenario_is_a_helpful_error():
    with pytest.raises(KeyError, match="baseline"):
        get_scenario("no-such-scenario")


# -- single cells --------------------------------------------------------------


def test_baseline_cell_passes_all_invariants():
    report = run_scenario("baseline", 11, fast_config())
    assert report.violations == []
    assert report.acc_ok >= 12
    assert report.acc_final_total == pytest.approx(report.acc_ok)
    assert report.recoveries == 0  # nothing was injected


def test_crash_restart_cell_recovers_and_stays_consistent():
    report = run_scenario("crash-restart", 11, fast_config())
    assert report.violations == []
    assert report.recoveries >= 1
    assert report.chaos_events  # the injector recorded its plans


def test_store_outage_cell_exercises_degraded_mode():
    report = run_scenario("store-outage", 11, fast_config())
    assert report.violations == []
    assert report.checkpoints_buffered > 0
    assert report.checkpoints_flushed > 0 or report.restores_from_buffer > 0
    assert report.checkpoint_buffer_depth_end == 0


def test_cells_are_deterministic_per_seed():
    def cell():
        r = run_scenario("crash-restart", 13, fast_config())
        return (
            r.acc_ok,
            r.acc_failed,
            r.recoveries,
            r.attempts_total,
            r.sim_seconds,
        )

    assert cell() == cell()


def test_seed_actually_varies_the_run():
    a = run_scenario("crash-restart", 11, fast_config())
    b = run_scenario("crash-restart", 12, fast_config())
    assert a.sim_seconds != b.sim_seconds


def test_crash_restart_cell_passes_with_pipelined_checkpoints():
    report = run_scenario(
        "crash-restart", 11, fast_config(checkpoint_mode="pipelined")
    )
    assert report.violations == []
    assert report.recoveries >= 1
    # Recovery and shutdown both drained the pipeline.
    assert report.checkpoint_pipeline_depth_end == 0


def test_store_outage_cell_passes_with_pipelined_deltas():
    report = run_scenario(
        "store-outage",
        11,
        fast_config(checkpoint_mode="pipelined", checkpoint_deltas=True),
    )
    assert report.violations == []
    assert report.checkpoints_buffered > 0
    assert report.checkpoint_buffer_depth_end == 0
    assert report.checkpoint_pipeline_depth_end == 0


def test_pipeline_left_inflight_is_a_violation():
    report = run_scenario("baseline", 11, fast_config())
    assert report.violations == []
    report.checkpoint_pipeline_depth_end = 2
    from repro.chaos.invariants import check_report

    assert any("still in flight" in v for v in check_report(report))


# -- the matrix ----------------------------------------------------------------


def test_run_campaign_covers_the_whole_matrix():
    config = fast_config()
    config.seeds = (11, 12)
    config.scenarios = ("baseline", "store-outage")
    seen = []
    result = run_campaign(config, progress=lambda r: seen.append(r))
    assert len(result.reports) == 4
    assert len(seen) == 4
    assert result.ok
    assert result.violations == []
    payload = result.to_dict()
    assert payload["ok"] is True
    assert payload["cells"] == 4
    assert {r["scenario"] for r in payload["reports"]} == {
        "baseline",
        "store-outage",
    }
    json.dumps(payload, default=str)  # must be serialisable


def test_export_campaign_metrics_publishes_each_cell():
    config = fast_config()
    config.scenarios = ("baseline",)
    result = run_campaign(config)
    registry = MetricsRegistry()
    export_campaign_metrics(result, registry)
    names = {instrument.name for instrument in registry}
    assert "chaos_invariant_violations" in names
    assert "chaos_acc_ok_calls" in names
    by_label = {
        (i.name, i.label_dict.get("scenario"), i.label_dict.get("seed"))
        for i in registry
    }
    assert ("chaos_acc_ok_calls", "baseline", "11") in by_label


def test_violations_fail_a_report():
    config = fast_config()
    config.scenarios = ("baseline",)
    result = run_campaign(config)
    report = result.reports[0]
    assert report.ok
    report.violations.append("synthetic violation")
    assert not report.ok
    assert not result.ok
    assert result.violations == ["baseline/seed=11: synthetic violation"]


# -- the CLI -------------------------------------------------------------------


def test_cli_runs_a_small_matrix(tmp_path, capsys):
    out = tmp_path / "campaign.json"
    code = main(
        ["--scenarios", "baseline", "--seeds", "11", "--fast", "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["cells"] == 1
    printed = capsys.readouterr().out
    assert "baseline" in printed
    assert "1 passed, 0 failed" in printed


def test_cli_accepts_fastpath_flags(capsys):
    code = main(
        [
            "--scenarios",
            "crash-restart",
            "--seeds",
            "12",
            "--fast",
            "--checkpoint-mode",
            "pipelined",
            "--deltas",
        ]
    )
    assert code == 0
    assert "1 passed, 0 failed" in capsys.readouterr().out
