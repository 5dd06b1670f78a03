"""Tests for the benchmark harness drivers (tiny grids, fast)."""

import json
from pathlib import Path

from repro.bench import (
    Fig3Point,
    fig3_curves,
    fig3_sweep,
    format_table,
    table1_sweep,
    write_json,
)
from repro.opt import WorkerSettings

TINY = WorkerSettings(work_per_eval_per_dim=2e-7, real_iteration_cap=24)


def test_fig3_sweep_produces_full_grid():
    points = fig3_sweep(
        configs=("30/3",),
        background_hosts=(0, 2),
        worker_iterations=10_000,
        manager_iterations=4,
        settings=TINY,
    )
    assert len(points) == 4  # 1 config x 2 strategies x 2 bg values
    curves = fig3_curves(points)
    assert set(curves) == {("CORBA", "30/3"), ("CORBA/Winner", "30/3")}
    for curve in curves.values():
        assert [p.background_hosts for p in curve] == [0, 2]


def test_fig3_sweep_deterministic():
    kwargs = dict(
        configs=("30/3",),
        background_hosts=(2,),
        worker_iterations=10_000,
        manager_iterations=4,
        settings=TINY,
        seed=11,
    )
    first = fig3_sweep(**kwargs)
    second = fig3_sweep(**kwargs)
    assert first == second


def test_fig3_pin_is_current():
    """Four cells of the tracked Fig. 3 artifact, recomputed and compared
    exactly: the pin went stale once (every runtime ~9e-5 s behind the
    code for eleven PRs) because only the 2-decimal table was ever read."""
    results = Path(__file__).parents[2] / "benchmarks" / "results"
    pin_file = results / "fig3_load_distribution.json"
    pinned = {
        (p["config"], p["strategy"], p["background_hosts"]): p
        for p in json.loads(pin_file.read_text())["points"]
    }
    points = fig3_sweep(configs=("30/3",), background_hosts=(0, 2))
    assert len(points) == 4
    for point in points:
        pin = pinned[(point.config, point.strategy, point.background_hosts)]
        assert point.runtime == pin["runtime"]
        assert point.fun == pin["fun"]
        assert list(point.placements) == pin["placements"]


def test_table1_sweep_rows_and_overhead():
    rows = table1_sweep(
        iterations=(5_000, 20_000),
        manager_iterations=4,
        settings=TINY,
    )
    assert [row.iterations for row in rows] == [5_000, 20_000]
    for row in rows:
        assert row.runtime_with_proxy > row.runtime_without_proxy
        assert row.overhead_percent > 0
    assert rows[0].overhead_percent > rows[1].overhead_percent


def test_format_table_alignment():
    text = format_table(
        ["name", "value"],
        [["a", 1.23456], ["longer", 7]],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "1.235" in text  # floats rendered to 3 decimals
    assert len({len(line) for line in lines[2:]}) == 1  # aligned rows


def test_write_json_roundtrip(tmp_path):
    import json

    path = write_json(
        tmp_path / "out.json",
        {"points": [Fig3Point("30/3", "CORBA", 0, 1.0, 2.0, ("ws01",))]},
    )
    payload = json.loads(path.read_text())
    assert payload["points"][0]["strategy"] == "CORBA"
    assert payload["points"][0]["placements"] == ["ws01"]
