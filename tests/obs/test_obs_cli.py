"""``python -m repro.obs`` subcommands, exercised through ``cli.main``."""

import json
from pathlib import Path

import pytest

from repro.obs.cli import main


def _snapshot_file(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


def _gauge(name, value, **labels):
    return {"name": name, "kind": "gauge", "labels": labels, "value": value}


RECOVERY_BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "BENCH_recovery.json"
)

BASELINE = [
    _gauge("bench_runtime_seconds", 2.0, failures="1"),
    _gauge("bench_recovery_time_seconds", 0.016, failures="1"),
]


# -- check: the regression gate ---------------------------------------------------


def test_check_passes_on_identical_snapshots(tmp_path, capsys):
    baseline = _snapshot_file(tmp_path, "base.json", BASELINE)
    current = _snapshot_file(tmp_path, "cur.json", BASELINE)
    assert main(["check", "--baseline", baseline, "--current", current]) == 0
    assert "0 regressed" in capsys.readouterr().out


def test_check_fails_on_injected_regression(tmp_path, capsys):
    baseline = _snapshot_file(tmp_path, "base.json", BASELINE)
    doctored = [dict(BASELINE[0], value=3.0), BASELINE[1]]
    current = _snapshot_file(tmp_path, "cur.json", doctored)
    assert main(["check", "--baseline", baseline, "--current", current]) == 1
    out = capsys.readouterr().out
    assert "1 regressed" in out
    assert "REGRESSED" in out
    # json.loads reads NaN: a NaN current value is a regression too
    doctored = [dict(BASELINE[0], value=float("nan")), BASELINE[1]]
    current = _snapshot_file(tmp_path, "nan.json", doctored)
    assert main(["check", "--baseline", baseline, "--current", current]) == 1


def test_check_writes_delta_json(tmp_path):
    baseline = _snapshot_file(tmp_path, "base.json", BASELINE)
    current = _snapshot_file(tmp_path, "cur.json", BASELINE)
    out = tmp_path / "deltas.json"
    main([
        "check", "--baseline", baseline, "--current", current,
        "--json", str(out),
    ])
    deltas = json.loads(out.read_text())
    assert len(deltas) == 2
    assert all(not d["regressed"] for d in deltas)


def test_check_missing_files_exit_2(tmp_path, capsys):
    baseline = _snapshot_file(tmp_path, "base.json", BASELINE)
    assert main(["check", "--baseline", str(tmp_path / "nope.json")]) == 2
    assert main([
        "check", "--baseline", baseline,
        "--current", str(tmp_path / "nope.json"),
    ]) == 2
    assert "not found" in capsys.readouterr().err


def test_check_tolerance_flag_widens_the_gate(tmp_path):
    baseline = _snapshot_file(tmp_path, "base.json", BASELINE)
    doctored = [dict(BASELINE[0], value=2.2), BASELINE[1]]  # +10%
    current = _snapshot_file(tmp_path, "cur.json", doctored)
    assert main(["check", "--baseline", baseline, "--current", current]) == 1
    assert main([
        "check", "--baseline", baseline, "--current", current,
        "--tolerance", "0.2",
    ]) == 0


# -- live-scenario smoke (small workloads) ----------------------------------------


def test_check_regenerates_the_pinned_recovery_cell(tmp_path, capsys):
    """Without ``--current`` the gate reruns the quick recovery cell; its
    simulated results match the pinned ``BENCH_recovery.json`` exactly."""
    out = tmp_path / "deltas.json"
    assert main([
        "check", "--baseline", str(RECOVERY_BASELINE), "--json", str(out),
    ]) == 0
    assert "quick scenario" in capsys.readouterr().out
    deltas = json.loads(out.read_text())
    assert len(deltas) == 4
    assert all(d["change"] == 0.0 for d in deltas)


@pytest.mark.parametrize(
    "target, root",
    [("recovery", "ft:recover"), ("request", "ft:add")],
    ids=["recovery", "request"],
)
def test_critical_path_live_recovery_smoke(target, root, capsys):
    rc = main([
        "critical-path", "--calls", "6", "--work", "0.02", "--failures", "1",
        "--target", target,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"critical path of {root} " in out
    assert "breakdown:" in out
