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


def test_check_report_only_downgrades_to_zero(tmp_path, capsys):
    baseline = _snapshot_file(tmp_path, "base.json", BASELINE)
    doctored = [dict(BASELINE[0], value=3.0), BASELINE[1]]
    current = _snapshot_file(tmp_path, "cur.json", doctored)
    assert main([
        "check", "--baseline", baseline, "--current", current,
        "--report-only",
    ]) == 0
    assert "report-only" in capsys.readouterr().out


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


# -- critical-path from an exported span file -------------------------------------


def _spans_jsonl(tmp_path, spans):
    path = tmp_path / "spans.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    return str(path)


def _span(name, span_id, parent, start, end, trace="t1"):
    return {"name": name, "trace_id": trace, "span_id": span_id,
            "parent_id": parent, "start": start, "end": end,
            "host": "", "attrs": {}}


def test_critical_path_from_spans_file(tmp_path, capsys):
    spans = _spans_jsonl(tmp_path, [
        _span("ft:recover", "1", None, 0.0, 1.0),
        _span("call:load", "2", "1", 0.2, 0.8),
    ])
    out = tmp_path / "path.json"
    assert main([
        "critical-path", "--spans", spans, "--json", str(out),
    ]) == 0
    assert "critical path of ft:recover" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["total"] == pytest.approx(1.0)
    assert sum(payload["breakdown"].values()) == pytest.approx(1.0)


def test_critical_path_empty_spans_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["critical-path", "--spans", str(path)]) == 2
    assert "no spans" in capsys.readouterr().err


def test_critical_path_unknown_root_exits_2(tmp_path, capsys):
    spans = _spans_jsonl(
        tmp_path, [_span("call:add", "1", None, 0.0, 1.0)]
    )
    assert main([
        "critical-path", "--spans", spans, "--root", "ft:recover",
    ]) == 2
    assert "error" in capsys.readouterr().err


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


def test_critical_path_live_recovery_smoke(capsys):
    rc = main([
        "critical-path", "--calls", "6", "--work", "0.02", "--failures", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path of ft:recover" in out
    assert "breakdown:" in out
