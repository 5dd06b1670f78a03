"""Config-flag hygiene and runtime_report shape drift."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Severity, analyze_source, run_checkers
from repro.analysis.checkers import ConfigFlagChecker
from repro.analysis.source import Project, SourceFile

from tests.analysis.conftest import line_of, load_fixture

CONFIG_TEXT = (
    "class RuntimeConfig:\n"
    "    # fast path: delta shipping, off by default.\n"
    "    delta_shipping: bool = False\n"
)

CONSUMER_TEXT = (
    "def ship(config, payload):\n"
    "    if config.delta_shipping:\n"
    "        return payload\n"
    "    return None\n"
)


def _cfg_codes(text):
    return {
        (f.code, f.line)
        for f in analyze_source(text).findings
        if f.code.startswith("CFG")
    }


def _project_findings(files: dict[str, str]):
    root = Path(".").resolve()
    sources = [
        SourceFile.from_text(text, root / name, root)
        for name, text in sorted(files.items())
    ]
    project = Project(root=root, files=sources)
    return run_checkers(project, [ConfigFlagChecker(scope=())]).findings


def test_fast_path_flag_defaulting_on_is_cfg001():
    text = load_fixture("cfg_violations.py")
    assert ("CFG001", line_of(text, "MARK:CFG001")) in _cfg_codes(text)


def test_fast_path_flag_defaulting_off_is_clean():
    text = load_fixture("cfg_violations.py")
    ok_line = line_of(text, "MARK:ok-flag")
    assert ("CFG001", ok_line) not in _cfg_codes(text)


def test_unconsulted_field_is_cfg002():
    text = load_fixture("cfg_violations.py")
    assert ("CFG002", line_of(text, "MARK:CFG002")) in _cfg_codes(text)


def test_consulted_field_is_clean_across_files():
    findings = _project_findings(
        {"config.py": CONFIG_TEXT, "shipping.py": CONSUMER_TEXT}
    )
    assert not [f for f in findings if f.code == "CFG002"]


def test_consumed_but_never_produced_key_is_a_cfg003_error():
    text = load_fixture("cfg_violations.py")
    line = line_of(text, "MARK:CFG003-missing")
    hits = [
        f
        for f in analyze_source(text).findings
        if f.code == "CFG003" and f.line == line
    ]
    assert hits and hits[0].severity is Severity.ERROR
    assert "misses" in hits[0].message


def test_orphan_counter_is_a_cfg003_warning():
    text = load_fixture("cfg_violations.py")
    line = line_of(text, "MARK:CFG003-orphan")
    hits = [
        f
        for f in analyze_source(text).findings
        if f.code == "CFG003" and f.line == line
    ]
    assert hits and hits[0].severity is Severity.WARNING
    assert "stalls" in hits[0].message


def test_counter_referenced_in_another_module_is_not_an_orphan():
    """A counter key mentioned anywhere else in the project (an assertion,
    an exporter) counts as observed."""
    report_text = (
        "def runtime_report(stats):\n"
        "    return {'cache': {'hits': stats.hits}}\n"
    )
    probe_text = "EXPECTED_KEYS = ('hits',)\n"
    findings = _project_findings(
        {"report.py": report_text, "probe.py": probe_text}
    )
    assert not [f for f in findings if f.code == "CFG003"]
