"""Atomicity analysis: declared-atomic scopes and scheduler handoff."""

from __future__ import annotations

from repro.analysis import analyze_source

from tests.analysis.conftest import line_of, load_fixture


def _codes(text):
    return {(f.code, f.line) for f in analyze_source(text).findings}


def test_yield_inside_region_is_atm001():
    text = load_fixture("atm_violations.py")
    assert ("ATM001", line_of(text, "MARK:ATM001")) in _codes(text)


def test_atomic_function_calling_may_yield_helper_is_atm002():
    text = load_fixture("atm_violations.py")
    assert ("ATM002", line_of(text, "MARK:ATM002")) in _codes(text)


def test_scheduler_handoff_is_not_a_yield_point():
    """spawn(self._gen()) only *constructs* the generator — the atomic
    declaration on schedule_refresh must hold."""
    text = load_fixture("atm_violations.py")
    deferred_line = line_of(text, "MARK:deferred-ok")
    assert not [
        (code, line)
        for code, line in _codes(text)
        if line == deferred_line and code.startswith("ATM")
    ]


def test_witness_chain_names_the_generator():
    text = load_fixture("atm_violations.py")
    atm002 = [
        f for f in analyze_source(text).findings if f.code == "ATM002"
    ]
    assert atm002 and "_may_yield" in atm002[0].message


def test_unmatched_region_markers_are_atm004():
    snippet = (
        "def gen():\n"
        "    # analysis: atomic-begin(never-closed)\n"
        "    yield 1\n"
    )
    assert any(f.code == "ATM004" for f in analyze_source(snippet).findings)
