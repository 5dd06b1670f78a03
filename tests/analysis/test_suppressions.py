"""Suppression machinery: inline directives, justification rules,
staleness and strict exit codes, and line-independent fingerprints."""

from __future__ import annotations

from repro.analysis import ExceptionSafetyChecker, analyze_source

BROKEN = (
    "def swallow(op):\n"
    "    try:\n"
    "        op()\n"
    "    except Exception:\n"
    "        return None\n"
)


def test_inline_ignore_with_justification_suppresses():
    text = BROKEN.replace(
        "except Exception:",
        "except Exception:  # analysis: ignore[EXC002]: fixture — swallow is the contract",
    )
    result = analyze_source(text)
    assert not [f for f in result.findings if f.code == "EXC002"]
    assert [f.code for f in result.suppressed] == ["EXC002"]


def test_ignore_directive_on_the_line_above_also_applies():
    text = BROKEN.replace(
        "    except Exception:",
        "    # analysis: ignore[EXC002]: fixture — swallow is the contract\n"
        "    except Exception:",
    )
    result = analyze_source(text)
    assert not [f for f in result.findings if f.code == "EXC002"]


def test_unjustified_ignore_is_rejected_and_does_not_suppress():
    text = BROKEN.replace(
        "except Exception:",
        "except Exception:  # analysis: ignore[EXC002]: TODO later",
    )
    result = analyze_source(text)
    codes = [f.code for f in result.findings]
    assert "ANA001" in codes  # the malformed directive itself
    assert "EXC002" in codes  # ...and the finding it failed to silence


def test_directive_that_silences_nothing_is_stale_only_under_strict():
    text = "def fine():  # analysis: ignore[EXC002]: fixture — nothing here\n"
    result = analyze_source(text + "    return 1\n")
    assert [(f.code, f.line) for f in result.findings] == [("ANA002", 1)]
    assert "ignore[EXC002]" in result.findings[0].message
    assert result.exit_code(strict=False) == 0
    assert result.exit_code(strict=True) == 1


def test_directive_for_a_family_that_did_not_run_is_not_stale():
    text = "def fine():  # analysis: ignore[RACE004]: fixture — not judged\n"
    result = analyze_source(
        text + "    return 1\n", checkers=[ExceptionSafetyChecker(scope=())]
    )
    assert result.findings == []
    assert result.exit_code(strict=True) == 0


def test_fingerprints_survive_line_drift():
    shifted = "\n\n\n" + BROKEN
    original = analyze_source(BROKEN).findings
    moved = analyze_source(shifted).findings
    assert {f.fingerprint for f in original} == {f.fingerprint for f in moved}
    assert {f.line for f in original} != {f.line for f in moved}
