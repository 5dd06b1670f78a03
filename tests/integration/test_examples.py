"""Smoke tests: every example script runs to completion.

Each example is executed in-process (``runpy`` with ``__main__``) with
stdout captured; its internal assertions double as correctness checks.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_complete():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # deliverable: at least three runnable examples


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{path.name} produced no output"
    assert "Traceback" not in output


def test_quickstart_avoids_loaded_hosts(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    output = capsys.readouterr().out
    for line in output.splitlines():
        if line.startswith("resolve #"):
            assert "ws01" not in line and "ws02" not in line


def test_fault_tolerant_example_recovers(capsys):
    runpy.run_path(
        str(EXAMPLES_DIR / "fault_tolerant_service.py"), run_name="__main__"
    )
    output = capsys.readouterr().out
    assert "recovered on" in output
    assert "recoveries: 1" in output


def test_parallel_optimization_shows_reduction(capsys):
    runpy.run_path(
        str(EXAMPLES_DIR / "parallel_optimization.py"), run_name="__main__"
    )
    output = capsys.readouterr().out
    assert "50%" in output or "49%" in output or "51%" in output
