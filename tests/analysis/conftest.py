"""Helpers shared by the static-analysis tests.

Fixture modules under ``fixtures/`` contain *deliberate* violations; they
are read as text and fed through :func:`repro.analysis.analyze_source`,
never imported.  Line expectations are computed from inline markers so the
tests assert exact lines without hard-coding brittle numbers.

The default tree is analysed once per session (:func:`default_run`);
every test that asserts on that result shares it.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import pytest

from repro.analysis import ALL_CHECKERS, AnalysisResult, run_checkers
from repro.analysis.source import Project, discover_python_files

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
#: what ``python -m repro.analysis`` analyses with no path arguments.
DEFAULT_TREE = [
    REPO_ROOT / "src" / "repro",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "examples",
]


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def line_of(text: str, marker: str) -> int:
    """1-based line of the unique line containing ``marker``."""
    hits = [
        index
        for index, line in enumerate(text.splitlines(), start=1)
        if marker in line
    ]
    assert len(hits) == 1, f"marker {marker!r} matched lines {hits}"
    return hits[0]


@pytest.fixture
def fixture_text():
    return load_fixture


class DefaultRun(NamedTuple):
    """What the tests read of the default tree's analysis."""

    #: the files analysed, in the order the CLI discovers them.
    paths: list[Path]
    #: ``relpath:line`` of every inline ignore directive.
    directives: list[str]
    result: AnalysisResult


@pytest.fixture(scope="session")
def default_run() -> DefaultRun:
    """Every checker over the default tree.  The parsed project is not
    kept: held for the whole session, its syntax trees would make every
    later full garbage collection (the scale benchmark runs one per
    cell) walk them too."""
    paths = discover_python_files(DEFAULT_TREE, REPO_ROOT)
    project = Project.from_files(paths, root=REPO_ROOT)
    return DefaultRun(
        paths=paths,
        directives=[
            f"{source.relpath}:{directive.line}"
            for source in project.files
            for directive in source.directives.ignores
        ],
        result=run_checkers(project, [c() for c in ALL_CHECKERS]),
    )
