"""The real tree is strict-clean, and every suppression in it is live.

This is the same gate CI runs (``python -m repro.analysis --strict``): if
a test here fails, either fix the finding or justify it with an inline
``# analysis: ignore[CODE]: why`` directive — never weaken a checker to
make it pass, and delete a directive once it silences nothing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_CHECKERS,
    AnalysisResult,
    analyze_paths,
    run_checkers,
)
from repro.analysis.callgraph import CallGraph
from repro.analysis.source import Project, discover_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]
#: what ``python -m repro.analysis`` analyses with no path arguments.
DEFAULT_TREE = [
    REPO_ROOT / "src" / "repro",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "examples",
]
#: inline ignore directives in the default tree may only go down.
MAX_DIRECTIVES = 29


@pytest.fixture(scope="module")
def default_run() -> tuple[Project, AnalysisResult]:
    project = Project.from_files(
        discover_python_files(DEFAULT_TREE, REPO_ROOT), root=REPO_ROOT
    )
    return project, run_checkers(project, [c() for c in ALL_CHECKERS])


def test_live_tree_is_strict_clean(default_run):
    _, result = default_run
    assert result.exit_code(strict=True) == 0, "\n".join(
        f.render() for f in result.findings
    )


def test_every_directive_is_still_live(default_run):
    """Stale suppressions must be pruned, not accumulated."""
    _, result = default_run
    assert [f.render() for f in result.findings if f.code == "ANA002"] == []
    assert result.suppressed  # the directives silence real findings


def test_directive_count_only_goes_down(default_run):
    project, _ = default_run
    directives = [
        f"{source.relpath}:{directive.line}"
        for source in project.files
        for directive in source.directives.ignores
    ]
    assert len(directives) <= MAX_DIRECTIVES, directives


def test_one_call_graph_per_run(monkeypatch):
    built: list[Project] = []
    original = CallGraph.__init__

    def counting_init(self: CallGraph, project: Project) -> None:
        built.append(project)
        original(self, project)

    monkeypatch.setattr(CallGraph, "__init__", counting_init)
    project = Project.from_paths(
        [REPO_ROOT / "src" / "repro" / "ft"], root=REPO_ROOT
    )
    run_checkers(project, [checker() for checker in ALL_CHECKERS])
    assert len(built) == 1


def test_cli_strict_gate_matches_programmatic_result():
    from repro.analysis import run

    assert run(["--root", str(REPO_ROOT), "--strict"]) == 0


def test_semantic_pass_leaves_orb_registries_untouched():
    """The semantic IDL cross-check recompiles live IDL documents; it must
    not displace the exception/interface classes the running code uses
    (a stale USER_EXCEPTION_REGISTRY entry would make ``except
    BadDeltaBase:`` miss the class the decoder rebuilds)."""
    from repro.orb.stubs import INTERFACE_ANCESTRY, USER_EXCEPTION_REGISTRY
    from repro.services import checkpoint  # populates the registries

    before_exceptions = dict(USER_EXCEPTION_REGISTRY)
    before_ancestry = dict(INTERFACE_ANCESTRY)
    assert before_exceptions, "checkpoint IDL should register exceptions"
    analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert USER_EXCEPTION_REGISTRY == before_exceptions
    assert all(
        USER_EXCEPTION_REGISTRY[k] is v for k, v in before_exceptions.items()
    )
    assert INTERFACE_ANCESTRY == before_ancestry
