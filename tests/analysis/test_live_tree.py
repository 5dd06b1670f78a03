"""The real tree is strict-clean, and every suppression in it is live.

This is the same gate CI runs (``python -m repro.analysis --strict``): if
a test here fails, either fix the finding or justify it with an inline
``# analysis: ignore[CODE]: why`` directive — never weaken a checker to
make it pass, and delete a directive once it silences nothing.
"""

from __future__ import annotations

from repro.analysis import ALL_CHECKERS, cli, run_checkers
from repro.analysis.callgraph import CallGraph
from repro.analysis.source import Project

from tests.analysis.conftest import REPO_ROOT

#: inline ignore directives in the default tree may only go down.
MAX_DIRECTIVES = 29


def test_live_tree_is_strict_clean(default_run):
    result = default_run.result
    assert result.exit_code(strict=True) == 0, "\n".join(
        f.render() for f in result.findings
    )


def test_every_directive_is_still_live(default_run):
    """Stale suppressions must be pruned, not accumulated."""
    result = default_run.result
    assert [f.render() for f in result.findings if f.code == "ANA002"] == []
    assert result.suppressed  # the directives silence real findings


def test_directive_count_only_goes_down(default_run):
    directives = default_run.directives
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


def test_cli_strict_gate_matches_programmatic_result(default_run, monkeypatch):
    """``python -m repro.analysis --strict`` with no path arguments hands
    the default tree and every checker to the runner, and exits with the
    strict code of what the runner returns.  The runner is the session's
    result: the analysis itself is what the tests above check."""
    project = object()
    calls: list[tuple] = []

    class SessionProject:
        @staticmethod
        def from_files(file_paths, root):
            calls.append(("files", list(file_paths), root))
            return project

    def session_runner(cli_project, checkers, select=None, cache=None):
        calls.append(("run", cli_project, [c.name for c in checkers], select, cache))
        return default_run.result

    monkeypatch.setattr(cli, "Project", SessionProject)
    monkeypatch.setattr(cli, "run_checkers", session_runner)
    exit_code = cli.run(["--root", str(REPO_ROOT), "--strict"])
    assert exit_code == default_run.result.exit_code(strict=True) == 0
    assert calls == [
        ("files", default_run.paths, REPO_ROOT),
        ("run", project, [c.name for c in ALL_CHECKERS], None, None),
    ]
