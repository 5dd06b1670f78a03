"""Project-specific static analysis for the CORBA reproduction.

The properties the test suite can only *sample*, this package *proves* on
every commit:

* **determinism** — simulated code must be a pure function of its seed
  (no wall clock, no process-global entropy, no hash-salted iteration
  order leaking into results);
* **atomicity** — declared-atomic critical sections contain no cooperative
  yield points;
* **exception safety** — no bare/overbroad handlers, no silently swallowed
  recoverable communication failures;
* **race inference** (v2) — lockset analysis over the project call graph:
  shared ``self.<field>`` state must be guarded consistently, never span a
  yield point mid-update, and locks must be released on every path;
* **config-flag hygiene** (v2) — fast-path flags default off, every flag is
  consulted, every report counter is observable.

CLI: ``python -m repro.analysis`` (see :mod:`repro.analysis.cli`).
Programmatic use: :func:`analyze_paths`, :func:`analyze_source`, or compose
:class:`~repro.analysis.source.Project` + :func:`~repro.analysis.framework.run_checkers`
directly.  Add a checker by subclassing
:class:`~repro.analysis.framework.Checker` and registering it in
:data:`repro.analysis.checkers.ALL_CHECKERS`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.checkers import (
    ALL_CHECKERS,
    AtomicityChecker,
    ConfigFlagChecker,
    DeterminismChecker,
    ExceptionSafetyChecker,
    RaceChecker,
)
from repro.analysis.cli import analyze_paths, run
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.framework import Checker, checker_catalog, run_checkers
from repro.analysis.source import Project, SourceFile

__all__ = [
    "ALL_CHECKERS",
    "AnalysisResult",
    "AtomicityChecker",
    "Checker",
    "ConfigFlagChecker",
    "DeterminismChecker",
    "ExceptionSafetyChecker",
    "Finding",
    "Project",
    "RaceChecker",
    "Severity",
    "SourceFile",
    "analyze_paths",
    "analyze_source",
    "checker_catalog",
    "run",
    "run_checkers",
]


def analyze_source(
    text: str,
    filename: str = "<snippet>.py",
    checkers: Optional[Sequence[Checker]] = None,
) -> AnalysisResult:
    """Run the checkers over an in-memory snippet (no filesystem needed).

    Scopes are cleared so every checker sees the snippet regardless of its
    pretend filename — handy for demos, docs, and tests.
    """
    root = Path(".").resolve()
    source = SourceFile.from_text(text, root / filename, root)
    project = Project(root=root, files=[source])
    if checkers is None:
        checkers = [checker_cls(scope=()) for checker_cls in ALL_CHECKERS]
    return run_checkers(project, list(checkers))
