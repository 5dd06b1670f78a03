"""Finding and severity types shared by every checker.

A :class:`Finding` is one defect report: a stable code (``DET001``,
``RACE004``, ...), the file/line it anchors to, and a *fingerprint* that
identifies the finding across unrelated line drift — the fingerprint hashes
the code, path, enclosing definition and message, but **not** the line
number, so re-formatting a file does not change it.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """How bad a finding is; ordering is meaningful (ERROR > WARNING)."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One static-analysis defect report.

    :param code: stable finding code, e.g. ``"DET001"``.
    :param message: human-readable defect statement (must not embed line
        numbers — the fingerprint hashes it).
    :param path: repo-relative posix path of the file.
    :param line: 1-based line the finding anchors to.
    :param severity: :class:`Severity` of the defect.
    :param checker: name of the checker that produced it.
    :param context: enclosing qualified name (``Class.method`` or module
        symbol) — part of the fingerprint, keeps it line-stable.
    """

    code: str
    message: str
    path: str
    line: int
    severity: Severity = Severity.ERROR
    checker: str = ""
    context: str = ""
    column: int = 0

    @property
    def fingerprint(self) -> str:
        """Line-independent identity of the finding."""
        raw = "|".join((self.code, self.path, self.context, self.message))
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": str(self.severity),
            "checker": self.checker,
            "context": self.context,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        ctx = f" [{self.context}]" if self.context else ""
        return f"{where}: {self.code} {self.severity}: {self.message}{ctx}"


@dataclass
class AnalysisResult:
    """Everything one analysis run produced, pre-sorted for reporting."""

    findings: list[Finding] = field(default_factory=list)
    #: findings silenced by an inline ``# analysis: ignore[...]`` directive.
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    checkers_run: tuple[str, ...] = ()

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity >= Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    def exit_code(self, strict: bool = False) -> int:
        """0 = clean; 1 = actionable findings.  ``--strict`` also fails on
        warnings, stale ``ANA002`` directives among them."""
        if self.errors or (strict and self.warnings):
            return 1
        return 0
