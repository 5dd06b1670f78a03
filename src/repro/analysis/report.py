"""Human and JSON rendering of an :class:`AnalysisResult`."""

from __future__ import annotations

import json
from collections import Counter
from typing import Optional

from repro.analysis.cache import CacheStats
from repro.analysis.findings import AnalysisResult


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """The human report: findings grouped in file order, then a summary."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(finding.render())
    if verbose and result.suppressed:
        lines.append("")
        lines.append("suppressed inline (# analysis: ignore[...]):")
        for finding in result.suppressed:
            lines.append(f"  {finding.render()}")
    lines.append("")
    lines.append(summary_line(result))
    return "\n".join(lines)


def summary_line(result: AnalysisResult) -> str:
    by_code = Counter(finding.code for finding in result.findings)
    breakdown = (
        " (" + ", ".join(f"{code} x{n}" for code, n in sorted(by_code.items())) + ")"
        if by_code
        else ""
    )
    return (
        f"{len(result.findings)} finding(s){breakdown}: "
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s); "
        f"{len(result.suppressed)} suppressed inline; "
        f"{result.files_checked} file(s), "
        f"checkers: {', '.join(result.checkers_run)}"
    )


def render_cache_line(stats: CacheStats) -> str:
    if stats.full_hit:
        return "cache: full-run hit (analysis replayed without re-parsing)"
    return (
        f"cache: {stats.hits} hit(s), {stats.misses} miss(es) "
        f"({stats.hit_rate:.0%} hit rate)"
    )


def render_json(
    result: AnalysisResult,
    strict: bool = False,
    cache_stats: Optional[CacheStats] = None,
) -> str:
    payload = {
        "version": 1,
        "summary": {
            "findings": len(result.findings),
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "suppressed": len(result.suppressed),
            "files_checked": result.files_checked,
            "checkers": list(result.checkers_run),
            "exit_code": result.exit_code(strict=strict),
        },
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
        "cache": (
            cache_stats.to_dict()
            if cache_stats is not None
            else CacheStats().to_dict()
        ),
    }
    return json.dumps(payload, indent=2) + "\n"


def render_catalog(catalog: dict[str, dict[str, str]]) -> str:
    lines: list[str] = []
    for checker_name, codes in catalog.items():
        lines.append(f"{checker_name}:")
        for code, description in sorted(codes.items()):
            lines.append(f"  {code}  {description}")
    return "\n".join(lines)

