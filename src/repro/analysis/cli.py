"""``python -m repro.analysis`` — the project's static-analysis gate.

Typical invocations::

    PYTHONPATH=src python -m repro.analysis                 # default tree, report
    PYTHONPATH=src python -m repro.analysis --strict        # CI gate (warnings fail)
    PYTHONPATH=src python -m repro.analysis --json out.json # machine report
    PYTHONPATH=src python -m repro.analysis --list-checkers # the catalog

Findings are silenced only by inline ``# analysis: ignore[CODE]: why``
directives next to the code; a directive that silences nothing is an
``ANA002`` warning, so ``--strict`` fails until it is deleted.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.cache import AnalysisCache
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.findings import AnalysisResult
from repro.analysis.framework import checker_catalog, run_checkers
from repro.analysis.report import (
    render_cache_line,
    render_catalog,
    render_json,
    render_text,
)
from repro.analysis.source import (
    Project,
    discover_python_files,
    find_repo_root,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-specific static analysis: determinism lint, "
            "atomicity, races, config flags, exception safety."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyse (default: the src/repro "
        "tree plus benchmarks/ and examples/)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-hash keyed incremental cache directory; unchanged "
        "files and file sets reuse previous results",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root for relative paths (default: auto-detected)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write a structured JSON report to FILE ('-' = stdout)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings (stale ignore directives among them), not "
        "just errors",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated finding codes or prefixes (e.g. DET,RACE004)",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="print the checker/finding-code catalog and exit",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also list inline-suppressed findings",
    )
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    checkers = [checker_cls() for checker_cls in ALL_CHECKERS]
    if args.list_checkers:
        print(render_catalog(checker_catalog(checkers)))
        return 0

    root = (args.root or find_repo_root(Path.cwd())).resolve()
    paths = [p.resolve() for p in args.paths]
    if not paths:
        default_tree = root / "src" / "repro"
        if not default_tree.is_dir():
            import repro

            default_tree = Path(repro.__file__).parent
            root = find_repo_root(default_tree)
        paths = [default_tree]
        # the scoped families also gate the runnable entry points.
        for extra in ("benchmarks", "examples"):
            extra_tree = root / extra
            if extra_tree.is_dir():
                paths.append(extra_tree)

    select = _parse_select(args.select)
    file_paths = discover_python_files(paths, root)

    cache: Optional[AnalysisCache] = None
    if args.cache is not None:
        cache = AnalysisCache(args.cache)
        cache.set_file_set(
            {
                _cli_relpath(path, root): hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
                for path in file_paths
            }
        )

    cached = cache.load_full(select) if cache is not None else None
    if cached is not None:
        # Identical tree + checkers: replay without parsing.
        findings, suppressed = cached
        result = AnalysisResult(
            findings=findings,
            suppressed=suppressed,
            files_checked=len(file_paths),
            checkers_run=tuple(checker.name for checker in checkers),
        )
    else:
        project = Project.from_files(file_paths, root=root)
        result = run_checkers(project, checkers, select=select, cache=cache)
        if cache is not None:
            cache.store_full(select, result.findings, result.suppressed)

    print(render_text(result, verbose=args.verbose))
    if cache is not None:
        print(render_cache_line(cache.stats))
    if args.json is not None:
        payload = render_json(
            result,
            strict=args.strict,
            cache_stats=cache.stats if cache is not None else None,
        )
        if str(args.json) == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload, encoding="utf-8")
    return result.exit_code(strict=args.strict)


def _cli_relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_select(select: Optional[str]) -> Optional[list[str]]:
    if not select:
        return None
    return [code.strip().upper() for code in select.split(",") if code.strip()]


def analyze_paths(
    paths: Sequence[Path], root: Optional[Path] = None
) -> AnalysisResult:
    """Programmatic entry point: run every checker over ``paths``."""
    project = Project.from_paths(paths, root=root)
    checkers = [checker_cls() for checker_cls in ALL_CHECKERS]
    return run_checkers(project, checkers)
