"""``python -m repro.obs`` — critical-path and SLO/regression CLI.

Two subcommands, both built on a short deterministic fault-tolerance
scenario (:func:`repro.bench.ftbench.recovery_cell`, the ``bench_recovery``
cell: a checkpointed accumulator stream with optional mid-run host
crashes, ``num_hosts=7``, ``seed=17``):

* ``critical-path`` — reconstruct the causal span tree of the scenario's
  recovery episode (or last client request) and print the segment
  timeline plus the per-component breakdown.
* ``check`` — the regression gate: compare a metrics snapshot (freshly
  generated, or ``--current FILE``) against a pinned
  ``benchmarks/results/BENCH_*.json`` baseline and exit non-zero on
  regression beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional


def _write(path: str, text: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {path}")


# -- critical-path ------------------------------------------------------------------


def _cmd_critical_path(args) -> int:
    from repro.bench.ftbench import recovery_cell
    from repro.obs import critical_path as cp

    failures = max(1, args.failures) if args.target == "recovery" else 0
    runtime, _, _ = recovery_cell(
        failures, args.calls, args.work, seed=args.seed
    )
    tracer = runtime.obs.tracer
    try:
        if args.target == "recovery":
            path = cp.recovery_path(tracer)
        else:
            path = cp.request_path(tracer, operation="add")
    except cp.CriticalPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(path.format())
    if args.json:
        _write(args.json, json.dumps(path.to_dict(), indent=2) + "\n")
    return 0


# -- check -----------------------------------------------------------------------


def _generate_current(args) -> list[dict]:
    """A fresh snapshot in BENCH_recovery shape from the quick scenario."""
    from repro.bench.ftbench import recovery_cell
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    for failures in (0, 1):
        runtime, elapsed, final = recovery_cell(
            failures, args.calls, args.work, seed=args.seed
        )
        labels = {"failures": str(failures)}
        coordinator = runtime.coordinator(0)
        registry.gauge("bench_recoveries", **labels).set(
            coordinator.recoveries
        )
        registry.gauge("bench_recovery_time_seconds", **labels).set(
            coordinator.recovery_time_total
        )
        registry.gauge("bench_runtime_seconds", **labels).set(elapsed)
        registry.gauge("bench_state_correct", **labels).set(
            1.0 if abs(final - args.calls) < 1e-9 else 0.0
        )
    return registry.snapshot()


def _cmd_check(args) -> int:
    from repro.obs.slo import compare_snapshots, format_deltas, regressions

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"error: baseline {args.baseline} not found", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())

    if args.current:
        current_path = Path(args.current)
        if not current_path.exists():
            print(f"error: current {args.current} not found", file=sys.stderr)
            return 2
        current = json.loads(current_path.read_text())
        source = args.current
    else:
        print("generating current snapshot from the quick recovery scenario…")
        current = _generate_current(args)
        source = "quick scenario"

    deltas = compare_snapshots(
        current, baseline,
        tolerance=args.tolerance,
        wall_tolerance=args.wall_tolerance,
    )
    bad = regressions(deltas)
    print(
        f"baseline {args.baseline} vs current ({source}): "
        f"{len(deltas)} gated metrics, {len(bad)} regressed"
    )
    print(format_deltas(deltas, all_rows=args.verbose))
    if args.json:
        _write(
            args.json,
            json.dumps([d.to_dict() for d in deltas], indent=2) + "\n",
        )
    return 1 if bad else 0


# -- argument wiring --------------------------------------------------------------


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--calls", type=int, default=40,
                        help="accumulator calls in the scenario (default 40)")
    parser.add_argument("--work", type=float, default=0.05,
                        help="simulated CPU work per call (default 0.05s)")
    parser.add_argument("--seed", type=int, default=17,
                        help="simulation seed (default 17, the bench pin)")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Critical-path analysis and SLO/regression gating "
        "for the runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "critical-path",
        help="critical path of a recovery episode or client request",
    )
    _add_scenario_args(p)
    p.add_argument("--target", choices=("recovery", "request"),
                   default="recovery",
                   help="analyze the recovery episode (default) or the "
                   "last client request")
    p.add_argument("--failures", type=int, default=1,
                   help="host crashes to inject (default 1)")
    p.add_argument("--json", metavar="PATH", help="write the analyzed path")
    p.set_defaults(func=_cmd_critical_path)

    p = sub.add_parser(
        "check",
        help="regression-gate a snapshot against a pinned BENCH baseline",
    )
    _add_scenario_args(p)
    p.add_argument("--baseline", required=True, metavar="PATH",
                   help="pinned snapshot (e.g. "
                   "benchmarks/results/BENCH_recovery.json)")
    p.add_argument("--current", metavar="PATH",
                   help="snapshot to check (default: regenerate from the "
                   "quick recovery scenario)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative tolerance for simulated metrics "
                   "(default 0.05)")
    p.add_argument("--wall-tolerance", type=float, default=0.5,
                   help="relative tolerance for wall-clock metrics "
                   "(default 0.5)")
    p.add_argument("--verbose", action="store_true",
                   help="print every gated metric, not just regressions")
    p.add_argument("--json", metavar="PATH", help="write the delta rows")
    p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)
