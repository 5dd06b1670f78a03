"""Command-line interface: ``python -m repro <command>``.

Runs the paper's experiments without writing any code:

* ``fig3`` — the Fig. 3 load-distribution sweep (table + ASCII plot);
* ``table1`` — the Table 1 fault-tolerance overhead sweep;
* ``demo`` — a one-minute tour (quickstart scenario with narration).

Examples::

    python -m repro fig3 --configs 30/3 --bg 0 2 4
    python -m repro table1 --iterations 10000 50000

The fault-tolerance and wide-area benches run under pytest instead, e.g.
``pytest benchmarks/bench_recovery.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.bench import fig3_curves, fig3_sweep, format_table
    from repro.bench.plotting import ascii_plot

    points = fig3_sweep(
        configs=tuple(args.configs),
        background_hosts=tuple(args.bg),
        worker_iterations=args.worker_iterations,
        seed=args.seed,
    )
    curves = fig3_curves(points)
    bg_values = sorted({p.background_hosts for p in points})
    rows = [
        [f"{strategy} {config}"] + [f"{p.runtime:.2f}" for p in curve]
        for (strategy, config), curve in sorted(curves.items())
    ]
    print(
        format_table(
            ["curve"] + [f"bg={bg}" for bg in bg_values],
            rows,
            title="Fig. 3: runtime [simulated s] vs #hosts with background load",
        )
    )
    print()
    print(
        ascii_plot(
            {
                f"{strategy} {config}": [
                    (p.background_hosts, p.runtime) for p in curve
                ]
                for (strategy, config), curve in curves.items()
            },
            x_label="hosts with background load",
            y_label="runtime [simulated s]",
        )
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench import format_table, table1_sweep

    rows = table1_sweep(iterations=tuple(args.iterations), seed=args.seed)
    print(
        format_table(
            ["iterations", "w/o proxy [s]", "w/ proxy [s]", "overhead [%]"],
            [
                [
                    row.iterations,
                    f"{row.runtime_without_proxy:.2f}",
                    f"{row.runtime_with_proxy:.2f}",
                    f"{row.overhead_percent:.1f}",
                ]
                for row in rows
            ],
            title="Table 1: fault-tolerance proxy overhead (100-dim, 7 workers)",
        )
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import Scenario
    from repro.opt import WorkerSettings

    print("Running the paper's 30-dim/3-worker experiment at bg=2 ...\n")
    for strategy, label in (("round-robin", "CORBA"), ("winner", "CORBA/Winner")):
        result = Scenario(
            dimension=30,
            num_workers=3,
            pool_size=6,
            background_hosts=2,
            naming_strategy=strategy,
            worker_iterations=50_000,
            manager_iterations=10,
            worker_settings=WorkerSettings(real_iteration_cap=64),
            seed=args.seed,
        ).run()
        print(
            f"{label:13s} runtime = {result.runtime_seconds:6.2f} simulated s, "
            f"workers on {list(result.worker_placements)}"
        )
    print(
        "\nThe Winner-backed naming service placed the workers on unloaded "
        "hosts; the unmodified naming service collided with the background "
        "load.  See `python -m repro fig3` for the full figure."
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'CORBA Based Runtime Support for Load "
            "Distribution and Fault Tolerance' (IPPS 2000)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7, help="experiment seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig3 = subparsers.add_parser("fig3", help="regenerate Fig. 3")
    fig3.add_argument(
        "--configs", nargs="+", default=["30/3", "100/7"], choices=["30/3", "100/7"]
    )
    fig3.add_argument("--bg", nargs="+", type=int, default=[0, 2, 4, 6, 8])
    fig3.add_argument("--worker-iterations", type=int, default=50_000)
    fig3.set_defaults(func=_cmd_fig3)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1")
    table1.add_argument(
        "--iterations",
        nargs="+",
        type=int,
        default=[10_000, 20_000, 30_000, 40_000, 50_000],
    )
    table1.set_defaults(func=_cmd_table1)

    demo = subparsers.add_parser("demo", help="one-minute tour")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
