"""Measure the benchmark's own noise on unchanged code.

    python3 benchmarks/e2e/calibrate.py            # 3 sets x 5 runs, ~30 min
    python3 benchmarks/e2e/calibrate.py --check    # judge results/noise.json
    python3 benchmarks/e2e/calibrate.py --trace-reference   # 4 traced runs

Runs ``--sets`` sets of ``--runs`` runs per workload with the sets
interleaved (A1 B1 C1 A2 ...), every run with another seed, and writes
``results/noise.json``: every run's value, each set's median and
quartiles, the worst pairwise disagreement of set medians and the
quartile spread over all runs, per end-to-end metric and workload.  A
bound in ``catalog.py`` is sound when the set medians agree within it and
the spread stays within it (the driver's rules); ``--check`` also says
where sets disagree by more than half the bound and where a metric is not
*steady* (spread above a third of its bound).
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

import hostclock
from catalog import ALL, BY_NAME, DEFAULT_SEED, END_TO_END, RUN_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

NOISE_FILE = HERE / "results" / "noise.json"
TRACE_FILE = HERE / "results" / "trace_reference.json"


def one_run(
    workload: str, seed: int, seconds: float, trace: int = 0
) -> dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarise(sets: list[list[float]], better: str) -> dict:
    medians = [statistics.median(values) for values in sets]
    worst = 0.0
    for first, second in itertools.permutations(medians, 2):
        # How much worse ``second`` reads when ``first`` is the baseline.
        worse = (second - first) / first
        worst = max(worst, worse if better == "lower" else -worse)
    everything = [value for values in sets for value in values]
    return {
        "runs": sets,
        "set_medians": medians,
        "set_quartiles": [
            statistics.quantiles(v, n=4) if len(v) > 1 else v for v in sets
        ],
        "worst_pairwise_disagreement": worst,
        "quartile_spread_all_runs": hostclock.quartile_spread(everything),
    }


def calibrate(sets: int, runs: int, seconds: float) -> dict:
    values = {
        workload: {m.name: [[] for _ in range(sets)] for m in END_TO_END}
        for workload in ALL
    }
    for run in range(runs):
        for index in range(sets):
            for workload in ALL:
                seed = 1000 * (index + 1) + run
                metrics = one_run(workload, seed, seconds)
                for name, value in metrics.items():
                    values[workload][name][index].append(value)
                values_text = " ".join(f"{k}={v:.4f}" for k, v in metrics.items())
                label = f"{'ABCDEFGH'[index]}{run + 1}"
                print(f"set {label} {workload} seed {seed}: {values_text}", flush=True)
    return {
        "sets": sets,
        "runs_per_set": runs,
        "run_seconds": seconds,
        "order": "interleaved: A1 B1 C1 A2 B2 C2 ...; every run has its own seed",
        "cells": {
            workload: {
                metric.name: summarise(values[workload][metric.name], metric.better)
                for metric in END_TO_END
            }
            for workload in ALL
        },
    }


def trace_reference(seconds: float) -> dict:
    """One traced run per workload at the default seed: the per-layer
    numbers the README quotes, kept as the reference for later changes."""
    return {
        "seed": DEFAULT_SEED,
        "run_seconds": seconds,
        "per_layer": {w: one_run(w, DEFAULT_SEED, seconds, trace=1) for w in ALL},
    }


def check(document: dict) -> int:
    """Hold the recorded noise against the catalogue's current bounds, by
    the driver's rules: set medians agree within the bound, and the spread
    (``setup_s`` excepted) stays within it."""
    unsound = 0
    for workload, metrics in document["cells"].items():
        for name, cell in metrics.items():
            bound = BY_NAME[name].bound
            worst = cell["worst_pairwise_disagreement"]
            spread = cell["quartile_spread_all_runs"]
            sound = bound >= worst and (name == "setup_s" or bound >= spread)
            unsound += not sound
            notes = ["sound" if sound else "TOO NOISY"]
            if sound and bound < 2 * worst:
                notes.append("sets disagree by more than half the bound")
            if sound and bound < 3 * spread:
                notes.append("not steady")
            print(
                f"{workload:18s} {name:14s} disagreement {worst:7.2%}  "
                f"spread {spread:7.2%}  bound {bound:5.0%}  " + ", ".join(notes)
            )
    return 1 if unsound else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--out", type=Path, default=NOISE_FILE)
    parser.add_argument("--check", action="store_true",
                        help="judge the recorded file instead of measuring")
    parser.add_argument("--trace-reference", action="store_true",
                        help=f"write {TRACE_FILE.name} instead of measuring noise")
    args = parser.parse_args(argv)
    if args.trace_reference:
        document = trace_reference(args.seconds)
        TRACE_FILE.write_text(json.dumps(document, indent=1) + "\n", encoding="ascii")
        return 0
    if not args.check:
        document = calibrate(args.sets, args.runs, args.seconds)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="ascii")
    return check(json.loads(args.out.read_text(encoding="ascii")))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
