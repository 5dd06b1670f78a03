"""Experiment drivers for the paper's evaluation artifacts.

* :func:`fig3_sweep` — Fig. 3: runtime vs. number of hosts with background
  load, for {CORBA, CORBA/Winner} × {30-dim/3 workers, 100-dim/7 workers}.
* :func:`table1_sweep` — Table 1: runtimes without/with fault-tolerance
  proxies for 100-dim/7 workers over a worker-iteration sweep, plus the
  overhead percentage column.

The drivers return plain dataclass rows so benches, tests and EXPERIMENTS.md
generation all share one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.core import Scenario, ScenarioResult
from repro.opt import WorkerSettings

#: the paper's two workload configurations: (dimension, workers, pool size).
PAPER_CONFIGS = {
    "30/3": (30, 3, 6),  # "6 workstations were available for the 4 processes"
    "100/7": (100, 7, 9),  # 10 workstations, manager + services on ws00
}

#: background-load host counts on Fig. 3's x-axis.
FIG3_BG_HOSTS = (0, 2, 4, 6, 8)

#: worker-iteration counts in Table 1.
TABLE1_ITERATIONS = (10_000, 20_000, 30_000, 40_000, 50_000)

#: default worker cost/numeric settings for benches (capped real work so a
#: full sweep stays fast; simulated runtimes use the nominal counts).
BENCH_SETTINGS = WorkerSettings(work_per_eval_per_dim=2e-7, real_iteration_cap=96)


@dataclass(frozen=True)
class Fig3Point:
    """One point of one Fig. 3 curve."""

    config: str  # "30/3" or "100/7"
    strategy: str  # "CORBA" (round-robin baseline) or "CORBA/Winner"
    background_hosts: int
    runtime: float
    fun: float
    placements: tuple[str, ...]


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1.

    ``runtime_variants`` carries optional extra fault-tolerant columns
    (checkpoint fast-path modes) keyed by variant name; the paper's two
    columns stay the dataclass identity.
    """

    iterations: int
    runtime_without_proxy: float
    runtime_with_proxy: float
    runtime_variants: dict = field(default_factory=dict, compare=False)

    @property
    def overhead_percent(self) -> float:
        return 100.0 * (self.runtime_with_proxy / self.runtime_without_proxy - 1.0)

    def variant_overhead_percent(self, name: str) -> float:
        """FT overhead of a named variant over the proxy-free baseline."""
        return 100.0 * (
            self.runtime_variants[name] / self.runtime_without_proxy - 1.0
        )


def _scenario(
    config: str,
    strategy: str,
    background_hosts: int,
    worker_iterations: int,
    fault_tolerant: bool,
    seed: int,
    settings: WorkerSettings,
    manager_iterations: int,
    overrides: Optional[Mapping] = None,
) -> Scenario:
    dimension, workers, pool = PAPER_CONFIGS[config]
    return Scenario(
        dimension=dimension,
        num_workers=workers,
        pool_size=pool,
        background_hosts=background_hosts,
        naming_strategy="winner" if strategy == "CORBA/Winner" else "round-robin",
        fault_tolerant=fault_tolerant,
        worker_iterations=worker_iterations,
        manager_iterations=manager_iterations,
        worker_settings=settings,
        seed=seed,
        **(dict(overrides) if overrides else {}),
    )


def fig3_sweep(
    configs: Sequence[str] = ("30/3", "100/7"),
    background_hosts: Iterable[int] = FIG3_BG_HOSTS,
    worker_iterations: int = 50_000,
    manager_iterations: int = 10,
    seed: int = 7,
    settings: Optional[WorkerSettings] = None,
    scenario_overrides: Optional[Mapping] = None,
) -> list[Fig3Point]:
    """Run the Fig. 3 grid; returns one point per (config, strategy, bg).

    ``scenario_overrides`` sets extra :class:`Scenario` fields on every
    cell — e.g. the resolve fast-path knobs for an optimized-mode sweep.
    """
    settings = settings or BENCH_SETTINGS
    points: list[Fig3Point] = []
    for config in configs:
        for strategy in ("CORBA", "CORBA/Winner"):
            for bg in background_hosts:
                result = _scenario(
                    config,
                    strategy,
                    bg,
                    worker_iterations,
                    fault_tolerant=False,
                    seed=seed,
                    settings=settings,
                    manager_iterations=manager_iterations,
                    overrides=scenario_overrides,
                ).run()
                points.append(
                    Fig3Point(
                        config=config,
                        strategy=strategy,
                        background_hosts=bg,
                        runtime=result.runtime_seconds,
                        fun=result.result.fun,
                        placements=tuple(result.worker_placements),
                    )
                )
    return points


def fig3_curves(points: Sequence[Fig3Point]) -> dict[tuple[str, str], list[Fig3Point]]:
    """Group sweep points into the four curves of the figure."""
    curves: dict[tuple[str, str], list[Fig3Point]] = {}
    for point in points:
        curves.setdefault((point.strategy, point.config), []).append(point)
    for curve in curves.values():
        curve.sort(key=lambda p: p.background_hosts)
    return curves


def table1_sweep(
    iterations: Iterable[int] = TABLE1_ITERATIONS,
    config: str = "100/7",
    manager_iterations: int = 10,
    seed: int = 7,
    settings: Optional[WorkerSettings] = None,
    checkpoint_processing_work: Optional[float] = None,
    ft_variants: Optional[Mapping[str, Mapping]] = None,
) -> list[Table1Row]:
    """Run the Table 1 grid; returns one row per iteration count.

    ``ft_variants`` maps variant names to Scenario attribute overrides
    (e.g. ``{"pipelined": {"checkpoint_mode": "pipelined"}}``); each is an
    extra fault-tolerant run per row, recorded in ``runtime_variants``.
    The paper columns are always run with the scenario defaults.
    """
    settings = settings or BENCH_SETTINGS
    rows: list[Table1Row] = []
    for count in iterations:

        def run_ft(fault_tolerant: bool, overrides: Mapping = ()) -> float:
            scenario = _scenario(
                config,
                "CORBA/Winner",
                background_hosts=0,
                worker_iterations=count,
                fault_tolerant=fault_tolerant,
                seed=seed,
                settings=settings,
                manager_iterations=manager_iterations,
            )
            if checkpoint_processing_work is not None:
                scenario.checkpoint_processing_work = checkpoint_processing_work
            for attr, value in dict(overrides).items():
                if not hasattr(scenario, attr):
                    raise AttributeError(
                        f"unknown Scenario override {attr!r} in ft_variants"
                    )
                setattr(scenario, attr, value)
            return scenario.run().runtime_seconds

        variants = {
            name: run_ft(True, overrides)
            for name, overrides in (ft_variants or {}).items()
        }
        rows.append(
            Table1Row(
                iterations=count,
                runtime_without_proxy=run_ft(False),
                runtime_with_proxy=run_ft(True),
                runtime_variants=variants,
            )
        )
    return rows
