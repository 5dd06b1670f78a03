"""The CORBA worker service solving Rosenbrock subproblems.

The worker is the unit the paper places on hosts via the naming service
and protects with fault-tolerance proxies.  Its interface derives from
``FT::Checkpointable`` so the proxies can snapshot/restore its state (the
best solutions found so far and its evaluation counters).

Compute-scaling (see DESIGN.md): the *simulated* CPU cost of a ``solve``
call is ``iterations × per-iteration work`` — the quantity Fig. 3 and
Table 1 vary — while the *numeric* optimization actually executes
``min(iterations, real_iteration_cap)`` Complex Box iterations, so every
run produces a real optimization trajectory at bounded wall-clock cost.
Tests that check numerics use iteration counts below the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ft.checkpointable import CHECKPOINTABLE_IDL
from repro.opt.decomposition import DecomposedRosenbrock
from repro.orb.idl import compile_idl
from repro.sim.randomness import rng_stream

ROSENBROCK_WORKER_IDL = CHECKPOINTABLE_IDL + """
module Opt {
    exception BadSubproblem { string why; };

    interface RosenbrockWorker : FT::Checkpointable {
        // Minimize subproblem worker_id given the manager's coupling
        // values; returns the best objective value found.
        double solve(in long worker_id,
                     in sequence<double> coupling,
                     in long iterations,
                     in long long seed) raises (BadSubproblem);
        // Block variables of the best solution of a subproblem so far.
        sequence<double> best_block(in long worker_id) raises (BadSubproblem);
        // Total simulated evaluations performed by this instance.
        long long evaluations();
        string host_name();
    };
};
"""

worker_idl = compile_idl(ROSENBROCK_WORKER_IDL, name="rosenbrock-worker")

BadSubproblem = worker_idl.BadSubproblem
RosenbrockWorkerStub = worker_idl.RosenbrockWorkerStub
RosenbrockWorkerSkeleton = worker_idl.RosenbrockWorkerSkeleton


@dataclass(frozen=True)
class WorkerSettings:
    """Cost model and numeric settings of worker instances.

    :param work_per_eval_per_dim: simulated CPU seconds (speed-1 host) per
        objective evaluation per subproblem dimension.  One Complex Box
        iteration costs about one evaluation (plus contractions).
    :param real_iteration_cap: upper bound on actually executed iterations.
    """

    work_per_eval_per_dim: float = 2e-7
    real_iteration_cap: int = 192
    n_points: int | None = None  # complex size; None = Box default


class RosenbrockWorkerServant(RosenbrockWorkerSkeleton):
    """A worker instance; stateful and checkpointable."""

    def __init__(
        self,
        problem: DecomposedRosenbrock,
        settings: WorkerSettings | None = None,
    ) -> None:
        self.problem = problem
        self.settings = settings or WorkerSettings()
        #: worker_id -> {"fun": float, "block": np.ndarray}
        self._best: dict[int, dict] = {}
        self._evaluations = 0
        self.solve_calls = 0

    # -- IDL operations -----------------------------------------------------------

    def solve(self, worker_id, coupling, iterations, seed):
        if not 0 <= worker_id < self.problem.num_workers:
            raise BadSubproblem(why=f"no subproblem {worker_id}")
        coupling = np.asarray(coupling, dtype=np.float64)
        if coupling.shape[0] != self.problem.manager_dimension:
            raise BadSubproblem(
                why=f"expected {self.problem.manager_dimension} coupling values"
            )
        if iterations < 0:
            raise BadSubproblem(why="iterations must be non-negative")
        dim = self.problem.worker(worker_id).dimension
        # Simulated cost: the nominal iteration count, as in the paper.
        work = iterations * dim * self.settings.work_per_eval_per_dim
        yield self._host().execute(work)

        # Real numerics: capped iteration count, warm-started from the best
        # block found for this subproblem so far.
        real_iterations = min(iterations, self.settings.real_iteration_cap)
        rng = rng_stream(int(seed), "worker-solve")
        warm_start = None
        previous = self._best.get(int(worker_id))
        if previous is not None:
            warm_start = previous["block"]
        result = self.problem.solve_worker(
            int(worker_id),
            coupling,
            rng,
            max_iterations=int(real_iterations),
            x0=warm_start,
        )
        self._evaluations += result.evaluations
        self.solve_calls += 1
        best = self._best.get(int(worker_id))
        if best is None or result.fun < best["fun"]:
            self._best[int(worker_id)] = {
                "fun": result.fun,
                "block": result.x,
                "coupling": coupling.copy(),
            }
        return result.fun

    def best_block(self, worker_id):
        best = self._best.get(int(worker_id))
        if best is None:
            raise BadSubproblem(why=f"subproblem {worker_id} never solved here")
        return np.asarray(best["block"], dtype=np.float64)

    def evaluations(self):
        return self._evaluations

    def host_name(self):
        return self._host().name

    # -- Checkpointable -----------------------------------------------------------------

    def get_checkpoint(self):
        return {
            "evaluations": self._evaluations,
            "solve_calls": self.solve_calls,
            "best": {
                str(worker_id): {
                    "fun": entry["fun"],
                    "block": np.asarray(entry["block"], dtype=np.float64),
                    "coupling": np.asarray(entry["coupling"], dtype=np.float64),
                }
                for worker_id, entry in self._best.items()
            },
        }

    def restore_from(self, state):
        best = {
            int(worker_id): {
                "fun": float(entry["fun"]),
                "block": np.asarray(entry["block"], dtype=np.float64),
                "coupling": np.asarray(entry["coupling"], dtype=np.float64),
            }
            for worker_id, entry in state["best"].items()
        }
        # A block is the next solve's warm start: it must fit its subproblem.
        for worker_id, entry in best.items():
            if not 0 <= worker_id < self.problem.num_workers:
                raise BadSubproblem(why=f"no subproblem {worker_id}")
            dim = self.problem.worker(worker_id).dimension
            if entry["block"].shape != (dim,):
                raise BadSubproblem(
                    why=f"subproblem {worker_id} block must have {dim} values"
                )
        self._evaluations = int(state["evaluations"])
        self.solve_calls = int(state["solve_calls"])
        self._best = best
