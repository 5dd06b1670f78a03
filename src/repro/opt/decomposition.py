"""Block decomposition of the Rosenbrock function with coupling variables.

The paper's 30-dimensional case uses "3 worker problems (problem dimension
10, 9 and 9) and a 2-dimensional manager problem": 30 variables split into
3 blocks separated by 2 *coupling* variables owned by the manager
(10 + 1 + 9 + 1 + 9 = 30).  Generally, ``n`` variables and ``k`` workers
give ``k-1`` coupling variables and blocks of size
``(n - (k-1)) // k`` (+1 for the first remainder blocks) — which for
n=100, k=7 yields blocks 14/14/14/13/13/13/13 and a 6-dim manager problem.

Because the Rosenbrock sum couples only consecutive variables, worker
``i``'s subproblem is itself a Rosenbrock function over the *extended
block* (left coupling value, own block, right coupling value) with the
coupling entries held fixed; every term of the full sum belongs to exactly
one worker, so

``f(x) = sum_i f_i(block_i | couplings)``

holds exactly and the manager's objective over the coupling variables is
the true function minimized over all block variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.opt.complex_box import ComplexBoxResult, complex_box
from repro.opt.problems import ROSENBROCK_LOWER, ROSENBROCK_UPPER, rosenbrock


@dataclass(frozen=True)
class WorkerProblem:
    """One worker's subproblem."""

    worker_id: int
    #: global indices of the variables this worker optimizes.
    block_indices: tuple[int, ...]
    #: global index of the coupling variable to the left (None for first).
    left_coupling: Optional[int]
    #: global index of the coupling variable to the right (None for last).
    right_coupling: Optional[int]

    @property
    def dimension(self) -> int:
        return len(self.block_indices)


class DecomposedRosenbrock:
    """The decomposition layout plus evaluation helpers."""

    def __init__(
        self,
        dimension: int,
        num_workers: int,
        lower: float = ROSENBROCK_LOWER,
        upper: float = ROSENBROCK_UPPER,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("need at least one worker")
        if dimension < 2 * num_workers + (num_workers - 1):
            raise ConfigurationError(
                f"dimension {dimension} too small for {num_workers} workers "
                "(each block needs >= 2 variables)"
            )
        self.dimension = dimension
        self.num_workers = num_workers
        self.lower = lower
        self.upper = upper

        block_total = dimension - (num_workers - 1)
        base = block_total // num_workers
        remainder = block_total % num_workers
        sizes = [base + (1 if i < remainder else 0) for i in range(num_workers)]

        self.block_sizes = tuple(sizes)
        coupling: list[int] = []
        workers: list[WorkerProblem] = []
        position = 0
        for worker_id, size in enumerate(sizes):
            block = tuple(range(position, position + size))
            position += size
            right = position if worker_id < num_workers - 1 else None
            left = coupling[-1] if coupling else None
            if right is not None:
                coupling.append(right)
                position += 1
            workers.append(
                WorkerProblem(
                    worker_id=worker_id,
                    block_indices=block,
                    left_coupling=left,
                    right_coupling=right,
                )
            )
        self.coupling_indices = tuple(coupling)
        self.workers = tuple(workers)

    # -- layout ------------------------------------------------------------------

    @property
    def manager_dimension(self) -> int:
        return len(self.coupling_indices)

    def worker(self, worker_id: int) -> WorkerProblem:
        return self.workers[worker_id]

    # -- evaluation ---------------------------------------------------------------

    def _coupling_values(self, index: Optional[int], coupling) -> list[float]:
        """``[coupling value]`` of one side of a block, or ``[]`` for none."""
        if index is None:
            return []
        return [float(coupling[self.coupling_indices.index(index)])]

    def extended_vector(
        self, worker_id: int, block: np.ndarray, coupling: np.ndarray
    ) -> np.ndarray:
        """Assemble (left coupling?, block, right coupling?) for a worker."""
        problem = self.workers[worker_id]
        return np.array(
            self._coupling_values(problem.left_coupling, coupling)
            + np.asarray(block, dtype=np.float64).tolist()
            + self._coupling_values(problem.right_coupling, coupling)
        )

    def worker_objective(
        self, worker_id: int, block: np.ndarray, coupling: np.ndarray
    ) -> float:
        """Worker ``i``'s share of the Rosenbrock sum."""
        return rosenbrock(self.extended_vector(worker_id, block, coupling))

    def solve_worker(
        self,
        worker_id: int,
        coupling: np.ndarray,
        rng: np.random.Generator,
        max_iterations: int,
        x0: Optional[np.ndarray] = None,
    ) -> ComplexBoxResult:
        """Minimize worker ``i``'s subproblem over its block variables."""
        problem = self.workers[worker_id]
        dim = problem.dimension
        lower = np.full(dim, self.lower)
        upper = np.full(dim, self.upper)
        # The objective is the hot loop of every experiment: one plain-float
        # list per evaluation (coupling values around the candidate block)
        # is cheaper than any array assembly on vectors this short.
        left = self._coupling_values(problem.left_coupling, coupling)
        right = self._coupling_values(problem.right_coupling, coupling)

        def objective(block: np.ndarray) -> float:
            return rosenbrock(left + block.tolist() + right)

        return complex_box(
            objective,
            lower,
            upper,
            rng,
            max_iterations=max_iterations,
            x0=x0,
        )

    def compose(
        self, coupling: np.ndarray, blocks: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Rebuild the full n-dimensional vector from manager + workers."""
        if len(blocks) != self.num_workers:
            raise ConfigurationError(
                f"expected {self.num_workers} blocks, got {len(blocks)}"
            )
        x = np.empty(self.dimension)
        coupling = np.asarray(coupling, dtype=np.float64)
        for index, value in zip(self.coupling_indices, coupling):
            x[index] = value
        for problem, block in zip(self.workers, blocks):
            block = np.asarray(block, dtype=np.float64)
            if block.shape[0] != problem.dimension:
                raise ConfigurationError(
                    f"worker {problem.worker_id} block has wrong size"
                )
            x[list(problem.block_indices)] = block
        return x

    def full_objective(self, x: np.ndarray) -> float:
        """The undecomposed function (for validating the decomposition)."""
        return rosenbrock(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DecomposedRosenbrock n={self.dimension} workers={self.num_workers} "
            f"blocks={self.block_sizes} manager_dim={self.manager_dimension}>"
        )
