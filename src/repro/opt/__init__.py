"""The evaluation workload: parallel decomposed Rosenbrock optimization.

"To compute the function in parallel, a decomposed formulation of the
Rosenbrock function has been taken.  In the decomposed formulation,
several (sub-)problems with a smaller dimension than the original
n-dimensional problem are solved by workers, and the subproblems are then
combined for the solution of the original problem in a manager. ...  All
test cases were computed using multiple instances of a sequential
implementation of the Complex Box algorithm." (§4)

* :mod:`repro.opt.problems` — Rosenbrock and friends;
* :mod:`repro.opt.complex_box` — Box's Complex method, with a coroutine
  engine so the same algorithm runs synchronously (workers) or with
  distributed evaluations (the manager);
* :mod:`repro.opt.decomposition` — the block decomposition with coupling
  variables (30-dim → 10/9/9 + 2 coupling, exactly the paper's split);
* :mod:`repro.opt.worker` — the CORBA worker service (checkpointable);
* :mod:`repro.opt.manager` — the manager driving workers through DII.
"""

from repro.opt.problems import rosenbrock
from repro.opt.complex_box import ComplexBoxResult, complex_box, complex_box_engine
from repro.opt.decomposition import DecomposedRosenbrock, WorkerProblem
from repro.opt.worker import (
    ROSENBROCK_WORKER_IDL,
    RosenbrockWorkerServant,
    RosenbrockWorkerStub,
    WorkerSettings,
    worker_idl,
)
from repro.opt.manager import DistributedRosenbrockOptimizer, ManagerResult

__all__ = [
    "ComplexBoxResult",
    "DecomposedRosenbrock",
    "DistributedRosenbrockOptimizer",
    "ManagerResult",
    "ROSENBROCK_WORKER_IDL",
    "RosenbrockWorkerServant",
    "RosenbrockWorkerStub",
    "WorkerProblem",
    "WorkerSettings",
    "complex_box",
    "complex_box_engine",
    "rosenbrock",
    "worker_idl",
]
