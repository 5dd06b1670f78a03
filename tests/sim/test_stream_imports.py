"""The program never loads ``numpy.random``.

The named streams are the repo's own (:mod:`repro.sim.randomness`), and
NumPy imports ``numpy.random`` lazily, on the first ``np.random``
attribute access.  One stray access anywhere on a run's path would load its
nine compiled modules and, through ``secrets``, OpenSSL: about 5.5 MiB of
every benchmark workload's peak RSS, with no result changing.  So a fresh
interpreter drives a runtime through an ORB read and a Winner report, an
open-loop population for one simulated second and a worker solve, and
neither module may be loaded at the end.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys

import numpy as np

from repro.cluster.loadgen import OpenLoopPopulation
from repro.core import Runtime, RuntimeConfig
from repro.opt import DecomposedRosenbrock
from repro.orb import compile_idl
from repro.services.naming.names import to_name
from repro.sim.randomness import rng_stream

ns = compile_idl("interface Reading { double value(); };", name="stream-imports")


class ReadingImpl(ns.ReadingSkeleton):
    def value(self):
        return 1.5


runtime = Runtime(RuntimeConfig(num_hosts=2, seed=3, winner_interval=0.5)).start()
runtime.register_type("Reading", ReadingImpl)
runtime.run(runtime.deploy_group("reading", "Reading", [1]))
runtime.settle(1.0)
assert runtime.system_manager.reports_received >= 1


def read():
    ior = yield runtime.naming_stub(0).resolve(to_name("reading"))
    return (yield runtime.orb(0).stub(ior, ns.ReadingStub).value())


assert runtime.run(read()) == 1.5

host = runtime.cluster.host(1)
population = OpenLoopPopulation(
    runtime.sim, num_clients=100, arrival_rate=50.0, place=lambda client: host,
    request_work=0.001,
).start()
runtime.settle(1.0)
population.stop()
assert population.completions > 0

problem = DecomposedRosenbrock(30, 3)
coupling = np.full(problem.manager_dimension, 0.5)
solve = problem.solve_worker(0, coupling, rng_stream(7, "worker-solve"), 8)
assert solve.evaluations > 0

print(",".join(name for name in ("numpy.random", "secrets") if name in sys.modules))
"""


def test_a_run_never_loads_numpy_random_or_secrets():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
