"""Micro-benchmarks of the infrastructure (real wall time, measured by
pytest-benchmark across rounds).

These support the interpretation of Table 1: the per-call costs of
marshalling, dispatch and the simulation kernel itself.  Unlike the
experiment benches, the numbers here are host wall-clock times of the
implementation."""

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.orb import Orb, compile_idl
from repro.orb.cdr import CdrInputStream, CdrOutputStream, decode_any, encode_any
from repro.orb import typecodes as tc
from repro.opt import DecomposedRosenbrock, complex_box, rosenbrock
from repro.sim import ProcessorSharingCPU, Simulator
from repro.sim.randomness import rng_stream

IDL_SOURCE = """
module Bench {
    struct Sample { double x; double y; long tag; };
    exception Oops { string why; };
    interface Target {
        double op(in sequence<double> xs, in Sample s) raises (Oops);
        oneway void fire(in long n);
    };
};
"""


def test_cdr_encode_double_sequence(benchmark):
    values = np.arange(1000.0)
    seq = tc.sequence(tc.TC_DOUBLE)

    def encode():
        stream = CdrOutputStream()
        stream.write_value(seq, values)
        return stream.getvalue()

    data = benchmark(encode)
    assert len(data) >= 8000


def test_cdr_decode_double_sequence(benchmark):
    values = np.arange(1000.0)
    seq = tc.sequence(tc.TC_DOUBLE)
    stream = CdrOutputStream()
    stream.write_value(seq, values)
    data = stream.getvalue()

    result = benchmark(lambda: CdrInputStream(data).read_value(seq))
    assert result.shape == (1000,)


#: the checkpoint shape of benchmarks/e2e (`ft_state_stream`): a scalar
#: beside 512 doubles as a plain list — the bulk lane of sequence<any>
CHECKPOINT_STATE = {"total": 1.5, "weights": [0.5 * i for i in range(512)]}


def test_any_encode_checkpoint_state(benchmark):
    data = benchmark(lambda: encode_any(CHECKPOINT_STATE))
    assert len(data) == 8328


def test_any_decode_checkpoint_state(benchmark):
    data = encode_any(CHECKPOINT_STATE)
    result = benchmark(lambda: decode_any(data))
    assert result == CHECKPOINT_STATE


def test_idl_compile(benchmark):
    ns = benchmark(lambda: compile_idl(IDL_SOURCE, name="bench"))
    assert hasattr(ns, "TargetStub")


def test_sim_kernel_event_throughput(benchmark):
    def run_10k_timeouts():
        sim = Simulator()
        done = []

        def proc():
            for _ in range(10_000):
                yield sim.timeout(0.001)
            done.append(True)

        sim.spawn(proc())
        sim.run()
        return done

    assert benchmark(run_10k_timeouts)


def test_processor_sharing_churn(benchmark):
    def run():
        sim = Simulator()
        cpu = ProcessorSharingCPU(sim, speed=1.0)
        for i in range(500):
            sim.schedule(i * 0.01, lambda: cpu.execute(0.1))
        sim.run()
        return cpu.work_completed

    total = benchmark(run)
    assert total > 49.0


def test_orb_round_trip(benchmark):
    ns = compile_idl("interface Echo { double echo(in double x); };", name="bench-echo")

    class EchoImpl(ns.EchoSkeleton):
        def echo(self, x):
            return x

    def round_trips():
        sim = Simulator(seed=1)
        cluster = Cluster(sim, ClusterConfig(num_hosts=2))
        server = Orb(cluster.host(1), cluster.network)
        client = Orb(cluster.host(0), cluster.network)
        stub = client.stub(server.poa.activate(EchoImpl()), ns.EchoStub)

        def proc():
            for i in range(100):
                yield stub.echo(float(i))
            return True

        return sim.run_until_done(sim.spawn(proc()))

    assert benchmark(round_trips)


def test_complex_box_2d_rosenbrock(benchmark):
    lower, upper = np.full(2, -2.048), np.full(2, 2.048)

    def optimize():
        return complex_box(
            rosenbrock, lower, upper, rng_stream(3, "micro"), max_iterations=200
        )

    result = benchmark(optimize)
    assert np.isfinite(result.fun)


def test_complex_box_14d_worker_solve(benchmark):
    """One worker solve of the shape Table 1 runs: worker 0 of the 100/7
    layout (14 block variables next to a fixed coupling value) at the
    bench iteration cap of 96."""
    problem = DecomposedRosenbrock(100, 7)
    coupling = np.full(problem.manager_dimension, 0.5)

    def solve():
        return problem.solve_worker(0, coupling, rng_stream(7, "micro"), 96)

    result = benchmark(solve)
    assert result.x.shape == (14,) and np.isfinite(result.fun)
