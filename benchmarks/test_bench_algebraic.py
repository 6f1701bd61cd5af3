"""Algebraic scheme costs: solver throughput and wire overhead vs PNM.

Two recorded statistics land in ``BENCH_algebraic.json``:

* ``solver_throughput`` -- observations per second through a live
  :class:`~repro.algebraic.solver.AlgebraicSolver` fed a mixed stream
  (multiple routes, interleaved garbage).  Wall-clock, machine-dependent,
  recorded for trend-watching only -- *not* gated.
* ``overhead_vs_pnm`` -- mean mark bytes per delivered packet, algebraic
  over PNM, on the same fixed-seed linear-path workload at the paper's
  standard operating point (3 expected PNM marks per packet).  The ratio
  is a deterministic function of the wire formats and the seeds, so it
  is machine-independent and gated in ``benchmarks/baseline.json``
  (direction: lower -- the accumulator must stay cheaper than PNM's
  appended marks, or the scheme has lost its reason to exist).
"""

import random
import time

import pytest

from repro.algebraic.field import evaluation_point, horner_step
from repro.algebraic.marking import AlgebraicMarking
from repro.algebraic.solver import AlgebraicObservation, AlgebraicSolver
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.base import NodeContext
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology, linear_path_topology
from repro.sim.sources import HonestReportSource

N_FORWARDERS = 12
PACKETS = 200
# The paper's standard operating point: 3 expected marks per packet.
MARK_PROB = 3.0 / N_FORWARDERS
SOLVER_OBSERVATIONS = 4000


def _marked_packets(scheme, seed: int = 11):
    """Mark ``PACKETS`` reports through the full linear path; yield results."""
    topology, source_id = linear_path_topology(N_FORWARDERS)
    keystore = KeyStore.from_master_secret(b"bench-algebraic", topology.sensor_nodes())
    provider = KeyedHashProvider()
    path = [n for n in sorted(topology.sensor_nodes()) if n != source_id]
    contexts = [
        NodeContext(
            node_id=node,
            key=keystore[node],
            provider=provider,
            rng=random.Random(f"bench-alg:{seed}:{node}"),
        )
        for node in path
    ]
    source = HonestReportSource(
        source_id, topology.position(source_id), random.Random(f"bench-alg:src:{seed}")
    )
    for i in range(PACKETS):
        packet = source.next_packet(timestamp=i)
        for ctx in contexts:
            packet = scheme.on_forward(ctx, packet)
        yield packet


def _mean_mark_bytes(scheme) -> float:
    total = 0
    for packet in _marked_packets(scheme):
        total += sum(len(mark.id_field) + len(mark.mac) for mark in packet.marks)
    return total / PACKETS


def _observation_stream(topology, count: int):
    """A deterministic mixed stream: several routes plus interleaved garbage."""
    # Admissible in the 4x4 grid (8-neighborhood, sink at node 0): each
    # route walks radio neighbors and ends on a sink neighbor (1, 4, 5).
    routing_routes = [
        (3, 2, 1),
        (7, 6, 5),
        (11, 10, 9, 4),
        (15, 14, 13, 9, 5),
    ]
    rng = random.Random("bench-alg:solver")
    stream = []
    for i in range(count):
        route = routing_routes[i % len(routing_routes)]
        wire = i.to_bytes(8, "big")
        point = evaluation_point(wire)
        if i % 17 == 0:
            # Garbage: a value no admissible path explains.
            value = rng.randrange(1, 2**31 - 1)
        else:
            value = 0
            for node in route:
                value = horner_step(value, point, node)
        stream.append(
            AlgebraicObservation(
                timestamp=i,
                point=point,
                count=len(route),
                value=value,
                delivering_node=route[-1],
                last_hop=route[-1],
            )
        )
    return stream


class TestAlgebraicOverheadGate:
    def test_accumulator_is_cheaper_than_pnm_marks(self, bench_record):
        pnm_bytes = _mean_mark_bytes(PNMMarking(mark_prob=MARK_PROB))
        alg_bytes = _mean_mark_bytes(AlgebraicMarking())
        ratio = alg_bytes / pnm_bytes
        bench_record(
            "algebraic",
            "overhead_vs_pnm",
            ratio=ratio,
            pnm_bytes_per_packet=pnm_bytes,
            algebraic_bytes_per_packet=alg_bytes,
            path_length=N_FORWARDERS,
            packets=PACKETS,
        )
        assert ratio < 1.0, (
            f"algebraic accumulator ({alg_bytes:.1f} B/pkt) must undercut "
            f"PNM's appended marks ({pnm_bytes:.1f} B/pkt); ratio {ratio:.3f}"
        )

    def test_solver_throughput_recorded(self, bench_record):
        topology = grid_topology(4, 4, sink_at="corner")
        stream = _observation_stream(topology, SOLVER_OBSERVATIONS)
        solver = AlgebraicSolver(topology)
        start = time.perf_counter()
        for obs in stream:
            solver.observe(obs)
        elapsed = time.perf_counter() - start
        assert solver.confirmed_paths(), "the honest routes must confirm"
        bench_record(
            "algebraic",
            "solver_throughput",
            observations_per_second=len(stream) / elapsed,
            observations=len(stream),
            confirmed_paths=len(solver.confirmed_paths()),
            malformed=solver.malformed,
        )


class TestBenchAlgebraic:
    def test_bench_accumulator_marking(self, benchmark):
        def mark_all():
            for _ in _marked_packets(AlgebraicMarking()):
                pass

        benchmark(mark_all)

    def test_bench_solver_stream(self, benchmark):
        topology = grid_topology(4, 4, sink_at="corner")
        stream = _observation_stream(topology, 500)

        def solve_all():
            solver = AlgebraicSolver(topology)
            for obs in stream:
                solver.observe(obs)
            return solver

        benchmark(solve_all)


if __name__ == "__main__":
    pytest.main([__file__, "--benchmark-only", "-v"])
