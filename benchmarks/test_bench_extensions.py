"""Benchmarks for the extension experiments (approaches, overhead,
filtering interplay, multi-source)."""

from repro.experiments import approaches, filtering_interplay, overhead_table


class TestApproaches:
    def test_bench_approach_comparison(self, benchmark, preset):
        result = benchmark.pedantic(
            approaches.run, args=(preset,), kwargs={"packets": 150}, rounds=1, iterations=1
        )
        outcomes = {(r[0], r[1]): r[5] for r in result.rows}
        assert outcomes[("pnm", "selective-drop")] == "caught"
        assert outcomes[("notification", "itrace, mole-forges")] == "framed"


class TestOverheadTable:
    def test_bench_overhead(self, benchmark, preset):
        result = benchmark.pedantic(
            overhead_table.run, args=(preset,), rounds=1, iterations=1
        )
        by_key = {(r[0], r[1]): r for r in result.rows}
        # Nested grows linearly; PNM stays ~3 marks.
        assert by_key[("nested", 30)][2] == 30
        assert by_key[("pnm", 30)][2] < 5


class TestFilteringInterplay:
    def test_bench_interplay(self, benchmark, preset):
        result = benchmark.pedantic(
            filtering_interplay.run, args=(preset,), rounds=1, iterations=1
        )
        injections = result.column("injections_to_identify")
        assert injections == sorted(injections)


class TestMultiSource:
    def test_bench_multisource_traceback(self, benchmark):
        import random

        from repro.core.build import deploy
        from repro.marking.pnm import PNMMarking
        from repro.net.topology import grid_topology
        from repro.routing.tree import build_routing_tree
        from repro.sim.behaviors import HonestForwarder
        from repro.sim.sources import BogusReportSource
        from repro.traceback.multisource import MultiSourceTracebackSink

        topo = grid_topology(5, 5, sink_at="corner")
        routing = build_routing_tree(topo)
        dep = deploy(topo, b"bench-ms", "5:node")
        scheme = PNMMarking(mark_prob=0.4)
        behaviors = {nid: HonestForwarder(dep.ctx(nid), scheme) for nid in topo.sensor_nodes()}

        def hunt():
            sink = MultiSourceTracebackSink(
                scheme, dep.keystore, dep.provider, topo, min_support=3
            )
            for i, mole in enumerate((24, 20)):
                src = BogusReportSource(
                    mole, topo.position(mole), random.Random(f"b:{i}")
                )
                path = routing.forwarders_between(mole)
                for _ in range(80):
                    packet = src.next_packet(timestamp=0)
                    for nid in path:
                        packet = behaviors[nid].forward(packet)
                    sink.receive(packet, path[-1])
            return sink.multi_verdict()

        verdict = benchmark.pedantic(hunt, rounds=1, iterations=1)
        assert verdict.num_sources == 2
