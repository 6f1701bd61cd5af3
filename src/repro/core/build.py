"""Materializing deployments into runnable object graphs.

:func:`deploy` loads a topology's sensors with keys derived from a master
secret; the resulting :class:`Deployment` hands out each node's marking
context and RNG.  Every builder below, and every experiment that wires
its own nodes, starts from one.

:func:`build_scenario` builds the full object graph for a
:class:`~repro.core.scenario.Scenario`: linear-path topology, per-node
keys and RNGs, the marking scheme, honest forwarders, the colluding moles
with their attack, the traceback sink, and the path pipeline tying them
together.

Node IDs on the built path equal their 1-based path position: forwarder
``V_i`` has ID ``i`` (``V_1`` next to the source, ``V_n`` next to the
sink); the source mole has ID ``n + 1``; the sink is ``0``.

:func:`build_network` builds and runs the event-simulated counterpart on
any topology: one honest periodic source, at most one mark-manipulating
mole, and optional churn, ingest probe and watchdog layer.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.adversary.attacks import (
    Attack,
    HonestBehaviorAttack,
    IdentitySwappingAttack,
    MarkAlteringAttack,
    MarkInsertionAttack,
    MarkRemovalAttack,
    MarkReorderingAttack,
    NoMarkAttack,
    SelectiveDroppingAttack,
    TargetedMarkRemovalAttack,
    UnprotectedBitAlteringAttack,
)
from repro.adversary.coalition import Coalition
from repro.adversary.moles import ForwardingMole, MoleReportSource
from repro.algebraic.marking import AlgebraicMarking
from repro.algebraic.sink import AlgebraicTracebackSink
from repro.core.scenario import Scenario
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider, MacProvider, NullMacProvider
from repro.faults import FaultInjector, FaultSchedule
from repro.marking import scheme_by_name
from repro.marking.base import MarkingScheme, NodeContext
from repro.net.links import LinkModel
from repro.net.topology import Topology, linear_path_topology
from repro.routing.base import RoutingTable
from repro.routing.repair import RepairingRoutingTable
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import ForwardingBehavior, HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.pipeline import PathPipeline
from repro.sim.sources import BogusReportSource, HonestReportSource
from repro.traceback.sink import TracebackSink, TracebackVerdict
from repro.watchdog import DetectionProbe, WatchdogLayer

__all__ = [
    "Deployment",
    "deploy",
    "BuiltScenario",
    "build_scenario",
    "BuiltNetwork",
    "build_network",
]

#: Seconds between a network source's injections.
_INTERVAL = 0.05


@dataclass
class BuiltScenario:
    """Everything a scenario run needs, fully wired.

    Attributes:
        scenario: the declaration this was built from.
        topology: the linear-path deployment.
        source_id: the injecting source mole's node ID.
        path: forwarder IDs in path order (``V_1 .. V_n``).
        mole_ids: all compromised nodes (source plus any forwarding mole).
        scheme: the deployed marking scheme instance.
        provider: the MAC provider in use.
        keystore: the sink's key table.
        pipeline: the runnable path pipeline.
        sink: the traceback sink (also reachable via ``pipeline.sink``).
    """

    scenario: Scenario
    topology: Topology
    source_id: int
    path: list[int]
    mole_ids: frozenset[int]
    scheme: MarkingScheme
    provider: MacProvider
    keystore: KeyStore
    pipeline: PathPipeline
    sink: TracebackSink


def _make_scheme(sc: Scenario) -> MarkingScheme:
    prob = sc.resolved_mark_prob
    kwargs: dict[str, object]
    if sc.scheme == "none":
        kwargs = {"id_len": sc.id_len}
    elif sc.scheme == "ppm":
        kwargs = {"mark_prob": prob, "id_len": sc.id_len}
    elif sc.scheme == "ams":
        kwargs = {"mark_prob": prob, "id_len": sc.id_len, "mac_len": sc.mac_len}
    elif sc.scheme in ("nested", "partial-nested"):
        kwargs = {"id_len": sc.id_len, "mac_len": sc.mac_len}
    elif sc.scheme == "naive-pnm":
        kwargs = {"mark_prob": prob, "id_len": sc.id_len, "mac_len": sc.mac_len}
    elif sc.scheme == "pnm":
        kwargs = {
            "mark_prob": prob,
            "anon_id_len": sc.anon_id_len,
            "mac_len": sc.mac_len,
        }
    elif sc.scheme == "algebraic":
        # Deterministic accumulator scheme: mark_prob is fixed at 1.0 and
        # the 5-byte accumulator replaces the ID-length knobs.
        kwargs = {"mac_len": sc.mac_len}
    else:
        raise ValueError(f"unknown scheme {sc.scheme!r}")
    return scheme_by_name(sc.scheme, **kwargs)


def _make_provider(sc: Scenario) -> MacProvider:
    if sc.crypto == "real":
        return KeyedHashProvider(mac_len=sc.mac_len, anon_id_len=sc.anon_id_len)
    return NullMacProvider(mac_len=sc.mac_len, anon_id_len=sc.anon_id_len)


@dataclass(frozen=True)
class Deployment:
    """One deployment's key material: the sink's key table over
    ``topology``'s sensors, the MAC provider, and per-node RNG streams
    labelled ``{rng_label}:{node_id}``.

    Every caller that needs a node's key or marking RNG builds one with
    :func:`deploy`, so key derivation and RNG labelling live here only.
    """

    topology: Topology
    keystore: KeyStore
    provider: MacProvider
    rng_label: str

    def rng(self, node_id: int) -> random.Random:
        """A fresh RNG for ``node_id`` (same label, same draws)."""
        return random.Random(f"{self.rng_label}:{node_id}")

    def ctx(self, node_id: int) -> NodeContext:
        """A fresh marking context for ``node_id``, with a fresh RNG."""
        return NodeContext(
            node_id, self.keystore[node_id], self.provider, self.rng(node_id)
        )


def deploy(
    topology: Topology,
    master_secret: bytes,
    rng_label: str,
    provider: MacProvider | None = None,
) -> Deployment:
    """Load every sensor of ``topology`` with a key derived from
    ``master_secret``; ``provider`` defaults to :class:`KeyedHashProvider`."""
    keystore = KeyStore.from_master_secret(master_secret, topology.sensor_nodes())
    if provider is None:
        provider = KeyedHashProvider()
    return Deployment(topology, keystore, provider, rng_label)


def _make_attacks(
    sc: Scenario,
    path: list[int],
    source_id: int,
    mole_id: int,
) -> tuple[Attack | None, Attack | None]:
    """Build (forwarding-mole attack, source-side attack) for the scenario."""
    params = dict(sc.attack_params)
    name = sc.attack
    if name == "none":
        return None, None
    if name == "honest-mole":
        return HonestBehaviorAttack(), None
    if name == "no-mark":
        return NoMarkAttack(), None
    if name == "insert-garbage":
        return MarkInsertionAttack(num_fake=params.get("num_fake", 2)), None
    if name == "insert-frame":
        victims = params.get("victims") or [path[-1]]
        return (
            MarkInsertionAttack(
                num_fake=params.get("num_fake", len(victims)),
                claim_ids=victims,
                # Splice the fakes in front of the honest marks so the
                # victim appears most upstream: the strongest framing play
                # against unauthenticated marking.
                position="prepend",
            ),
            None,
        )
    if name == "remove-upstream":
        return MarkRemovalAttack(num_remove=params.get("num_remove", 1)), None
    if name == "remove-targeted":
        remove_ids = params.get("remove_ids") or [path[0]]
        return TargetedMarkRemovalAttack(remove_ids=remove_ids), None
    if name == "remove-all":
        return MarkRemovalAttack(num_remove=None), None
    if name == "remove-remark":
        return MarkRemovalAttack(num_remove=None, also_mark=True), None
    if name == "reorder":
        return MarkReorderingAttack(mode=params.get("mode", "reverse")), None
    if name == "alter":
        return (
            MarkAlteringAttack(
                target=params.get("target", "first"),
                field=params.get("field", "mac"),
            ),
            None,
        )
    if name == "selective-drop":
        frame_position = params.get("frame_position", 2)
        if not 2 <= frame_position <= len(path):
            raise ValueError(
                f"frame_position must be in [2, {len(path)}], got {frame_position}"
            )
        # Drop every packet carrying a mark from a node upstream of the
        # frame target V_frame_position, so the trace stops at the target.
        upstream = path[: frame_position - 1]
        return SelectiveDroppingAttack(drop_if_marked_by=upstream), None
    if name == "identity-swap":
        swap_prob = params.get("swap_prob", 0.5)
        mark_prob = params.get("mark_prob")
        return (
            IdentitySwappingAttack(
                partner_id=source_id, swap_prob=swap_prob, mark_prob=mark_prob
            ),
            IdentitySwappingAttack(
                partner_id=mole_id, swap_prob=swap_prob, mark_prob=mark_prob
            ),
        )
    if name == "unprotected-alter":
        return (
            UnprotectedBitAlteringAttack(
                victim_index=params.get("victim_index", 0),
                also_mark=params.get("also_mark", True),
            ),
            None,
        )
    raise ValueError(f"unknown attack {name!r}")


def build_scenario(sc: Scenario) -> BuiltScenario:
    """Materialize ``sc`` into a runnable pipeline (see module docstring)."""
    topology, source_id = linear_path_topology(sc.n_forwarders)
    routing = build_routing_tree(topology)
    path = routing.forwarders_between(source_id)

    scheme = _make_scheme(sc)
    master_secret = b"pnm-deployment-" + sc.seed.to_bytes(8, "big", signed=True)
    dep = deploy(topology, master_secret, f"{sc.seed}:node", _make_provider(sc))

    mole_position = sc.resolved_mole_position
    mole_id = path[mole_position - 1]
    forwarding_attack, source_attack = _make_attacks(sc, path, source_id, mole_id)

    mole_ids = {source_id}
    coalition_keys = {source_id: dep.keystore[source_id]}
    if forwarding_attack is not None:
        mole_ids.add(mole_id)
        coalition_keys[mole_id] = dep.keystore[mole_id]
    coalition = Coalition(coalition_keys)

    forwarders: list[ForwardingBehavior] = []
    for node_id in path:
        if forwarding_attack is not None and node_id == mole_id:
            forwarders.append(
                ForwardingMole(
                    ctx=dep.ctx(node_id),
                    scheme=scheme,
                    attack=forwarding_attack,
                    coalition=coalition,
                )
            )
        else:
            forwarders.append(HonestForwarder(ctx=dep.ctx(node_id), scheme=scheme))

    source = BogusReportSource(
        node_id=source_id,
        claimed_location=topology.position(source_id),
        rng=dep.rng(source_id),
    )
    if source_attack is not None:
        source_shell = ForwardingMole(
            ctx=dep.ctx(source_id),
            scheme=scheme,
            attack=source_attack,
            coalition=coalition,
        )
        source = MoleReportSource(inner=source, mole=source_shell)

    sink = TracebackSink(
        scheme=scheme,
        keystore=dep.keystore,
        provider=dep.provider,
        topology=topology,
    )
    pipeline = PathPipeline(source=source, forwarders=forwarders, sink=sink)
    return BuiltScenario(
        scenario=sc,
        topology=topology,
        source_id=source_id,
        path=path,
        mole_ids=frozenset(mole_ids),
        scheme=scheme,
        provider=dep.provider,
        keystore=dep.keystore,
        pipeline=pipeline,
        sink=sink,
    )


@dataclass
class BuiltNetwork:
    """An event-simulated deployment after its run.

    Attributes:
        sink: the traceback sink (algebraic for the algebraic scheme).
        source_id: the injecting sensor.
        moles: the mark-manipulating forwarder, or empty without an attack.
        sim: the finished simulation; ``sim.metrics`` holds the delivery
            counts and ``sim.ingest`` the ingest probe, if any.
        injector: the churn injector, or ``None`` without churn.
        probe: the detection probe of a watchdog run, else ``None``.
    """

    sink: TracebackSink
    source_id: int
    moles: frozenset[int]
    sim: NetworkSimulation
    injector: FaultInjector | None
    probe: DetectionProbe | None

    def localized(self, verdict: TracebackVerdict) -> bool:
        """Whether ``verdict``'s suspect neighborhood contains the mole
        (the paper's one-hop localization)."""
        return (
            verdict.identified
            and verdict.suspect is not None
            and not self.moles.isdisjoint(verdict.suspect.members)
        )


def build_network(
    topology: Topology,
    scheme: MarkingScheme,
    master_secret: bytes,
    packets: int,
    *,
    rng_label: str,
    seed: int,
    node_rng_label: str | None = None,
    attack: Attack | None = None,
    mole_id: int | None = None,
    churn_rate: float | None = None,
    ingest: Callable[[TracebackSink, RoutingTable, int], object] | None = None,
    watchdog: WatchdogLayer | None = None,
) -> BuiltNetwork:
    """Build an event-simulated deployment over ``topology`` and run it.

    Every sensor forwards honestly under ``scheme``, with keys derived
    from ``master_secret``, over repairing routes and 1 ms links -- except
    one mole running ``attack`` (default: the middle forwarder of the
    source's route).  The source, the sensor farthest from the sink in
    hops (ties to the larger ID), sends ``packets`` honest reports
    0.05 s apart.  A ``churn_rate`` (crashes per sensor per second) churns
    every sensor but the source and the mole.  RNG streams are labelled
    ``{rng_label}:link:{seed}``, ``{rng_label}:src:{seed}``,
    ``{rng_label}:churn:{seed}:{churn_rate}`` and, per node ``i``,
    ``{node_rng_label}:{i}`` (default ``{rng_label}:{seed}:{i}``).
    ``ingest(sink, routing, source_id)`` builds the pipeline deliveries go
    to; under a ``watchdog`` layer they reach the sink through a
    :class:`~repro.watchdog.DetectionProbe`.
    """
    routing = RepairingRoutingTable(topology)
    dep = deploy(topology, master_secret, node_rng_label or f"{rng_label}:{seed}")
    source_id = max(topology.sensor_nodes(), key=lambda n: (routing.hop_count(n), n))
    behaviors: dict[int, ForwardingBehavior] = {
        nid: HonestForwarder(dep.ctx(nid), scheme) for nid in topology.sensor_nodes()
    }
    moles: frozenset[int] = frozenset()
    if attack is not None:
        if mole_id is None:
            path = routing.path_to_sink(source_id)
            mole_id = path[len(path) // 2]
        behaviors[mole_id] = ForwardingMole(dep.ctx(mole_id), scheme, attack)
        moles = frozenset({mole_id})

    sink_cls = AlgebraicTracebackSink if isinstance(scheme, AlgebraicMarking) else TracebackSink
    sink = sink_cls(scheme, dep.keystore, dep.provider, topology)
    probe = None if watchdog is None else DetectionProbe(sink, moles)
    sim = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink if probe is None else probe,
        link=LinkModel(base_delay=0.001),
        rng=random.Random(f"{rng_label}:link:{seed}"),
        ingest=None if ingest is None else ingest(sink, routing, source_id),
        watchdog=watchdog,
    )
    injector = None
    if churn_rate is not None:
        schedule = FaultSchedule.random_churn(
            topology,
            rate=churn_rate,
            duration=packets * _INTERVAL,
            rng=random.Random(f"{rng_label}:churn:{seed}:{churn_rate}"),
            protect={source_id} | moles,
        )
        injector = FaultInjector(sim, schedule)
        injector.arm()

    src_rng = random.Random(f"{rng_label}:src:{seed}")
    source = HonestReportSource(source_id, topology.position(source_id), src_rng)
    sim.add_periodic_source(source, interval=_INTERVAL, count=packets)
    sim.run()
    return BuiltNetwork(sink, source_id, moles, sim, injector, probe)
