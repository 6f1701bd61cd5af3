"""Traceback-approach comparison: marking vs logging vs notification.

Section 8 argues PNM beats the two other traceback families on sensor
hardware: it needs *no control messages* (logging needs a query/reply
protocol, notification needs extra messages -- both abusable by moles) and
*no per-node storage* (logging stores packet digests).  This experiment
runs all three on the same deployment -- a chain with one off-path spur
node (the framing victim) -- under the same colluding moles, and tabulates
what each costs and whether the moles win.

Approaches compared:

* **pnm** -- probabilistic nested marking, mole runs selective dropping.
* **edge-sampling** -- Savage et al.'s original single-slot PPM; the mole
  overwrites the slot with a fabricated edge framing the spur node.
* **logging** -- SPIE-style Bloom logs; the mole denies having forwarded.
* **notification / itrace** -- unauthenticated notifications; the mole
  forges messages framing the spur node.
* **notification / authenticated** -- MAC'd notifications; the mole can
  only stay silent.
"""

from __future__ import annotations

from repro.core.build import Deployment, deploy
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.marking.plain import NoMarking
from repro.marking.pnm import PNMMarking
from repro.net.topology import Topology
from repro.sim.behaviors import HonestForwarder
from repro.sim.pipeline import PathPipeline
from repro.sim.sources import BogusReportSource
from repro.tracealt.logging import DenyingLogMole, LoggingNode, LoggingTracer
from repro.tracealt.notification import (
    NOTIFICATION_BYTES,
    ForgingNotificationMole,
    NotificationSink,
    NotifyingForwarder,
    SilentNotificationMole,
)
from repro.traceback.sink import TracebackSink

__all__ = ["run", "spur_chain_topology"]

N_FORWARDERS = 12
MOLE_POSITION = 6
SPUR_ATTACH = 9  # the off-path victim hangs off V9
SPUR_ID = 100
_PATH = range(1, N_FORWARDERS + 1)


def spur_chain_topology() -> tuple[Topology, int]:
    """A linear path plus one off-path spur node (the framing victim).

    Returns ``(topology, source_id)``; forwarders are 1..N as in
    :func:`repro.net.topology.linear_path_topology`.
    """
    from repro.net.topology import linear_path_topology

    base, source_id = linear_path_topology(N_FORWARDERS)
    positions = {nid: base.position(nid) for nid in base.nodes()}
    x, y = positions[SPUR_ATTACH]
    positions[SPUR_ID] = (x, y + 1.0)
    edges = base.edges() + [(SPUR_ATTACH, SPUR_ID)]
    return Topology(positions, edges, sink=base.sink), source_id


def _outcome(suspect_members: set[int] | None, source_id: int) -> str:
    if not suspect_members:
        return "unidentified"
    return "caught" if suspect_members & {source_id, MOLE_POSITION} else "framed"


def _run_pnm(dep: Deployment, source_id: int, packets: int) -> list:
    from repro.adversary.attacks import SelectiveDroppingAttack
    from repro.adversary.moles import ForwardingMole

    scheme = PNMMarking(mark_prob=3.0 / N_FORWARDERS)
    sink = TracebackSink(scheme, dep.keystore, dep.provider, dep.topology)
    forwarders = []
    for nid in _PATH:
        if nid == MOLE_POSITION:
            forwarders.append(
                ForwardingMole(
                    dep.ctx(nid),
                    scheme,
                    SelectiveDroppingAttack(drop_if_marked_by=[1]),
                )
            )
        else:
            forwarders.append(HonestForwarder(dep.ctx(nid), scheme))
    source = BogusReportSource(source_id, dep.topology.position(source_id), dep.rng(999))
    pipeline = PathPipeline(source, forwarders, sink)
    pipeline.push_many(packets)
    verdict = sink.verdict()
    members = set(verdict.suspect.members) if verdict.suspect else None
    marks_bytes = scheme.mark_prob * N_FORWARDERS * scheme.fmt.mark_len
    return [
        "pnm",
        "selective-drop",
        round(marks_bytes, 1),
        0,  # per-node storage
        0,  # control messages
        _outcome(members, source_id),
        verdict.suspect.center if verdict.suspect else None,
    ]


def _run_logging(dep: Deployment, source_id: int, packets: int) -> list:
    scheme = NoMarking()
    nodes: dict[int, LoggingNode] = {}
    forwarders = []
    for nid in _PATH:
        inner = HonestForwarder(dep.ctx(nid), scheme)
        node = (
            DenyingLogMole(inner) if nid == MOLE_POSITION else LoggingNode(inner)
        )
        nodes[nid] = node
        forwarders.append(node)
    # The off-path spur node keeps an (empty) log and answers queries too.
    nodes[SPUR_ID] = LoggingNode(HonestForwarder(dep.ctx(SPUR_ID), scheme))

    sink = TracebackSink(scheme, dep.keystore, dep.provider, dep.topology)
    source = BogusReportSource(source_id, dep.topology.position(source_id), dep.rng(999))
    pipeline = PathPipeline(source, forwarders, sink)
    pipeline.push_many(packets)

    tracer = LoggingTracer(dep.topology, nodes)
    # Trace a handful of fresh attack reports, as SPIE would: inject each
    # probe report down the same (logging) path, then query for it.
    probe_source = BogusReportSource(source_id, dep.topology.position(source_id), dep.rng(999))
    control = 0
    most_upstream = None
    for _ in range(5):
        report = probe_source.next_packet(timestamp=0).report
        # Push this exact report down the (logging) path so logs know it.
        probe = PathPipeline(
            _FixedSource(source_id, report), forwarders, sink
        )
        probe.push()
        result = tracer.trace(report)
        control += result.control_messages
        most_upstream = result.most_upstream
    storage = max(node.log.storage_bytes for node in nodes.values())
    members = (
        set(dep.topology.closed_neighborhood(most_upstream))
        if most_upstream is not None
        else None
    )
    return [
        "logging",
        "mole-denies",
        0.0,
        storage,
        control,
        _outcome(members, source_id),
        most_upstream,
    ]


class _FixedSource:
    """A source that replays one fixed report (for log-trace probing)."""

    def __init__(self, node_id: int, report):
        self.node_id = node_id
        self._report = report

    def next_packet(self, timestamp: int):
        from repro.packets.packet import MarkedPacket

        return MarkedPacket(report=self._report, origin=self.node_id)


def _run_edge_sampling(dep: Deployment, source_id: int, packets: int) -> list:
    from repro.tracealt.edge_sampling import (
        EDGE_SLOT_BYTES,
        EdgeForgingMole,
        EdgeSamplingForwarder,
        EdgeSamplingSink,
    )

    scheme = NoMarking()
    channel = EdgeSamplingSink()
    mark_prob = 3.0 / N_FORWARDERS
    forwarders = []
    for nid in _PATH:
        inner = HonestForwarder(dep.ctx(nid), scheme)
        if nid == MOLE_POSITION:
            forwarders.append(
                EdgeForgingMole(
                    inner,
                    channel,
                    mark_prob,
                    dep.rng(6000 + nid),
                    # Forge a fresh (distance-0) mark claiming the spur
                    # node: downstream honest hops complete and age the
                    # edge exactly like a real one, splicing the victim
                    # seamlessly onto the deep end of the path.
                    fake_start=SPUR_ID,
                    fake_end=-1,
                    fake_distance=0,
                )
            )
        else:
            forwarders.append(
                EdgeSamplingForwarder(
                    inner, channel, mark_prob, dep.rng(6000 + nid)
                )
            )
    source = BogusReportSource(source_id, dep.topology.position(source_id), dep.rng(999))
    for t in range(packets):
        packet = source.next_packet(timestamp=t)
        for behavior in forwarders:
            packet = behavior.forward(packet)
        channel.deliver(packet)

    origin = channel.apparent_origin()
    members = (
        set(dep.topology.closed_neighborhood(origin)) if origin is not None else None
    )
    return [
        "edge-sampling",
        "savage ppm, mole-forges",
        float(EDGE_SLOT_BYTES),
        0,
        0,
        _outcome(members, source_id),
        origin,
    ]


def _run_notification(
    dep: Deployment, source_id: int, packets: int, authenticated: bool
) -> list:
    scheme = NoMarking()
    notify_prob = 3.0 / N_FORWARDERS  # match PNM's per-packet budget
    note_sink = NotificationSink(
        authenticated=authenticated,
        keystore=dep.keystore if authenticated else None,
        provider=dep.provider if authenticated else None,
    )
    forwarders = []
    prev = source_id
    for nid in _PATH:
        inner = HonestForwarder(dep.ctx(nid), scheme)
        common = dict(
            inner=inner,
            prev_hop=prev,
            sink=note_sink,
            notify_prob=notify_prob,
            rng=dep.rng(7000 + nid),
            key=dep.keystore[nid] if authenticated else None,
            provider=dep.provider if authenticated else None,
        )
        if nid == MOLE_POSITION:
            if authenticated:
                forwarders.append(SilentNotificationMole(**common))
            else:
                forwarders.append(
                    ForgingNotificationMole(
                        **common,
                        frame_victim=source_id,
                        frame_prev=SPUR_ID,
                    )
                )
        else:
            forwarders.append(NotifyingForwarder(**common))
        prev = nid

    sink = TracebackSink(scheme, dep.keystore, dep.provider, dep.topology)
    source = BogusReportSource(source_id, dep.topology.position(source_id), dep.rng(999))
    pipeline = PathPipeline(source, forwarders, sink)
    pipeline.push_many(packets)
    # Reconstruct from everything notified.
    heads = {n.node_id for n in note_sink.accepted}
    tails = {n.prev_hop for n in note_sink.accepted}
    origins = tails - heads
    origin = min(origins) if origins else None
    members = (
        set(dep.topology.closed_neighborhood(origin)) if origin is not None else None
    )
    control = len(note_sink.accepted) + note_sink.rejected
    variant = "authenticated, mole-silent" if authenticated else "itrace, mole-forges"
    return [
        "notification",
        variant,
        0.0,
        0,
        control,
        _outcome(members, source_id),
        origin,
    ]


def run(preset: Preset = QUICK, packets: int = 200) -> FigureResult:
    """Run all four approach variants on the spur-chain deployment."""
    topology, source_id = spur_chain_topology()
    secret = b"approaches-" + preset.seed.to_bytes(4, "big")
    dep = deploy(topology, secret, f"{preset.seed}:node")
    rows = [
        _run_pnm(dep, source_id, packets),
        _run_edge_sampling(dep, source_id, packets),
        _run_logging(dep, source_id, packets),
        _run_notification(dep, source_id, packets, False),
        _run_notification(dep, source_id, packets, True),
    ]
    return FigureResult(
        figure_id="approaches",
        title="Traceback approaches under colluding moles (Section 8)",
        columns=[
            "approach",
            "variant",
            "mark_bytes_per_packet",
            "per_node_storage_bytes",
            "control_messages",
            "outcome",
            "traced_to",
        ],
        notes=[
            f"chain of {N_FORWARDERS} forwarders + off-path spur node "
            f"{SPUR_ID}; source mole {N_FORWARDERS + 1}, forwarding mole "
            f"V{MOLE_POSITION}; {packets} attack packets",
            "PNM spends only in-band mark bytes; logging spends per-node "
            "RAM plus a query/reply protocol the mole defeats by denying; "
            "unauthenticated notification is forged to frame the spur "
            "node; authenticated notification resists forgery but pays "
            f"~{NOTIFICATION_BYTES} extra bytes per notification message",
        ],
        rows=rows,
    )
