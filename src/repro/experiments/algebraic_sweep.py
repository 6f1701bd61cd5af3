"""Algebraic accumulator vs. PNM under churn: the dynamic-network duel.

PNM's convergence argument is a coupon collection over per-hop marks on a
*static* route (Section 5); when :mod:`repro.faults` churn rewrites routes
mid-run, the collection restarts for every hop the repair changed.  The
algebraic scheme (:mod:`repro.algebraic`) was built for exactly that
regime: the sink keeps polynomial state across topology changes and
re-interpolates only the changed route suffix, so convergence resumes
instead of restarting.

For each churn rate the sweep runs the *same* grid workload and fault
schedule once per scheme, honest and attacked:

* **convergence** (honest runs) -- a delivered packet counts as
  *unconverged* while the sink's evidence cannot yet name the injector's
  current route exactly, in order: for PNM, every consecutive route pair
  must appear as a verified precedence edge; for the algebraic scheme, the
  route must be a solver-confirmed path.  ``*_unconv`` counts unconverged
  deliveries over the whole run (lower = faster convergence and faster
  re-convergence after each repair).
* **overhead** (honest runs) -- mean mark bytes per delivered packet.
  PNM appends ~``p * path_len`` marks; the accumulator replaces one
  constant-size mark, so its overhead is flat in path length.
* **precision** (mole runs) -- one mid-path mark-garbling mole per
  scheme (PNM: MAC corruption; algebraic: accumulator corruption, which
  makes the next honest hop restart the polynomial at itself).
  ``*_mole_loc`` reports whether the suspect neighborhood contains the
  mole (the paper's one-hop localization unit).
* **safety** (honest runs) -- the honest false-accusation rate from
  :func:`repro.faults.attribution.accusation_report` must be exactly 0.0
  for *both* schemes at every churn rate: benign churn cannot forge MACs,
  and interpolation inconsistency is a repair signal, never an accusation.
"""

from __future__ import annotations

from repro.adversary.attacks import MarkAlteringAttack
from repro.algebraic.marking import AlgebraicMarking
from repro.core.build import build_network
# The faults sweep's churn rates and grid workloads: the two sweeps
# describe the same churn regimes.
from repro.experiments.faults_sweep import CHURN_RATES, _WORKLOADS
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.faults import accusation_report, attribute_drops
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology
from repro.routing.base import RoutingError

__all__ = ["run", "CHURN_RATES"]

_MASTER = b"algebraic-sweep-master"


class _ConvergenceProbe:
    """Ingest adapter that scores each delivery against the current route.

    Implements the simulator's ingest protocol (``submit``/``flush``) so
    it sits between delivery and the sink: every suspicious packet still
    reaches ``sink.receive`` unchanged, but the probe also checks -- at
    the moment of delivery, against the *repairing* routing table --
    whether the sink's evidence already names the injector's current
    forwarder route exactly.  Packets delivered while it cannot are the
    ``unconverged`` count; under churn that includes the re-convergence
    tail after every route repair.
    """

    def __init__(self, sink, routing, source_id: int):
        self.sink = sink
        self.routing = routing
        self.source_id = source_id
        self.delivered = 0
        self.unconverged = 0
        self.mark_bytes = 0

    def submit(self, packet, delivering_node: int) -> None:
        verification = self.sink.receive(packet, delivering_node)
        self.delivered += 1
        self.mark_bytes += sum(
            len(mark.id_field) + len(mark.mac) for mark in packet.marks
        )
        self._record(verification)
        try:
            path = self.routing.path_to_sink(self.source_id)
        except RoutingError:
            # Churn currently cuts the injector off entirely; there is no
            # route to converge on, so the delivery scores neither way.
            return
        route = tuple(path[1:-1])
        if route and not self._covers(route):
            self.unconverged += 1

    def flush(self) -> None:  # pragma: no cover - protocol completeness
        """Nothing buffered: every submit reached the sink inline."""

    def _record(self, verification) -> None:
        """Fold one verification into the probe's coverage picture."""

    def _covers(self, route: tuple[int, ...]) -> bool:
        raise NotImplementedError


class _PnmProbe(_ConvergenceProbe):
    """PNM converges when every consecutive route pair is a verified edge.

    Mirrors what the precedence graph accumulates: a chain contributes
    its nodes and its consecutive pairs.  Requiring the exact pair
    ``(V_i, V_i+1)`` -- not merely both endpoints somewhere in the graph
    -- makes the criterion symmetric with the algebraic side, which must
    produce the exact ordered route to confirm at all.
    """

    def __init__(self, sink, routing, source_id: int):
        super().__init__(sink, routing, source_id)
        self._nodes: set[int] = set()
        self._edges: set[tuple[int, int]] = set()

    def _record(self, verification) -> None:
        chain = verification.chain_ids
        self._nodes.update(chain)
        self._edges.update(zip(chain, chain[1:]))

    def _covers(self, route: tuple[int, ...]) -> bool:
        if not set(route) <= self._nodes:
            return False
        return all(pair in self._edges for pair in zip(route, route[1:]))


class _AlgebraicProbe(_ConvergenceProbe):
    """Algebraic converges when the exact route is a confirmed path."""

    def _covers(self, route: tuple[int, ...]) -> bool:
        return route in self.sink.solver.confirmed_paths()


def _run_once(
    grid_side: int,
    packets: int,
    churn_rate: float,
    seed: int,
    scheme_name: str,
    mole: bool,
) -> dict[str, object]:
    """One simulated deployment: one scheme, one churn rate."""
    if scheme_name == "algebraic":
        scheme = AlgebraicMarking()
        # Corrupting the accumulator *value* is the scheme-appropriate
        # garbling: the MAC field gets overwritten by the next honest
        # hop's replace anyway, so altering it would be a no-op.
        attack_field = "id"
    else:
        scheme = PNMMarking(mark_prob=0.5)
        attack_field = "mac"
    probe_cls = _AlgebraicProbe if scheme_name == "algebraic" else _PnmProbe
    net = build_network(
        # 4-neighborhood (radio_range=spacing): the default 8-neighborhood
        # makes diagonal routes only 2-3 forwarders long, too short for a
        # convergence race; orthogonal-only links give Manhattan-length
        # routes and more distinct repair alternatives under churn.
        grid_topology(grid_side, grid_side, sink_at="corner", radio_range=1.0),
        scheme,
        _MASTER,
        packets,
        rng_label="algsweep",
        seed=seed,
        node_rng_label=f"algsweep:{seed}:{scheme_name}",
        attack=(
            MarkAlteringAttack(target="first", field=attack_field) if mole else None
        ),
        churn_rate=churn_rate,
        ingest=None if mole else probe_cls,
    )
    report = accusation_report(
        net.sink.evidence(),
        net.sink.topology,
        attribute_drops(net.sim.metrics, net.injector),
        moles=net.moles,
    )
    probe = net.sim.ingest
    delivered = probe.delivered if probe is not None else 0
    repairs = (
        net.sink.solver.incremental_repairs if scheme_name == "algebraic" else 0
    )
    return {
        "delivered": delivered,
        "unconverged": probe.unconverged if probe is not None else 0,
        "bytes_per_packet": (
            probe.mark_bytes / delivered if probe is not None and delivered else 0.0
        ),
        "repairs": repairs,
        "false_rate": report.false_accusation_rate,
        "localized": net.localized(net.sink.verdict()),
    }


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep churn rates; tabulate both schemes' convergence head-to-head."""
    grid_side, packets = _WORKLOADS.get(preset.name, _WORKLOADS["quick"])
    rows = []
    all_honest_clean = True
    for rate in CHURN_RATES:
        outcomes = {}
        for scheme_name in ("pnm", "algebraic"):
            honest = _run_once(
                grid_side, packets, rate, preset.seed, scheme_name, mole=False
            )
            attacked = _run_once(
                grid_side, packets, rate, preset.seed, scheme_name, mole=True
            )
            all_honest_clean = all_honest_clean and honest["false_rate"] == 0.0
            outcomes[scheme_name] = (honest, attacked)
        pnm_honest, pnm_mole = outcomes["pnm"]
        alg_honest, alg_mole = outcomes["algebraic"]
        rows.append(
            [
                rate,
                pnm_honest["delivered"],
                pnm_honest["unconverged"],
                alg_honest["unconverged"],
                round(float(pnm_honest["bytes_per_packet"]), 2),
                round(float(alg_honest["bytes_per_packet"]), 2),
                alg_honest["repairs"],
                round(float(pnm_honest["false_rate"]), 3),
                round(float(alg_honest["false_rate"]), 3),
                bool(pnm_mole["localized"]),
                bool(alg_mole["localized"]),
            ]
        )
    notes = [
        f"preset={preset.name}; {grid_side}x{grid_side} grid, {packets} packets "
        f"per run, PNM mark_prob=0.5 vs algebraic accumulator, repairing routes",
        "unconv = packets delivered before the sink's evidence names the "
        "injector's *current* route exactly (in order); lower = faster "
        "(re-)convergence under churn",
        "bytes_pkt = mean mark bytes per delivered packet (PNM grows with "
        "path length; the accumulator is constant)",
        "honest runs: benign churn only -- false-accusation rate must be 0.0 "
        f"for both schemes (observed: {'yes' if all_honest_clean else 'NO'})",
        "mole runs: one mid-path mark-garbling mole; 'loc' = suspect "
        "neighborhood contains the mole",
    ]
    return FigureResult(
        figure_id="algebraic-sweep",
        title="Algebraic accumulator vs PNM under churn",
        columns=[
            "churn_rate",
            "delivered",
            "pnm_unconv",
            "alg_unconv",
            "pnm_bytes_pkt",
            "alg_bytes_pkt",
            "alg_repairs",
            "pnm_false_acc",
            "alg_false_acc",
            "pnm_mole_loc",
            "alg_mole_loc",
        ],
        rows=rows,
        notes=notes,
        checks={"all_honest_clean": all_honest_clean},
    )
