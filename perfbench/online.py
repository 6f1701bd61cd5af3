"""The ``online-*`` workloads: closed-loop PNM identification runs.

Each run builds one n = 30 linear-path PNM scenario and calls
``pipeline.run_until_identified`` with one packet in flight and a verdict
after every packet.  ``online-route`` uses the ``no-mark`` attack;
``online-adversarial`` alternates ``identity-swap`` and ``alter`` runs.

A run of the benchmark has two parts:

* the **quality panel** -- scenario seeds 0..29 for every attack, run
  untimed (it is also the warm-up).  Its seeds are fixed, so
  ``packets_to_identify_p50`` and ``one_hop_rate`` repeat exactly on
  every run and act as regression guards (see ``ONE_HOP_FLOOR``);
* the **timed passes** -- the same panel again, in an order shuffled by
  the workload seed, pass after pass until the time budget is spent.
  Every pass must repeat the panel's outcomes exactly.  Every end-to-end
  figure comes from the passes: a scenario's or a packet's time is its
  median over the passes.

The timed scenarios are the panel's, not scenarios drawn from the
workload seed, because run lengths vary a lot from scenario to scenario
(a verdict costs more as the precedence graph grows), so throughput over
a random draw of scenarios spreads by about 20% from seed to seed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field

from calibration import SpeedProbe
from ledger import Ledger, VerdictStats, layer_metrics, trace_tamper_localizer
from repro.cluster.coordinator import verdict_json
from repro.core.build import build_scenario
from repro.core.scenario import Scenario
from repro.obs.profiling import ObsProvider, use_provider
from repro.traceback.sink import TracebackSink, compute_verdict, evidence_precedence

N_FORWARDERS = 30
MAX_PACKETS = 2000
PANEL_SEEDS = 30

ATTACKS = {
    "online-route": ("no-mark",),
    "online-adversarial": ("identity-swap", "alter"),
}

#: Panel runs (of ``PANEL_SEEDS``) whose suspect's closed neighbourhood
#: holds a mole, as measured when the benchmark was defined.  A panel
#: that does worse fails the run's output check; doing better passes.
ONE_HOP_FLOOR = {"no-mark": 30, "identity-swap": 8, "alter": 14}


@dataclass
class IdentifyRun:
    """One ``run_until_identified`` call and what the checks found."""

    attack: str
    scenario_seed: int
    setup_s: float
    identify_s: float
    packets: int
    identified_after: int | None
    center: int | None
    one_hop: bool
    verdict_ok: bool
    latencies: list[float] = field(repr=False, default_factory=list)
    #: Machine speed over the run (``SpeedProbe.speed``); 1.0 if unprobed.
    speed: float = 1.0


@dataclass
class Tracing:
    """What one traced phase attaches to every scenario it builds."""

    ledger: Ledger
    verdicts: VerdictStats
    obs: ObsProvider


def identify(attack: str, scenario_seed: int, tracing: Tracing | None = None) -> IdentifyRun:
    """Build one scenario and run it to a stable identification."""
    scenario = Scenario(
        n_forwarders=N_FORWARDERS, scheme="pnm", attack=attack, seed=scenario_seed
    )
    start = time.perf_counter()
    if tracing is None:
        built = build_scenario(scenario)
    else:
        with use_provider(tracing.obs):
            built = build_scenario(scenario)
    setup_s = time.perf_counter() - start
    sink = built.sink

    # The client's clock: one packet is in flight at a time, so the gap
    # between consecutive verdicts is that packet's send-to-verdict time.
    latencies: list[float] = []
    last = [0.0]

    def clocked_verdict():
        verdict = TracebackSink.verdict(sink)
        now = time.perf_counter()
        latencies.append(now - last[0])
        last[0] = now
        return verdict

    sink.verdict = clocked_verdict
    if tracing is not None:
        ledger = tracing.ledger
        keep = ledger.checkpoint()
        ledger.wrap(built.pipeline, "push", "sim.forward")
        ledger.wrap(sink.verifier, "verify", "traceback.verify")
        ledger.wrap(sink, "ingest", "traceback.ingest")
        ledger.wrap(sink, "verdict", "traceback.verdict", tracing.verdicts.observer())
        ledger.wrap(sink.precedence, "analyze", "traceback.analyze")
        ledger.count_hmacs(built.provider)

    start = last[0] = time.perf_counter()
    identified_after, center = built.pipeline.run_until_identified(
        max_packets=MAX_PACKETS
    )
    identify_s = time.perf_counter() - start
    if tracing is not None:
        ledger.restore(keep)
        ledger.paused = True
    del sink.verdict

    evidence = sink.evidence()
    recomputed = compute_verdict(
        evidence_precedence(evidence),
        dict(evidence.tamper_stops),
        evidence.tampered_packets,
        evidence.chains_with_marks,
        evidence.packets_received,
        built.topology,
        evidence.delivering_node,
    )
    live = sink.verdict()
    if tracing is not None:
        ledger.paused = False
    one_hop = center is not None and bool(
        built.topology.closed_neighborhood(center) & built.mole_ids
    )
    return IdentifyRun(
        attack=attack,
        scenario_seed=scenario_seed,
        setup_s=setup_s,
        identify_s=identify_s,
        packets=len(latencies),
        identified_after=identified_after,
        center=center,
        one_hop=one_hop,
        verdict_ok=verdict_json(live) == verdict_json(recomputed),
        latencies=latencies,
    )


def _pass_order(workload: str, seed: int, index: int) -> list[tuple[str, int]]:
    """Timed pass ``index``: the panel's ``(attack, scenario_seed)`` pairs,
    shuffled by the workload seed."""
    plan = [(a, s) for s in range(PANEL_SEEDS) for a in ATTACKS[workload]]
    random.Random(f"perfbench:{workload}:{seed}:{index}").shuffle(plan)
    return plan


def _timed_passes(
    workload: str, seed: int, seconds: float, probe: SpeedProbe
) -> list[list[IdentifyRun]]:
    """Whole passes over the panel until the time budget is spent, with
    a machine-speed sample before and after every run."""
    passes: list[list[IdentifyRun]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        runs = []
        gc.collect()
        before = probe.sample()
        for attack, scenario_seed in _pass_order(workload, seed, len(passes)):
            runs.append(identify(attack, scenario_seed))
            after = probe.sample()
            runs[-1].speed = probe.speed(before, after)
            before = after
        passes.append(runs)
    return passes


def _panel(workload: str) -> tuple[list[IdentifyRun], list[str]]:
    """Run the fixed quality panel; returns runs and failed-check messages."""
    attacks = ATTACKS[workload]
    runs = [identify(a, s) for s in range(PANEL_SEEDS) for a in attacks]
    problems: list[str] = []
    for attack in attacks:
        hits = sum(r.one_hop for r in runs if r.attack == attack)
        if hits < ONE_HOP_FLOOR[attack]:
            problems.append(
                f"panel one-hop {attack}: {hits}/{PANEL_SEEDS} is below the "
                f"recorded {ONE_HOP_FLOOR[attack]}/{PANEL_SEEDS}"
            )
    return runs, problems


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` cut points)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _packets_per_s(runs: list[IdentifyRun]) -> float:
    return sum(r.packets for r in runs) / sum(r.identify_s for r in runs)


def _figures(passes: list[list[IdentifyRun]], scaled: bool) -> dict[str, float]:
    """End-to-end figures of the timed passes, at the reference machine
    speed if ``scaled`` (except p99, see ``calibration``), else as
    measured.

    A scenario's time is its median over the passes and p50/p90 are
    quantiles of each packet's median latency over the passes (a
    scenario repeats its packets exactly), so a pass or a packet the
    host slowed down moves no figure.  p99 is the median over the passes
    of each pass's p99, as measured.
    """

    def speed(r: IdentifyRun) -> float:
        return r.speed if scaled else 1.0

    by_scenario: dict[tuple[str, int], list[float]] = {}
    by_packet: dict[tuple[str, int, int], list[float]] = {}
    for runs in passes:
        for r in runs:
            by_scenario.setdefault((r.attack, r.scenario_seed), []).append(
                r.identify_s * speed(r)
            )
            for index, lat in enumerate(r.latencies):
                by_packet.setdefault((r.attack, r.scenario_seed, index), []).append(
                    lat * speed(r)
                )
    identify_times = [statistics.median(times) for times in by_scenario.values()]
    packet_times = [statistics.median(times) for times in by_packet.values()]
    packets = sum(r.packets for r in passes[0])

    return {
        "packets_per_s": packets / sum(identify_times),
        "batch_ms_p50": _quantile(packet_times, 50) * 1e3,
        "batch_ms_p90": _quantile(packet_times, 90) * 1e3,
        "batch_ms_p99": statistics.median(
            _quantile([lat for r in runs for lat in r.latencies], 99) for runs in passes
        )
        * 1e3,
        "setup_s": statistics.median(speed(r) * r.setup_s for runs in passes for r in runs),
        "identify_s_p50": statistics.median(identify_times),
        "identify_s_p90": _quantile(identify_times, 90),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one ``online-*`` workload; see ``run.py`` for the result shape."""
    panel, problems = _panel(workload)
    identified = [r for r in panel if r.identified_after is not None]
    quality = {
        "packets_to_identify_p50": statistics.median(
            r.identified_after for r in identified
        )
        if identified
        else float(MAX_PACKETS),
        "one_hop_rate": sum(r.one_hop for r in identified) / max(1, len(identified)),
    }

    probe = SpeedProbe()
    passes = _timed_passes(workload, seed, seconds / 2 if trace else seconds, probe)
    timed = [r for runs in passes for r in runs]
    checked = panel + timed
    outcome = {(r.attack, r.scenario_seed): r for r in panel}
    for r in timed:
        first = outcome[r.attack, r.scenario_seed]
        if (r.identified_after, r.center) != (first.identified_after, first.center):
            problems.append(
                f"panel run {r.attack}/{r.scenario_seed} did not repeat: "
                f"{(first.identified_after, first.center)} then "
                f"{(r.identified_after, r.center)}"
            )

    result: dict = {
        "quality": quality,
        "problems": problems,
        "probe": probe,
        "end_to_end": _figures(passes, scaled=True),
        "raw": _figures(passes, scaled=False),
        "samples": {
            "passes over the panel": len(passes),
            "identification runs": len(timed),
            "packets (batches of 1)": sum(r.packets for r in timed),
        },
    }

    if trace:
        ledger = Ledger()
        tracing = Tracing(ledger, VerdictStats(ledger), ObsProvider())
        trace_tamper_localizer(ledger)
        try:
            traced = [identify(r.attack, r.scenario_seed, tracing) for r in passes[0]]
        finally:
            ledger.restore()
        checked += traced
        wall_s = sum(r.identify_s for r in traced)
        packets = sum(r.packets for r in traced)
        result["ledger"] = ledger
        result["wall_s"] = wall_s
        result["per_layer"] = layer_metrics(
            ledger,
            tracing.verdicts,
            [tracing.obs.registry],
            {
                "packets": packets,
                "batches": packets,
                "wall_s": wall_s,
                "trace.overhead": _packets_per_s(traced) / _packets_per_s(passes[0]),
            },
        )

    for r in checked:
        if r.identified_after is None:
            problems.append(
                f"{r.attack}/{r.scenario_seed} unidentified after {MAX_PACKETS} packets"
            )
        elif not r.verdict_ok:
            problems.append(
                f"{r.attack}/{r.scenario_seed}: live verdict differs from the "
                "verdict recomputed from the sink's evidence"
            )
    result["attempted"] = len(checked) + len(ATTACKS[workload])
    result["failed"] = len(problems)
    return result
