#!/usr/bin/env python3
"""Colluding cover-up: why Internet-style marking fails and PNM does not.

Reproduces the paper's Section 3/4.2 narrative on one path: a source mole
S injects bogus reports while its accomplice X, six hops downstream,
manipulates marks to hide both of them -- or better, to frame an innocent
node.  Three defenses are compared under X's two best attacks:

* extended AMS (authenticated but non-nested marks),
* naive probabilistic nested marking (nested but plain-text IDs),
* PNM (nested + anonymous IDs).
"""

import random

from repro import Scenario, build_scenario, run_scenario
from repro.adversary.attacks import MarkAlteringAttack
from repro.adversary.watchdog import AccusationSuppressor
from repro.core.build import build_network
from repro.marking.pnm import PNMMarking
from repro.net.overhear import OverhearModel
from repro.net.topology import linear_path_topology
from repro.watchdog import WatchdogLayer

PATH_LENGTH = 12
MOLE_POSITION = 6
PACKETS = 400
# Sparse-marking operating point for the watchdog comparison (the regime
# where sink-side statistics converge slowest; see the watchdog-sweep
# experiment for the averages this single seeded run is representative of).
WD_TARGET_MARKS = 1.5
WD_SEED = 1


def describe(result, built) -> str:
    if result.outcome == "caught":
        return (
            f"CAUGHT   suspect {sorted(result.suspect_members)} "
            f"contains a mole ({sorted(result.mole_ids & result.suspect_members)})"
        )
    if result.outcome == "framed":
        return (
            f"FRAMED   suspect {sorted(result.suspect_members)} -- "
            f"all innocent; moles {sorted(result.mole_ids)} walk free"
        )
    return result.outcome.upper()


def watchdog_latency(colluding_relay: bool) -> tuple[int | None, int | None]:
    """PNM-only vs. fused detection latency (in delivered packets).

    Runs the alter attack on the same chain with the overhearing
    watchdog enabled.  With ``colluding_relay`` the mole's downstream
    neighbor suppresses accusations naming it -- the Section 4.2
    collusion, extended to the watchdog's control plane.
    """
    topology, _source = linear_path_topology(PATH_LENGTH)
    layer = WatchdogLayer(
        OverhearModel(topology),
        rng=random.Random(f"coverup-wd:layer:{WD_SEED}"),
        suppressors=(
            (
                AccusationSuppressor(
                    node=MOLE_POSITION + 1, protects=frozenset({MOLE_POSITION})
                ),
            )
            if colluding_relay
            else ()
        ),
    )
    net = build_network(
        topology,
        PNMMarking(mark_prob=WD_TARGET_MARKS / PATH_LENGTH),
        b"coverup-wd",
        PACKETS,
        rng_label="coverup-wd",
        seed=WD_SEED,
        attack=MarkAlteringAttack(target="first", field="mac"),
        mole_id=MOLE_POSITION,
        watchdog=layer,
    )
    return net.probe.pnm_stable_detection(), net.probe.fused_detection()


def main() -> None:
    print(f"chain: S -> V1 .. V{PATH_LENGTH} -> sink;  "
          f"colluders: S (source) and X = V{MOLE_POSITION}")
    print()
    for attack, blurb in (
        ("remove-targeted", "X strips V1's marks so the trace stops at V2"),
        ("selective-drop", "X drops exactly the packets carrying V1's mark"),
        ("alter", "X corrupts the most upstream mark in every packet"),
    ):
        print(f"--- attack: {attack} ({blurb}) ---")
        for scheme in ("ams", "naive-pnm", "pnm"):
            sc = Scenario(
                n_forwarders=PATH_LENGTH,
                scheme=scheme,
                attack=attack,
                mole_position=MOLE_POSITION,
                seed=7,
            )
            built = build_scenario(sc)
            result = run_scenario(sc, num_packets=PACKETS, built=built)
            dropped = built.pipeline.metrics.packets_dropped
            print(f"  {scheme:10s} {describe(result, built)}"
                  + (f"  [{dropped} packets dropped en route]" if dropped else ""))
        print()
    print("takeaway: non-nested marks are individually manipulable; "
          "plain-text IDs leak which packets to drop; PNM survives both.")
    print()
    print("--- overhearing watchdog: how much sooner is X caught? ---")
    for colluding, label in (
        (False, "honest relays"),
        (True, f"V{MOLE_POSITION + 1} suppresses accusations naming X"),
    ):
        pnm, fused = watchdog_latency(colluding_relay=colluding)
        fmt = lambda d: f"packet {d}" if d is not None else "never"
        print(f"  {label:45s} PNM-only: {fmt(pnm):>11s}   "
              f"fused: {fmt(fused):>11s}")
    print("takeaway: overheard accusations convict the manipulator tens of "
          "packets before\nthe sink's own statistics converge; colluding "
          "suppression only degrades fused\ndetection back to the PNM-only "
          "baseline, never below it.")


if __name__ == "__main__":
    main()
