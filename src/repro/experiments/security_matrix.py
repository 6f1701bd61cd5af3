"""The scheme-by-attack security matrix (Sections 3 and 5, empirically).

Runs every marking scheme against every colluding attack on a real-crypto
linear path and labels each cell:

* ``caught``        -- the suspect neighborhood contains a true mole
  (one-hop precision held: the paper's success criterion);
* ``framed``        -- the sink pinned an innocent neighborhood (the
  attack achieved its goal);
* ``unidentified``  -- no verdict within the packet budget.

Expected shape (the paper's qualitative claims):

* Extended AMS (and plain PPM) get **framed** by targeted mark removal
  and mark altering -- marks are individually manipulable (Section 3).
* Naive probabilistic nested marking gets **framed** by selective
  dropping (Section 4.2's incorrect extension).
* ``partial-nested`` gets **framed** by the unprotected-bit attack
  (Theorem 3's necessity argument).
* Nested marking and PNM are **caught** in every row (Theorems 2 and 4).
"""

from __future__ import annotations

from repro.core.experiment import run_scenario
from repro.core.scenario import ATTACK_NAMES, Scenario
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult

__all__ = [
    "SCHEMES",
    "ATTACKS",
    "EXPECTED_DEFEATS",
    "EXPECTED_SUPPRESSED",
    "run",
]

SCHEMES = ("none", "ppm", "ams", "nested", "partial-nested", "naive-pnm", "pnm")

ATTACKS = ATTACK_NAMES

#: Cells where the defender is EXPECTED to fail (framed): the attacks the
#: paper documents as defeating each scheme.  Used by the test suite.
EXPECTED_DEFEATS = {
    # Unauthenticated plain marking: marks are freely forgeable/removable.
    "ppm": {
        "insert-frame",
        "remove-upstream",
        "remove-targeted",
        "alter",
        "selective-drop",
    },
    # Extended AMS (Section 3): marks are individually valid, so targeted
    # removal and altering redirect the trace to innocent upstream nodes.
    "ams": {
        "remove-upstream",
        "remove-targeted",
        "alter",
        "selective-drop",
        "unprotected-alter",
    },
    # Theorem 3's counterexample: protecting fewer fields than nested
    # marking breaks consecutive traceability under surgical altering.
    "partial-nested": {"alter", "unprotected-alter"},
    # Section 4.2's incorrect extension: plain-text IDs enable selective
    # dropping (and targeted removal).
    "naive-pnm": {"selective-drop", "remove-targeted"},
    # Theorems 2 and 4: never framed.
    "nested": set(),
    "pnm": set(),
}

#: Cells where the mole's only consistent move starves the sink entirely
#: (the paper's footnote 2: dropping *all* attack traffic defeats the
#: injection itself).  Deterministic nested marks put the whole path in
#: every packet, so "selective" dropping degenerates to dropping all.
EXPECTED_SUPPRESSED = {
    "nested": {"selective-drop"},
    "partial-nested": {"selective-drop"},
}


def run(preset: Preset = QUICK) -> FigureResult:
    """Run the full matrix with real keyed-hash crypto."""
    columns = ["scheme"] + list(ATTACKS)
    rows = []
    for scheme in SCHEMES:
        row: list[object] = [scheme]
        for attack in ATTACKS:
            sc = Scenario(
                n_forwarders=preset.matrix_n,
                scheme=scheme,
                attack=attack,
                seed=preset.seed,
                crypto="real",
            )
            result = run_scenario(sc, num_packets=preset.matrix_packets)
            row.append(result.outcome)
        rows.append(row)

    notes = [
        f"preset={preset.name}; n={preset.matrix_n}, "
        f"{preset.matrix_packets} packets per cell, mole mid-path",
        "expected: nested & pnm caught everywhere; ams framed by targeted "
        "removal/altering; naive-pnm framed by selective-drop; "
        "partial-nested framed by unprotected-alter (Theorem 3)",
    ]
    return FigureResult(
        figure_id="security-matrix",
        title="Traceback outcome per (scheme, colluding attack)",
        columns=columns,
        rows=rows,
        notes=notes,
    )
