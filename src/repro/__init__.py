"""repro: a full reproduction of "Catching 'Moles' in Sensor Networks".

Fan Ye, Hao Yang, Zhen Liu -- ICDCS 2007.

The package implements Probabilistic Nested Marking (PNM) -- a traceback
scheme that locates compromised sensor nodes injecting false data, even
when forwarding moles collude to manipulate packet marks -- together with
every substrate the paper depends on: the sensor-network and routing
models, a discrete-event simulator, the baseline marking schemes it
compares against, the full colluding-attack taxonomy, en-route filtering,
and the analytical models behind its evaluation.

Quickstart::

    from repro import Scenario, run_scenario

    result = run_scenario(
        Scenario(n_forwarders=20, scheme="pnm", attack="selective-drop"),
        num_packets=300,
    )
    print(result.outcome)          # "caught"
    print(result.suspect_members)  # the one-hop neighborhood holding a mole

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.core import (
    ATTACK_NAMES,
    BuiltScenario,
    ExperimentResult,
    Scenario,
    build_scenario,
    run_scenario,
)
from repro.crypto import KeyedHashProvider, KeyStore, NullMacProvider
from repro.marking import (
    SCHEME_CLASSES,
    ExtendedAMS,
    MarkingScheme,
    NaiveProbabilisticNested,
    NestedMarking,
    NoMarking,
    PartiallyNestedMarking,
    PNMMarking,
    PPMMarking,
    scheme_by_name,
)
from repro.net import Topology, grid_topology, linear_path_topology, random_topology
from repro.packets import Mark, MarkedPacket, MarkFormat, Report
from repro.sim import NetworkSimulation, PathPipeline
from repro.traceback import SuspectNeighborhood, TracebackSink, TracebackVerdict

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Core API
    "Scenario",
    "ATTACK_NAMES",
    "BuiltScenario",
    "build_scenario",
    "ExperimentResult",
    "run_scenario",
    # Crypto
    "KeyStore",
    "KeyedHashProvider",
    "NullMacProvider",
    # Packets
    "Report",
    "Mark",
    "MarkFormat",
    "MarkedPacket",
    # Schemes
    "MarkingScheme",
    "scheme_by_name",
    "SCHEME_CLASSES",
    "NoMarking",
    "PPMMarking",
    "ExtendedAMS",
    "NestedMarking",
    "NaiveProbabilisticNested",
    "PNMMarking",
    "PartiallyNestedMarking",
    # Network
    "Topology",
    "linear_path_topology",
    "grid_topology",
    "random_topology",
    # Simulation
    "PathPipeline",
    "NetworkSimulation",
    # Traceback
    "TracebackSink",
    "TracebackVerdict",
    "SuspectNeighborhood",
]
