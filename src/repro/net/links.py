"""Radio link models for the discrete-event simulator.

Sensor radios are slow (the paper cites 19.2 kbps Mica2 motes, roughly 50
packets per second), so per-hop delay is dominated by serialization.  The
model here is intentionally simple: a fixed per-hop latency plus a
size-proportional serialization term, and an independent per-hop loss
probability.  This is enough to exercise timing- and loss-sensitive code
paths (probabilistic mark collection, duplicate suppression) without
modelling MAC-layer contention.

Uniform links are the common case, but fault injection
(:mod:`repro.faults`) needs to degrade *one* link -- ramp its delay or
loss -- without touching the rest of the deployment.  :class:`LinkTable`
layers per-directed-edge overrides over a single default model; the
single-model constructor path everywhere stays backward compatible.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

__all__ = ["LinkModel", "LinkTable"]

#: Paper-cited Mica2 radio rate in bits per second (Section 4.2).
MICA2_BITRATE_BPS = 19_200


@dataclass(frozen=True)
class LinkModel:
    """Per-hop transmission behavior.

    Attributes:
        base_delay: fixed per-hop latency in seconds (processing + MAC
            access), independent of packet size.
        bitrate_bps: radio serialization rate; ``0`` disables the
            size-proportional term.
        loss_prob: independent probability that a transmission is lost.
    """

    base_delay: float = 0.005
    bitrate_bps: float = MICA2_BITRATE_BPS
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.bitrate_bps < 0:
            raise ValueError(f"bitrate_bps must be >= 0, got {self.bitrate_bps}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob}")

    def transmission_delay(self, packet_len: int) -> float:
        """Time in seconds to push ``packet_len`` bytes over one hop."""
        if packet_len < 0:
            raise ValueError(f"packet_len must be >= 0, got {packet_len}")
        serialization = (
            (8 * packet_len) / self.bitrate_bps if self.bitrate_bps else 0.0
        )
        return self.base_delay + serialization

    def is_delivered(self, rng: random.Random) -> bool:
        """Draw whether a single transmission survives the link."""
        if self.loss_prob == 0.0:
            return True
        return rng.random() >= self.loss_prob


class LinkTable:
    """Per-hop link models: one default plus per-directed-edge overrides.

    A transmission from ``u`` to ``v`` uses the override registered for
    the directed edge ``(u, v)`` when one exists, the default model
    otherwise.  Overrides are directed on purpose: a degraded radio often
    fails asymmetrically, and the fault injector reverts exactly the
    edges it degraded.

    Args:
        default: model used by every edge without an override; a fresh
            :class:`LinkModel` when omitted.
        overrides: initial ``(from_node, to_node) -> LinkModel`` mapping.
    """

    def __init__(
        self,
        default: LinkModel | None = None,
        overrides: Mapping[tuple[int, int], LinkModel] | None = None,
    ):
        self.default = default if default is not None else LinkModel()
        self._overrides: dict[tuple[int, int], LinkModel] = (
            dict(overrides) if overrides else {}
        )
        #: Monotone edit counter.  Consumers that cache anything derived
        #: from this table (e.g. :class:`repro.net.overhear.OverhearModel`)
        #: compare it to detect override churn instead of subscribing.
        self.version = 0

    def model_for(self, from_node: int, to_node: int) -> LinkModel:
        """The model governing a transmission from ``from_node`` to ``to_node``."""
        return self._overrides.get((from_node, to_node), self.default)

    def set_override(
        self, from_node: int, to_node: int, model: LinkModel
    ) -> None:
        """Install (or replace) the model for one directed edge."""
        if from_node == to_node:
            raise ValueError(f"self-loop override on node {from_node}")
        self._overrides[(from_node, to_node)] = model
        self.version += 1

    def clear_override(self, from_node: int, to_node: int) -> bool:
        """Remove one directed edge's override; returns whether it existed."""
        existed = self._overrides.pop((from_node, to_node), None) is not None
        if existed:
            self.version += 1
        return existed

    def __len__(self) -> int:
        return len(self._overrides)

    def __repr__(self) -> str:
        return (
            f"LinkTable(default={self.default!r}, "
            f"overrides={len(self._overrides)})"
        )
