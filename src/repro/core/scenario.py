"""Scenario declarations.

A scenario captures one cell of the paper's evaluation space: a linear
forwarding path of ``n`` nodes (the paper's own experimental deployment), a
marking scheme, a source mole at the far end, and optionally one colluding
forwarding mole running a taxonomy attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Scenario", "ATTACK_NAMES"]

#: Attack registry names accepted by :attr:`Scenario.attack` (see
#: :mod:`repro.core.build` for their construction).
ATTACK_NAMES = (
    "none",
    "honest-mole",
    "no-mark",
    "insert-garbage",
    "insert-frame",
    "remove-upstream",
    "remove-targeted",
    "remove-all",
    "remove-remark",
    "reorder",
    "alter",
    "selective-drop",
    "identity-swap",
    "unprotected-alter",
)


@dataclass(frozen=True)
class Scenario:
    """One attack/defense configuration on a linear path.

    Attributes:
        n_forwarders: path length ``n`` (forwarders ``V_1 .. V_n``).
        scheme: marking scheme registry name (``none``, ``ppm``, ``ams``,
            ``nested``, ``naive-pnm``, ``pnm``, ``partial-nested``).
        mark_prob: per-node marking probability; ``None`` derives it from
            ``target_marks`` as ``min(1, target_marks / n)`` (the paper
            fixes 3 marks per packet on average).  Deterministic schemes
            ignore it.
        target_marks: average marks per packet when ``mark_prob`` is None.
        attack: colluding forwarding-mole attack (one of
            :data:`ATTACK_NAMES`); ``"none"`` means the only mole is the
            source.
        attack_params: attack-specific knobs (e.g. ``{"num_fake": 3}``).
        mole_position: 1-based path position ``x`` of the forwarding mole
            ``V_x``; ``None`` puts it mid-path.
        seed: master seed; every RNG in the run derives from it.
        crypto: ``"real"`` (keyed BLAKE2s) or ``"fast"`` (zero-cost provider
            -- honest statistical runs only, never adversarial ones).
        id_len: plain-ID field bytes.
        anon_id_len: anonymous-ID field bytes (PNM).
        mac_len: MAC field bytes.
    """

    n_forwarders: int
    scheme: str = "pnm"
    mark_prob: float | None = None
    target_marks: float = 3.0
    attack: str = "none"
    attack_params: dict[str, Any] = field(default_factory=dict)
    mole_position: int | None = None
    seed: int = 0
    crypto: str = "real"
    id_len: int = 2
    anon_id_len: int = 4
    mac_len: int = 4

    def __post_init__(self) -> None:
        if self.n_forwarders < 1:
            raise ValueError(
                f"n_forwarders must be >= 1, got {self.n_forwarders}"
            )
        if self.attack not in ATTACK_NAMES:
            raise ValueError(
                f"unknown attack {self.attack!r}; choose from {ATTACK_NAMES}"
            )
        if self.crypto not in ("real", "fast"):
            raise ValueError(f"crypto must be 'real' or 'fast', got {self.crypto!r}")
        if self.mark_prob is not None and not 0.0 < self.mark_prob <= 1.0:
            raise ValueError(f"mark_prob must be in (0, 1], got {self.mark_prob}")
        if self.mole_position is not None and not (
            1 <= self.mole_position <= self.n_forwarders
        ):
            raise ValueError(
                f"mole_position must be in [1, {self.n_forwarders}], "
                f"got {self.mole_position}"
            )
        if self.crypto == "fast" and self.attack != "none":
            raise ValueError(
                "the fast (null-MAC) provider offers no tamper resistance; "
                "adversarial scenarios require crypto='real'"
            )

    @property
    def resolved_mark_prob(self) -> float:
        """The marking probability actually deployed."""
        if self.mark_prob is not None:
            return self.mark_prob
        return min(1.0, self.target_marks / self.n_forwarders)

    @property
    def resolved_mole_position(self) -> int:
        """The forwarding mole's 1-based path position."""
        if self.mole_position is not None:
            return self.mole_position
        return max(1, self.n_forwarders // 2)
