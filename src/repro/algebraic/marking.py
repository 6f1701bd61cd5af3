"""The algebraic marking scheme: one constant-size accumulator per packet.

Where every other scheme in :mod:`repro.marking` *appends* a mark per hop,
``AlgebraicMarking`` carries exactly one mark and *replaces* it at every
hop: the ID field is an accumulator ``[count u8 | value u32]`` holding the
hop count and the running polynomial evaluation
``f(x) = V_1 x^{m-1} + ... + V_m (mod 2^31 - 1)`` at the public per-report
point ``x`` (:func:`repro.algebraic.field.evaluation_point`); the MAC is
the *current* hop's ``H_k(M | accumulator)``.  Per-packet overhead is a
constant ``1 + 4 + mac_len`` bytes however long the route grows -- the
property the head-to-head sweep quantifies against PNM.

What the MAC does and does not promise: only the **last** updater is
cryptographically attributed (its key must validate the final mark), which
anchors the recovered path's terminal hop; the upstream coefficients are
algebraic evidence, corroborated by interpolation consistency across
packets and topology admissibility, not by per-hop MACs.  That is the
algebraic-traceback trade-off (arXiv:0908.0078): constant overhead and
churn-repairable sink state, in exchange for Theorem-2-style per-hop
attribution.  ``docs/algebraic.md`` spells out the resulting threat model.

Honest forwarders are *total* over adversarial input: a malformed
accumulator (wrong size, value outside the field, count out of range, or a
wrong number of marks on the packet) is treated as absent and the
polynomial restarts at the current node.  A mole garbling the accumulator
therefore truncates the recoverable path to the suffix starting at its
next honest hop -- localizing the mole to one hop, the same place PNM's
invalid-MAC evidence points.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algebraic.errors import MalformedAccumulatorError
from repro.algebraic.field import PRIME, evaluation_point, horner_step
from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacProvider, constant_time_equal
from repro.marking.base import MarkingScheme, NodeContext
from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket

__all__ = [
    "AlgebraicMarking",
    "MAX_PATH_LEN",
    "pack_accumulator",
    "unpack_accumulator",
]

#: Longest path the 1-byte hop counter admits.  Well above any simulated
#: deployment's diameter; counts outside ``[1, MAX_PATH_LEN]`` are
#: malformed, which bounds solver work per observation.
MAX_PATH_LEN = 64

_COUNT_LEN = 1
_VALUE_LEN = 4
ACCUMULATOR_LEN = _COUNT_LEN + _VALUE_LEN


def pack_accumulator(count: int, value: int) -> bytes:
    """Encode ``[count u8 | value u32]`` (big-endian)."""
    if not 1 <= count <= MAX_PATH_LEN:
        raise ValueError(f"count {count} outside [1, {MAX_PATH_LEN}]")
    if not 0 <= value < PRIME:
        raise ValueError(f"value {value} outside the field")
    return bytes((count,)) + value.to_bytes(_VALUE_LEN, "big")


def unpack_accumulator(id_field: bytes) -> tuple[int, int]:
    """Strictly parse an accumulator ID field into ``(count, value)``.

    Raises:
        MalformedAccumulatorError: wrong length, count outside
            ``[1, MAX_PATH_LEN]``, or value outside the field.
    """
    if len(id_field) != ACCUMULATOR_LEN:
        raise MalformedAccumulatorError(
            f"accumulator field has {len(id_field)} bytes, "
            f"expected {ACCUMULATOR_LEN}"
        )
    count = id_field[0]
    value = int.from_bytes(id_field[_COUNT_LEN:], "big")
    if not 1 <= count <= MAX_PATH_LEN:
        raise MalformedAccumulatorError(
            f"hop count {count} outside [1, {MAX_PATH_LEN}]"
        )
    if value >= PRIME:
        raise MalformedAccumulatorError(f"value {value} outside the field")
    return count, value


class AlgebraicMarking(MarkingScheme):
    """Incremental algebraic path marking (single replaced accumulator)."""

    name = "algebraic"
    # The packet carries a single mark; backward scanning over it degrades
    # to "verify the final mark", which is exactly the anchor semantics.
    verification_policy = "suffix"

    def __init__(self, mark_prob: float = 1.0, mac_len: int = 4):
        if mark_prob != 1.0:
            raise ValueError(
                "algebraic marking is deterministic: every hop must apply "
                f"its Horner update (mark_prob must be 1.0, got {mark_prob})"
            )
        super().__init__(
            MarkFormat(id_len=ACCUMULATOR_LEN, mac_len=mac_len, algebraic=True),
            mark_prob,
        )

    # Node side --------------------------------------------------------------

    def accumulator_state(self, packet: MarkedPacket) -> tuple[int, int]:
        """The ``(count, value)`` an honest forwarder continues from.

        Total over adversarial input: anything other than exactly one
        well-formed accumulator mark resets to ``(0, 0)`` -- the restart
        that truncates a garbled path at the next honest hop.
        """
        if len(packet.marks) != 1:
            return 0, 0
        try:
            count, value = unpack_accumulator(packet.marks[0].id_field)
        except MalformedAccumulatorError:
            return 0, 0
        if count >= MAX_PATH_LEN:
            # Counter would overflow; restart rather than wrap (a wrapped
            # count would let garbage masquerade as a short honest path).
            return 0, 0
        return count, value

    def forward_run(
        self, ctxs: Sequence[NodeContext], packet: MarkedPacket
    ) -> tuple[MarkedPacket, list[tuple[int, int]]]:
        """Replace the accumulator with each hop's Horner update in turn.

        Every node's marking coin is still drawn (and ignored), all of
        them first, so honest nodes consume identical randomness across
        schemes -- see :meth:`MarkingScheme.forward_run`.  Every hop
        changes the packet.
        """
        for ctx in ctxs:
            ctx.rng.random()
        changes = []
        for i, ctx in enumerate(ctxs):
            packet = packet.with_marks((self.make_mark(ctx, packet),))
            changes.append((i, packet.wire_len))
        return packet, changes

    def _build_mark(
        self, ctx: NodeContext, packet: MarkedPacket, written_id: int
    ) -> Mark:
        count, value = self.accumulator_state(packet)
        point = evaluation_point(packet.report_wire)
        id_field = pack_accumulator(
            count + 1, horner_step(value, point, written_id % PRIME)
        )
        mac = ctx.provider.mac(ctx.key, packet.report_wire + id_field)
        return Mark(id_field=id_field, mac=mac)

    # Sink side ---------------------------------------------------------------

    def candidate_marker_ids(
        self,
        packet: MarkedPacket,
        mark_index: int,
        keystore: KeyStore,
        provider: MacProvider,
        search_ids: list[int] | None = None,
        table: object | None = None,
    ) -> list[int]:
        """Every keyed node is a candidate last updater.

        The accumulator carries no per-node ID field, so attribution is a
        pure key search: the node whose key validates the final MAC is the
        last updater.  Bounded resolvers narrow ``search_ids`` to the
        sink's radio neighborhood exactly as for PNM.
        """
        mark = packet.marks[mark_index]
        if not mark.matches_format(self.fmt):
            return []
        ids = keystore.node_ids() if search_ids is None else search_ids
        return [node_id for node_id in ids if keystore.get(node_id) is not None]

    def verify_mark_as(
        self,
        packet: MarkedPacket,
        mark_index: int,
        node_id: int,
        key: bytes,
        provider: MacProvider,
    ) -> bool:
        mark = packet.marks[mark_index]
        if not mark.matches_format(self.fmt):
            return False
        expected = provider.mac(key, packet.report_wire + mark.id_field)
        return constant_time_equal(expected, mark.mac)
