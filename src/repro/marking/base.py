"""Marking-scheme interface.

A marking scheme defines three things:

1. the wire layout of its marks (:class:`~repro.packets.marks.MarkFormat`);
2. the *node side*: what an honest forwarding node appends to a packet
   (possibly probabilistically);
3. the *sink side*: how a single mark is verified, i.e. which real node IDs
   could have produced a given mark and whether a candidate's key validates
   it over the exact received bytes.

The traceback engine (:mod:`repro.traceback`) is scheme-agnostic: it scans
marks backwards, asks the scheme to verify each one, and builds routes from
the verified chains.  Adversaries (:mod:`repro.adversary`) also go through
this interface when they forge or replicate marks using compromised keys.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass

from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacProvider
from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket

__all__ = ["NodeContext", "MarkingScheme"]


@dataclass
class NodeContext:
    """Everything a forwarding node needs to mark a packet.

    Attributes:
        node_id: the node's real ID.
        key: the secret key it shares with the sink.
        provider: MAC/anonymous-ID provider.
        rng: the node's private random stream (drives the marking coin).
        prev_hop: the authenticated identity of the neighbor this node
            receives from on the stable route -- available only in
            deployments running pairwise neighbor authentication
            (Section 7's precision extension); ``None`` otherwise.
    """

    node_id: int
    key: bytes
    provider: MacProvider
    rng: random.Random
    prev_hop: int | None = None


class MarkingScheme(abc.ABC):
    """Abstract base for all marking schemes.

    Attributes:
        name: short registry name (e.g. ``"pnm"``).
        fmt: wire layout of this scheme's marks.
        mark_prob: probability that an honest forwarder marks a packet.
        verification_policy: how the sink treats invalid marks.  Nested
            schemes use ``"suffix"`` -- scanning backwards, only the
            contiguous suffix of valid marks is trusted (Section 4.1's
            procedure), because a valid mark guarantees everything before
            it arrived untampered *at that marker*, not that it is
            attributable.  Non-nested schemes use ``"independent"`` --
            every individually valid mark is used, which is how AMS/PPM
            actually operate (and part of why they are vulnerable).
    """

    name: str = "abstract"
    verification_policy: str = "suffix"

    def __init__(self, fmt: MarkFormat, mark_prob: float):
        if not 0.0 <= mark_prob <= 1.0:
            raise ValueError(f"mark_prob must be in [0, 1], got {mark_prob}")
        self.fmt = fmt
        self.mark_prob = mark_prob

    # Node side --------------------------------------------------------------

    def on_forward(self, ctx: NodeContext, packet: MarkedPacket) -> MarkedPacket:
        """Honest forwarding behavior: maybe append this node's mark.

        The marking coin is always drawn (even when ``mark_prob`` is 1) so
        that honest nodes consume identical randomness across schemes,
        keeping paired experiment runs comparable.
        """
        if ctx.rng.random() < self.mark_prob:
            return packet.with_mark(self.make_mark(ctx, packet))
        return packet

    def make_mark(
        self,
        ctx: NodeContext,
        packet: MarkedPacket,
        claimed_id: int | None = None,
    ) -> Mark:
        """Construct the mark this scheme's rules produce for ``packet``.

        Args:
            ctx: identity and key material to mark with.  Adversaries pass
                contexts holding compromised keys here -- e.g. identity
                swapping builds a context with another mole's ID and key.
            packet: the packet *as received* (the mark protects its bytes,
                for schemes that protect anything).
            claimed_id: if given, the ID *written into the mark* differs
                from the ID used in MAC computation -- an inherently
                invalid mark, used by mark-insertion/altering attacks.
        """
        written_id = ctx.node_id if claimed_id is None else claimed_id
        return self._build_mark(ctx, packet, written_id)

    @abc.abstractmethod
    def _build_mark(
        self, ctx: NodeContext, packet: MarkedPacket, written_id: int
    ) -> Mark:
        """Scheme-specific mark construction (see :meth:`make_mark`)."""

    # Sink side ---------------------------------------------------------------

    def build_resolution_table(
        self,
        packet: MarkedPacket,
        keystore: KeyStore,
        provider: MacProvider,
        search_ids: list[int] | None = None,
    ) -> object | None:
        """Precompute per-packet state for :meth:`candidate_marker_ids`.

        Anonymous-ID schemes override this to build the ``anonymous ID ->
        real IDs`` lookup table once per distinct message (the Section 4.2
        exhaustive search); plain-ID schemes need no table and return
        ``None``.  The returned object is opaque to callers and must be
        passed back via the ``table`` argument.
        """
        return None

    @abc.abstractmethod
    def candidate_marker_ids(
        self,
        packet: MarkedPacket,
        mark_index: int,
        keystore: KeyStore,
        provider: MacProvider,
        search_ids: list[int] | None = None,
        table: object | None = None,
    ) -> list[int]:
        """Real node IDs that could have written mark ``mark_index``.

        For plain-ID schemes this decodes the ID field; for anonymous-ID
        schemes it searches ``search_ids`` (or the whole keystore) for keys
        whose anonymous ID matches the field -- or consults ``table`` if the
        caller precomputed one with :meth:`build_resolution_table`.
        Candidates are *unverified*: the caller must confirm each with
        :meth:`verify_mark_as`.
        """

    def bounded_candidates(
        self,
        packet: MarkedPacket,
        mark_index: int,
        keystore: KeyStore,
        provider: MacProvider,
        search_ids: list[int],
        memo: dict[int, bytes],
    ) -> list[int]:
        """:meth:`candidate_marker_ids` over ``search_ids`` only.

        ``memo`` is per-packet scratch: the caller passes the same dict,
        empty at first, for every mark of one packet.  Anonymous-ID
        schemes keep each searched node's anonymous ID in it, so a node is
        hashed at most once per packet however many marks search it.
        """
        return self.candidate_marker_ids(
            packet, mark_index, keystore, provider, search_ids=search_ids
        )

    @abc.abstractmethod
    def verify_mark_as(
        self,
        packet: MarkedPacket,
        mark_index: int,
        node_id: int,
        key: bytes,
        provider: MacProvider,
    ) -> bool:
        """Whether ``node_id``'s key validates mark ``mark_index`` exactly
        as received (over the exact wire prefix the mark claims to protect).
        """

    def verify_candidate(
        self,
        packet: MarkedPacket,
        mark_index: int,
        node_id: int,
        key: bytes,
        provider: MacProvider,
    ) -> bool:
        """:meth:`verify_mark_as` for an ID :meth:`candidate_marker_ids`
        returned for this mark.

        Schemes whose candidate search already matched the ID field (the
        anonymous-ID table) override this to check only the MAC.
        """
        return self.verify_mark_as(packet, mark_index, node_id, key, provider)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.mark_prob}, fmt={self.fmt})"
