"""Marking-scheme interface.

A marking scheme defines three things:

1. the wire layout of its marks (:class:`~repro.packets.marks.MarkFormat`);
2. the *node side*: what an honest forwarding node appends to a packet
   (possibly probabilistically);
3. the *sink side*: how a single mark is verified, i.e. which real node IDs
   could have produced a given mark and whether a candidate's key validates
   it over the exact received bytes, and the backward scan over a packet's
   marks (:meth:`MarkingScheme.verify_marks`), which reports the verified
   marker IDs and mark indices as plain lists.

The traceback engine (:mod:`repro.traceback`) is scheme-agnostic: it asks
the resolver for a packet's search sets, hands them to the scheme's
backward scan, and builds routes from the verified chains.  The default
scan composes :meth:`MarkingScheme.candidate_marker_ids` and
:meth:`MarkingScheme.verify_mark_as` mark by mark; PNM verifies a whole
packet in one loop of its own.  Adversaries (:mod:`repro.adversary`) also
go through this interface when they forge or replicate marks using
compromised keys.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacProvider, constant_time_equal
from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket

__all__ = [
    "NodeContext",
    "MarkingScheme",
    "PlainIdMarking",
    "PacketResolution",
]

#: ``PacketResolution`` table before it is built.
_UNBUILT = object()


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


class PacketResolution:
    """How one packet's marks are resolved, and what resolving them cost.

    The verifier makes one per packet and hands it to
    :meth:`MarkingScheme.verify_marks`.

    Attributes:
        sets: the resolver's search sets for the packet, subscripted with
            the previously verified node (``None`` for the most downstream
            mark) to get the IDs to search; ``None`` searches every key
            for every mark.
        fallback: whether a bounded search that validates nothing retries
            with every key.
        notify_miss: called when that retry validated the mark, or
            ``None``.
        clock: when set, table builds and bounded searches add to
            ``seconds``; with ``None`` nothing reads a clock.
        seconds: resolution time so far (not table lookups or MAC checks).
        searches: marks that searched a bounded set, set by the scan.
        fallbacks: bounded searches retried with every key, set by the
            scan.

    :meth:`table` builds the exhaustive resolution table at most once,
    through ``build``.
    """

    __slots__ = (
        "sets", "_build", "_table", "fallback", "notify_miss", "clock",
        "seconds", "searches", "fallbacks",
    )

    def __init__(
        self,
        sets: Any,
        build: Callable[[], object | None],
        fallback: bool = True,
        notify_miss: Callable[[], None] | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.sets = sets
        self._build = build
        self._table: object | None = _UNBUILT
        self.fallback = fallback
        self.notify_miss = notify_miss
        self.clock = clock
        self.seconds = 0.0
        self.searches = 0
        self.fallbacks = 0

    def table(self) -> object | None:
        """The packet's exhaustive resolution table, built on first use."""
        if self._table is _UNBUILT:
            clock = self.clock
            if clock is None:
                self._table = self._build()
            else:
                start = clock()
                self._table = self._build()
                self.seconds += clock() - start
        return self._table


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

    Draw order: :meth:`make_mark` never draws from ``ctx.rng``.
    :meth:`forward_run` draws all of a run's coins before its first mark;
    that equals a hop-by-hop loop's order (coin, mark, coin, ...) only
    because marking draws nothing, which matters when nodes share one
    random stream.
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
        """Honest forwarding at one node: :meth:`forward_run` over a run of one."""
        return self.forward_run((ctx,), packet)[0]

    def forward_run(
        self, ctxs: Sequence[NodeContext], packet: MarkedPacket
    ) -> tuple[MarkedPacket, list[tuple[int, int]]]:
        """Honest forwarding through consecutive nodes ``ctxs``, in path order.

        Every node draws its marking coin from its own ``ctx.rng``, in
        path order -- one draw per node per packet, even when
        ``mark_prob`` is 1, so that honest nodes consume identical
        randomness across schemes, keeping paired experiment runs
        comparable.  Then each node whose coin fell below ``mark_prob``
        appends its mark to the packet as it received it.

        Returns:
            The packet the last node sends, and ``(position, wire_len)``
            for every node that changed the packet: its index in ``ctxs``
            and the size of the packet it sends.  The other nodes send
            what they received, the same object.
        """
        prob = self.mark_prob
        hits = [i for i, ctx in enumerate(ctxs) if ctx.rng.random() < prob]
        changes = []
        for i in hits:
            packet = packet.with_mark(self.make_mark(ctxs[i], packet))
            changes.append((i, packet.wire_len))
        return packet, changes

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

    def verify_marks(
        self,
        packet: MarkedPacket,
        keystore: KeyStore,
        provider: MacProvider,
        resolution: PacketResolution,
    ) -> tuple[list[int], list[int], list[int], list[int]]:
        """Verify ``packet``'s marks backwards, most downstream first.

        Each mark is searched in ``resolution.sets[previously verified
        node]`` (every key when the set is ``None``); its valid marker IDs
        are those of :meth:`candidate_marker_ids` whose key validates it
        through :meth:`verify_mark_as`.  A bounded search that validates
        nothing retries with every key when ``resolution.fallback`` is
        set, calling ``resolution.notify_miss`` if the retry validates it.
        Several valid IDs mean a truncation collision: the smallest is
        kept and its mark is ambiguous.  Under the ``"suffix"`` policy the
        scan stops at the first invalid mark.

        Returns:
            Four lists in wire order: the verified marks' marker IDs,
            their mark indices, the indices of the ambiguous ones among
            them, and the invalid mark indices.  The scan sets
            ``resolution.searches`` and ``resolution.fallbacks``; table
            builds and bounded candidate searches add to
            ``resolution.seconds`` when ``resolution.clock`` is set.
        """
        clock = resolution.clock

        def check(index: int, search: list[int] | None) -> list[int]:
            if search is None:
                candidates = self.candidate_marker_ids(
                    packet, index, keystore, provider, table=resolution.table()
                )
            else:
                start = clock() if clock is not None else 0.0
                candidates = self.candidate_marker_ids(
                    packet, index, keystore, provider, search_ids=search
                )
                if clock is not None:
                    resolution.seconds += clock() - start
            return [
                node_id
                for node_id in candidates
                if self.verify_mark_as(
                    packet, index, node_id, keystore[node_id], provider
                )
            ]

        sets = resolution.sets
        notify_miss = resolution.notify_miss
        fallback = resolution.fallback
        suffix = self.verification_policy == "suffix"
        ids: list[int] = []
        indices: list[int] = []
        ambiguous: list[int] = []
        invalid: list[int] = []
        prev_verified: int | None = None
        for index in range(len(packet.marks) - 1, -1, -1):
            search = None if sets is None else sets[prev_verified]
            valid_ids = check(index, search)
            if search is not None:
                resolution.searches += 1
                if not valid_ids and fallback:
                    resolution.fallbacks += 1
                    valid_ids = check(index, None)
                    # The bounded search missed a mark the exhaustive one
                    # found: adaptive resolvers widen their ball.
                    if valid_ids and notify_miss is not None:
                        notify_miss()
            if valid_ids:
                prev_verified = min(valid_ids)
                ids.append(prev_verified)
                indices.append(index)
                if len(valid_ids) > 1:
                    ambiguous.append(index)
            else:
                invalid.append(index)
                if suffix:
                    break
                # "independent": skip this mark, keep scanning.  The next
                # bounded search should still anchor on the last *verified*
                # marker, which prev_verified already holds.
        # Scanned backwards; every list is reported in wire order.
        for found in (ids, indices, ambiguous, invalid):
            found.reverse()
        return ids, indices, ambiguous, invalid

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.mark_prob}, fmt={self.fmt})"


class PlainIdMarking(MarkingScheme):
    """A scheme whose marks carry the marker's ID in plain text.

    The plain-ID schemes differ only in what each mark's MAC covers, so a
    subclass states just that in :meth:`_covered`; building a mark,
    decoding its marker and checking its MAC are the same for all of them.
    Section 3's extended AMS covers ``S | i``, Section 4.1's nested
    marking ``M_{i-1} | i``, and Theorem 3 says any scheme covering less
    than nested marking is not consecutive traceable.
    """

    @abc.abstractmethod
    def _covered(
        self, packet: MarkedPacket, upto: int, id_field: bytes
    ) -> bytes | None:
        """The bytes the MAC of mark ``upto`` covers, given ``packet``'s
        first ``upto`` marks and the mark's own ID field.

        ``None`` means the scheme has no MAC: marks carry an empty one and
        the sink accepts any well-formed mark naming its candidate.
        """

    def _id_field(self, ctx: NodeContext, written_id: int) -> bytes:
        """The ID field a node writes when it claims ``written_id``."""
        return self.fmt.encode_node_id(written_id)

    def _marker(self, id_field: bytes) -> int:
        """The node ID an ID field names."""
        return self.fmt.decode_node_id(id_field)

    def _build_mark(
        self, ctx: NodeContext, packet: MarkedPacket, written_id: int
    ) -> Mark:
        id_field = self._id_field(ctx, written_id)
        covered = self._covered(packet, len(packet.marks), id_field)
        mac = b"" if covered is None else ctx.provider.mac(ctx.key, covered)
        return Mark(id_field=id_field, mac=mac)

    def candidate_marker_ids(
        self,
        packet: MarkedPacket,
        mark_index: int,
        keystore: KeyStore,
        provider: MacProvider,
        search_ids: list[int] | None = None,
        table: object | None = None,
    ) -> list[int]:
        mark = packet.marks[mark_index]
        if not mark.matches_format(self.fmt):
            return []
        node_id = self._marker(mark.id_field)
        return [node_id] if node_id in keystore else []

    def verify_mark_as(
        self,
        packet: MarkedPacket,
        mark_index: int,
        node_id: int,
        key: bytes,
        provider: MacProvider,
    ) -> bool:
        mark = packet.marks[mark_index]
        if not mark.matches_format(self.fmt) or self._marker(mark.id_field) != node_id:
            return False
        # Recompute over the exact received bytes the mark claims to cover.
        covered = self._covered(packet, mark_index, mark.id_field)
        return covered is None or constant_time_equal(
            provider.mac(key, covered), mark.mac
        )
