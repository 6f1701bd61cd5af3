"""Probabilistic Nested Marking (PNM) -- the paper's full scheme.

Each forwarder marks with probability ``p``; its mark is::

    M_i = M_{i-1} | i' | H_{k_i}(M_{i-1} | i')      where  i' = H'_{k_i}(M | i)

``i'`` is a per-message *anonymous ID*: it depends on the node's secret key
and the original report ``M``, so a colluding mole -- which lacks the keys
of uncompromised nodes -- cannot tell which nodes have marked a packet and
therefore cannot selectively drop the packets that would implicate it
(defeating attack 6 of the taxonomy).  Because ``i'`` is bound to ``M``,
the mapping changes with every distinct report and cannot be accumulated
over time by the adversary.

The sink, which knows every node's key, resolves anonymous IDs by building
the ``i -> i'`` table for the report (Section 4.2's exhaustive search) or,
when it knows the topology, by searching only the one-hop neighbors of the
previously verified node (the ``O(d)`` optimization of Section 7).
Resolution is confirmed by verifying the nested MAC, so anonymous-ID
collisions from truncation cannot cause misattribution.
"""

from __future__ import annotations

from hmac import compare_digest

from repro.crypto.keys import NODE_ID_BYTES, KeyStore
from repro.crypto.mac import MacProvider, constant_time_equal
from repro.marking.base import MarkingScheme, NodeContext, PacketResolution
from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket

__all__ = ["PNMMarking"]


# Real node IDs are fed to H' with a fixed-width encoding (NODE_ID_BYTES),
# independent of the on-wire id_len, so anonymity does not depend on
# wire-format choices.
def _anon_input(report_wire: bytes, node_id: int) -> bytes:
    """The ``M | i`` input to the anonymous-ID function ``H'``."""
    return report_wire + node_id.to_bytes(NODE_ID_BYTES, "big")


class PNMMarking(MarkingScheme):
    """Probabilistic nested marking with anonymous IDs."""

    name = "pnm"

    def __init__(self, mark_prob: float, anon_id_len: int = 4, mac_len: int = 4):
        super().__init__(
            MarkFormat(id_len=anon_id_len, mac_len=mac_len, anonymous=True),
            mark_prob,
        )

    def anonymous_id(
        self, provider: MacProvider, key: bytes, report_wire: bytes, node_id: int
    ) -> bytes:
        """Compute ``i' = H'_{k_i}(M | i)`` for this scheme's wire format."""
        anon = provider.anon_id(key, _anon_input(report_wire, node_id))
        if len(anon) != self.fmt.id_len:
            raise ValueError(
                f"provider anon_id length {len(anon)} does not match "
                f"wire format id_len {self.fmt.id_len}"
            )
        return anon

    def _build_mark(
        self, ctx: NodeContext, packet: MarkedPacket, written_id: int
    ) -> Mark:
        anon = self.anonymous_id(
            ctx.provider, ctx.key, packet.report_wire, written_id
        )
        # H_{k_i}(M_{i-1} | i'): nested MAC over the packet as received
        # plus the anonymous ID being appended.
        mac = ctx.provider.mac(ctx.key, packet.wire() + anon)
        return Mark(id_field=anon, mac=mac)

    def build_resolution_table(
        self,
        packet: MarkedPacket,
        keystore: KeyStore,
        provider: MacProvider,
        search_ids: list[int] | None = None,
    ) -> dict[bytes, list[int]]:
        """The sink's per-message ``anonymous ID -> real IDs`` table.

        Truncated anonymous IDs can collide, so a table entry may hold
        several candidate real IDs, in ascending ID order for the
        exhaustive table; MAC verification disambiguates.  The exhaustive
        table walks :attr:`KeyStore.node_table` and still calls
        ``provider.anon_id`` once per key.
        """
        report_wire = packet.report_wire
        anon_id = provider.anon_id
        nodes = keystore.node_table
        table: dict[bytes, list[int]] = {}
        if search_ids is None:
            for node_id, (key, id_bytes) in nodes.items():
                anon = anon_id(key, report_wire + id_bytes)
                if anon in table:
                    table[anon].append(node_id)
                else:
                    table[anon] = [node_id]
            return table
        for node_id in search_ids:
            entry = nodes.get(node_id)
            if entry is None:
                # The search space may include keyless nodes (e.g. the sink
                # when a topology-bounded ball touches it); skip them.
                continue
            anon = anon_id(entry[0], report_wire + entry[1])
            table.setdefault(anon, []).append(node_id)
        return table

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
        if table is None:
            table = self.build_resolution_table(
                packet, keystore, provider, search_ids
            )
        assert isinstance(table, dict)
        return list(table.get(mark.id_field, ()))

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
        expected_anon = provider.anon_id(
            key, _anon_input(packet.report_wire, node_id)
        )
        if mark.id_field != expected_anon:
            return False
        prefix = packet.prefix_wire(mark_index)
        expected_mac = provider.mac(key, prefix + mark.id_field)
        return constant_time_equal(expected_mac, mark.mac)

    def verify_marks(
        self,
        packet: MarkedPacket,
        keystore: KeyStore,
        provider: MacProvider,
        resolution: PacketResolution,
    ) -> tuple[list[int], list[int], list[int], list[int]]:
        """The base class's backward scan under the suffix policy, in one
        loop.

        Binds the packet's wire bytes and prefix ends, the report bytes,
        the keystore's :attr:`~KeyStore.node_table`, the provider's two
        PRFs and the constant-time compare once per packet.  Per mark: the
        format check; the anonymous-ID match, against the exhaustive table
        or against a per-packet ``node -> anonymous ID`` memo that hashes
        each searched node at most once per packet; then the MAC of each
        match over ``wire[:ends[index] + id_len]``, the received prefix
        plus the ID field.  A one-node search set is checked directly,
        with no candidate list.  A candidate is never accepted on its MAC
        alone, and a keyless node in a search set matches nothing.
        """
        marks = packet.marks
        wire, ends = packet.layout
        report_wire = packet.report_wire
        nodes = keystore.node_table
        node_entry = nodes.get
        mac = provider.mac
        anon_id = provider.anon_id
        equal = compare_digest
        id_len, mac_len = self.fmt.id_len, self.fmt.mac_len
        sets = resolution.sets
        fallback = resolution.fallback
        notify_miss = resolution.notify_miss
        clock = resolution.clock
        memo: dict[int, bytes] = {}
        table: dict[bytes, list[int]] | None = None
        ids: list[int] = []
        indices: list[int] = []
        ambiguous: list[int] = []
        invalid: list[int] = []
        prev_verified: int | None = None
        searches = fallbacks = 0
        for index in range(len(marks) - 1, -1, -1):
            id_field, mark_mac = marks[index]
            search = None if sets is None else sets[prev_verified]
            if len(id_field) != id_len or len(mark_mac) != mac_len:
                # A malformed mark matches no key, bounded or not.
                if search is not None:
                    searches += 1
                    if fallback:
                        fallbacks += 1
                invalid.append(index)
                break
            signed = wire[: ends[index] + id_len]
            missed = False
            if search is not None:
                searches += 1
                start = clock() if clock is not None else 0.0
                if len(search) == 1:
                    node_id = search[0]
                    entry = node_entry(node_id)
                    anon = memo.get(node_id)
                    if anon is None:
                        # A keyless node matches nothing (ID fields are
                        # never empty).  The input is _anon_input's.
                        anon = memo[node_id] = (
                            b"" if entry is None else anon_id(entry[0], report_wire + entry[1])
                        )
                    if clock is not None:
                        resolution.seconds += clock() - start
                    if anon == id_field and equal(mac(entry[0], signed), mark_mac):
                        prev_verified = node_id
                        ids.append(node_id)
                        indices.append(index)
                        continue
                    valid = []
                else:
                    valid = []
                    for node_id in search:
                        anon = memo.get(node_id)
                        if anon is None:
                            entry = node_entry(node_id)
                            anon = memo[node_id] = (
                                b"" if entry is None else anon_id(entry[0], report_wire + entry[1])
                            )
                        if anon == id_field:
                            valid.append(node_id)
                    if clock is not None:
                        resolution.seconds += clock() - start
                    if len(valid) == 1:
                        if not equal(mac(nodes[valid[0]][0], signed), mark_mac):
                            valid = []
                    elif valid:
                        valid = [
                            node_id
                            for node_id in valid
                            if equal(mac(nodes[node_id][0], signed), mark_mac)
                        ]
                # The bounded search validated nothing: retry every key.
                missed = not valid and fallback
                if missed:
                    fallbacks += 1
            if search is None or missed:
                if table is None:
                    built = resolution.table()
                    assert isinstance(built, dict)
                    table = built
                valid = table.get(id_field, [])
                if len(valid) == 1:
                    if not equal(mac(nodes[valid[0]][0], signed), mark_mac):
                        valid = []
                elif valid:
                    valid = [
                        node_id
                        for node_id in valid
                        if equal(mac(nodes[node_id][0], signed), mark_mac)
                    ]
                # The bounded search missed a mark the exhaustive one
                # found: adaptive resolvers widen their ball.
                if missed and valid and notify_miss is not None:
                    notify_miss()
            if not valid:
                invalid.append(index)
                break
            indices.append(index)
            if len(valid) == 1:
                prev_verified = valid[0]
            else:
                prev_verified = min(valid)
                ambiguous.append(index)
            ids.append(prev_verified)
        resolution.searches = searches
        resolution.fallbacks = fallbacks
        ids.reverse()
        indices.reverse()
        ambiguous.reverse()
        return ids, indices, ambiguous, invalid
