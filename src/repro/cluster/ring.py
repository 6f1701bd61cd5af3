"""Consistent-hash ring: which shard owns which report keys.

A :class:`ShardRing` places ``vnodes`` virtual points per shard on a
SHA-256 hash circle; a key belongs to the shard owning the first point
clockwise from the key's own hash.  The properties the cluster leans on:

* **Determinism** -- point positions derive only from ``(shard_id,
  vnode index)``, so every router, server and test that builds a ring
  over the same shard IDs computes identical ownership (no process
  hash seeding, no insertion-order dependence).
* **Minimal movement** -- removing a shard reassigns only the keys it
  owned; adding one steals roughly ``1/n`` of each incumbent's range.
  That is what keeps a shard failure a *partial* cache invalidation
  event rather than a cluster-wide reshuffle.
* **Locality control** -- the ring hashes whatever bytes the key
  extractor produces.  :func:`report_shard_key` spreads load uniformly
  (every distinct report lands anywhere); :func:`region_shard_key`
  quantizes the report's event location so all traffic from one region
  -- hence one route, hence one small marker set -- stays on one shard,
  which is what lets each shard's resolver hot-set actually fit its
  working set (see docs/cluster.md).
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Callable, Iterable

from repro.obs.spans import report_key
from repro.packets.packet import MarkedPacket

__all__ = [
    "ShardRing",
    "report_shard_key",
    "region_shard_key",
    "DEFAULT_VNODES",
    "LOOKUP_MEMO_CAP",
]

#: Virtual points per shard.  64 keeps the largest/smallest ownership
#: ratio under ~1.4 for small clusters while the ring stays tiny.
DEFAULT_VNODES = 64

#: Most ``key -> owner`` answers a ring remembers.  Region keys number in
#: the tens; uniform report keys are looked up twice (router split, then
#: the server's ownership check) and never again, so a full memo is
#: cleared rather than grown.
LOOKUP_MEMO_CAP = 4096


def _point(shard_id: int, vnode: int) -> int:
    """Position of one virtual node on the hash circle."""
    digest = hashlib.sha256(f"ring|{shard_id}|{vnode}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _key_point(key: bytes) -> int:
    """Position of a key on the hash circle."""
    digest = hashlib.sha256(b"key|" + key).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRing:
    """Consistent hashing over integer shard IDs.

    Args:
        shard_ids: the initial shard set (any iterable; order ignored).
        vnodes: virtual points per shard.

    Raises:
        ValueError: on duplicate shard IDs or ``vnodes < 1``.
    """

    def __init__(
        self, shard_ids: Iterable[int] = (), vnodes: int = DEFAULT_VNODES
    ):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._shards: list[int] = []
        self._points: list[int] = []
        self._owners: list[int] = []
        self._memo: dict[bytes, int] = {}
        for shard_id in sorted(shard_ids):
            self.add_shard(shard_id)

    # Membership ----------------------------------------------------------

    @property
    def shard_ids(self) -> list[int]:
        """Current members, ascending."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id: int) -> None:
        """Insert ``shard_id``'s virtual points.

        Raises:
            ValueError: if the shard is already a member.
        """
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._memo.clear()
        bisect.insort(self._shards, shard_id)
        for vnode in range(self.vnodes):
            point = _point(shard_id, vnode)
            index = bisect.bisect_left(self._points, point)
            # SHA-256 collisions between distinct (shard, vnode) labels are
            # not a practical concern; ties resolve to the smaller shard ID
            # so even a collision would be deterministic.
            if (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] <= shard_id
            ):
                continue
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def remove_shard(self, shard_id: int) -> None:
        """Drop ``shard_id``'s virtual points (its range flows clockwise).

        Raises:
            ValueError: if the shard is not a member.
        """
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id} not on the ring")
        self._memo.clear()
        self._shards.remove(shard_id)
        keep = [
            index
            for index in range(len(self._points))
            if self._owners[index] != shard_id
        ]
        self._points = [self._points[index] for index in keep]
        self._owners = [self._owners[index] for index in keep]

    # Lookup ----------------------------------------------------------------

    def shard_for(self, key: bytes) -> int:
        """The shard owning ``key``.

        Answers are remembered until the next membership change, so the
        router's split and the owning server's check hash ``key`` once.

        Raises:
            LookupError: when the ring is empty.
        """
        memo = self._memo
        owner = memo.get(key)
        if owner is not None:
            return owner
        if not self._points:
            raise LookupError("cannot route on an empty ring")
        index = bisect.bisect_right(self._points, _key_point(key))
        if index == len(self._points):
            index = 0
        owner = self._owners[index]
        if len(memo) >= LOOKUP_MEMO_CAP:
            memo.clear()
        memo[key] = owner
        return owner

    def ownership(self, keys: Iterable[bytes]) -> dict[int, int]:
        """Key count per shard over ``keys`` (shards in ascending order)."""
        counts: dict[int, int] = {shard_id: 0 for shard_id in self._shards}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts

    def __repr__(self) -> str:
        return (
            f"ShardRing(shards={self._shards}, vnodes={self.vnodes}, "
            f"points={len(self._points)})"
        )


def report_shard_key(packet: MarkedPacket) -> bytes:
    """Uniform key: the packet's report digest (see ``repro.obs.spans``).

    Spreads distinct reports evenly regardless of origin -- maximal load
    balance, minimal resolver locality.
    """
    return report_key(packet.report)


def region_shard_key(
    cell_size: float = 8.0,
) -> Callable[[MarkedPacket], bytes]:
    """Locality key factory: quantize the report's event location.

    Every report whose location falls in the same ``cell_size`` x
    ``cell_size`` cell routes to the same shard.  Since a stationary
    source reports one location and one route delivers it, the shard's
    resolver sees a small, stable marker set -- the property the
    throughput gate in ``benchmarks/test_bench_cluster.py`` measures.
    """
    if cell_size <= 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")

    def key(packet: MarkedPacket) -> bytes:
        x, y = packet.report.location
        cell = (int(x // cell_size), int(y // cell_size))
        return f"region|{cell[0]}|{cell[1]}".encode()

    return key
