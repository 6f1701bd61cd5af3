"""Revocation list: nodes the sink no longer trusts.

Revocation is sink-side bookkeeping: a revoked node's key is dead (its
MACs no longer verify anything useful) and its reports are ignored.  The
list records *why* each node was revoked, because suspect neighborhoods
contain innocent bystanders -- operators need the evidence trail when they
physically inspect nodes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["RevocationList", "RevocationRecord"]


@dataclass(frozen=True)
class RevocationRecord:
    """Why and when a node was revoked.

    Attributes:
        node_id: the revoked node.
        reason: free-form evidence summary (e.g. "center of suspect
            neighborhood after 62-packet PNM trace").
        revoked_at: simulation time or packet count at revocation.
    """

    node_id: int
    reason: str
    revoked_at: float


class RevocationList:
    """An append-only record of revoked nodes.

    Other sink-side components can react to revocations as they happen via
    :meth:`subscribe` -- e.g. the ingest service's resolver cache drops any
    state derived from a node's key the moment that node is revoked.
    """

    def __init__(self) -> None:
        self._records: dict[int, RevocationRecord] = {}
        self._listeners: list[Callable[[RevocationRecord], None]] = []

    def subscribe(self, listener: Callable[[RevocationRecord], None]) -> None:
        """Register a callback invoked once per *newly* revoked node.

        Listeners fire synchronously inside :meth:`revoke`, after the
        record is stored; re-revocations do not re-fire.  A listener that
        raises does not prevent the remaining listeners from firing.
        """
        self._listeners.append(listener)

    def revoke(self, node_id: int, reason: str, revoked_at: float = 0.0) -> None:
        """Add a node; re-revoking keeps the earliest record.

        Every subscribed listener is notified even if an earlier one
        raises; the first exception is re-raised once all have fired.
        Skipping notifications would desynchronize sink-side state (e.g. a
        resolver cache still trusting a revoked node's key).
        """
        if node_id not in self._records:
            record = RevocationRecord(
                node_id=node_id, reason=reason, revoked_at=revoked_at
            )
            self._records[node_id] = record
            first_error: Exception | None = None
            for listener in self._listeners:
                try:
                    listener(record)
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error

    def is_revoked(self, node_id: int) -> bool:
        """Whether the node has been revoked."""
        return node_id in self._records

    def record(self, node_id: int) -> RevocationRecord:
        """The revocation evidence for a node.

        Raises:
            KeyError: if the node is not revoked.
        """
        return self._records[node_id]

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._records

    def __repr__(self) -> str:
        return f"RevocationList({sorted(self._records)})"
