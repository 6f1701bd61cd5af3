"""Bounded ingest queue with explicit backpressure accounting.

A production sink cannot buffer unboundedly: when suspicious traffic
arrives faster than verification drains it, something must give, and the
operator must be able to see exactly how much gave.  The queue therefore
has a hard capacity, sheds whole offers that would exceed it (tail drop:
the sink keeps the oldest evidence, preserving arrival order for what it
already accepted), and counts every shed item exactly.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Generic, TypeVar

__all__ = ["IngestQueue"]

T = TypeVar("T")


class IngestQueue(Generic[T]):
    """A thread-safe bounded FIFO with all-or-nothing tail drop.

    Args:
        capacity: maximum queued items; an offer that would exceed it is
            shed whole.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque[T] = deque()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        # Exact backpressure accounting.
        self.offered = 0  # guarded-by: _lock
        self.accepted = 0  # guarded-by: _lock
        self.dropped = 0  # guarded-by: _lock
        self.taken = 0  # guarded-by: _lock
        self.high_water = 0  # guarded-by: _lock

    def offer_all(self, items: list[T]) -> bool:
        """Atomically enqueue every item of ``items``, or none of them.

        The batch is admitted only when the queue has room for all of it:
        a False return guarantees nothing entered the queue, so a sender
        that retries whole batches cannot double-count an accepted prefix.

        Returns:
            True if every item entered the queue, False if the whole
            batch was shed.

        Raises:
            RuntimeError: if the queue has been closed.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot offer to a closed IngestQueue")
            self.offered += len(items)
            if len(self._items) + len(items) > self.capacity:
                self.dropped += len(items)
                return False
            self._items.extend(items)
            self.accepted += len(items)
            self.high_water = max(self.high_water, len(self._items))
            return True

    def take(self, max_items: int | None = None) -> list[T]:
        """Dequeue up to ``max_items`` items (all queued when ``None``)."""
        if max_items is not None and max_items < 0:
            raise ValueError(f"max_items must be >= 0, got {max_items}")
        with self._lock:
            count = len(self._items)
            if max_items is not None:
                count = min(count, max_items)
            batch = [self._items.popleft() for _ in range(count)]
            self.taken += len(batch)
            return batch

    @property
    def depth(self) -> int:
        """Items currently queued."""
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Refuse further offers; queued items can still be taken."""
        with self._lock:
            self._closed = True

    def stats(self) -> dict[str, Any]:
        """The queue's counters as a JSON-ready dict, read under one lock."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "depth": len(self._items),
                "high_water": self.high_water,
                "offered": self.offered,
                "accepted": self.accepted,
                "dropped": self.dropped,
                "taken": self.taken,
                "closed": self._closed,
            }

    def __len__(self) -> int:
        return self.depth

    def __repr__(self) -> str:
        return (
            f"IngestQueue(depth={self.depth}/{self.capacity}, "
            f"dropped={self.dropped})"
        )
