"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.base import MarkingScheme, NodeContext
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report

MASTER = b"test-master-secret"


@pytest.fixture
def provider() -> KeyedHashProvider:
    return KeyedHashProvider(mac_len=4, anon_id_len=4)


@pytest.fixture
def keystore() -> KeyStore:
    """Keys for node IDs 1..20 (0 is conventionally the sink, keyless)."""
    return KeyStore.from_master_secret(MASTER, range(1, 21))


@pytest.fixture
def report() -> Report:
    return Report(event=b"test-event", location=(3.5, -1.25), timestamp=77)


@pytest.fixture
def packet(report: Report) -> MarkedPacket:
    return MarkedPacket(report=report, origin=9)


def ctx_for(
    node_id: int,
    keystore: KeyStore,
    provider: KeyedHashProvider,
    seed: int = 0,
) -> NodeContext:
    """A deterministic node context for tests."""
    return NodeContext(
        node_id=node_id,
        key=keystore[node_id],
        provider=provider,
        rng=random.Random(f"test:{seed}:{node_id}"),
    )


def mark_through_path(
    scheme: MarkingScheme,
    keystore: KeyStore,
    provider: KeyedHashProvider,
    path_ids: list[int],
    packet: MarkedPacket,
    seed: int = 0,
) -> MarkedPacket:
    """Forward ``packet`` honestly through ``path_ids`` in order."""
    for node_id in path_ids:
        packet = scheme.on_forward(ctx_for(node_id, keystore, provider, seed), packet)
    return packet
