"""Savage-style edge-sampling PPM and its forgery attack."""

import random

import pytest

from repro.marking.plain import NoMarking
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.sim.behaviors import HonestForwarder
from repro.tracealt.edge_sampling import (
    EMPTY,
    EdgeForgingMole,
    EdgeSample,
    EdgeSamplingForwarder,
    EdgeSamplingSink,
)
from tests.conftest import ctx_for


def build_chain(
    n,
    keystore,
    provider,
    mark_prob=0.3,
    mole_position=None,
    fake=(99, EMPTY, 0),
    seed=0,
):
    channel = EdgeSamplingSink()
    forwarders = []
    for nid in range(1, n + 1):
        inner = HonestForwarder(ctx_for(nid, keystore, provider), NoMarking())
        rng = random.Random(f"edge:{seed}:{nid}")
        if nid == mole_position:
            forwarders.append(
                EdgeForgingMole(
                    inner,
                    channel,
                    mark_prob,
                    rng,
                    fake_start=fake[0],
                    fake_end=fake[1],
                    fake_distance=fake[2],
                )
            )
        else:
            forwarders.append(
                EdgeSamplingForwarder(inner, channel, mark_prob, rng)
            )
    return channel, forwarders


def push(channel, forwarders, count, seed=0):
    for t in range(count):
        report = Report(event=t.to_bytes(4, "big"), location=(0, 0), timestamp=t)
        packet = MarkedPacket(report=report)
        for fwd in forwarders:
            packet = fwd.forward(packet)
        channel.deliver(packet)


class TestEdgeSample:
    def test_states(self):
        assert EdgeSample().is_empty
        assert not EdgeSample(start=3).is_empty


class TestHonestReconstruction:
    def test_path_recovered_nearest_first(self, keystore, provider):
        channel, forwarders = build_chain(8, keystore, provider, mark_prob=0.4)
        push(channel, forwarders, 400)
        path = channel.reconstruct_path()
        # Nearest-first: V8 (adjacent to sink) down toward V1.
        assert path == [8, 7, 6, 5, 4, 3, 2, 1]

    def test_apparent_origin_is_first_forwarder(self, keystore, provider):
        channel, forwarders = build_chain(6, keystore, provider, mark_prob=0.4)
        push(channel, forwarders, 300)
        assert channel.apparent_origin() == 1

    def test_distance_matches_marker_depth(self, keystore, provider):
        channel, forwarders = build_chain(5, keystore, provider, mark_prob=1.0)
        push(channel, forwarders, 3)
        # With p = 1 every hop overwrites: delivered slots always carry the
        # LAST marker (V5) at distance 0.
        assert all(
            s.start == 5 and s.distance == 0 for s in channel.collected
        )

    def test_insufficient_support_truncates(self, keystore, provider):
        channel, forwarders = build_chain(8, keystore, provider, mark_prob=0.3)
        push(channel, forwarders, 6)  # far too few packets
        path = channel.reconstruct_path(min_support=5)
        assert len(path) < 8

    def test_byte_overhead_constant(self, keystore, provider):
        from repro.tracealt.edge_sampling import EDGE_SLOT_BYTES

        channel, forwarders = build_chain(8, keystore, provider)
        push(channel, forwarders, 10)
        assert channel.bytes_overhead == 10 * EDGE_SLOT_BYTES


class TestForgery:
    def test_distance_zero_forgery_frames_victim(self, keystore, provider):
        # The mole (position 4 of 8) forges a fresh mark claiming node 99;
        # downstream hops age it like a real edge, so 99 lands exactly one
        # level deeper than the deepest honest survivor -- the apparent
        # origin.
        channel, forwarders = build_chain(
            8, keystore, provider, mark_prob=0.3, mole_position=4,
            fake=(99, EMPTY, 0),
        )
        push(channel, forwarders, 400)
        assert channel.apparent_origin() == 99

    def test_forgery_erases_true_upstream(self, keystore, provider):
        channel, forwarders = build_chain(
            8, keystore, provider, mark_prob=0.3, mole_position=4,
            fake=(99, EMPTY, 0),
        )
        push(channel, forwarders, 400)
        path = channel.reconstruct_path()
        # V1..V3's genuine marks are overwritten at the mole every packet.
        assert not {1, 2, 3} & set(path)

    def test_naive_deep_forgery_self_defeats(self, keystore, provider):
        # Forging a huge distance leaves a gap at the mole's own level, so
        # reconstruction stops next to the mole: the clumsy variant.
        channel, forwarders = build_chain(
            8, keystore, provider, mark_prob=0.3, mole_position=4,
            fake=(99, 98, 20),
        )
        push(channel, forwarders, 400)
        assert channel.apparent_origin() == 5  # mole's downstream neighbor


class TestValidation:
    def test_mark_prob_bounds(self, keystore, provider):
        inner = HonestForwarder(ctx_for(1, keystore, provider), NoMarking())
        with pytest.raises(ValueError):
            EdgeSamplingForwarder(inner, EdgeSamplingSink(), 0.0, random.Random(0))
