"""Deployment: one owner for every node's key, context and RNG."""

import random

from repro.core.build import Deployment, deploy
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider, NullMacProvider
from repro.net.topology import grid_topology

SECRET = b"deployment-test"
LABEL = "7:node"


def make(**kwargs) -> Deployment:
    return deploy(grid_topology(4, 4), SECRET, LABEL, **kwargs)


class TestDeployment:
    def test_keystore_covers_every_sensor(self):
        dep = make()
        expected = KeyStore.from_master_secret(SECRET, dep.topology.sensor_nodes())
        assert dep.keystore == expected
        assert sorted(dep.keystore) == sorted(dep.topology.sensor_nodes())

    def test_contexts_carry_the_node_key_and_shared_provider(self):
        dep = make()
        for node_id in dep.topology.sensor_nodes():
            ctx = dep.ctx(node_id)
            assert ctx.node_id == node_id
            assert ctx.key == dep.keystore[node_id]
            assert ctx.provider is dep.provider
            assert ctx.prev_hop is None

    def test_default_provider_is_hmac(self):
        assert isinstance(make().provider, KeyedHashProvider)

    def test_passed_provider_is_kept(self):
        provider = NullMacProvider()
        assert make(provider=provider).provider is provider

    def test_rng_is_labelled_by_node(self):
        dep = make()
        for node_id in (1, 5, 999, 6001):
            rng, reference = dep.rng(node_id), random.Random(f"{LABEL}:{node_id}")
            assert [rng.random() for _ in range(5)] == [
                reference.random() for _ in range(5)
            ]

    def test_each_context_gets_a_fresh_rng(self):
        dep = make()
        first, second = dep.ctx(3), dep.ctx(3)
        assert first.rng is not second.rng
        assert [first.rng.random() for _ in range(5)] == [
            second.rng.random() for _ in range(5)
        ]
