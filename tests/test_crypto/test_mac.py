"""MAC providers: lengths, domain separation, tamper sensitivity."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import (
    HmacProvider,
    KeyedHashProvider,
    MacProvider,
    NullMacProvider,
    constant_time_equal,
)


class TestHmacProvider:
    def test_mac_length(self):
        assert len(KeyedHashProvider(mac_len=4).mac(b"k", b"d")) == 4
        assert len(KeyedHashProvider(mac_len=32).mac(b"k", b"d")) == 32

    def test_anon_id_length(self):
        assert len(KeyedHashProvider(anon_id_len=2).anon_id(b"k", b"d")) == 2

    def test_deterministic(self):
        p = KeyedHashProvider()
        assert p.mac(b"k", b"d") == p.mac(b"k", b"d")

    def test_key_sensitivity(self):
        p = KeyedHashProvider()
        assert p.mac(b"k1", b"d") != p.mac(b"k2", b"d")

    def test_data_sensitivity(self):
        p = KeyedHashProvider()
        assert p.mac(b"k", b"d1") != p.mac(b"k", b"d2")

    def test_single_bit_flip_changes_mac(self):
        p = KeyedHashProvider(mac_len=8)
        data = b"sensor report payload"
        flipped = bytes([data[0] ^ 0x01]) + data[1:]
        assert p.mac(b"k", data) != p.mac(b"k", flipped)

    def test_domain_separation_mac_vs_anon(self):
        # H and H' must behave as independent functions under one key.
        p = KeyedHashProvider(mac_len=8, anon_id_len=8)
        assert p.mac(b"k", b"d") != p.anon_id(b"k", b"d")

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            KeyedHashProvider(mac_len=0)
        with pytest.raises(ValueError):
            KeyedHashProvider(mac_len=33)
        with pytest.raises(ValueError):
            KeyedHashProvider(anon_id_len=0)

    def test_satisfies_protocol(self):
        assert isinstance(KeyedHashProvider(), MacProvider)


class TestNullMacProvider:
    def test_lengths_match_configuration(self):
        p = NullMacProvider(mac_len=6, anon_id_len=3)
        assert len(p.mac(b"k", b"d")) == 6
        assert len(p.anon_id(b"k", b"d")) == 3

    def test_deterministic(self):
        p = NullMacProvider()
        assert p.mac(b"k", b"data") == p.mac(b"k", b"data")

    def test_key_dependent(self):
        p = NullMacProvider()
        assert p.mac(b"key-one!", b"d" * 20) != p.mac(b"key-two!", b"d" * 20)

    def test_verification_roundtrip_for_honest_use(self):
        # Recomputing over identical inputs must match: the fast provider's
        # only contract.
        p = NullMacProvider()
        assert p.mac(b"k" * 16, b"payload") == p.mac(b"k" * 16, b"payload")

    def test_satisfies_protocol(self):
        assert isinstance(NullMacProvider(), MacProvider)


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"abc", b"abc")

    def test_unequal(self):
        assert not constant_time_equal(b"abc", b"abd")

    def test_length_mismatch(self):
        assert not constant_time_equal(b"abc", b"abcd")


def _reference(key: bytes, domain: bytes, data: bytes, out_len: int) -> bytes:
    """One-shot keyed BLAKE2s; keys past 32 bytes hashed down first."""
    if len(key) > 32:
        key = hashlib.blake2s(key, person=domain).digest()
    return hashlib.blake2s(data, key=key, digest_size=out_len, person=domain).digest()


MAC_DOMAIN = b"pnm-mac\x00"
ANON_DOMAIN = b"pnm-anon"


class TestHmacProviderEquivalence:
    """The keyed-state provider gives exactly one-shot keyed BLAKE2s bytes.

    (``HmacProvider`` is the provider's former name, still an alias.)
    """

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.binary(min_size=0, max_size=130),
        data=st.binary(max_size=200),
        mac_len=st.integers(1, 32),
        anon_id_len=st.integers(1, 32),
    )
    def test_matches_one_shot_blake2s(self, key, data, mac_len, anon_id_len):
        p = KeyedHashProvider(mac_len=mac_len, anon_id_len=anon_id_len)
        assert p.mac(key, data) == _reference(key, MAC_DOMAIN, data, mac_len)
        assert p.anon_id(key, data) == _reference(key, ANON_DOMAIN, data, anon_id_len)

    @pytest.mark.parametrize("key_len", [0, 1, 31, 32, 63, 64, 65, 127, 128, 129, 130])
    def test_block_boundary_key_lengths(self, key_len):
        # Keys up to BLAKE2s's 32-byte limit (the empty key too) are used
        # as is; longer ones are hashed down first.  The lengths also
        # straddle the 64-byte block.
        key = bytes(range(key_len))
        p = KeyedHashProvider(mac_len=32, anon_id_len=32)
        for data in (b"", b"d", bytes(100)):
            assert p.mac(key, data) == _reference(key, MAC_DOMAIN, data, 32)
            assert p.anon_id(key, data) == _reference(key, ANON_DOMAIN, data, 32)

    def test_long_key_reduced_under_its_own_domain(self):
        key = bytes(range(40))
        p = KeyedHashProvider(mac_len=32, anon_id_len=32)
        for domain, compute in ((MAC_DOMAIN, p.mac), (ANON_DOMAIN, p.anon_id)):
            reduced = hashlib.blake2s(key, person=domain).digest()
            assert compute(key, b"d") == hashlib.blake2s(
                b"d", key=reduced, person=domain
            ).digest()

    @pytest.mark.parametrize("length", range(1, 33))
    def test_field_lengths_set_the_digest_size(self, length):
        # A shorter field is a different BLAKE2s instance, not a prefix of
        # the 32-byte digest: the parameter block carries the size.
        p = KeyedHashProvider(mac_len=length, anon_id_len=length)
        key, data = b"k" * 16, b"sensor report"
        mac, anon = p.mac(key, data), p.anon_id(key, data)
        assert len(mac) == len(anon) == length
        assert mac == hashlib.blake2s(
            data, key=key, digest_size=length, person=MAC_DOMAIN
        ).digest()
        assert anon == hashlib.blake2s(
            data, key=key, digest_size=length, person=ANON_DOMAIN
        ).digest()
        if length < 32:
            assert mac != _reference(key, MAC_DOMAIN, data, 32)[:length]

    @settings(max_examples=50, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(st.integers(0, 7), st.booleans(), st.binary(max_size=40)),
            min_size=1,
            max_size=40,
        )
    )
    def test_many_keys_interleaved(self, calls):
        keys = [bytes([i]) * (i * 19) for i in range(8)]  # lengths 0..133
        p = KeyedHashProvider(mac_len=8, anon_id_len=6)
        for key_index, use_mac, data in calls:
            key = keys[key_index]
            if use_mac:
                assert p.mac(key, data) == _reference(key, MAC_DOMAIN, data, 8)
            else:
                assert p.anon_id(key, data) == _reference(key, ANON_DOMAIN, data, 6)

    @settings(max_examples=50, deadline=None)
    @given(key=st.binary(max_size=130), data=st.binary(max_size=60))
    def test_domain_separation_holds(self, key, data):
        p = KeyedHashProvider(mac_len=32, anon_id_len=32)
        assert p.mac(key, data) != p.anon_id(key, data)

    def test_threads_sharing_one_provider_agree(self):
        p = KeyedHashProvider(mac_len=4, anon_id_len=4)
        keys = [bytes([i]) * (i % 70) for i in range(40)]
        work = [(key, bytes([j]) * j) for key in keys for j in range(12)]
        expected = [
            (_reference(k, MAC_DOMAIN, d, 4), _reference(k, ANON_DOMAIN, d, 4))
            for k, d in work
        ]

        def run(offset: int) -> list[tuple[bytes, bytes]]:
            # Each thread starts at a different point, so first uses of a
            # key (state builds) race with other threads' copies.
            order = work[offset:] + work[:offset]
            results = [(p.mac(k, d), p.anon_id(k, d)) for k, d in order]
            return results[len(work) - offset :] + results[: len(work) - offset]

        # More threads than cores and a short switch interval, so first
        # uses and copies of one key's states interleave between threads.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(run, offset)
                    for offset in range(0, len(work), len(work) // 8)
                ]
                outcomes = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) >= 8
        for outcome in outcomes:
            assert outcome == expected

    def test_former_name_is_an_alias(self):
        assert HmacProvider is KeyedHashProvider
