"""MAC providers: lengths, domain separation, tamper sensitivity."""

import hashlib
import hmac
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import (
    HmacProvider,
    MacProvider,
    NullMacProvider,
    constant_time_equal,
)


class TestHmacProvider:
    def test_mac_length(self):
        assert len(HmacProvider(mac_len=4).mac(b"k", b"d")) == 4
        assert len(HmacProvider(mac_len=32).mac(b"k", b"d")) == 32

    def test_anon_id_length(self):
        assert len(HmacProvider(anon_id_len=2).anon_id(b"k", b"d")) == 2

    def test_deterministic(self):
        p = HmacProvider()
        assert p.mac(b"k", b"d") == p.mac(b"k", b"d")

    def test_key_sensitivity(self):
        p = HmacProvider()
        assert p.mac(b"k1", b"d") != p.mac(b"k2", b"d")

    def test_data_sensitivity(self):
        p = HmacProvider()
        assert p.mac(b"k", b"d1") != p.mac(b"k", b"d2")

    def test_single_bit_flip_changes_mac(self):
        p = HmacProvider(mac_len=8)
        data = b"sensor report payload"
        flipped = bytes([data[0] ^ 0x01]) + data[1:]
        assert p.mac(b"k", data) != p.mac(b"k", flipped)

    def test_domain_separation_mac_vs_anon(self):
        # H and H' must behave as independent functions under one key.
        p = HmacProvider(mac_len=8, anon_id_len=8)
        assert p.mac(b"k", b"d") != p.anon_id(b"k", b"d")

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            HmacProvider(mac_len=0)
        with pytest.raises(ValueError):
            HmacProvider(mac_len=33)
        with pytest.raises(ValueError):
            HmacProvider(anon_id_len=0)

    def test_satisfies_protocol(self):
        assert isinstance(HmacProvider(), MacProvider)


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
    return hmac.new(key, domain + data, hashlib.sha256).digest()[:out_len]


class TestHmacProviderEquivalence:
    """The pad-state provider gives exactly ``hmac.new``'s bytes."""

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.binary(min_size=0, max_size=130),
        data=st.binary(max_size=200),
        mac_len=st.integers(1, 32),
        anon_id_len=st.integers(1, 32),
    )
    def test_matches_hmac_new(self, key, data, mac_len, anon_id_len):
        p = HmacProvider(mac_len=mac_len, anon_id_len=anon_id_len)
        assert p.mac(key, data) == _reference(key, b"pnm-mac\x00", data, mac_len)
        assert p.anon_id(key, data) == _reference(
            key, b"pnm-anon\x00", data, anon_id_len
        )

    @pytest.mark.parametrize("key_len", [0, 1, 31, 32, 63, 64, 65, 127, 128, 129, 130])
    def test_block_boundary_key_lengths(self, key_len):
        # Keys longer than the 64-byte SHA-256 block are hashed first;
        # shorter ones (the empty key too) are zero-padded.
        key = bytes(range(key_len))
        p = HmacProvider(mac_len=32, anon_id_len=32)
        for data in (b"", b"d", bytes(100)):
            assert p.mac(key, data) == _reference(key, b"pnm-mac\x00", data, 32)
            assert p.anon_id(key, data) == _reference(key, b"pnm-anon\x00", data, 32)

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
        p = HmacProvider(mac_len=8, anon_id_len=6)
        for key_index, use_mac, data in calls:
            key = keys[key_index]
            if use_mac:
                assert p.mac(key, data) == _reference(key, b"pnm-mac\x00", data, 8)
            else:
                assert p.anon_id(key, data) == _reference(
                    key, b"pnm-anon\x00", data, 6
                )

    @settings(max_examples=50, deadline=None)
    @given(key=st.binary(max_size=130), data=st.binary(max_size=60))
    def test_domain_separation_holds(self, key, data):
        p = HmacProvider(mac_len=32, anon_id_len=32)
        assert p.mac(key, data) != p.anon_id(key, data)

    def test_threads_sharing_one_provider_agree(self):
        p = HmacProvider(mac_len=4, anon_id_len=4)
        keys = [bytes([i]) * (i % 70) for i in range(40)]
        work = [(key, bytes([j]) * j) for key in keys for j in range(12)]
        expected = [
            (_reference(k, b"pnm-mac\x00", d, 4), _reference(k, b"pnm-anon\x00", d, 4))
            for k, d in work
        ]

        def run(offset: int) -> list[tuple[bytes, bytes]]:
            # Each thread starts at a different point, so first uses of a
            # key (pad builds) race with other threads' copies.
            order = work[offset:] + work[:offset]
            results = [(p.mac(k, d), p.anon_id(k, d)) for k, d in order]
            return results[len(work) - offset :] + results[: len(work) - offset]

        # More threads than cores and a short switch interval, so first
        # uses and copies of one key's pads interleave between threads.
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
