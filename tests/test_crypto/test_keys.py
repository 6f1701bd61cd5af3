"""Key derivation and the sink's key table."""

import pytest

from repro.crypto.keys import KEY_LEN, NODE_ID_BYTES, KeyStore, derive_node_key


class TestDeriveNodeKey:
    def test_key_length(self):
        assert len(derive_node_key(b"m", 0)) == KEY_LEN

    def test_deterministic(self):
        assert derive_node_key(b"m", 5) == derive_node_key(b"m", 5)

    def test_distinct_per_node(self):
        keys = {derive_node_key(b"m", i) for i in range(100)}
        assert len(keys) == 100

    def test_distinct_per_master(self):
        assert derive_node_key(b"m1", 7) != derive_node_key(b"m2", 7)

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_node_key(b"m", -1)

    def test_large_ids_supported(self):
        assert len(derive_node_key(b"m", 2**60)) == KEY_LEN


class TestKeyStore:
    def test_from_master_secret_covers_ids(self):
        store = KeyStore.from_master_secret(b"m", [1, 5, 9])
        assert store.node_ids() == [1, 5, 9]

    def test_key_of_matches_derivation(self):
        store = KeyStore.from_master_secret(b"m", [3])
        assert store.key_of(3) == derive_node_key(b"m", 3)

    def test_key_of_unknown_raises(self):
        store = KeyStore({1: b"k"})
        with pytest.raises(KeyError):
            store.key_of(2)

    def test_mapping_interface(self):
        store = KeyStore({1: b"a", 2: b"b"})
        assert len(store) == 2
        assert set(store) == {1, 2}
        assert store[1] == b"a"
        assert store.get(3) is None

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError, match="empty key"):
            KeyStore({1: b""})

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="non-negative"):
            KeyStore({-2: b"k"})

    def test_node_ids_sorted(self):
        store = KeyStore({9: b"x", 1: b"y", 4: b"z"})
        assert store.node_ids() == [1, 4, 9]

    def test_independent_of_input_mutation(self):
        src = {1: b"a"}
        store = KeyStore(src)
        src[2] = b"b"
        assert 2 not in store

    def test_node_table_in_ascending_id_order(self):
        store = KeyStore({9: b"x", 1: b"y", 4: b"z"})
        table = store.node_table
        assert list(table) == [1, 4, 9]
        assert table[4] == (b"z", (4).to_bytes(NODE_ID_BYTES, "big"))
        assert store.node_table is table  # built once
        with pytest.raises(TypeError):
            table[5] = (b"w", b"")  # type: ignore[index]
