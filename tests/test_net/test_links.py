"""Link model: delays and losses."""

import random

import pytest

from repro.net.links import LinkModel


class TestTransmissionDelay:
    def test_base_plus_serialization(self):
        link = LinkModel(base_delay=0.01, bitrate_bps=8000)
        # 100 bytes = 800 bits at 8000 bps -> 0.1 s serialization.
        assert link.transmission_delay(100) == pytest.approx(0.11)

    def test_zero_bitrate_disables_serialization(self):
        link = LinkModel(base_delay=0.02, bitrate_bps=0)
        assert link.transmission_delay(10_000) == pytest.approx(0.02)

    def test_monotone_in_size(self):
        link = LinkModel()
        assert link.transmission_delay(200) > link.transmission_delay(50)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            LinkModel().transmission_delay(-1)

    def test_mica2_default_rate_dominates(self):
        # At 19.2 kbps, a 50-byte packet needs ~20.8 ms of airtime.
        link = LinkModel(base_delay=0.0)
        assert link.transmission_delay(50) == pytest.approx(50 * 8 / 19200)


class TestLoss:
    def test_lossless_always_delivers(self):
        link = LinkModel(loss_prob=0.0)
        rng = random.Random(0)
        assert all(link.is_delivered(rng) for _ in range(100))

    def test_loss_rate_statistical(self):
        link = LinkModel(loss_prob=0.3)
        rng = random.Random(42)
        delivered = sum(link.is_delivered(rng) for _ in range(10_000))
        assert 0.65 < delivered / 10_000 < 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(loss_prob=1.0)
        with pytest.raises(ValueError):
            LinkModel(loss_prob=-0.1)
        with pytest.raises(ValueError):
            LinkModel(base_delay=-1)
        with pytest.raises(ValueError):
            LinkModel(bitrate_bps=-5)


class TestLinkTable:
    def test_default_for_every_edge(self):
        from repro.net.links import LinkTable

        table = LinkTable()
        assert table.model_for(1, 2) is table.default
        assert len(table) == 0

    def test_override_is_directed(self):
        from repro.net.links import LinkTable

        slow = LinkModel(base_delay=0.5)
        table = LinkTable()
        table.set_override(1, 2, slow)
        assert table.model_for(1, 2) is slow
        assert table.model_for(2, 1) is table.default
        assert len(table) == 1

    def test_clear_override(self):
        from repro.net.links import LinkTable

        table = LinkTable()
        table.set_override(3, 4, LinkModel(loss_prob=0.5))
        assert table.clear_override(3, 4) is True
        assert table.clear_override(3, 4) is False
        assert table.model_for(3, 4) is table.default

    def test_self_loop_rejected(self):
        from repro.net.links import LinkTable

        with pytest.raises(ValueError):
            LinkTable().set_override(2, 2, LinkModel())

    def test_constructor_overrides(self):
        from repro.net.links import LinkTable

        fast = LinkModel(base_delay=0.0001)
        table = LinkTable(default=LinkModel(), overrides={(1, 2): fast})
        assert table.model_for(1, 2) is fast
