"""``pnm-cluster smoke``: the networked tier's one equivalence check."""

from repro.cluster.cli import main
from repro.wire.client import SinkClient
from repro.wire.errors import PingTimeoutError

SMOKE = ["smoke", "--grid-side", "8", "--packets", "16"]


class TestSmoke:
    def test_healthy_cluster_passes(self, capsys):
        assert main(SMOKE) == 0
        out = capsys.readouterr().out
        assert "cluster status" in out
        assert "smoke: OK" in out

    def test_single_shard_passes(self):
        assert main([*SMOKE, "--shards", "1"]) == 0

    def test_missed_probe_fails_the_smoke(self, monkeypatch, capsys):
        # A shard that misses one PING is failed over and its journal
        # replays to the survivor, so the merged verdict still matches
        # the single sink; only the failover counters can catch it.
        real_health_check = SinkClient.health_check
        missed: list[int] = []

        async def miss_first_probe(self, timeout=1.0, payload=b"pnm"):
            if not missed:
                missed.append(self.port)
                await self.close()
                raise PingTimeoutError("injected probe miss")
            return await real_health_check(self, timeout=timeout, payload=payload)

        monkeypatch.setattr(SinkClient, "health_check", miss_first_probe)
        assert main(SMOKE) == 1
        assert missed
        err = capsys.readouterr().err
        assert "failed a shard over" in err
        assert "'failovers': 1" in err
