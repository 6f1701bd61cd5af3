"""Run manifests and the ``python -m repro.obs report`` renderer."""

import json
from functools import partial

import pytest

import repro.obs as obs_pkg
from repro.experiments import cli
from repro.experiments.presets import preset_by_name
from repro.experiments.tables import FigureResult
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.profiling import ObsProvider, get_default_provider
from repro.obs.report import main, render_run_dir
from repro.obs.spans import Tracer


class TestGitRevision:
    def test_in_a_checkout_returns_a_hash(self):
        rev = git_revision()
        assert rev == "unknown" or all(c in "0123456789abcdef" for c in rev)

    def test_outside_a_checkout_degrades_to_unknown(self, tmp_path):
        assert git_revision(cwd=str(tmp_path)) == "unknown"


class TestRunManifest:
    def test_begin_stamps_provenance(self):
        manifest = RunManifest.begin("fig6", argv=["prog", "fig6"], preset="ci", seed=7)
        assert manifest.name == "fig6"
        assert manifest.preset == "ci"
        assert manifest.seed == 7
        assert manifest.started_unix > 0
        assert manifest.python

    def test_finish_records_wall_time_and_metrics(self):
        manifest = RunManifest.begin("x", argv=[])
        provider = ObsProvider()
        provider.inc("packets_total")
        manifest.finish(metrics=provider.registry.snapshot())
        assert manifest.wall_seconds >= 0.0
        assert manifest.metrics["metrics"][0]["name"] == "packets_total"

    def test_write_load_round_trip(self, tmp_path):
        manifest = RunManifest.begin("fig7", argv=["a", "b"], preset="quick", seed=3)
        manifest.extra["note"] = "hello"
        manifest.finish(metrics={"metrics": []})
        path = tmp_path / "manifest.json"
        manifest.write(str(path))
        loaded = RunManifest.load(str(path))
        assert loaded.as_dict() == manifest.as_dict()

    def test_written_json_is_sorted(self, tmp_path):
        path = tmp_path / "manifest.json"
        RunManifest(name="x").write(str(path))
        payload = path.read_text()
        assert payload == json.dumps(
            json.loads(payload), indent=2, sort_keys=True
        ) + "\n"


def write_run_dir(tmp_path):
    """A complete artifact directory like the CLI's ``--obs-dir`` output."""
    run_dir = tmp_path / "fig6"
    run_dir.mkdir()
    provider = ObsProvider()
    provider.inc("packets_total", 5)
    provider.observe("verify_seconds", 0.001, times=3)
    manifest = RunManifest.begin("fig6", argv=["pnm-experiment", "fig6"], preset="ci")
    manifest.finish(metrics=provider.registry.snapshot())
    manifest.write(str(run_dir / "manifest.json"))
    tracer = Tracer(clock=iter([0.0, 1.0, 1.0, 2.0]).__next__)
    tracer.finish(tracer.chain(b"k", "inject"))
    tracer.finish(tracer.chain(b"k", "verify"))
    tracer.write_jsonl(str(run_dir / "spans.jsonl"))
    return run_dir


class TestReport:
    def test_render_run_dir_includes_all_sections(self, tmp_path):
        rendered = render_run_dir(str(write_run_dir(tmp_path)))
        assert "== run: fig6 ==" in rendered
        assert "packets_total" in rendered
        assert "verify_seconds" in rendered
        assert "2 spans in 1 traces" in rendered
        assert "inject" in rendered

    def test_cli_renders_a_parent_of_run_dirs(self, tmp_path, capsys):
        write_run_dir(tmp_path)
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== run: fig6 ==" in out
        assert "packets_total" in out

    def test_cli_rejects_a_dir_without_artifacts(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path)])

    def test_cli_rejects_a_missing_path(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "nope")])

    def test_render_metrics_handles_empty_snapshot(self, tmp_path):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        RunManifest(name="empty").write(str(run_dir / "manifest.json"))
        rendered = render_run_dir(str(run_dir))
        assert "== run: empty ==" in rendered


class TestObservedRunSpanCount:
    """``--obs-dir`` runs record whether the span store overflowed."""

    @staticmethod
    def observe(tmp_path, monkeypatch, spans, max_spans):
        def runner(preset):
            tracer = get_default_provider().tracer
            for index in range(spans):
                tracer.finish(tracer.chain(b"k%d" % index, "inject"))
            return FigureResult(figure_id="spans", title="t", columns=["x"], rows=[])

        monkeypatch.setattr(obs_pkg, "Tracer", partial(Tracer, max_spans=max_spans))
        cli._run_observed(runner, "spans", preset_by_name("ci"), str(tmp_path))
        return RunManifest.load(str(tmp_path / "spans" / "manifest.json"))

    def test_overflow_is_recorded_warned_and_reported(self, tmp_path, monkeypatch, capsys):
        manifest = self.observe(tmp_path, monkeypatch, spans=12, max_spans=5)
        assert manifest.extra["spans_truncated"] is True
        assert manifest.extra["spans_written"] == 5
        lines = (tmp_path / "spans" / "spans.jsonl").read_text().splitlines()
        assert len(lines) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "spans: span store full at 5 spans" in err
        rendered = render_run_dir(str(tmp_path / "spans")).splitlines()
        assert any("spans_truncated" in line and "True" in line for line in rendered)

    def test_a_run_within_the_cap_is_not_flagged(self, tmp_path, monkeypatch, capsys):
        manifest = self.observe(tmp_path, monkeypatch, spans=3, max_spans=5)
        assert manifest.extra["spans_truncated"] is False
        assert manifest.extra["spans_written"] == 3
        assert capsys.readouterr().err == ""
