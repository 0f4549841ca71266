"""Tests for the one-call reproduction driver."""

import json

import pytest

import repro.experiments.reproduce as reproduce
from repro.experiments import SweepConfig, reproduce_all

TINY = SweepConfig(sizes=(8,), variations=(0,), trials=1)


class TestReproduceAll:
    def test_selected_subset_writes_artifacts(self, tmp_path):
        artifacts = reproduce_all(
            tmp_path, TINY, experiments=("fig5a", "parasitics")
        )
        names = [a.name for a in artifacts]
        assert names == ["fig5a", "parasitics"]
        for artifact in artifacts:
            assert artifact.table_path.exists()
            assert artifact.csv_path.exists()
            assert artifact.json_path.exists()
            assert artifact.rows

    def test_json_is_machine_readable(self, tmp_path):
        (artifact,) = reproduce_all(
            tmp_path, TINY, experiments=("fig5b",)
        )
        records = json.loads(artifact.json_path.read_text())
        assert records[0]["solver"] == "large_scale"
        assert records[0]["constraints"] == 8

    def test_table_contains_headers(self, tmp_path):
        (artifact,) = reproduce_all(
            tmp_path, TINY, experiments=("fig6a",)
        )
        text = artifact.table_path.read_text()
        assert "crossbar_ms" in text

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        reproduce_all(target, TINY, experiments=("fig5a",))
        assert (target / "fig5a.txt").exists()

    def test_figs_5_to_7_share_one_sweep(self, tmp_path, monkeypatch):
        sweeps = []
        real = reproduce.run_sweep

        def counting(experiment, solver, *args, **kwargs):
            sweeps.append((experiment, solver))
            return real(experiment, solver, *args, **kwargs)

        monkeypatch.setattr(reproduce, "run_sweep", counting)
        artifacts = reproduce_all(
            tmp_path, TINY, experiments=("fig5a", "fig6a", "fig7a")
        )
        assert sweeps == [("feasible", "crossbar")]
        assert [a.name for a in artifacts] == ["fig5a", "fig6a", "fig7a"]
        assert "mean_rel_err" in artifacts[0].table_path.read_text()
        assert "crossbar_ms" in artifacts[1].table_path.read_text()
        assert "crossbar_J" in artifacts[2].table_path.read_text()
