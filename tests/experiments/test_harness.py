"""Tests for the experiment harness (sweeps and rendering)."""

import dataclasses

import numpy as np
import pytest

import repro.experiments.feasible as feasible
from repro.core import SolverResult
from repro.core.result import SolveStatus
from repro.experiments import (
    SOLVER_NAMES,
    SweepConfig,
    infeasibility_sweep,
    paper_scale,
    render_accuracy,
    render_energy,
    render_infeasibility,
    render_latency,
    run_sweep,
    settings_for,
    solver_for,
)
from repro.experiments.engine import CELL_CRASHED
from repro.experiments.runner import cell_seed
from repro.workloads import random_feasible_lp

TINY = SweepConfig(sizes=(8,), variations=(0,), trials=2)


class TestRunner:
    def test_solver_registry(self, rng):
        problem = random_feasible_lp(8, rng=rng)
        for name in SOLVER_NAMES:
            solve = solver_for(name, 0)
            result = solve(problem, np.random.default_rng(0))
            assert isinstance(result, SolverResult)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            solver_for("bogus", 0)
        with pytest.raises(ValueError, match="unknown solver"):
            settings_for("bogus", 0)

    def test_settings_carry_variation(self):
        settings = settings_for("crossbar", 10)
        assert settings.variation.relative_magnitude == pytest.approx(
            0.10
        )

    def test_overrides_forwarded(self):
        settings = settings_for("crossbar", 0, max_iterations=7)
        assert settings.max_iterations == 7

    def test_cell_seed_deterministic(self):
        config = SweepConfig()
        a = cell_seed(config, 8, 10, 0)
        b = cell_seed(config, 8, 10, 0)
        assert (
            np.random.default_rng(a).integers(1 << 30)
            == np.random.default_rng(b).integers(1 << 30)
        )

    def test_cell_seed_distinguishes_cells(self):
        config = SweepConfig()
        a = cell_seed(config, 8, 10, 0)
        b = cell_seed(config, 8, 10, 1)
        assert (
            np.random.default_rng(a).integers(1 << 30)
            != np.random.default_rng(b).integers(1 << 30)
        )

    def test_paper_scale_grid(self):
        config = paper_scale()
        assert config.sizes[-1] == 1024
        assert config.trials == 100

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(sizes=())
        with pytest.raises(ValueError):
            SweepConfig(trials=0)


class TestSweeps:
    def test_accuracy_rows(self):
        rows = run_sweep("feasible", "crossbar", TINY).rows
        assert len(rows) == 1
        row = rows[0]
        assert row.solved == 2
        assert row.error.mean < 0.05
        text = render_accuracy(rows)
        assert "mean_rel_err" in text
        assert "crossbar" in text

    def test_latency_rows(self):
        rows = run_sweep("feasible", "crossbar", TINY).rows
        row = rows[0]
        assert row.latency.mean > 0
        assert row.linprog_s > 0
        assert row.speedup_vs_linprog > 0
        assert "speedup" in render_latency(rows)

    def test_energy_rows(self):
        rows = run_sweep("feasible", "crossbar", TINY).rows
        row = rows[0]
        assert row.energy.mean > 0
        assert row.gain_vs_linprog > 0
        assert "crossbar_J" in render_energy(rows)

    def test_infeasibility_rows(self):
        rows = infeasibility_sweep("crossbar", TINY)
        row = rows[0]
        assert row.detected == 2
        assert row.detection_rate == 1.0
        assert row.speedup_vs_linprog > 0
        assert "detected" in render_infeasibility(rows)

    def test_truth_without_optimum_crashes_the_cell(self, monkeypatch):
        # A feasible, bounded LP always has an optimum: a HiGHS truth
        # without one is an error the engine records, not a skip.
        real = feasible.solve_scipy
        monkeypatch.setattr(
            feasible,
            "solve_scipy",
            lambda problem: dataclasses.replace(
                real(problem), status=SolveStatus.NUMERICAL_FAILURE
            ),
        )
        run = run_sweep("feasible", "reference", TINY)
        assert [o.failure.failure_reason for o in run.failures] == [
            CELL_CRASHED
        ] * 2
        assert run.rows[0].solved == 0

    def test_reference_solver_sweep(self):
        rows = run_sweep("feasible", "reference", TINY).rows
        assert rows[0].error.mean < 1e-4
