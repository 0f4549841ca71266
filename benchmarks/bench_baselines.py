"""Complexity comparison of the solving substrates (Section 3.5).

The paper's complexity table: per PDIP iteration, a software direct
solve costs O(N^3) and the crossbar O(N) (only the coefficient writes
scale with N; the analog evaluation is O(1)).  This bench measures
the software baselines' wall-clock scaling and the crossbar's
*modeled* per-iteration cost side by side.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.baselines import solve_simplex
from repro.costmodel import estimate_latency
from repro.experiments import settings_for, solver_for
from repro.workloads import random_feasible_lp


def dominant_system(rng, n):
    A = rng.uniform(-1, 1, size=(n, n))
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A, rng.uniform(-1, 1, size=n)


@pytest.mark.benchmark(group="baselines-linear-solve")
@pytest.mark.parametrize("n", [64, 256])
def test_dense_lu_solve(benchmark, n):
    rng = np.random.default_rng(0)
    A, b = dominant_system(rng, n)
    x = benchmark(np.linalg.solve, A, b)
    np.testing.assert_allclose(A @ x, b, rtol=1e-8)


@pytest.mark.benchmark(group="baselines-simplex")
@pytest.mark.parametrize("m", [16, 48])
def test_simplex_scaling(benchmark, m):
    rng = np.random.default_rng(1)
    problem = random_feasible_lp(m, rng=rng)
    result = benchmark(solve_simplex, problem)
    assert result.is_optimal


@pytest.mark.benchmark(group="baselines-complexity")
def test_modeled_per_iteration_cost_is_linear(benchmark):
    """The crossbar's modeled per-iteration latency grows ~linearly in
    N (write-dominated), unlike the software baselines."""

    def run():
        rows = []
        for m in (16, 32, 64):
            solve = solver_for("crossbar", 0)
            settings = settings_for("crossbar", 0)
            problem = random_feasible_lp(
                m, rng=np.random.default_rng(m)
            )
            result = solve(problem, np.random.default_rng(0))
            breakdown = estimate_latency(result, settings.device)
            per_iteration = breakdown.total_s / max(result.iterations, 1)
            rows.append([m, result.iterations, per_iteration * 1e6])
        print()
        print("=== modeled crossbar per-iteration latency ===")
        print(render_table(["m", "iters", "per_iter_us"], rows))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Quadrupling m must raise the per-iteration cost far less than a
    # cubic software solve would (64x): ~linear means <= ~10x.
    ratio = rows[-1][2] / rows[0][2]
    assert ratio < 16.0
