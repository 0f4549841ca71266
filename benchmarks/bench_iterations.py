"""EXP-ITER: iteration counts and detection iterations.

Section 4.3-4.5 discuss how process variation affects iteration
counts (Solver 1's latency grows with variation through iterations;
Solver 2's constant-step iteration count barely moves).  This bench
regenerates those series plus the infeasibility-detection iteration
counts.
"""

import numpy as np
import pytest

from repro.core import (
    SolveStatus,
    solve_crossbar,
    solve_crossbar_large_scale,
)
from repro.experiments import (
    infeasibility_sweep,
    render_accuracy,
    render_infeasibility,
    run_sweep,
)
from repro.workloads import random_feasible_lp


@pytest.mark.benchmark(group="iterations")
def test_iteration_counts_by_variation(benchmark, small_sweep_config):
    def run():
        s1 = run_sweep("feasible", "crossbar", small_sweep_config).rows
        s2 = run_sweep("feasible", "large_scale", small_sweep_config).rows
        print()
        print("=== iteration counts (Solver 1) ===")
        print(render_accuracy(s1))
        print("=== iteration counts (Solver 2) ===")
        print(render_accuracy(s2))
        return s1, s2

    s1_rows, s2_rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in s1_rows + s2_rows:
        if row.iterations.count:
            assert row.iterations.mean < 300

    # Solver 2 (small split arrays + capped-constant step) uses fewer
    # iterations than Solver 1 at the same cells in most cells.
    wins = sum(
        1
        for r1, r2 in zip(s1_rows, s2_rows)
        if r1.iterations.count
        and r2.iterations.count
        and r2.iterations.mean <= r1.iterations.mean
    )
    assert wins >= len(s1_rows) / 2


def _steady_state_cells(trace):
    """Median per-iteration cell writes from a cumulative-counter trace."""
    cumulative = [record.cells_written for record in trace]
    diffs = np.diff(cumulative)
    return float(np.median(diffs)) if diffs.size else 0.0


@pytest.mark.benchmark(group="hotpath")
def test_hotpath_cells_per_iteration_scale_linearly(benchmark, perf_record):
    """The PR's hard perf gate: steady-state per-iteration writes are
    O(N) on both solvers (the paper's Section 3.5 claim), asserted on
    the ``crossbar.cells_written`` counters of a medium LP solve.

    Each iteration rewrites only diagonal cells: 2(n+m) on Solver 1's
    augmented array, n+m on each of Solver 2's M2/D diagonals — never
    the O(N²) structural blocks.  Remap/rescale events may exceed the
    per-iteration bound occasionally, which is why the gate is on the
    *median* (steady state), with a small multiple for headroom.
    """
    m = 48
    problem = random_feasible_lp(m, rng=np.random.default_rng(5))
    n = problem.A.shape[1]

    def run():
        r1 = solve_crossbar(
            problem, rng=np.random.default_rng(7), trace=True
        )
        r2 = solve_crossbar_large_scale(
            problem, rng=np.random.default_rng(7), trace=True
        )
        return r1, r2

    r1, r2 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert r1.status is SolveStatus.OPTIMAL
    assert r2.status is SolveStatus.OPTIMAL

    # Solver 1: trace counters cover the one augmented array.
    s1_cells = _steady_state_cells(r1.trace)
    assert 0 < s1_cells <= 2 * (n + m)
    # Solver 2: trace counters cover the M2 diagonal array.
    s2_cells = _steady_state_cells(r2.trace)
    assert 0 < s2_cells <= n + m

    perf_record.update(
        constraints=m,
        variables=n,
        s1_elapsed_seconds=r1.elapsed_seconds,
        s1_iterations=r1.iterations,
        s1_cells_written=r1.crossbar.cells_written,
        s1_cells_per_iteration_median=s1_cells,
        s1_cells_bound=2 * (n + m),
        s2_elapsed_seconds=r2.elapsed_seconds,
        s2_iterations=r2.iterations,
        s2_cells_written=r2.crossbar.cells_written,
        s2_cells_per_iteration_median=s2_cells,
        s2_cells_bound=n + m,
    )


@pytest.mark.benchmark(group="iterations")
def test_detection_iterations(benchmark, small_sweep_config):
    def run():
        rows = infeasibility_sweep("crossbar", small_sweep_config)
        print()
        print("=== infeasibility detection ===")
        print(render_infeasibility(rows))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    total = sum(row.trials for row in rows)
    detected = sum(row.detected for row in rows)
    assert detected >= 0.75 * total
    for row in rows:
        if row.iterations.count:
            # Detection is fast: well under the iteration cap.
            assert row.iterations.mean < 100
