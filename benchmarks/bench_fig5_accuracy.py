"""FIG5a / FIG5b: accuracy of the crossbar solvers vs software truth.

Regenerates the series of Fig. 5: mean relative error of the optimal
value against scipy (the Matlab-linprog stand-in), for every
(constraint count, variation) cell, for Solver 1 (Fig. 5a) and
Solver 2 (Fig. 5b).  Shape targets from the paper:

- inaccuracy between ~0.2% and ~10% across the sweep;
- errors grow with variation at fixed size;
- both solvers stay reliable ("can always give a reliable optimal
  solution") — here: the large majority of trials return OPTIMAL.
"""

import pytest

from repro.experiments import render_accuracy, run_sweep


def _run(solver, config):
    rows = run_sweep("feasible", solver, config).rows
    print()
    print(f"=== Fig. 5 ({solver}) ===")
    print(render_accuracy(rows))
    return rows


@pytest.mark.benchmark(group="fig5-accuracy")
def test_fig5a_solver1_accuracy(benchmark, sweep_config):
    rows = benchmark.pedantic(
        _run, args=("crossbar", sweep_config), rounds=1, iterations=1
    )
    solved = sum(row.solved for row in rows)
    attempted = sum(row.trials for row in rows)
    assert solved >= 0.8 * attempted
    errors = [row.error.mean for row in rows if row.error.count]
    assert max(errors) < 0.15          # paper band: up to ~10%
    benchmark.extra_info["mean_error"] = float(
        sum(errors) / len(errors)
    )


@pytest.mark.benchmark(group="fig5-accuracy")
def test_fig5b_solver2_accuracy(benchmark, sweep_config):
    rows = benchmark.pedantic(
        _run, args=("large_scale", sweep_config), rounds=1, iterations=1
    )
    solved = sum(row.solved for row in rows)
    attempted = sum(row.trials for row in rows)
    assert solved >= 0.8 * attempted
    errors = [row.error.mean for row in rows if row.error.count]
    assert max(errors) < 0.15
    benchmark.extra_info["mean_error"] = float(
        sum(errors) / len(errors)
    )


@pytest.mark.benchmark(group="fig5-accuracy")
def test_fig5_variation_trend(benchmark, small_sweep_config):
    """Errors must grow with the variation level at fixed size."""

    def run():
        return run_sweep("feasible", "crossbar", small_sweep_config).rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_size = {}
    for row in rows:
        by_size.setdefault(row.constraints, {})[
            row.variation_percent
        ] = row.error.mean
    grew = sum(
        1
        for cells in by_size.values()
        if cells[max(cells)] > cells[min(cells)]
    )
    assert grew >= len(by_size) / 2
