"""FIG6a / FIG6b: estimated computation latency.

Regenerates Fig. 6: crossbar-solver latency (measured counters priced
with the device model) against the anchored Matlab-linprog and
PDIP-in-Matlab CPU models.  Shape targets from the paper:

- the crossbar solvers win at scale (26x-110x at m = 1024); at the
  scaled-down default grid the CPU's fixed overhead still dominates,
  so the check is that the speedup *grows with problem size*;
- crossbar latency grows roughly linearly in N per iteration (write-
  dominated), vs the CPU's cubic growth.
"""

import pytest

from repro.experiments import render_latency, run_sweep


def _run(solver, config):
    rows = run_sweep("feasible", solver, config).rows
    print()
    print(f"=== Fig. 6 ({solver}) ===")
    print(render_latency(rows))
    return rows


@pytest.mark.benchmark(group="fig6-latency")
def test_fig6a_solver1_latency(benchmark, sweep_config):
    rows = benchmark.pedantic(
        _run, args=("crossbar", sweep_config), rounds=1, iterations=1
    )
    for row in rows:
        if row.latency.count:
            assert row.latency.mean > 0
            assert row.pdip_matlab_s > row.linprog_s
    # Shape check: crossbar latency grows sub-cubically in m (write-
    # dominated ~N per iteration), so extrapolated to the paper's
    # m=1024 anchor it beats the cubic CPU model by a wide margin.
    zero_var = [r for r in rows if r.variation_percent == 0
                and r.latency.count]
    small, large = zero_var[0], zero_var[-1]
    size_ratio = large.constraints / small.constraints
    growth = large.latency.mean / small.latency.mean
    assert growth < size_ratio**2  # far below the CPU's cubic growth
    from repro.costmodel import linprog_latency

    # Linear-in-m extrapolation of the crossbar latency to m=1024.
    extrapolated = large.latency.mean * (1024 / large.constraints)
    assert linprog_latency(1024) / extrapolated > 10.0


@pytest.mark.benchmark(group="fig6-latency")
def test_fig6b_solver2_latency(benchmark, sweep_config):
    rows = benchmark.pedantic(
        _run,
        args=("large_scale", sweep_config),
        rounds=1,
        iterations=1,
    )
    solved = [r for r in rows if r.latency.count]
    assert solved
    for row in solved:
        assert row.latency.mean > 0


@pytest.mark.benchmark(group="fig6-latency")
def test_fig6_solver2_scales_better(benchmark, small_sweep_config):
    """Fig. 6(b) vs 6(a): the split solver's latency grows more slowly
    with problem size (smaller arrays, fewer iterations at scale)."""

    def run():
        s1 = run_sweep("feasible", "crossbar", small_sweep_config).rows
        s2 = run_sweep("feasible", "large_scale", small_sweep_config).rows
        return s1, s2

    s1_rows, s2_rows = benchmark.pedantic(run, rounds=1, iterations=1)
    s1_zero = [r for r in s1_rows if r.variation_percent == 0
               and r.latency.count]
    s2_zero = [r for r in s2_rows if r.variation_percent == 0
               and r.latency.count]
    assert len(s1_zero) >= 2 and len(s2_zero) >= 2
    s1_growth = s1_zero[-1].latency.mean / s1_zero[0].latency.mean
    s2_growth = s2_zero[-1].latency.mean / s2_zero[0].latency.mean
    assert s2_growth <= s1_growth * 1.5
