"""Property tests for the differential (hot-path) update machinery.

The incremental paths must be *exact* rewrites of the from-scratch
paths — not approximately equal, bitwise equal — or the O(N)
optimization would silently change solver trajectories:

- :class:`~repro.core.newton.NewtonSystem` (in-place M/r assembly)
  versus :func:`~repro.core.newton.newton_matrix` /
  :func:`~repro.core.newton.newton_rhs`;
- :meth:`~repro.core.newton.AugmentedNewtonSystem.diagonal_update`
  applied to the initial matrix versus a full ``build_matrix``;
- differential cell programming (``skip_unchanged=True``) versus a
  full-grid reprogram;
- the dirty-column sum cache versus a fresh full-axis sum, including
  the diagonal read a diagonal array takes instead of the sums.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.newton import (
    AugmentedNewtonSystem,
    NewtonSystem,
    newton_matrix,
    newton_rhs,
)
from repro.crossbar.array import CrossbarArray, canonical_colsums
from repro.devices import YAKOPCIC_NAECON14
from repro.workloads import random_feasible_lp


def iterates(rng, n, m, count):
    """Random positive PDIP-like states (x, y, w, z)."""
    for _ in range(count):
        yield (
            rng.uniform(1e-6, 50.0, n),
            rng.uniform(1e-6, 50.0, m),
            rng.uniform(1e-6, 50.0, m),
            rng.uniform(1e-6, 50.0, n),
        )


class TestNewtonSystemIdentity:
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(4, 24))
    @settings(max_examples=40, deadline=None)
    def test_matrix_and_rhs_bitwise_match_from_scratch(self, seed, m):
        rng = np.random.default_rng(seed)
        problem = random_feasible_lp(m, rng=rng)
        n = problem.A.shape[1]
        system = NewtonSystem(problem)
        for x, y, w, z in iterates(rng, n, m, 4):
            mu = float(rng.uniform(1e-8, 10.0))
            assert np.array_equal(
                system.matrix(x, y, w, z),
                newton_matrix(problem, x, y, w, z),
            )
            assert np.array_equal(
                system.rhs(x, y, w, z, mu),
                newton_rhs(problem, x, y, w, z, mu),
            )

    def test_copy_detaches_from_workspace(self, rng):
        problem = random_feasible_lp(6, rng=rng)
        n, m = problem.A.shape[1], problem.A.shape[0]
        system = NewtonSystem(problem)
        (state,) = list(iterates(rng, n, m, 1))
        frozen = system.matrix(*state, copy=True)
        (other,) = list(iterates(rng, n, m, 1))
        system.matrix(*other)
        assert np.array_equal(frozen, newton_matrix(problem, *state))


class TestAugmentedDiagonalUpdateIdentity:
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(4, 18))
    @settings(max_examples=25, deadline=None)
    def test_diagonal_update_reaches_full_rebuild(self, seed, m):
        rng = np.random.default_rng(seed)
        problem = random_feasible_lp(m, rng=rng)
        n = problem.A.shape[1]
        system = AugmentedNewtonSystem(problem)
        x0 = np.full(n, 1.0)
        y0 = np.full(m, 1.0)
        matrix = system.build_matrix(x0, y0, y0.copy(), x0.copy())
        for x, y, w, z in iterates(rng, n, m, 3):
            rows, cols, values = system.diagonal_update(x, y, w, z)
            matrix[rows, cols] = values
            assert np.array_equal(
                matrix, system.build_matrix(x, y, w, z)
            )


class TestDifferentialProgrammingIdentity:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_diff_program_matches_full_reprogram(self, seed):
        rng = np.random.default_rng(seed)
        params = YAKOPCIC_NAECON14
        size = int(rng.integers(4, 16))
        lo, hi = params.g_off, params.g_on
        initial = rng.uniform(lo, hi, (size, size))
        final = initial.copy()
        # Move a random subset of cells; leave the rest untouched.
        moved = rng.random((size, size)) < 0.3
        final[moved] = rng.uniform(lo, hi, int(moved.sum()))

        diffed = CrossbarArray(size, size, params=params)
        diffed.program(initial)
        rows, cols = np.meshgrid(
            np.arange(size), np.arange(size), indexing="ij"
        )
        before = diffed.total_write_report.cells_written
        diffed.program_cells(
            rows.ravel(), cols.ravel(), final.ravel(), skip_unchanged=True
        )
        written = diffed.total_write_report.cells_written - before

        full = CrossbarArray(size, size, params=params)
        full.program(final)
        assert np.array_equal(
            diffed.nominal_conductances, full.nominal_conductances
        )
        # Without variation the physical state equals the target too.
        assert np.array_equal(
            diffed.actual_conductances, full.actual_conductances
        )
        # The skipped cells were never written.
        assert written <= int(moved.sum())

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_colsum_cache_bitwise_matches_full_sum(self, seed):
        # The cache (refreshed per dirty column) must stay bitwise
        # equal to the uncached canonical reduction over the full grid.
        rng = np.random.default_rng(seed)
        params = YAKOPCIC_NAECON14
        size = int(rng.integers(4, 16))
        array = CrossbarArray(size, size, params=params)
        array.program(rng.uniform(params.g_off, params.g_on, (size, size)))
        for _ in range(4):
            count = int(rng.integers(1, size))
            r = rng.integers(0, size, count)
            c = rng.integers(0, size, count)
            array.program_cells(
                r, c, rng.uniform(params.g_off, params.g_on, count)
            )
            expected = array.g_sense + canonical_colsums(
                array.nominal_conductances
            )
            assert np.array_equal(array.nominal_denominators(), expected)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_diagonal_denominators_match_canonical_colsums(self, seed):
        # A diagonal array reads g_s + its diagonal instead of reducing
        # columns; that must be bitwise the canonical reduction.
        rng = np.random.default_rng(seed)
        params = YAKOPCIC_NAECON14
        size = int(rng.integers(2, 40))
        array = CrossbarArray(size, size, params=params)
        diagonal = rng.uniform(params.g_off, params.g_on, size)
        diagonal[rng.random(size) < 0.2] = 0.0
        array.program(np.diag(diagonal))
        for _ in range(4):
            cells = rng.integers(0, size, int(rng.integers(1, size + 1)))
            targets = rng.uniform(params.g_off, params.g_on, cells.size)
            targets[rng.random(cells.size) < 0.2] = 0.0
            array.program_cells(cells, cells, targets)
            assert array._stack._diagonal[0]
            expected = array.g_sense + canonical_colsums(
                array.nominal_conductances
            )
            assert array.nominal_denominators().tobytes() == expected.tobytes()
