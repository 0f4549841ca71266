"""Presolve pipeline exactness: reduce -> solve -> postsolve round trips.

The contract under test (see ``repro.presolve.pipeline``):

- reductions never change the optimum — solving the reduced problem
  and postsolving matches a direct solve of the original within solver
  tolerance;
- eliminated variables come back as exactly ``0.0`` (not merely small);
- equilibration scales are exact powers of two, so un-scaling is a
  float exponent shift, never a rounding multiply;
- terminal verdicts (SOLVED / INFEASIBLE / UNBOUNDED) carry
  certificates and map onto the solver family's result vocabulary with
  ``FailureReason.INFEASIBLE_PRESOLVE`` provenance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import solve_scipy
from repro.core.problem import LinearProgram
from repro.core.result import FailureReason, SolveStatus
from repro.crossbar import dynamic_range_report
from repro.devices import YAKOPCIC_NAECON14
from repro.presolve import (
    PresolveStatus,
    coefficient_decades,
    detect_infeasible,
    pipeline,
    presolve,
)
from repro.workloads import random_feasible_lp, random_infeasible_lp

OBJECTIVE_RTOL = 1e-6


def planted_reduction_lp(seed: int) -> LinearProgram:
    """A feasible LP with one instance of every reduction planted.

    Starts from a random feasible core and appends, in original
    coordinates the postsolve must restore:

    - a proportional duplicate of row 0 with a looser bound;
    - an empty row with a non-negative right-hand side;
    - a redundant singleton row (``-x_0 <= 1``);
    - a forcing singleton row pinning a fresh column at zero;
    - an empty column with a non-positive objective coefficient;
    - a bit-identical duplicate of column 0 with a smaller reward.
    """
    rng = np.random.default_rng(seed)
    core = random_feasible_lp(8, rng=rng)
    m, n = core.A.shape
    A = np.zeros((m + 4, n + 3))
    A[:m, :n] = core.A
    b = np.concatenate([core.b, np.zeros(4)])
    c = np.concatenate([core.c, np.zeros(3)])
    # Proportional duplicate of row 0, looser by one unit.
    A[m, :n] = 2.0 * core.A[0]
    b[m] = 2.0 * core.b[0] + 1.0
    # Empty row, b >= 0: vacuous.
    b[m + 1] = 0.5
    # Redundant singleton: -x_0 <= 1 is implied by x_0 >= 0.
    A[m + 2, 0] = -1.0
    b[m + 2] = 1.0
    # Forcing singleton: x_n <= 0 pins the fresh column at zero even
    # though its reward is positive.
    A[m + 3, n] = 1.0
    b[m + 3] = 0.0
    c[n] = 3.0
    # Empty column with no reward: fixed at zero.
    c[n + 1] = -2.0
    # Bit-identical duplicate of column 0 with a smaller coefficient.
    A[: m + 4, n + 2] = A[: m + 4, 0]
    c[n + 2] = core.c[0] - 1.0
    return LinearProgram(c=c, A=A, b=b, name=f"planted-{seed}")


class TestRoundTrip:
    def test_planted_reductions_all_fire(self):
        presolved = presolve(planted_reduction_lp(3))
        report = presolved.report
        assert report.status is PresolveStatus.REDUCED
        assert report.duplicate_rows >= 1
        assert report.empty_rows >= 1
        assert report.redundant_rows >= 1
        assert report.forced_cols >= 1
        assert report.empty_cols >= 1
        assert report.duplicate_cols >= 1
        assert report.rows_after < report.rows_before
        assert report.cols_after < report.cols_before
        # The one-line summary carries the shape transition.
        assert f"{report.rows_before}x{report.cols_before}" in report.summary()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("scaling", ["ruiz", "geometric", "none"])
    def test_postsolve_matches_direct_solve(self, seed, scaling):
        problem = planted_reduction_lp(seed)
        direct = solve_scipy(problem)
        assert direct.is_optimal
        presolved = presolve(problem, scaling=scaling)
        reduced = solve_scipy(presolved.problem)
        assert reduced.is_optimal
        restored = presolved.postsolve(reduced)
        assert restored.objective == pytest.approx(
            direct.objective, rel=OBJECTIVE_RTOL
        )
        # The restored point is primal feasible on the original.
        slack = problem.b - problem.A @ restored.x
        assert np.all(restored.x >= -1e-9)
        assert np.all(slack >= -1e-7)
        np.testing.assert_allclose(restored.w, slack, atol=1e-7)

    @pytest.mark.parametrize("scaling", ["ruiz", "geometric"])
    def test_eliminated_variables_exactly_zero(self, scaling):
        problem = planted_reduction_lp(7)
        presolved = presolve(problem, scaling=scaling)
        restored = presolved.postsolve(solve_scipy(presolved.problem))
        n = problem.A.shape[1]
        dropped = sorted(set(range(n)) - set(presolved.col_index.tolist()))
        assert dropped, "the planted LP must lose at least one column"
        for j in dropped:
            assert restored.x[j] == 0.0  # exact, not approx

    def test_postsolve_rejects_wrong_shape(self):
        presolved = presolve(planted_reduction_lp(0))
        good = solve_scipy(presolved.problem)
        import dataclasses

        bad = dataclasses.replace(good, x=np.zeros(good.x.shape[0] + 1))
        with pytest.raises(ValueError, match="variables"):
            presolved.postsolve(bad)

    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(4, 16))
    @settings(max_examples=25, deadline=None)
    def test_random_lp_round_trip_property(self, seed, m):
        rng = np.random.default_rng(seed)
        problem = random_feasible_lp(m, rng=rng)
        direct = solve_scipy(problem)
        if not direct.is_optimal:  # pragma: no cover - generator rarely fails
            return
        presolved = presolve(problem)
        if presolved.report.status is not PresolveStatus.REDUCED:
            return
        reduced = solve_scipy(presolved.problem)
        if not reduced.is_optimal:  # pragma: no cover
            return
        restored = presolved.postsolve(reduced)
        assert restored.objective == pytest.approx(
            direct.objective, rel=1e-5, abs=1e-7
        )


class TestTerminalVerdicts:
    def test_reduced_to_empty_is_solved_at_zero(self):
        problem = LinearProgram(
            c=-np.ones(5), A=np.eye(5), b=np.zeros(5), name="all-pinned"
        )
        presolved = presolve(problem)
        assert presolved.report.status is PresolveStatus.SOLVED
        assert presolved.problem is None
        result = presolved.solution()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == 0.0
        assert result.iterations == 0
        assert np.array_equal(result.x, np.zeros(5))
        with pytest.raises(ValueError, match="solution"):
            presolved.postsolve(result)

    def test_empty_row_infeasibility_certificate(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        problem = LinearProgram(
            c=np.ones(2), A=A, b=np.array([4.0, -1.0]), name="bad-row"
        )
        presolved = presolve(problem)
        assert presolved.report.status is PresolveStatus.INFEASIBLE
        assert "b[1]" in presolved.report.detail
        result = presolved.solution()
        assert result.status is SolveStatus.INFEASIBLE
        assert result.failure_reason is FailureReason.INFEASIBLE_PRESOLVE
        assert result.iterations == 0
        assert detect_infeasible(problem) == presolved.report.detail

    def test_planted_infeasible_generator_is_detected(self):
        rng = np.random.default_rng(5)
        problem = random_infeasible_lp(12, rng=rng)
        certificate = detect_infeasible(problem)
        assert certificate is not None
        assert presolve(problem).report.status is PresolveStatus.INFEASIBLE

    def test_feasible_lp_yields_no_certificate(self):
        rng = np.random.default_rng(5)
        assert detect_infeasible(random_feasible_lp(12, rng=rng)) is None

    def test_empty_column_unboundedness_certificate(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        problem = LinearProgram(
            c=np.array([1.0, 1.0]), A=A, b=np.array([3.0, 8.0]), name="free"
        )
        presolved = presolve(problem)
        assert presolved.report.status is PresolveStatus.UNBOUNDED
        assert "unbounded" in presolved.report.detail
        result = presolved.solution()
        # The solver family folds unbounded into INFEASIBLE; the report
        # keeps the precise distinction and the reason records the
        # certificate's provenance.
        assert result.status is SolveStatus.INFEASIBLE
        assert result.failure_reason is FailureReason.INFEASIBLE_PRESOLVE
        # Unboundedness is not primal infeasibility, so the admission
        # screen must NOT reject the instance.
        assert detect_infeasible(problem) is None

    def test_solution_refuses_reduced_status(self):
        presolved = presolve(planted_reduction_lp(1))
        with pytest.raises(ValueError, match="postsolve"):
            presolved.solution()


def badly_scaled_lp(seed: int = 0) -> LinearProgram:
    """A feasible LP whose coefficients span ~6 decades."""
    rng = np.random.default_rng(seed)
    base = random_feasible_lp(6, rng=rng)
    scale_r = 10.0 ** rng.integers(-3, 4, base.A.shape[0])
    scale_c = 10.0 ** rng.integers(-3, 4, base.A.shape[1])
    return LinearProgram(
        c=base.c * scale_c,
        A=base.A * scale_r[:, None] * scale_c[None, :],
        b=base.b * scale_r,
        name="badly-scaled",
    )


class TestScaling:
    @pytest.mark.parametrize("scaling", ["ruiz", "geometric"])
    def test_scales_are_exact_powers_of_two(self, scaling):
        presolved = presolve(badly_scaled_lp(), scaling=scaling)
        for scale in (presolved.row_scale, presolved.col_scale):
            assert np.all(scale > 0.0)
            assert np.array_equal(np.exp2(np.round(np.log2(scale))), scale)

    def test_ruiz_reduces_decades(self):
        problem = badly_scaled_lp()
        before = coefficient_decades(problem.A)
        presolved = presolve(problem, scaling="ruiz")
        report = presolved.report
        assert report.decades_before == pytest.approx(before)
        assert report.decades_after < report.decades_before

    def test_scaled_round_trip_objective(self):
        problem = badly_scaled_lp(2)
        direct = solve_scipy(problem)
        presolved = presolve(problem, scaling="ruiz")
        restored = presolved.postsolve(solve_scipy(presolved.problem))
        assert restored.objective == pytest.approx(
            direct.objective, rel=OBJECTIVE_RTOL
        )

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ValueError, match="scaling"):
            presolve(badly_scaled_lp(), scaling="frobnicate")

    def test_dynamic_range_report_improves_after_equilibration(self):
        problem = badly_scaled_lp()
        raw = dynamic_range_report(problem.A, YAKOPCIC_NAECON14)
        presolved = presolve(problem, scaling="ruiz")
        scaled = dynamic_range_report(
            presolved.problem.A, YAKOPCIC_NAECON14
        )
        assert scaled.decades_spanned < raw.decades_spanned
        assert scaled.floored_fraction <= raw.floored_fraction
        assert raw.decades_representable == scaled.decades_representable
        payload = scaled.to_dict()
        assert set(payload) == {
            "decades_spanned",
            "decades_representable",
            "floored_fraction",
            "fits",
        }


class TestReportSerialization:
    def test_report_and_recipe_to_dict(self):
        presolved = presolve(planted_reduction_lp(4))
        payload = presolved.to_dict()
        assert payload["report"]["status"] == "reduced"
        assert payload["report"]["rows_before"] == presolved.report.rows_before
        assert len(payload["row_index"]) == presolved.report.rows_after
        assert len(payload["col_index"]) == presolved.report.cols_after
        assert all(isinstance(v, float) for v in payload["row_scale"])

    def test_determinism(self):
        problem = planted_reduction_lp(9)
        first = presolve(problem)
        second = presolve(problem)
        assert first.report == second.report
        assert np.array_equal(first.problem.A, second.problem.A)
        assert np.array_equal(first.row_scale, second.row_scale)
        assert np.array_equal(first.col_scale, second.col_scale)


def pairwise_collapse(A, b, row_alive, col_alive, counts):
    """The proportional-row rule as a row-by-row pair scan: the
    reference the vectorized rule must match bit for bit."""
    rows = np.flatnonzero(row_alive)
    cols = np.flatnonzero(col_alive)
    if rows.size < 2 or cols.size == 0:
        return False, None
    sub = A[np.ix_(rows, cols)]
    changed = False
    used = np.zeros(rows.size, dtype=bool)
    for p in range(rows.size):
        if used[p]:
            continue
        rep = sub[p]
        pivot = int(np.argmax(np.abs(rep)))
        peak = abs(rep[pivot])
        if peak == 0.0:
            continue
        members = [p]
        factors = [1.0]
        for q in range(p + 1, rows.size):
            if used[q]:
                continue
            factor = sub[q, pivot] / rep[pivot]
            if factor == 0.0:
                continue
            budget = pipeline._PROPORTIONAL_RTOL * peak * max(1.0, abs(factor))
            if np.max(np.abs(sub[q] - factor * rep)) <= budget:
                members.append(q)
                factors.append(factor)
        if len(members) == 1:
            continue
        used[members] = True
        uppers = [
            (b[rows[g]] / t, g) for g, t in zip(members, factors) if t > 0.0
        ]
        lowers = [
            (b[rows[g]] / t, g) for g, t in zip(members, factors) if t < 0.0
        ]
        keep = set()
        upper = lower = None
        if uppers:
            upper = min(uppers, key=lambda v: (v[0], rows[v[1]]))
            keep.add(upper[1])
        if lowers:
            lower = max(lowers, key=lambda v: (v[0], -rows[v[1]]))
            keep.add(lower[1])
        if upper is not None and lower is not None and lower[0] > upper[0]:
            return changed, (
                f"rows {rows[lower[1]]} and {rows[upper[1]]} are "
                f"proportional with an empty bound interval "
                f"({lower[0]:.6g} > {upper[0]:.6g})"
            )
        for g in members:
            if g not in keep:
                row_alive[rows[g]] = False
                counts.duplicate_rows += 1
                changed = True
    return changed, None


#: Planted factors: both signs, extreme magnitudes, and powers of two
#: (whose multiples are exact, so a budget-sized offset on a zero entry
#: lands exactly on the tolerance edge).
FACTORS = st.one_of(
    st.sampled_from([1.0, -1.0, -0.5, 1e9, -1e9, 1e-9, -1e-9]),
    st.builds(
        lambda sign, power: sign * 2.0**power,
        st.sampled_from([1.0, -1.0]),
        st.integers(-30, 30),
    ),
    st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: abs(v) > 1e-12),
)
#: How a planted row departs from an exact multiple, as a multiple of
#: the rule's tolerance budget: 0 (exact), inside, on the edge, just
#: outside, and far outside.
OFFSETS = st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e6])


@st.composite
def proportional_families(draw):
    """``(A, b, row_alive, col_alive)`` with planted proportional rows.

    A few random base rows (some entries zero), then rows that are
    multiples of them, some pushed off by a multiple of the tolerance
    budget (on a zero entry when there is one), shuffled, with random
    dead rows and columns.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    base = rng.uniform(-2.0, 2.0, (draw(st.integers(1, 5)), n))
    base[rng.random(base.shape) < 0.3] = 0.0
    rows = list(base)
    plants = draw(
        st.lists(
            st.tuples(st.integers(0, len(base) - 1), FACTORS, OFFSETS),
            max_size=10,
        )
    )
    for source, factor, offset in plants:
        row = factor * base[source]
        peak = np.max(np.abs(base[source]))
        budget = pipeline._PROPORTIONAL_RTOL * peak * max(1.0, abs(factor))
        zeros = np.flatnonzero(row == 0.0)
        row[zeros[0] if zeros.size else rng.integers(n)] += offset * budget
        rows.append(row)
    A = np.array(rows)[rng.permutation(len(rows))]
    b = rng.uniform(-3.0, 3.0, len(rows))
    row_alive = rng.random(len(rows)) < 0.9
    col_alive = rng.random(n) < 0.9
    return A, b, row_alive, col_alive


class TestProportionalRowsVectorized:
    @given(proportional_families())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_scan(self, case):
        A, b, row_alive, col_alive = case

        def run(rule):
            alive = row_alive.copy()
            counts = pipeline._Counts()
            changed, certificate = rule(A, b, alive, col_alive.copy(), counts)
            return alive.tolist(), counts.duplicate_rows, changed, certificate

        assert run(pipeline._collapse_proportional_rows) == run(
            pairwise_collapse
        )

    @given(proportional_families())
    @settings(max_examples=100, deadline=None)
    def test_presolve_identical_to_pairwise_scan(self, case):
        A, b, _, _ = case
        problem = LinearProgram(c=np.linspace(-1.0, 1.0, A.shape[1]), A=A, b=b)
        vectorized = presolve(problem)
        with mock.patch.object(
            pipeline, "_collapse_proportional_rows", pairwise_collapse
        ):
            reference = presolve(problem)
        assert vectorized.to_dict() == reference.to_dict()
        if reference.problem is not None:
            assert vectorized.problem.A.tobytes() == reference.problem.A.tobytes()


def fixpoint_detect_infeasible(problem):
    """``detect_infeasible`` with no structure screen: the reduction
    fixpoint on every call.  The oracle the screened one must equal."""
    reduced = presolve(problem, scaling="none")
    if reduced.report.status is PresolveStatus.INFEASIBLE:
        return reduced.report.detail
    return None


#: Structures a reduction rule may act on.
PLANTS = (
    "empty_row",
    "singleton_row",
    "proportional_row",
    "empty_col",
    "duplicate_col",
)


@st.composite
def planted_structures(draw):
    """An LP with random ``b`` and ``c`` over a random core (some entries
    zero) with up to three :data:`PLANTS` added, then shuffled.

    Singleton rows get coefficients of both signs; proportional rows
    take :data:`FACTORS` and are pushed off an exact multiple by
    :data:`OFFSETS` of the rule's budget (on a zero entry when there is
    one); ``b`` and ``c`` entries are negative, zero or positive.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 8)), draw(st.integers(2, 6)))
    A = rng.uniform(-2.0, 2.0, shape)
    A[rng.random(shape) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    for kind in draw(st.lists(st.sampled_from(PLANTS), max_size=3)):
        m, n = A.shape
        if kind in ("empty_row", "singleton_row"):
            row = np.zeros(n)
            if kind == "singleton_row":
                sign = draw(st.sampled_from([1.0, -1.0]))
                row[rng.integers(n)] = sign * rng.uniform(0.5, 2.0)
            A = np.vstack([A, row])
        elif kind == "proportional_row":
            source, factor = A[rng.integers(m)], draw(FACTORS)
            row = factor * source
            budget = (
                pipeline._PROPORTIONAL_RTOL
                * np.max(np.abs(source))
                * max(1.0, abs(factor))
            )
            zeros = np.flatnonzero(row == 0.0)
            spot = zeros[0] if zeros.size else rng.integers(n)
            row[spot] += draw(OFFSETS) * budget
            A = np.vstack([A, row])
        elif kind == "empty_col":
            A = np.hstack([A, np.zeros((m, 1))])
        else:
            A = np.hstack([A, A[:, [rng.integers(n)]]])
    A = A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]

    def signed(size):
        return rng.choice([-1.0, 0.0, 1.0], size) * rng.uniform(0.5, 3.0, size)

    return LinearProgram(c=signed(A.shape[1]), A=A, b=signed(A.shape[0]))


def pairwise_hit(A):
    """Whether the pairwise scan groups any two rows of ``A``: the
    reference for the screen's all-pairs test."""
    for p, rep in enumerate(A):
        pivot = int(np.argmax(np.abs(rep)))
        peak = abs(rep[pivot])
        for q in range(p + 1, A.shape[0]):
            factor = A[q, pivot] / rep[pivot]
            if factor == 0.0:
                continue
            budget = pipeline._PROPORTIONAL_RTOL * peak * max(1.0, abs(factor))
            if np.max(np.abs(A[q] - factor * rep)) <= budget:
                return True
    return False


class TestStructureScreen:
    @given(planted_structures(), st.sampled_from([1, 5, 1 << 18]))
    @settings(max_examples=400, deadline=None)
    def test_screen_is_exact(self, problem, block_cells):
        with mock.patch.object(pipeline, "_SCREEN_CELLS", block_cells):
            verdict = detect_infeasible(problem)
            reducible = pipeline._reducible(problem.A)
        assert verdict == fixpoint_detect_infeasible(problem)
        if not reducible:
            report = presolve(problem, scaling="none").report
            assert report.status is PresolveStatus.REDUCED
            assert (report.rows_eliminated, report.cols_eliminated) == (0, 0)
            assert report.passes == 1

    @given(proportional_families())
    @settings(max_examples=300, deadline=None)
    def test_pair_screen_matches_pairwise_scan(self, case):
        A = case[0]
        A = A[(A != 0.0).sum(axis=1) >= 2]  # the screen's precondition
        assert pipeline._proportional_pair(A) == pairwise_hit(A)

    def test_fixtures_agree_with_fixpoint(self):
        rng = np.random.default_rng(11)
        problems = [planted_reduction_lp(seed) for seed in range(4)] + [
            badly_scaled_lp(),
            random_feasible_lp(12, rng=rng),
            random_infeasible_lp(12, rng=rng),
        ]
        for problem in problems:
            assert detect_infeasible(problem) == fixpoint_detect_infeasible(
                problem
            )
        assert pipeline._reducible(problems[0].A)
        assert not pipeline._reducible(problems[5].A)
        assert pipeline._reducible(problems[6].A)

    def test_irreducible_structure_skips_the_fixpoint(self):
        problem = random_feasible_lp(12, rng=np.random.default_rng(3))
        with mock.patch.object(pipeline, "presolve") as fixpoint:
            assert detect_infeasible(problem) is None
        fixpoint.assert_not_called()

    @pytest.mark.parametrize("factor", [-1.0, -0.5, -4.0])
    @pytest.mark.parametrize(
        "offset, grouped", [(0.999, True), (1.0, True), (1.001, False)]
    )
    def test_budget_edge_matches_the_rule(self, factor, offset, grouped):
        # An exact multiple pushed off by ``offset`` budgets on its zero
        # cell, with bounds that contradict once the pair is grouped:
        # the residual equals the budget bit for bit at offset 1.0.
        source = np.array([2.0, 0.0, -1.5, 0.75])
        row = factor * source
        row[1] += (
            pipeline._PROPORTIONAL_RTOL * 2.0 * max(1.0, abs(factor))
        ) * offset
        A = np.vstack([source, row, [1.0, 3.0, 0.5, -2.0]])
        problem = LinearProgram(
            c=np.ones(4), A=A, b=np.array([1.0, 2.0 * factor, 5.0])
        )
        assert pipeline._reducible(A) is grouped
        assert (detect_infeasible(problem) is not None) is grouped
        assert detect_infeasible(problem) == fixpoint_detect_infeasible(problem)

    @pytest.mark.parametrize("kind", PLANTS)
    def test_each_plant_is_flagged_and_reduced(self, kind):
        # One benign plant on an irreducible core: the screen must hand
        # it to the fixpoint, which then eliminates it.
        core = random_feasible_lp(12, rng=np.random.default_rng(3))
        A, b, c = core.A, core.b, core.c
        m, n = A.shape
        if kind == "empty_row":
            A, b = np.vstack([A, np.zeros(n)]), np.append(b, 1.0)
        elif kind == "singleton_row":
            row = np.zeros(n)
            row[0] = -1.0  # x_0 >= 0: redundant
            A, b = np.vstack([A, row]), np.append(b, 0.0)
        elif kind == "proportional_row":
            A, b = np.vstack([A, 2.0 * A[0]]), np.append(b, 2.0 * b[0] + 1.0)
        elif kind == "empty_col":
            A, c = np.hstack([A, np.zeros((m, 1))]), np.append(c, -1.0)
        else:
            A, c = np.hstack([A, A[:, [0]]]), np.append(c, c[0])
        assert not pipeline._reducible(core.A)
        assert pipeline._reducible(A)
        report = presolve(LinearProgram(c=c, A=A, b=b), scaling="none").report
        assert report.rows_eliminated + report.cols_eliminated == 1
