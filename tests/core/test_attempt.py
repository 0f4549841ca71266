"""Tests for the shared PDIP attempt: its exit rules and its loop.

The state-object tests feed hand-built residual read-outs and iterates
to :class:`AttemptState` directly — no crossbar, no randomness — so
every exit rule is pinned independently of analog noise.
"""

import numpy as np
import pytest

from repro.core import (
    CrossbarPDIPSolver,
    CrossbarSolverSettings,
    FailureReason,
    LargeScaleCrossbarPDIPSolver,
    LinearProgram,
    ScalableSolverSettings,
    SolveStatus,
)
from repro.core.attempt import AttemptState, run_attempt
from repro.crossbar.programming import WriteReport
from repro.exceptions import CrossbarSolveError
from repro.obs import RecordingTracer
from repro.obs.clock import Deadline
from repro.reliability.probe import ProbeReport
from repro.workloads import random_feasible_lp

NO_WRITES = WriteReport(cells_written=0, pulses=0, latency_s=0.0, energy_j=0.0)


@pytest.fixture
def lp():
    """max x1 + x2  s.t.  x1 + x2 <= 4,  x1 <= 3,  x2 <= 3,  x >= 0."""
    return LinearProgram(
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
        b=np.array([4.0, 3.0, 3.0]),
    )


def make_state(lp, **overrides):
    return AttemptState(lp, CrossbarSolverSettings(**overrides))


def set_iterate(state, x, y=None, w=None, z=None):
    m, n = state.problem.A.shape
    state.x = np.asarray(x, dtype=float)
    state.y = np.full(m, 1.0) if y is None else np.asarray(y, dtype=float)
    state.w = np.full(m, 1.0) if w is None else np.asarray(w, dtype=float)
    state.z = np.full(n, 1.0) if z is None else np.asarray(z, dtype=float)


def near_optimal(state):
    """An iterate with a duality gap below the scaled gap tolerance."""
    set_iterate(state, [1.0, 1.0], y=[1e-3] * 3, w=[2.0] * 3, z=[1e-3] * 2)


class TestTolerances:
    def test_scaled_to_problem_data(self, lp):
        state = make_state(lp)
        assert state.eps_primal == pytest.approx(5e-3 * (1 + 4.0))
        assert state.eps_dual == pytest.approx(5e-3 * (1 + 1.0))
        # Anchored at the nominal cold-start gap (n + m) * v^2 = 5.
        assert state.eps_gap == pytest.approx(5e-3 * 5.0)
        assert state.quant_rel == 3.0 * 2.0**-8

    def test_no_converters_no_noise_floor(self, lp):
        state = make_state(lp, dac_bits=None, adc_bits=None)
        assert state.quant_rel == 0.0

    def test_cold_and_warm_start(self, lp):
        cold = make_state(lp, initial_value=2.0)
        assert np.array_equal(cold.x, [2.0, 2.0])
        assert np.array_equal(cold.w, [2.0, 2.0, 2.0])
        warm = AttemptState(
            lp,
            CrossbarSolverSettings(),
            ([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0]),
        )
        # Clamped at the positivity floor.
        assert warm.x[1] == CrossbarSolverSettings().positivity_floor


class TestConvergence:
    def test_converged_is_optimal(self, lp):
        state = make_state(lp)
        near_optimal(state)
        assert not state.check(0.0, 0.0, 0.0, 0.0)
        assert state.done
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.OPTIMAL
        assert result.message == ""
        assert result.failure_reason is FailureReason.NONE

    def test_primal_tolerance_widens_to_noise_floor(self, lp):
        state = make_state(lp)
        near_optimal(state)
        p_inf = 2 * state.eps_primal
        assert state.check(p_inf, 0.0, 0.0, 0.0)
        # quant_rel * peak now exceeds p_inf: the read-out is at the
        # converters' resolution, so the attempt has converged.
        peak = 2 * p_inf / state.quant_rel
        assert not state.check(p_inf, 0.0, peak, 0.0)
        assert state.status is SolveStatus.OPTIMAL

    def test_dual_tolerance_widens_to_noise_floor(self, lp):
        state = make_state(lp)
        near_optimal(state)
        d_inf = 2 * state.eps_dual
        assert state.check(0.0, d_inf, 0.0, 0.0)
        # The primal peak does not widen the dual tolerance.
        assert state.check(0.0, d_inf, 1e9, 0.0)
        assert not state.check(0.0, d_inf, 0.0, 2 * d_inf / state.quant_rel)
        assert state.status is SolveStatus.OPTIMAL

    def test_gap_is_never_widened(self, lp):
        state = make_state(lp)  # flat start: gap 5 > eps_gap
        assert state.check(0.0, 0.0, 1e9, 1e9)
        assert not state.done


class TestStall:
    def stall(self, state, *, current=None):
        """One improving read-out, then identical ones until the stall
        exit fires; ``current`` moves the iterate after the first."""
        assert state.check(1.0, 1.0, 0.0, 0.0)
        best = state.iterate
        if current is not None:
            set_iterate(state, *current)
        for _ in range(state.settings.stall_iterations - 1):
            assert state.check(1.0, 1.0, 0.0, 0.0)
        assert not state.check(1.0, 1.0, 0.0, 0.0)
        assert state.done
        return best

    def test_relaxed_check_passed_is_optimal(self, lp):
        state = make_state(lp, stall_iterations=3)
        best = self.stall(state, current=([2.5, 2.5],))
        assert state.x is best[0]
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.OPTIMAL
        assert result.message == (
            "stalled at analog noise floor; relaxed feasibility check passed"
        )
        assert np.array_equal(result.x, [1.0, 1.0])

    def test_stalled_while_diverging_is_infeasible(self, lp):
        state = make_state(lp, stall_iterations=3)
        huge = 2 * state.collapse_bound
        # The peak is measured on the current iterate, before the
        # attempt falls back to its best one.
        self.stall(state, current=([1.0, 1.0], [huge] * 3))
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.INFEASIBLE
        assert result.message == "stalled while diverging"
        assert result.failure_reason is FailureReason.NONE
        assert np.array_equal(result.y, [1.0, 1.0, 1.0])

    def test_no_feasible_iterate(self, lp):
        state = make_state(lp, stall_iterations=3)
        set_iterate(state, [10.0, 10.0])
        self.stall(state)
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.ITERATION_LIMIT
        assert result.message == "stalled without a feasible iterate"
        assert result.failure_reason is FailureReason.NO_FEASIBLE_ITERATE

    def test_progress_resets_the_counter(self, lp):
        # Residuals large enough that they, not the gap, set the score.
        state = make_state(lp, stall_iterations=2)
        assert state.check(10.0, 10.0, 0.0, 0.0)
        assert state.check(10.0, 10.0, 0.0, 0.0)
        assert state.stall == 1
        assert state.check(5.0, 5.0, 0.0, 0.0)
        assert state.stall == 0
        assert not state.done


class TestFailedSolve:
    def test_collapse_is_infeasible(self, lp):
        state = make_state(lp)
        set_iterate(state, [2 * state.collapse_bound, 1.0])
        state.solve_failed(CrossbarSolveError("matrix is singular"))
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.INFEASIBLE
        assert result.message == (
            "divergence collapsed the mapping: matrix is singular"
        )
        assert result.failure_reason is FailureReason.NONE

    def test_singular_system(self, lp):
        state = make_state(lp)
        state.solve_failed(CrossbarSolveError("matrix is singular"))
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.NUMERICAL_FAILURE
        assert result.message == "matrix is singular"
        assert result.failure_reason is FailureReason.SINGULAR_SYSTEM


class TestStep:
    def test_clamped_step(self, lp):
        state = make_state(lp)
        steps = (
            np.array([1.0, -4.0]),
            np.zeros(3),
            np.zeros(3),
            np.zeros(2),
        )
        state.step(4, 0.5, steps)
        assert np.array_equal(state.x, [1.5, state.settings.positivity_floor])
        assert state.iterations == 5
        assert not state.done

    @pytest.mark.parametrize(
        "diverged, message",
        [("x", "dual_infeasible"), ("y", "primal_infeasible")],
    )
    def test_divergence(self, lp, diverged, message):
        state = make_state(lp)
        steps = {
            "x": np.zeros(2), "y": np.zeros(3),
            "w": np.zeros(3), "z": np.zeros(2),
        }
        steps[diverged] = steps[diverged] + 2 * state.divergence_bound
        state.step(0, 1.0, (steps["x"], steps["y"], steps["w"], steps["z"]))
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.INFEASIBLE
        assert result.message == message
        assert result.iterations == 1

    def test_ratio_test_stops_short_of_the_boundary(self, lp):
        state = make_state(lp)
        steps = (np.array([-2.0, 0.0]), np.zeros(3), np.zeros(3), np.zeros(2))
        # Step 0.5 would zero x1; the damping keeps it interior.
        assert state.ratio_test(steps) == pytest.approx(0.5 * 0.99)


class TestIterationCap:
    def test_best_feasible_iterate_accepted(self, lp):
        state = make_state(lp)
        assert state.check(1.0, 1.0, 0.0, 0.0)
        set_iterate(state, [10.0, 10.0])
        assert state.check(2.0, 2.0, 0.0, 0.0)  # no improvement
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.OPTIMAL
        assert result.message == (
            "iteration limit; accepted best feasible iterate"
        )
        assert np.array_equal(result.x, [1.0, 1.0])

    def test_no_feasible_iterate(self, lp):
        state = make_state(lp)
        set_iterate(state, [10.0, 10.0])
        assert state.check(1.0, 1.0, 0.0, 0.0)
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.ITERATION_LIMIT
        assert result.message == "iteration limit without a feasible iterate"
        assert result.failure_reason is FailureReason.NO_FEASIBLE_ITERATE


class TestClosingRules:
    def test_final_check_failed(self, lp):
        state = make_state(lp)
        set_iterate(state, [10.0, 10.0], y=[1e-3] * 3, w=[2.0] * 3, z=[1e-4] * 2)
        assert not state.check(0.0, 0.0, 0.0, 0.0)
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.NUMERICAL_FAILURE
        assert result.message == "final constraint check A x <= alpha b failed"
        assert result.failure_reason is FailureReason.FINAL_CHECK_FAILED

    @pytest.mark.parametrize(
        "status", [SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE]
    )
    def test_conclusive_status_clears_reason(self, lp, status):
        state = make_state(lp)
        state.finish(status, "verdict", FailureReason.SINGULAR_SYSTEM)
        assert state.result(NO_WRITES, 7).failure_reason is (
            FailureReason.NONE
        )

    def test_inconclusive_status_keeps_reason(self, lp):
        state = make_state(lp)
        state.deadline_exceeded(Deadline(1.0))
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.NUMERICAL_FAILURE
        assert result.failure_reason is FailureReason.DEADLINE_EXCEEDED
        assert result.message == "deadline of 1s exceeded after 0 iterations"

    def test_probe_rejection(self, lp):
        state = make_state(lp)
        state.multiplies += 2
        probe = ProbeReport(
            max_rel_error=0.5, tolerance=0.1, vectors=2, healthy=False
        )
        state.probe_rejected(probe, "array 'm2'")
        result = state.result(NO_WRITES, 7)
        assert result.status is SolveStatus.NUMERICAL_FAILURE
        assert result.failure_reason is FailureReason.PROBE_UNHEALTHY
        assert result.message == (
            "health probe rejected array 'm2': relative error 0.5 "
            "exceeds tolerance 0.1"
        )
        assert not result.x.any() and not result.y.any()
        assert result.crossbar.multiplies == 2
        assert result.iterations == 0

    def test_counters_from_write_report(self, lp):
        state = make_state(lp)
        state.multiplies, state.solves = 3, 2
        writes = WriteReport(
            cells_written=10,
            pulses=12,
            latency_s=1e-6,
            energy_j=2e-9,
            verify_reads=4,
            repulsed_cells=1,
            unverified_cells=1,
        )
        counters = state.result(writes, 9).crossbar
        assert (counters.multiplies, counters.solves) == (3, 2)
        assert (counters.cells_written, counters.write_pulses) == (10, 12)
        assert counters.write_latency_s == 1e-6
        assert counters.write_energy_j == 2e-9
        assert counters.array_size == 9
        assert (
            counters.verify_reads,
            counters.verify_repulsed,
            counters.verify_unverified,
        ) == (4, 1, 1)


class ScriptedArrays:
    """A digital arrays adapter: exact residual norms and a scripted
    direction, so the loop runs without any crossbar."""

    size = 5

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.updates = 0
        self.solves = 0

    def update(self, state):
        self.updates += 1

    def residual(self, state, mu):
        state.multiplies += 1
        problem = state.problem
        p_inf = float(np.max(np.abs(problem.A @ state.x + state.w - problem.b)))
        d_inf = float(np.max(np.abs(problem.A.T @ state.y - state.z - problem.c)))
        return None, p_inf, d_inf, 0.0, 0.0

    def direction(self, state, readout, mu):
        if self.solves == self.fail_at:
            raise CrossbarSolveError("scripted singular solve")
        self.solves += 1
        state.solves += 1
        # Shrink the complementarity products towards zero.
        return -0.5 * state.x, -0.5 * state.y, 0 * state.w, -0.5 * state.z

    def step_length(self, state, steps):
        return 1.0

    def trace_cells(self):
        return self.updates

    def writes(self):
        return NO_WRITES


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        now = self.now
        self.now += 1.0
        return now


class TestRunAttempt:
    def test_failed_solve_stops_the_loop(self, lp):
        state = make_state(lp)
        tracer = RecordingTracer()
        arrays = ScriptedArrays(fail_at=3)
        result = run_attempt(state, arrays, tracer=tracer, trace=True)
        assert result.failure_reason is FailureReason.SINGULAR_SYSTEM
        assert result.iterations == 3
        assert [record.index for record in result.trace] == [0, 1, 2]
        assert [record.cells_written for record in result.trace] == [0, 1, 2]
        assert arrays.updates == 3  # iterations 1, 2 and 3
        assert (result.crossbar.multiplies, result.crossbar.solves) == (4, 3)
        assert tracer.gauges["solver.iterations"] == 3
        names = [event.name for event in tracer.events if hasattr(event, "attrs")]
        assert names[:4] == ["residual", "analog_solve", "step", "iteration"]
        assert names.count("iteration") == 4

    def test_deadline_checked_before_each_iteration(self, lp):
        state = make_state(lp)
        deadline = Deadline(3.0, clock=FakeClock())
        result = run_attempt(state, ScriptedArrays(), deadline=deadline)
        assert result.failure_reason is FailureReason.DEADLINE_EXCEEDED
        assert result.iterations == 2
        assert result.message == "deadline of 3s exceeded after 2 iterations"

    def test_done_state_runs_no_iteration(self, lp):
        state = make_state(lp)
        state.probe_rejected(
            ProbeReport(max_rel_error=1.0, tolerance=0.1, vectors=1, healthy=False),
            "array",
        )
        tracer = RecordingTracer()
        arrays = ScriptedArrays()
        result = run_attempt(
            state, arrays, tracer=tracer, deadline=Deadline(1.0, clock=FakeClock())
        )
        assert result.failure_reason is FailureReason.PROBE_UNHEALTHY
        assert arrays.solves == 0
        assert [event.name for event in tracer.events] == ["solver.iterations"]


@pytest.mark.parametrize(
    "solver_cls, settings",
    [
        (CrossbarPDIPSolver, CrossbarSolverSettings()),
        (LargeScaleCrossbarPDIPSolver, ScalableSolverSettings()),
    ],
    ids=["solver1", "solver2"],
)
def test_in_solver_deadline(solver_cls, settings):
    """A 10 s budget on a clock advancing 1 s per reading: the ladder
    reads it once before rung 0 and the loop once per iteration, so
    the eighth iteration is the last to start (both solvers need more
    than eight on this LP)."""
    solver = solver_cls(
        random_feasible_lp(24, rng=np.random.default_rng(12345)),
        settings,
        rng=np.random.default_rng(3),
        deadline=Deadline(10.0, clock=FakeClock()),
    )
    result = solver.solve()
    assert result.status is SolveStatus.NUMERICAL_FAILURE
    assert result.failure_reason is FailureReason.DEADLINE_EXCEEDED
    assert result.iterations == 8
    first = result.attempts[0]
    assert first.failure_reason is FailureReason.DEADLINE_EXCEEDED
    assert first.iterations == 8
    assert first.message == "deadline of 10s exceeded after 8 iterations"
