"""One PDIP attempt: the exit rules and iteration loop both solvers share.

Algorithms 1 and 2 run the same iteration — an O(N) rewrite of the
per-iteration cells (Section 3.5), an analog multiply for the residual,
an analog Newton solve, a step, and the Section 3.2 ``A x <= alpha b``
check.  They differ only in how the Newton system is split across
arrays (Eqns. 16–17) and in the step rule (Section 3.4).  This module
holds what they share:

- :class:`AttemptState` owns one attempt's bookkeeping (scaled
  tolerances, converter noise floor, best iterate, stall counter,
  multiply and solve counts), applies every exit rule, and builds the
  :class:`~repro.core.result.SolverResult`;
- :func:`run_attempt` is the serial loop.  It runs the span skeleton
  ``iteration`` → ``newton_assembly``/``program`` → ``residual`` →
  ``analog_solve`` → ``step`` over an *arrays adapter*, the
  solver-specific half of an iteration:

  ``update(state)``
      rewrite the per-iteration cells for ``state``'s iterate (from the
      second iteration on), inside ``newton_assembly`` / ``program``
      spans of its own;
  ``residual(state, mu)``
      one analog read-out, returning ``(readout, p_inf, d_inf, peak_p,
      peak_d)``: what ``direction`` needs, the primal and dual
      infeasibility norms, and the peaks of the primal and dual product
      blocks the converter noise floor scales with;
  ``direction(state, readout, mu)``
      the analog Newton solve(s), returning ``(dx, dy, dw, dz)``;
      raises :class:`~repro.exceptions.CrossbarSolveError` on a
      singular array;
  ``step_length(state, steps)``
      the step length θ;
  ``trace_cells()`` / ``writes()`` / ``size``
      the cumulative cell counter an :class:`IterationRecord` reports,
      this attempt's write report, and the ``array_size`` counter.

  Adapters count their own multiplies and solves on the state.

The lockstep batch (:mod:`repro.core.batch_solver`) keeps one
:class:`AttemptState` per fleet member, so serial and batched runs
classify every exit through the same code.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.feasibility import (
    DivergenceKind,
    collapse_threshold,
    detect_divergence,
    scaled_big_m,
)
from repro.core.problem import LinearProgram
from repro.core.residuals import centering_mu, converged, duality_gap
from repro.core.result import (
    CrossbarCounters,
    FailureReason,
    IterationRecord,
    SolverResult,
    SolveStatus,
)
from repro.core.settings import CrossbarSolverSettings
from repro.core.stepsize import ratio_test_theta
from repro.core.warmstart import validated_state
from repro.exceptions import CrossbarSolveError
from repro.obs.clock import Deadline, Stopwatch
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.probe import ProbeReport
from repro.reliability.recovery import AttemptFn, solve_with_recovery

_CONCLUSIVE = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


class AttemptState:
    """One attempt's iterate, counts and exit rules.

    Parameters
    ----------
    problem, settings:
        The LP and the solver configuration.
    initial_state:
        Optional ``(x, y, w, z)`` warm start (validated and clamped by
        :func:`repro.core.warmstart.validated_state`); defaults to the
        flat ``settings.initial_value`` cold start.

    Every exit sets :attr:`done`; :meth:`result` then applies the
    closing rules (iteration cap, final ``A x <= alpha b`` check).
    """

    def __init__(
        self,
        problem: LinearProgram,
        settings: CrossbarSolverSettings,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> None:
        m, n = problem.A.shape
        if initial_state is not None:
            state = validated_state(initial_state, m, n, settings)
        else:
            value = settings.initial_value
            state = (
                np.full(n, value),
                np.full(m, value),
                np.full(m, value),
                np.full(n, value),
            )
        self.problem = problem
        self.settings = settings
        self.x, self.y, self.w, self.z = state
        self.eps_primal = settings.eps_primal * (
            1.0 + float(np.max(np.abs(problem.b), initial=0.0))
        )
        self.eps_dual = settings.eps_dual * (
            1.0 + float(np.max(np.abs(problem.c), initial=0.0))
        )
        # Gap tolerance is anchored at the *nominal* cold-start gap
        # ((n+m) * initial_value^2) so a warm start near the optimum is
        # judged by the same absolute threshold as a cold solve — not
        # by its own (tiny) initial gap, which would demand a far
        # tighter answer from exactly the runs meant to finish fast.
        gap0 = (n + m) * settings.initial_value**2
        self.eps_gap = settings.eps_gap * max(1.0, gap0)
        converter_bits = [
            bits
            for bits in (settings.dac_bits, settings.adc_bits)
            if bits is not None
        ]
        self.quant_rel = (
            3.0 * 2.0 ** -min(converter_bits) if converter_bits else 0.0
        )
        self.divergence_bound = scaled_big_m(problem, settings.big_m)
        self.collapse_bound = collapse_threshold(
            problem,
            settings.device.resistance_ratio,
            settings.scale_headroom,
        )
        self.best_score = np.inf
        self.best_state = state
        self.stall = 0
        self.multiplies = 0
        self.solves = 0
        self.iterations = 0
        self.records: list[IterationRecord] = []
        self.status = SolveStatus.ITERATION_LIMIT
        self.message = ""
        self.reason = FailureReason.NONE
        self.done = False

    @property
    def iterate(self) -> tuple[np.ndarray, ...]:
        """The current ``(x, y, w, z)``."""
        return self.x, self.y, self.w, self.z

    def finish(
        self,
        status: SolveStatus,
        message: str = "",
        reason: FailureReason = FailureReason.NONE,
    ) -> None:
        """End the attempt with ``status``."""
        self.status = status
        self.message = message
        self.reason = reason
        self.done = True

    def check(
        self, p_inf: float, d_inf: float, peak_p: float, peak_d: float
    ) -> bool:
        """Apply the convergence and stall exits to one residual read-out.

        The converters bound how small a residual the controller can
        resolve: the analog product carries ~2^-bits relative error of
        its block peak (``peak_p`` / ``peak_d``).  Demanding less than
        that noise floor would spin forever, so the effective primal
        and dual tolerances track it.  Returns whether the attempt goes
        on to the Newton solve.
        """
        gap = duality_gap(self.x, self.y, self.w, self.z)
        if converged(
            p_inf,
            d_inf,
            gap,
            eps_primal=max(self.eps_primal, self.quant_rel * peak_p),
            eps_dual=max(self.eps_dual, self.quant_rel * peak_d),
            eps_gap=self.eps_gap,
        ):
            self.finish(SolveStatus.OPTIMAL)
            return False

        score = max(
            p_inf / self.eps_primal, d_inf / self.eps_dual, gap / self.eps_gap
        )
        if score < self.best_score * (1.0 - 1e-3):
            self.best_score = score
            self.best_state = self.iterate
            self.stall = 0
            return True
        self.stall += 1
        if self.stall < self.settings.stall_iterations:
            return True
        diverging = self._iterate_peak() > self.collapse_bound
        self.x, self.y, self.w, self.z = self.best_state
        if diverging:
            self.finish(SolveStatus.INFEASIBLE, "stalled while diverging")
        elif self._relaxed_feasible():
            self.finish(
                SolveStatus.OPTIMAL,
                "stalled at analog noise floor; relaxed feasibility "
                "check passed",
            )
        else:
            self.finish(
                SolveStatus.ITERATION_LIMIT,
                "stalled without a feasible iterate",
                FailureReason.NO_FEASIBLE_ITERATE,
            )
        return False

    def solve_failed(self, error: Exception) -> None:
        """Classify a failed analog solve."""
        if self._iterate_peak() > self.collapse_bound:
            # The iterates grew until the conductance mapping's dynamic
            # range collapsed — a hardware manifestation of the big-M
            # divergence certificate.
            self.finish(
                SolveStatus.INFEASIBLE,
                f"divergence collapsed the mapping: {error}",
            )
        else:
            self.finish(
                SolveStatus.NUMERICAL_FAILURE,
                str(error),
                FailureReason.SINGULAR_SYSTEM,
            )

    def ratio_test(self, steps: tuple[np.ndarray, ...]) -> float:
        """The damped Eqn. 11 ratio test along ``(dx, dy, dw, dz)``."""
        settings = self.settings
        return ratio_test_theta(
            np.concatenate(self.iterate),
            np.concatenate(steps),
            step_scale=settings.step_scale,
            ignore_below=settings.positivity_floor * 1e4,
        )

    def step(
        self, iteration: int, theta: float, steps: tuple[np.ndarray, ...]
    ) -> None:
        """Take a clamped step of length ``theta``; apply the big-M exit."""
        dx, dy, dw, dz = steps
        floor = self.settings.positivity_floor
        self.x = np.maximum(self.x + theta * dx, floor)
        self.y = np.maximum(self.y + theta * dy, floor)
        self.w = np.maximum(self.w + theta * dw, floor)
        self.z = np.maximum(self.z + theta * dz, floor)
        self.iterations = iteration + 1
        divergence = detect_divergence(self.x, self.y, self.divergence_bound)
        if divergence is not DivergenceKind.NONE:
            self.finish(SolveStatus.INFEASIBLE, divergence.value)

    def deadline_exceeded(self, deadline: Deadline) -> None:
        """End the attempt on an expired wall-clock budget."""
        self.finish(
            SolveStatus.NUMERICAL_FAILURE,
            f"deadline of {deadline.budget_s:.3g}s exceeded after "
            f"{self.iterations} iterations",
            FailureReason.DEADLINE_EXCEEDED,
        )

    def probe_rejected(self, probe: ProbeReport, subject: str) -> None:
        """End the attempt before its first iteration: the health probe
        rejected ``subject`` (the array, as the message names it)."""
        m, n = self.problem.A.shape
        self.x, self.y, self.w, self.z = (
            np.zeros(n), np.zeros(m), np.zeros(m), np.zeros(n)
        )
        self.finish(
            SolveStatus.NUMERICAL_FAILURE,
            f"health probe rejected {subject}: relative error "
            f"{probe.max_rel_error:.3g} exceeds tolerance "
            f"{probe.tolerance:.3g}",
            FailureReason.PROBE_UNHEALTHY,
        )

    def result(self, writes, array_size: int) -> SolverResult:
        """Apply the closing exit rules and build the attempt's result.

        ``writes`` is the attempt's
        :class:`~repro.crossbar.programming.WriteReport`.
        """
        if self.status is SolveStatus.ITERATION_LIMIT and not self.message:
            # Ran out of iterations while still (slowly) improving:
            # classify the best iterate the same way the stall exit does.
            self.x, self.y, self.w, self.z = self.best_state
            if self._relaxed_feasible():
                self.status = SolveStatus.OPTIMAL
                self.message = "iteration limit; accepted best feasible iterate"
            else:
                self.message = "iteration limit without a feasible iterate"
                self.reason = FailureReason.NO_FEASIBLE_ITERATE

        if self.status is SolveStatus.OPTIMAL and not self._relaxed_feasible():
            # Section 3.2's robust feasibility detection: variation can
            # warp the realized feasible region, so never report a point
            # violating A x <= alpha b as optimal.
            self.status = SolveStatus.NUMERICAL_FAILURE
            self.message = "final constraint check A x <= alpha b failed"
            self.reason = FailureReason.FINAL_CHECK_FAILED

        if self.status in _CONCLUSIVE:
            self.reason = FailureReason.NONE

        counters = CrossbarCounters(
            multiplies=self.multiplies,
            solves=self.solves,
            cells_written=writes.cells_written,
            write_pulses=writes.pulses,
            write_latency_s=writes.latency_s,
            write_energy_j=writes.energy_j,
            array_size=array_size,
            verify_reads=writes.verify_reads,
            verify_repulsed=writes.repulsed_cells,
            verify_unverified=writes.unverified_cells,
        )
        return SolverResult(
            status=self.status,
            x=self.x,
            y=self.y,
            w=self.w,
            z=self.z,
            objective=self.problem.objective(self.x),
            iterations=self.iterations,
            trace=tuple(self.records),
            crossbar=counters,
            message=self.message,
            failure_reason=self.reason,
        )

    def _iterate_peak(self) -> float:
        return max(
            float(np.max(np.abs(self.x), initial=0.0)),
            float(np.max(np.abs(self.y), initial=0.0)),
        )

    def _relaxed_feasible(self) -> bool:
        problem, settings = self.problem, self.settings
        return problem.satisfies_relaxed_constraints(
            self.x,
            settings.alpha,
            problem.variation_row_tolerance(
                self.x, settings.variation.relative_magnitude
            ),
        )


def run_attempt(
    state: AttemptState,
    arrays,
    *,
    tracer: Tracer = NOOP,
    deadline: Deadline | None = None,
    trace: bool = False,
) -> SolverResult:
    """Iterate ``arrays`` from ``state`` until an exit fires.

    ``deadline`` is checked before every iteration; ``trace`` appends
    one :class:`IterationRecord` per completed step.  An attempt that
    is already done (a rejecting health probe) runs no iteration.
    """
    for iteration in range(state.settings.max_iterations):
        if state.done:
            break
        if deadline is not None and deadline.expired:
            state.deadline_exceeded(deadline)
            break
        with tracer.span("iteration", index=iteration):
            mu = centering_mu(*state.iterate, state.settings.delta)
            if iteration:
                arrays.update(state)
            with tracer.span("residual"):
                readout, p_inf, d_inf, peak_p, peak_d = arrays.residual(
                    state, mu
                )
            if not state.check(p_inf, d_inf, peak_p, peak_d):
                break
            try:
                with tracer.span("analog_solve"):
                    steps = arrays.direction(state, readout, mu)
            except CrossbarSolveError as exc:
                state.solve_failed(exc)
                break
            with tracer.span("step"):
                theta = arrays.step_length(state, steps)
                state.step(iteration, theta, steps)
            if state.done:
                break
            if trace:
                state.records.append(
                    IterationRecord(
                        index=iteration,
                        mu=mu,
                        duality_gap=duality_gap(*state.iterate),
                        primal_infeasibility=p_inf,
                        dual_infeasibility=d_inf,
                        theta=theta,
                        cells_written=arrays.trace_cells(),
                    )
                )
    tracer.gauge("solver.iterations", state.iterations)
    return state.result(arrays.writes(), arrays.size)


def solve_on_ladder(solver, label: str, attempt: AttemptFn) -> SolverResult:
    """Run ``attempt`` under ``solver``'s recovery ladder and deadline.

    The whole ladder is timed onto ``elapsed_seconds`` and wrapped in
    one ``solve`` span (attributes: ``solver=label`` and the constraint
    count).
    """
    with Stopwatch() as clock, solver.tracer.span(
        "solve", solver=label, constraints=solver.problem.A.shape[0]
    ):
        result = solve_with_recovery(
            attempt,
            solver.recovery,
            solver.problem,
            solver.rng,
            tracer=solver.tracer,
            deadline=solver.deadline,
        )
    return dataclasses.replace(result, elapsed_seconds=clock.elapsed_seconds)
