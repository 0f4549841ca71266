"""Solver 1: the memristor crossbar-based PDIP linear program solver.

Implements Algorithm 1 of the paper.  One (logical) crossbar holds the
augmented non-negative Newton matrix M of Eqn. 14a; every iteration

1. rewrites only the X, Y, Z, W diagonal cells of M — O(N) writes
   (Section 3.5);
2. computes the right-hand side r analogously: the crossbar multiplies
   M by the packed state ``[x, y, w, z, -w, -z, p]`` (Eqn. 15b), the
   complementarity rows are halved, and the result is subtracted from
   the constant ``[b, c, mu, mu, 0, 0, 0]`` — the subtraction a summing
   amplifier performs in hardware;
3. solves ``M Δs = r`` on the same crossbar in O(1) analog time;
4. applies the damped ratio-test step (Eqn. 11) and checks the exit
   criteria using the residual the crossbar already produced.

Non-convergence under process variation (singular perturbed arrays,
stalls at the analog noise floor) is handled by the recovery ladder of
:mod:`repro.reliability`: the paper's "double checking scheme"
(Section 4.5) is its first rung (reprogram, fresh variation draw),
optionally followed by remapping onto a fresh array and a digital
fallback.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.attempt import AttemptState, run_attempt, solve_on_ladder
from repro.core.newton import AugmentedNewtonSystem
from repro.core.problem import LinearProgram
from repro.core.result import SolverResult
from repro.core.settings import CrossbarSolverSettings
from repro.crossbar.ops import AnalogMatrixOperator
from repro.exceptions import MappingError
from repro.obs.clock import Deadline, Stopwatch
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.policy import RecoveryPolicy
from repro.reliability.probe import ProbeReport, probe_operator
from repro.reliability.telemetry import RecoveryAction


class CrossbarPDIPSolver:
    """Memristor crossbar LP solver (Algorithm 1).

    Parameters
    ----------
    problem:
        The LP to solve (max c'x, Ax <= b, x >= 0).
    settings:
        Algorithm and hardware configuration.
    rng:
        Random generator driving the process-variation draws.
    recovery:
        Escalation policy.  Defaults to
        :meth:`RecoveryPolicy.from_settings`, i.e. the paper's retry
        scheme (``settings.retries`` reprogram attempts, no probe, no
        remap, no fallback).
    tracer:
        Observability hook (:mod:`repro.obs`): per-iteration spans for
        the algorithm phases (reformulation, programming, residual
        read-out, analog solve, step selection) plus the analog-op
        counters of the crossbar layer.  Defaults to the zero-overhead
        no-op tracer.
    deadline:
        Optional wall-clock budget (:class:`~repro.obs.clock.Deadline`)
        checked between recovery rungs and between PDIP iterations; an
        expired budget terminates the solve with a machine-readable
        DEADLINE_EXCEEDED after at most one more iteration's work.
    """

    def __init__(
        self,
        problem: LinearProgram,
        settings: CrossbarSolverSettings | None = None,
        *,
        rng: np.random.Generator | None = None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self.problem = problem
        self.settings = (
            settings if settings is not None else CrossbarSolverSettings()
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        self.recovery = (
            recovery
            if recovery is not None
            else RecoveryPolicy.from_settings(self.settings)
        )
        self.tracer = tracer if tracer is not None else NOOP
        self.deadline = deadline
        self.system = AugmentedNewtonSystem(problem)
        # The operator programmed by the most recent ladder attempt;
        # lets a REPROGRAM rung redraw variation in place instead of
        # re-mapping and re-writing the full matrix.
        self._last_operator: AnalogMatrixOperator | None = None

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        *,
        trace: bool = False,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> SolverResult:
        """Run Algorithm 1 under the recovery ladder.

        The ladder's first rung is the paper's Section 4.5 "double
        checking scheme" (reprogram, drawing fresh process variation);
        the configured :class:`RecoveryPolicy` may escalate further to
        remapping and a digital fallback.  The returned result carries
        the full attempt history and its wall-clock duration.

        ``initial_state`` optionally warm-starts the PDIP iterates
        (``(x, y, w, z)``, see :mod:`repro.core.warmstart`) on the
        *first* rung only; if that rung fails, every retry falls back
        to the seeded cold start so a stalled warm trajectory cannot
        poison the ladder.
        """
        self._last_operator = None
        first_rung = {"initial_state": initial_state}

        def attempt(
            rng: np.random.Generator, action: RecoveryAction
        ) -> tuple[SolverResult, ProbeReport | None]:
            # Section 4.5's "double checking scheme" rewrites the same
            # array: reuse the operator the failed attempt programmed,
            # redraw its variation, and let the warm path reset only
            # the diagonals (O(N), via the differential write path).
            # A REMAP rung abandons the array and rebuilds from
            # scratch.
            warm = (
                self._last_operator
                if action is RecoveryAction.REPROGRAM
                else None
            )
            return self._solve_once(
                rng=rng,
                trace=trace,
                operator=warm,
                redraw=rng if warm is not None else None,
                initial_state=first_rung.pop("initial_state", None),
            )

        return solve_on_ladder(self, "crossbar", attempt)

    def solve_on(
        self,
        operator: AnalogMatrixOperator,
        *,
        trace: bool = False,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> SolverResult:
        """Run ONE attempt on a pre-programmed (warm) operator.

        The serving layer (:mod:`repro.service`) keeps arrays
        programmed between jobs: when a job's structural blocks
        (A/Aᵀ + compensation) match what ``operator`` already holds,
        this entry point skips the full-array programming and pays only
        the O(N) diagonal rewrite — the paper's per-iteration cost,
        amortized across *requests*.  No recovery ladder runs here;
        rescheduling is the caller's concern.  The returned counters
        cover only this attempt's writes (the operator's lifetime
        totals are baselined out).  ``initial_state`` optionally
        warm-starts the PDIP iterates from a previous optimum
        (:mod:`repro.core.warmstart`) — the re-solve tier's fast path.
        """
        with Stopwatch() as clock, self.tracer.span(
            "solve",
            solver="crossbar",
            constraints=self.problem.A.shape[0],
            warm=True,
        ):
            result, _ = self._solve_once(
                rng=self.rng,
                trace=trace,
                operator=operator,
                initial_state=initial_state,
            )
        return dataclasses.replace(
            result, elapsed_seconds=clock.elapsed_seconds
        )

    def build_operator(
        self, rng: np.random.Generator | None = None
    ) -> AnalogMatrixOperator:
        """Program a fresh operator with this problem's full matrix.

        The initial-state matrix (all four diagonals at
        ``settings.initial_value``) is what :meth:`solve_on` expects to
        find; the serving layer uses this as the cold-path programmer.
        """
        x0 = np.full(self.problem.A.shape[1], self.settings.initial_value)
        y0 = np.full(self.problem.A.shape[0], self.settings.initial_value)
        matrix = self.system.build_matrix(x0, y0, y0.copy(), x0.copy())
        return self._program(matrix, rng if rng is not None else self.rng)

    # -- one attempt -----------------------------------------------------------

    def _program(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> AnalogMatrixOperator:
        settings = self.settings
        return AnalogMatrixOperator(
            matrix,
            params=settings.device,
            variation=settings.variation,
            rng=rng,
            dac_bits=settings.dac_bits,
            adc_bits=settings.adc_bits,
            scale_headroom=settings.scale_headroom,
            row_scaling=settings.row_scaling,
            off_state=settings.off_state,
            write_verify=settings.write_verify,
            tracer=self.tracer,
        )

    def _solve_once(
        self,
        *,
        rng: np.random.Generator | None = None,
        trace: bool = False,
        operator: AnalogMatrixOperator | None = None,
        redraw: np.random.Generator | None = None,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> tuple[SolverResult, ProbeReport | None]:
        system = self.system
        tracer = self.tracer
        rng = rng if rng is not None else self.rng
        state = AttemptState(self.problem, self.settings, initial_state)

        if operator is None:
            # Eqn. 13/14a: eliminate negatives via compensation
            # variables and assemble the augmented non-negative Newton
            # matrix.
            with tracer.span("reformulate"):
                matrix = system.build_matrix(*state.iterate)
            with tracer.span("program", array="M"):
                operator = self._program(matrix, rng)
            self._last_operator = operator
            base_report = None
        else:
            # Warm start: the structural A/Aᵀ + compensation blocks are
            # already programmed from an earlier solve sharing this
            # problem's structure; only the X, Y, Z, W diagonals carry
            # per-problem state, so the write cost is O(N), not O(N²).
            if (operator.n_out, operator.n_in) != (system.size, system.size):
                raise MappingError(
                    f"warm operator is {operator.n_out}x{operator.n_in}; "
                    f"this problem needs {system.size}x{system.size}"
                )
            base_report = operator.write_report
            if redraw is not None:
                # Recovery-ladder reprogram: fresh variation draw on
                # every already-programmed cell, zero target changes.
                with tracer.span("program", array="M", redraw=True):
                    operator.redraw_variation(redraw)
            with tracer.span("program", array="M", warm=True):
                rows, cols, values = system.diagonal_update(*state.iterate)
                operator.update_coefficients(
                    rows, cols, values, floor_to_representable=True
                )
                # Undo scale drift left by the previous solve: sticky
                # remaps inflate the representable floor, which would
                # make warm starts converge slower than cold ones.
                operator.renormalize()

        probe = None
        if self.recovery.probe is not None:
            with tracer.span("probe", array="M"):
                probe = probe_operator(
                    operator, self.recovery.probe, rng, label="M"
                )
            state.multiplies += probe.vectors
            if not probe.healthy:
                state.probe_rejected(probe, "array")
        arrays = _AugmentedArrays(system, operator, base_report, tracer)
        result = run_attempt(
            state, arrays, tracer=tracer, deadline=self.deadline, trace=trace
        )
        return result, probe


def augmented_readout(
    system: AugmentedNewtonSystem, product: np.ndarray, mu: float
) -> tuple:
    """Residual, infeasibility norms and block peaks from one product.

    The product of M with the packed state (Eqn. 15b) is subtracted
    from the constant targets — the summing amplifier's job — giving
    the Newton right-hand side; the peaks of its primal and dual rows
    set the converter noise floor (see
    :meth:`~repro.core.attempt.AttemptState.check`).
    """
    residual = system.residual_from_product(product, mu)
    p_inf, d_inf = system.infeasibility_norms(residual)
    lay = system.layout
    return (
        residual,
        p_inf,
        d_inf,
        float(np.max(np.abs(product[lay.row_primal]), initial=0.0)),
        float(np.max(np.abs(product[lay.row_dual]), initial=0.0)),
    )


class _AugmentedArrays:
    """Solver 1's arrays adapter (see :mod:`repro.core.attempt`): one
    operator holding the augmented Newton matrix M."""

    def __init__(self, system, operator, base_report, tracer) -> None:
        self.system = system
        self.operator = operator
        self.base_report = base_report
        self.tracer = tracer
        self.size = system.size

    def update(self, state: AttemptState) -> None:
        with self.tracer.span("newton_assembly"):
            rows, cols, values = self.system.diagonal_update(*state.iterate)
        # The complementarity diagonals must stay nonzero or the
        # programmed system turns singular; clamp at the smallest
        # representable coefficient.
        with self.tracer.span("program", array="M"):
            self.operator.update_coefficients(
                rows, cols, values, floor_to_representable=True
            )

    def residual(self, state: AttemptState, mu: float) -> tuple:
        product = self.operator.multiply(
            self.system.state_vector(*state.iterate)
        )
        state.multiplies += 1
        return augmented_readout(self.system, product, mu)

    def direction(self, state: AttemptState, residual, mu: float) -> tuple:
        delta = self.operator.solve(residual)
        state.solves += 1
        return self.system.extract_steps(delta)

    def step_length(self, state: AttemptState, steps) -> float:
        return state.ratio_test(steps)

    def trace_cells(self) -> int:
        return self.operator.write_report.cells_written

    def writes(self):
        report = self.operator.write_report
        if self.base_report is not None:
            report = report - self.base_report
        return report


def solve_crossbar(
    problem: LinearProgram,
    settings: CrossbarSolverSettings | None = None,
    *,
    rng: np.random.Generator | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: bool = False,
    tracer: Tracer | None = None,
) -> SolverResult:
    """Functional wrapper around :class:`CrossbarPDIPSolver`."""
    solver = CrossbarPDIPSolver(
        problem, settings, rng=rng, recovery=recovery, tracer=tracer
    )
    return solver.solve(trace=trace)
