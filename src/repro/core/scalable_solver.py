"""Solver 2: the crossbar LP solver for large-scale operations.

Implements Algorithm 2 of the paper.  Instead of one crossbar of size
~4(n+m) (Solver 1), the Newton step is split across four much smaller
arrays:

- **M1 solve array** (size n + 2m + k): ``[A RU; RL Aᵀ]`` with its
  negative entries eliminated by compensation variables; the coupling
  diagonals RU / RL are rewritten each iteration — O(N) cells;
- **M1 multiply array**: the same structure with the coupling blocks
  zeroed (Eqn. 17a) — programmed once, computes ``Ax`` and ``Aᵀy``
  for the residuals;
- **M2 array**: ``diag(X, Y)`` (Eqn. 16b) — O(N) rewrite per
  iteration; used to *solve* for the recovery steps and, in the exact
  rhs mode, to compute the analog divisions ``μ/x`` and ``μ/y``;
- **D array**: ``diag(Z, W)`` — O(N) rewrite; its multiply provides
  the recovery coupling products ``ZΔx`` / ``WΔy``.

The step length is a constant θ (Section 3.4); iterates are clamped at
a small positivity floor after each update — the hardware cannot
represent negative diagonal conductances regardless.  The mode
switches in :class:`~repro.core.settings.ScalableSolverSettings` select
the literal printed equations instead (used by the ablation benches to
demonstrate their divergence).
"""

from __future__ import annotations

import numpy as np

from repro.core.attempt import AttemptState, run_attempt, solve_on_ladder
from repro.core.problem import LinearProgram
from repro.core.result import SolverResult
from repro.core.scalable_system import ScalableNewtonSystem
from repro.core.settings import ScalableSolverSettings
from repro.crossbar.ops import AnalogMatrixOperator
from repro.obs.clock import Deadline
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.policy import RecoveryPolicy
from repro.reliability.probe import ProbeReport, probe_operators
from repro.reliability.telemetry import RecoveryAction


class LargeScaleCrossbarPDIPSolver:
    """Memristor crossbar LP solver for large-scale operations.

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
        Observability sink (:class:`repro.obs.Tracer`).  Defaults to
        the zero-overhead no-op tracer; pass a
        :class:`repro.obs.RecordingTracer` to capture per-phase spans
        and analog-op counters.
    deadline:
        Optional wall-clock budget (:class:`~repro.obs.clock.Deadline`)
        checked between recovery rungs and between PDIP iterations; an
        expired budget terminates the solve with a machine-readable
        DEADLINE_EXCEEDED after at most one more iteration's work.
    """

    def __init__(
        self,
        problem: LinearProgram,
        settings: ScalableSolverSettings | None = None,
        *,
        rng: np.random.Generator | None = None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self.problem = problem
        self.settings = (
            settings if settings is not None else ScalableSolverSettings()
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        self.recovery = (
            recovery
            if recovery is not None
            else RecoveryPolicy.from_settings(self.settings)
        )
        self.tracer = tracer if tracer is not None else NOOP
        self.deadline = deadline
        self.system = ScalableNewtonSystem(
            problem,
            coupling=self.settings.coupling,
            regularization=self.settings.regularization,
            ratio_floor=self.settings.ratio_floor,
            ratio_cap=self.settings.ratio_cap,
        )
        # The four arrays programmed by the most recent ladder attempt;
        # a REPROGRAM rung redraws their variation in place instead of
        # re-mapping and re-writing all four from scratch.
        self._last_arrays: (
            tuple[
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
            ]
            | None
        ) = None

    def solve(
        self,
        *,
        trace: bool = False,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> SolverResult:
        """Run Algorithm 2 under the recovery ladder.

        The ladder's first rung is the paper's Section 4.5 "double
        checking scheme" (reprogram all four arrays, drawing fresh
        process variation); the configured :class:`RecoveryPolicy` may
        escalate further to remapping and a digital fallback.  The
        returned result carries the full attempt history.

        ``initial_state`` optionally warm-starts the PDIP iterates
        (``(x, y, w, z)``, see :mod:`repro.core.warmstart`) on the
        first rung only; retries always fall back to the seeded cold
        start.
        """
        self._last_arrays = None
        first_rung = {"initial_state": initial_state}

        def attempt(
            rng: np.random.Generator, action: RecoveryAction
        ) -> tuple[SolverResult, ProbeReport | None]:
            # A REPROGRAM rung reuses the four programmed arrays:
            # redraw variation, reset the coupling and state diagonals
            # via the differential write path (O(N) cells), leave the
            # write-once structural blocks alone.  REMAP rebuilds all
            # four from scratch.
            warm = (
                self._last_arrays
                if action is RecoveryAction.REPROGRAM
                else None
            )
            return self._solve_once(
                rng=rng,
                trace=trace,
                arrays=warm,
                redraw=rng if warm is not None else None,
                initial_state=first_rung.pop("initial_state", None),
            )

        return solve_on_ladder(self, "large_scale", attempt)

    def _solve_once(
        self,
        *,
        rng: np.random.Generator | None = None,
        trace: bool = False,
        arrays: (
            tuple[
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
            ]
            | None
        ) = None,
        redraw: np.random.Generator | None = None,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> tuple[SolverResult, ProbeReport | None]:
        settings = self.settings
        system = self.system
        tracer = self.tracer
        rng = rng if rng is not None else self.rng
        state = AttemptState(self.problem, settings, initial_state)
        x, y, w, z = state.iterate

        if arrays is None:
            hardware = dict(
                params=settings.device,
                variation=settings.variation,
                rng=rng,
                dac_bits=settings.dac_bits,
                adc_bits=settings.adc_bits,
                off_state=settings.off_state,
                row_scaling=settings.row_scaling,
                write_verify=settings.write_verify,
                tracer=tracer,
            )
            with tracer.span("reformulate"):
                m1_coupled = system.build_m1(x, y, w, z, with_coupling=True)
                m1_plain = system.build_m1(x, y, w, z, with_coupling=False)
                m2_matrix = system.build_m2(x, y)
                d_matrix = system.build_d(z, w)
            with tracer.span("program", array="m1_solve"):
                m1_solve = AnalogMatrixOperator(
                    m1_coupled,
                    scale_headroom=settings.scale_headroom,
                    **hardware,
                )
            with tracer.span("program", array="m1_mult"):
                m1_mult = AnalogMatrixOperator(
                    m1_plain,
                    scale_headroom=1.0,
                    **hardware,
                )
            with tracer.span("program", array="m2"):
                m2 = AnalogMatrixOperator(
                    m2_matrix,
                    scale_headroom=settings.scale_headroom,
                    **hardware,
                )
            with tracer.span("program", array="d"):
                d_array = AnalogMatrixOperator(
                    d_matrix,
                    scale_headroom=settings.scale_headroom,
                    **hardware,
                )
            arrays = (m1_solve, m1_mult, m2, d_array)
            self._last_arrays = arrays
            base_writes = None
        else:
            # Recovery-ladder reprogram: keep the mapped structure,
            # redraw process variation on every programmed cell, and
            # reset the per-iteration diagonals to the initial state
            # through the differential write path.  m1_mult is
            # write-once (Eqn. 17a) — redraw only.
            m1_solve, m1_mult, m2, d_array = arrays
            base_writes = _total_writes(arrays)
            if redraw is not None:
                with tracer.span("program", redraw=True):
                    for warm_op in arrays:
                        warm_op.redraw_variation(redraw)
            with tracer.span("program", warm=True):
                rows, cols, values = system.m1_coupling_update(x, y, w, z)
                m1_solve.update_coefficients(
                    rows, cols, values, floor_to_representable=True
                )
                m1_solve.renormalize()
                for warm_op, diag in (
                    (m2, system.m2_diagonal(x, y)),
                    (d_array, system.d_diagonal(z, w)),
                ):
                    _write_diagonal(system, warm_op, diag)
                    warm_op.renormalize()

        probe = None
        if self.recovery.probe is not None:
            with tracer.span("probe"):
                probe = probe_operators(
                    [
                        ("m1_solve", m1_solve),
                        ("m1_mult", m1_mult),
                        ("m2", m2),
                        ("d", d_array),
                    ],
                    self.recovery.probe,
                    rng,
                )
            state.multiplies += probe.vectors
            if not probe.healthy:
                state.probe_rejected(probe, f"array {probe.label!r}")
        split = _SplitArrays(system, settings, arrays, base_writes, tracer)
        result = run_attempt(
            state, split, tracer=tracer, deadline=self.deadline, trace=trace
        )
        return result, probe


def _total_writes(arrays):
    m1_solve, m1_mult, m2, d_array = arrays
    return (
        m1_solve.write_report
        + m1_mult.write_report
        + m2.write_report
        + d_array.write_report
    )


def _write_diagonal(system, operator, values) -> None:
    rows, cols, vals = system.diag_update(values)
    operator.update_coefficients(rows, cols, vals, floor_to_representable=True)


class _SplitArrays:
    """Solver 2's arrays adapter (see :mod:`repro.core.attempt`): the
    Newton step split across the M1 solve, M1 multiply, M2 and D
    arrays."""

    def __init__(self, system, settings, arrays, base_writes, tracer) -> None:
        self.system = system
        self.settings = settings
        self.arrays = arrays
        self.m1_solve, self.m1_mult, self.m2, self.d_array = arrays
        self.base_writes = base_writes
        self.tracer = tracer
        self.size = max(system.size_m1, system.size_m2)

    def update(self, state: AttemptState) -> None:
        system, tracer = self.system, self.tracer
        x, y, w, z = state.iterate
        with tracer.span("newton_assembly"):
            rows, cols, values = system.m1_coupling_update(x, y, w, z)
            m2_diag = system.m2_diagonal(x, y)
            d_diag = system.d_diagonal(z, w)
        with tracer.span("program", array="m1_solve"):
            self.m1_solve.update_coefficients(
                rows, cols, values, floor_to_representable=True
            )
        with tracer.span("program", array="m2"):
            _write_diagonal(system, self.m2, m2_diag)
        with tracer.span("program", array="d"):
            _write_diagonal(system, self.d_array, d_diag)

    def residual(self, state: AttemptState, mu: float) -> tuple:
        # Residuals via the constant multiply array (Eqn. 17a).
        system = self.system
        m, n = system.m, system.n
        product = self.m1_mult.multiply(system.state_vector_m1(state.x, state.y))
        state.multiplies += 1
        p_inf, d_inf = system.infeasibility_norms(product, state.w, state.z)
        return (
            product,
            p_inf,
            d_inf,
            float(np.max(np.abs(product[:m]), initial=0.0)),
            float(np.max(np.abs(product[m:m + n]), initial=0.0)),
        )

    def direction(self, state: AttemptState, product, mu: float) -> tuple:
        system = self.system
        x, y, w, z = state.iterate
        # First half: Δx, Δy from M1.
        if self.settings.rhs_mode == "exact":
            # The controller holds x, y digitally (it programs the M2
            # diagonal from them every iteration), so the central-path
            # targets mu/x, mu/y are O(N) digital scalar ops, like the
            # summing-amplifier subtraction.
            r1 = system.residual_m1(product, mu / x, mu / y)
        else:
            r1 = system.paper_residual_m1(product, w, z)
        delta1 = self.m1_solve.solve(r1)
        state.solves += 1
        dx, dy = system.extract_steps_m1(delta1)

        # Second half: Δz, Δw from M2 (recovery).
        product2 = self.m2.multiply(np.concatenate([z, w]))
        state.multiplies += 1
        if self.settings.recovery == "coupled":
            coupling = self.d_array.multiply(np.concatenate([dx, dy]))
            state.multiplies += 1
        else:
            coupling = None
        delta2 = self.m2.solve(system.residual_m2(mu, product2, coupling))
        state.solves += 1
        dz, dw = system.extract_steps_m2(delta2)
        return dx, dy, dw, dz

    def step_length(self, state: AttemptState, steps) -> float:
        # Section 3.4's constant θ, by default capped by the Eqn. 11
        # ratio test so a step never crosses the positivity boundary.
        theta = self.settings.constant_theta
        if self.settings.step_policy == "capped_ratio":
            theta = min(theta, state.ratio_test(steps))
        return theta

    def trace_cells(self) -> int:
        return self.m2.write_report.cells_written

    def writes(self):
        total = _total_writes(self.arrays)
        if self.base_writes is not None:
            total = total - self.base_writes
        return total


def solve_crossbar_large_scale(
    problem: LinearProgram,
    settings: ScalableSolverSettings | None = None,
    *,
    rng: np.random.Generator | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: bool = False,
    tracer: Tracer | None = None,
) -> SolverResult:
    """Functional wrapper around :class:`LargeScaleCrossbarPDIPSolver`."""
    solver = LargeScaleCrossbarPDIPSolver(
        problem, settings, rng=rng, recovery=recovery, tracer=tracer
    )
    return solver.solve(trace=trace)
