"""Solver results and per-iteration traces."""

from __future__ import annotations

import dataclasses
import enum

import numpy as np


class SolveStatus(enum.Enum):
    """Terminal state of a solver run."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_FAILURE = "numerical_failure"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class FailureReason(enum.Enum):
    """Machine-readable cause of an unsuccessful solve attempt.

    The recovery ladder (:mod:`repro.reliability.recovery`) branches on
    this enum instead of matching substrings of the human-readable
    ``message``.  ``NONE`` marks a conclusive attempt (OPTIMAL or
    INFEASIBLE — both are answers, not failures).
    """

    NONE = "none"
    #: Stalled at the analog noise floor, or hit the iteration cap,
    #: without any iterate passing the A x <= alpha b check.
    NO_FEASIBLE_ITERATE = "no_feasible_iterate"
    #: The analog solve failed: the perturbed conductance matrix was
    #: singular or produced non-finite rails (Section 4.3).
    SINGULAR_SYSTEM = "singular_system"
    #: Converged, but the final constraints check A x <= alpha b
    #: rejected the returned point (Section 3.2).
    FINAL_CHECK_FAILED = "final_check_failed"
    #: The post-programming health probe rejected the array before the
    #: PDIP loop started (stuck cells / corrupted mapping).
    PROBE_UNHEALTHY = "probe_unhealthy"
    #: The digital fallback solver itself failed to classify.
    FALLBACK_FAILED = "fallback_failed"
    #: The serving layer could not place the job on any pool member
    #: (all schedulable arrays excluded, draining, or retired).
    NO_CAPACITY = "no_capacity"
    #: The job's wall-clock deadline ran out.  Checked between recovery
    #: rungs and between PDIP iterations, so an expired budget stops a
    #: solve after at most one more iteration's work.
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: The presolve pipeline proved the instance infeasible before any
    #: crossbar programming.  Unlike the other reasons this accompanies
    #: a *conclusive* INFEASIBLE status: it records provenance (the
    #: certificate came from :mod:`repro.presolve`, not the array) and
    #: that the verdict cost zero cell writes.
    INFEASIBLE_PRESOLVE = "infeasible_presolve"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass(frozen=True)
class IterationRecord:
    """One PDIP iteration's diagnostics.

    The software reference solver records exact norms of the iterate
    *after* the step.  The crossbar solvers record the norms their
    analog residual read-out produced, i.e. at the iterate the step
    *started from*; only the gap is taken after the step.

    Attributes
    ----------
    index:
        Iteration number (0-based).
    mu:
        Centering parameter used this iteration (Eqn. 8).
    duality_gap:
        ``z @ x + y @ w`` after the update.
    primal_infeasibility:
        ``max |A x + w - b|`` (see above for which iterate).
    dual_infeasibility:
        ``max |A^T y - z - c|`` (see above for which iterate).
    theta:
        Step length actually applied (Eqn. 11 or the constant policy).
    cells_written:
        A *cumulative* counter, not this iteration's writes: the
        lifetime cells-written total of Solver 1's augmented operator,
        or of Solver 2's M2 array, read after the step.  Differences
        between successive records give per-iteration writes.  Always
        0 for the reference solver.
    """

    index: int
    mu: float
    duality_gap: float
    primal_infeasibility: float
    dual_infeasibility: float
    theta: float
    cells_written: int = 0


@dataclasses.dataclass(frozen=True)
class CrossbarCounters:
    """Aggregate analog-operation counts for one solve (cost-model input).

    Attributes
    ----------
    multiplies:
        Number of analog matrix-vector evaluations.
    solves:
        Number of analog linear-system evaluations.
    cells_written:
        Total crossbar cells reprogrammed (incl. initial programming).
    write_pulses:
        Total programming pulses issued.
    write_latency_s / write_energy_j:
        Accumulated physical write cost from the device model.
    array_size:
        Dimension of the (largest) crossbar system that was solved.
    """

    multiplies: int = 0
    solves: int = 0
    cells_written: int = 0
    write_pulses: int = 0
    write_latency_s: float = 0.0
    write_energy_j: float = 0.0
    array_size: int = 0
    #: Write-verify accounting (0 when verification is disabled):
    #: cell read-backs performed, cells that needed corrective
    #: re-pulses, and cells still out of tolerance when the pulse
    #: budget ran out (persistent / stuck deviations).
    verify_reads: int = 0
    verify_repulsed: int = 0
    verify_unverified: int = 0


@dataclasses.dataclass(frozen=True)
class SolverResult:
    """Outcome of an LP solve.

    Attributes
    ----------
    status:
        Terminal :class:`SolveStatus`.
    x, y, w, z:
        Final primal solution, dual solution, primal slacks, dual
        slacks (present whatever the status; meaningful for OPTIMAL).
    objective:
        Primal objective ``c @ x`` at the returned point.
    iterations:
        Number of PDIP iterations executed.
    trace:
        Per-iteration diagnostics (empty if tracing was disabled).
    crossbar:
        Analog operation counters, or ``None`` for software solvers.
    message:
        Human-readable detail (failure reason, retry count, ...).
    failure_reason:
        Machine-readable cause when the run was not conclusive;
        :attr:`FailureReason.NONE` for OPTIMAL / INFEASIBLE results.
    attempts:
        Recovery-ladder history: one
        :class:`~repro.reliability.telemetry.AttemptRecord` per solve
        attempt (empty for software solvers and single-shot runs that
        bypass the ladder).
    elapsed_seconds:
        Wall-clock duration of the ``solve()`` call on the shared
        monotonic clock (:mod:`repro.obs.clock`), covering every
        recovery rung; ``0.0`` when the path was not timed (e.g. a
        bare ``_solve_once``).
    """

    status: SolveStatus
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray
    objective: float
    iterations: int
    trace: tuple[IterationRecord, ...] = ()
    crossbar: CrossbarCounters | None = None
    message: str = ""
    failure_reason: FailureReason = FailureReason.NONE
    attempts: tuple = ()
    elapsed_seconds: float = 0.0

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    @property
    def success(self) -> bool:
        """Whether the solve produced a conclusive classification.

        OPTIMAL and INFEASIBLE are both answers; anything else
        (iteration limit, numerical failure, probe rejection, failed
        fallback) means the caller did not get a verdict.  The CLI and
        the serving layer map this to process exit codes and job
        rescheduling respectively.
        """
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)

    @property
    def duality_gap(self) -> float:
        """Complementarity gap ``z @ x + y @ w`` at the returned point."""
        return float(self.z @ self.x + self.y @ self.w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverResult(status={self.status}, "
            f"objective={self.objective:.6g}, iterations={self.iterations})"
        )


def with_message(result: SolverResult, extra: str) -> SolverResult:
    """Copy of ``result`` with ``extra`` appended to its message."""
    message = f"{result.message}; {extra}" if result.message else extra
    return dataclasses.replace(result, message=message)


def with_status(
    result: SolverResult,
    status: SolveStatus,
    extra: str,
    *,
    failure_reason: FailureReason | None = None,
) -> SolverResult:
    """Copy of ``result`` with a new status and appended message.

    The failure reason follows the status unless given explicitly: a
    reclassification to OPTIMAL / INFEASIBLE clears it to ``NONE``,
    any other status keeps the original reason.
    """
    message = f"{result.message}; {extra}" if result.message else extra
    if failure_reason is None:
        conclusive = status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
        failure_reason = (
            FailureReason.NONE if conclusive else result.failure_reason
        )
    return dataclasses.replace(
        result, status=status, message=message, failure_reason=failure_reason
    )


def with_attempts(result: SolverResult, attempts) -> SolverResult:
    """Copy of ``result`` carrying the given attempt history."""
    return dataclasses.replace(result, attempts=tuple(attempts))
