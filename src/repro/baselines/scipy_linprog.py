"""Adapter around ``scipy.optimize.linprog`` (HiGHS).

This is the repo's stand-in for the paper's Matlab ``linprog``
comparator: a mature software LP solver whose optimal values serve as
ground truth for the accuracy experiments (Fig. 5) and whose measured
wall-clock anchors the CPU latency model.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import LinearProgram
from repro.core.result import SolverResult, SolveStatus
from repro.obs.clock import Stopwatch


def solve_scipy(
    problem: LinearProgram, *, method: str = "highs"
) -> SolverResult:
    """Solve max c'x s.t. Ax <= b, x >= 0 with scipy (minimizes -c'x).

    Returns a :class:`SolverResult` with the scipy status mapped onto
    the package's statuses (HiGHS "infeasible" -> INFEASIBLE, anything
    else unsuccessful -> NUMERICAL_FAILURE) and ``elapsed_seconds``
    measured on the shared monotonic clock.
    """
    # Imported here: no solve or serve path needs scipy.optimize, and
    # importing it costs about a third of a second.
    from scipy import optimize

    m, n = problem.A.shape
    with Stopwatch() as clock:
        outcome = optimize.linprog(
            -problem.c,
            A_ub=problem.A,
            b_ub=problem.b,
            bounds=[(0, None)] * n,
            method=method,
        )
    if outcome.status == 0:
        x = np.asarray(outcome.x, dtype=float)
        w = problem.b - problem.A @ x
        # HiGHS marginals: ineqlin duals are <= 0 for a minimization.
        try:
            y = np.abs(np.asarray(outcome.ineqlin.marginals, dtype=float))
        except AttributeError:  # older scipy
            y = np.zeros(m)
        z = np.maximum(problem.A.T @ y - problem.c, 0.0)
        return SolverResult(
            status=SolveStatus.OPTIMAL,
            x=x,
            y=y,
            w=w,
            z=z,
            objective=problem.objective(x),
            iterations=int(getattr(outcome, "nit", 0)),
            elapsed_seconds=clock.elapsed_seconds,
        )
    status = (
        SolveStatus.INFEASIBLE
        if outcome.status == 2
        else SolveStatus.NUMERICAL_FAILURE
    )
    return SolverResult(
        status=status,
        x=np.zeros(n),
        y=np.zeros(m),
        w=np.zeros(m),
        z=np.zeros(n),
        objective=0.0,
        iterations=int(getattr(outcome, "nit", 0)),
        message=str(outcome.message),
        elapsed_seconds=clock.elapsed_seconds,
    )


def timed_solve_scipy(
    problem: LinearProgram, *, method: str = "highs"
) -> tuple[SolverResult, float]:
    """Solve and return (result, wall_clock_seconds).

    Used to calibrate the CPU cost model against this machine.  The
    elapsed time is the result's own ``elapsed_seconds``; the tuple
    form survives for callers of the original API.
    """
    result = solve_scipy(problem, method=method)
    return result, result.elapsed_seconds
