"""Deterministic LP reduction + scaling that runs before crossbar mapping.

The crossbar pays O(N^2) cell writes to program a matrix, so every row
or column the front end removes is quadratic work the array never
does — and every decade of dynamic range removed by equilibration is
conductance resolution the mapping gets back (Section 3.2's 8-bit
budget).  :func:`presolve` applies a fixpoint of exact, order-stable
reductions to ``maximize c @ x  s.t.  A x <= b, x >= 0``:

- **empty rows** — no surviving coefficients: infeasible certificate
  when ``b_i < 0``, otherwise dropped;
- **singleton rows** — one coefficient ``a`` on ``x_j``: ``a > 0``
  with ``b_i / a < 0`` is an infeasibility certificate, ``b_i / a = 0``
  pins ``x_j = 0``; ``a < 0`` with ``b_i / a <= 0`` is redundant
  against ``x_j >= 0``;
- **proportional row families** — rows that are scalar multiples of
  one another bound the same functional ``s = r @ x``; the family
  collapses to its tightest upper and lower bound, and an empty
  interval (lower > upper) is an infeasibility certificate.  The
  generator's planted infeasible pair (``u``, ``-u`` with contradicting
  right-hand sides) is caught here before any programming;
- **empty columns** — unconstrained ``x_j``: unboundedness certificate
  when ``c_j > 0``, otherwise fixed at 0;
- **duplicate columns** — bit-identical columns merge onto the one
  with the larger objective coefficient (dropped variable exactly 0).

What survives is equilibrated (:mod:`repro.presolve.scaling`) with
power-of-two scales, so :meth:`PresolvedLP.postsolve` restores original
coordinates exactly: eliminated variables are exactly ``0.0`` and kept
coordinates are un-scaled by a float exponent shift, never a rounding
multiply.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.core.problem import LinearProgram
from repro.core.result import FailureReason, SolverResult, SolveStatus
from repro.presolve.scaling import (
    SCALING_METHODS,
    coefficient_decades,
    equilibrate,
)

#: Relative tolerance for declaring two rows proportional.  The
#: reductions are meant for *structurally* duplicated rows (exact
#: scalar multiples, as planted workloads and rolling-horizon streams
#: produce); near-misses stay in the problem.
_PROPORTIONAL_RTOL = 1e-12

#: Residual cells per block of the proportional-pair screen.
_SCREEN_CELLS = 1 << 18


class PresolveStatus(enum.Enum):
    """Terminal classification of a presolve pass."""

    #: A nonempty reduced problem remains for the solver.
    REDUCED = "reduced"
    #: Every row and column was eliminated; ``x = 0`` is optimal.
    SOLVED = "solved"
    #: A certificate of primal infeasibility was found.
    INFEASIBLE = "infeasible"
    #: A certificate of an unbounded objective was found.
    UNBOUNDED = "unbounded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass(frozen=True)
class PresolveReport:
    """Machine-readable account of what one presolve pass did.

    Attributes
    ----------
    status:
        Terminal :class:`PresolveStatus`.
    rows_before / cols_before / rows_after / cols_after:
        Problem shape either side of the reductions (``rows_after`` /
        ``cols_after`` count surviving rows/cols at the point the
        pipeline stopped, 0 when fully solved).
    empty_rows / redundant_rows / duplicate_rows:
        Rows dropped with no surviving coefficients, dominated by the
        sign constraints, or collapsed out of a proportional family.
    forced_cols / empty_cols / duplicate_cols:
        Columns pinned to zero by a forcing row, fixed at zero for
        lack of constraints and reward, or merged into an identical
        twin.
    passes:
        Fixpoint sweeps executed.
    scaling:
        Equilibration method applied to the surviving matrix
        (one of :data:`repro.presolve.scaling.SCALING_METHODS`).
    decades_before / decades_after:
        Conductance dynamic range (:func:`repro.presolve.scaling.
        coefficient_decades`) of the original matrix and of the scaled
        reduced matrix the mapping will actually see.
    detail:
        Human-readable certificate for INFEASIBLE / UNBOUNDED.
    """

    status: PresolveStatus
    rows_before: int
    cols_before: int
    rows_after: int
    cols_after: int
    empty_rows: int = 0
    redundant_rows: int = 0
    duplicate_rows: int = 0
    forced_cols: int = 0
    empty_cols: int = 0
    duplicate_cols: int = 0
    passes: int = 0
    scaling: str = "none"
    decades_before: float = 0.0
    decades_after: float = 0.0
    detail: str = ""

    @property
    def rows_eliminated(self) -> int:
        """Total rows removed by the reductions."""
        return self.empty_rows + self.redundant_rows + self.duplicate_rows

    @property
    def cols_eliminated(self) -> int:
        """Total columns removed by the reductions."""
        return self.forced_cols + self.empty_cols + self.duplicate_cols

    def to_dict(self) -> dict:
        """JSON-friendly form (enum flattened to its value)."""
        data = dataclasses.asdict(self)
        data["status"] = self.status.value
        return data

    def summary(self) -> str:
        """One-line human summary for CLI output and logs."""
        line = (
            f"{self.rows_before}x{self.cols_before} -> "
            f"{self.rows_after}x{self.cols_after}"
            f" (rows -{self.rows_eliminated}, cols -{self.cols_eliminated},"
            f" {self.passes} passes)"
            f" scaling={self.scaling}"
            f" decades {self.decades_before:.2f} -> {self.decades_after:.2f}"
            f" status={self.status.value}"
        )
        if self.detail:
            line += f": {self.detail}"
        return line


@dataclasses.dataclass
class PresolvedLP:
    """A reduced, scaled problem plus the recipe to undo both.

    ``problem`` is the LP to hand to the solver (``None`` when the
    report's status is terminal — use :meth:`solution` instead).
    ``row_index`` / ``col_index`` map reduced coordinates back to
    original ones; ``row_scale`` / ``col_scale`` are the power-of-two
    equilibration factors (``A' = diag(row_scale) @ A @
    diag(col_scale)``).
    """

    original: LinearProgram
    problem: LinearProgram | None
    report: PresolveReport
    row_index: np.ndarray
    col_index: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray

    def postsolve(self, result: SolverResult) -> SolverResult:
        """Map a solve of the reduced problem back to original coordinates.

        Exactness contract: eliminated variables come back as exactly
        ``0.0``; kept primal/dual coordinates are un-scaled by
        power-of-two factors, which is a float exponent shift and
        therefore bit-exact.  Slacks of dropped rows and reduced costs
        of dropped columns are recomputed from the restored point
        (dropped rows carry ``y = 0``), so the returned vectors are
        mutually consistent.  The objective is re-evaluated on the
        original problem; with power-of-two scaling it equals the
        reduced objective up to the dot-product rounding of the
        restored point.
        """
        if self.problem is None:
            raise ValueError(
                "presolve terminated with status "
                f"{self.report.status.value}; there is no reduced problem "
                "to postsolve — use solution()"
            )
        m, n = self.original.A.shape
        x_red = np.asarray(result.x, dtype=float)
        if x_red.shape != self.col_index.shape:
            raise ValueError(
                f"result has {x_red.shape[0]} variables, reduced problem "
                f"has {self.col_index.shape[0]}"
            )
        x = np.zeros(n)
        x[self.col_index] = self.col_scale * x_red
        y = np.zeros(m)
        y[self.row_index] = self.row_scale * np.asarray(result.y, dtype=float)
        w = self.original.b - self.original.A @ x
        w[self.row_index] = np.asarray(result.w, dtype=float) / self.row_scale
        z = self.original.A.T @ y - self.original.c
        z[self.col_index] = np.asarray(result.z, dtype=float) / self.col_scale
        return dataclasses.replace(
            result,
            x=x,
            y=y,
            w=w,
            z=z,
            objective=self.original.objective(x),
        )

    def solution(self) -> SolverResult:
        """The result presolve itself proved, for terminal statuses.

        SOLVED maps to OPTIMAL at ``x = 0`` (every variable was fixed
        at zero).  INFEASIBLE and UNBOUNDED both map to the solver
        family's INFEASIBLE status — the analog solvers certify "no
        finite optimum" through big-M divergence without separating
        the two cases — with :attr:`~repro.core.result.FailureReason.
        INFEASIBLE_PRESOLVE` recording that the certificate came from
        the reduction pipeline, not the array; the report keeps the
        precise UNBOUNDED/INFEASIBLE distinction.
        """
        report = self.report
        if report.status is PresolveStatus.REDUCED:
            raise ValueError(
                "presolve left a reduced problem; solve it and call "
                "postsolve() instead of solution()"
            )
        if report.status is PresolveStatus.SOLVED:
            result = _zero_point_result(
                self.original,
                SolveStatus.OPTIMAL,
                f"presolve: fully reduced in {report.passes} passes; "
                "x = 0 is optimal",
                FailureReason.NONE,
            )
            return result
        return infeasible_result(self.original, report.detail)

    def to_dict(self) -> dict:
        """JSON-friendly summary (report + index/scale vectors)."""
        return {
            "report": self.report.to_dict(),
            "row_index": [int(i) for i in self.row_index],
            "col_index": [int(j) for j in self.col_index],
            "row_scale": [float(v) for v in self.row_scale],
            "col_scale": [float(v) for v in self.col_scale],
        }


def _zero_point_result(
    problem: LinearProgram,
    status: SolveStatus,
    message: str,
    reason: FailureReason,
) -> SolverResult:
    """A zero-iteration result anchored at ``x = y = 0``."""
    m, n = problem.A.shape
    return SolverResult(
        status=status,
        x=np.zeros(n),
        y=np.zeros(m),
        w=problem.b.copy(),
        z=-problem.c,
        objective=0.0,
        iterations=0,
        message=message,
        failure_reason=reason,
    )


def infeasible_result(problem: LinearProgram, detail: str) -> SolverResult:
    """A conclusive INFEASIBLE result carrying a presolve certificate.

    Built directly (never through a solver) so the
    ``INFEASIBLE_PRESOLVE`` failure reason survives: solver paths reset
    the reason to NONE for conclusive statuses, but here the reason is
    provenance — the verdict cost zero crossbar programming.
    """
    return _zero_point_result(
        problem,
        SolveStatus.INFEASIBLE,
        f"presolve: {detail}",
        FailureReason.INFEASIBLE_PRESOLVE,
    )


class _Counts:
    """Mutable reduction counters (flattened into the report)."""

    def __init__(self) -> None:
        self.empty_rows = 0
        self.redundant_rows = 0
        self.duplicate_rows = 0
        self.forced_cols = 0
        self.empty_cols = 0
        self.duplicate_cols = 0


def _reduce_rows(
    A: np.ndarray,
    b: np.ndarray,
    row_alive: np.ndarray,
    col_alive: np.ndarray,
    counts: _Counts,
) -> tuple[bool, str | None]:
    """Empty- and singleton-row rules; returns (changed, certificate)."""
    changed = False
    cols = np.flatnonzero(col_alive)
    for i in np.flatnonzero(row_alive):
        support = cols[A[i, cols] != 0.0] if cols.size else cols
        if support.size == 0:
            if b[i] < 0.0:
                return changed, (
                    f"row {i} has no coefficients but b[{i}] = "
                    f"{b[i]:.6g} < 0"
                )
            row_alive[i] = False
            counts.empty_rows += 1
            changed = True
        elif support.size == 1:
            j = int(support[0])
            coeff = A[i, j]
            bound = b[i] / coeff
            if coeff > 0.0:
                if bound < 0.0:
                    return changed, (
                        f"row {i} forces x[{j}] <= {bound:.6g} < 0"
                    )
                if bound == 0.0:
                    col_alive[j] = False
                    row_alive[i] = False
                    counts.forced_cols += 1
                    changed = True
            elif bound <= 0.0:
                # x_j >= bound is implied by x_j >= 0: redundant row.
                row_alive[i] = False
                counts.redundant_rows += 1
                changed = True
    return changed, None


def _collapse_proportional_rows(
    A: np.ndarray,
    b: np.ndarray,
    row_alive: np.ndarray,
    col_alive: np.ndarray,
    counts: _Counts,
) -> tuple[bool, str | None]:
    """Proportional-family rule; returns (changed, certificate).

    Rows that are scalar multiples of a representative ``r`` all bound
    the same functional ``s = r @ x``: positive factors give upper
    bounds ``s <= b_i / t_i``, negative factors lower bounds.  The
    family keeps only the tightest of each; ``lower > upper`` is an
    infeasibility certificate (this is where a planted ``u`` / ``-u``
    contradiction is caught).

    Representatives are taken greedily in row order, and each one tests
    every later unclaimed row in one array expression; per element the
    arithmetic is the pairwise rule's (factor, budget, max residual), so
    the verdicts are bitwise those of a row-by-row scan.
    """
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
            continue  # empty row; the row rule owns it
        later = p + 1 + np.flatnonzero(~used[p + 1:])
        ratios = sub[later, pivot] / rep[pivot]
        nonzero = ratios != 0.0
        later, ratios = later[nonzero], ratios[nonzero]
        budgets = (_PROPORTIONAL_RTOL * peak) * np.maximum(
            1.0, np.abs(ratios)
        )
        residuals = np.abs(sub[later] - ratios[:, None] * rep).max(axis=1)
        hits = residuals <= budgets
        if not hits.any():
            continue
        members = [p, *later[hits].tolist()]
        factors = [1.0, *ratios[hits]]
        used[members] = True
        uppers = [
            (b[rows[g]] / t, g) for g, t in zip(members, factors) if t > 0.0
        ]
        lowers = [
            (b[rows[g]] / t, g) for g, t in zip(members, factors) if t < 0.0
        ]
        keep: set[int] = set()
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


def _reduce_cols(
    A: np.ndarray,
    c: np.ndarray,
    row_alive: np.ndarray,
    col_alive: np.ndarray,
    counts: _Counts,
) -> tuple[bool, str | None]:
    """Empty- and duplicate-column rules; returns (changed, certificate)."""
    changed = False
    rows = np.flatnonzero(row_alive)
    for j in np.flatnonzero(col_alive):
        if rows.size and np.any(A[rows, j] != 0.0):
            continue
        if c[j] > 0.0:
            return changed, (
                f"column {j} is unconstrained with c[{j}] = "
                f"{c[j]:.6g} > 0 (objective unbounded above)"
            )
        col_alive[j] = False
        counts.empty_cols += 1
        changed = True
    cols = np.flatnonzero(col_alive)
    if rows.size and cols.size >= 2:
        seen: dict[bytes, int] = {}
        for j in cols:
            key = A[rows, j].tobytes()
            twin = seen.get(key)
            if twin is None:
                seen[key] = int(j)
                continue
            # Merge onto the better objective coefficient; ties keep
            # the lower index.  The dropped variable is exactly 0 in
            # any restored solution (mass shifts to the kept twin
            # without changing A @ x and without lowering c @ x).
            if c[j] > c[twin]:
                drop, seen[key] = twin, int(j)
            else:
                drop = int(j)
            col_alive[drop] = False
            counts.duplicate_cols += 1
            changed = True
    return changed, None


def presolve(
    problem: LinearProgram, *, scaling: str = "ruiz"
) -> PresolvedLP:
    """Reduce and equilibrate ``problem`` ahead of crossbar mapping.

    Runs the reduction rules (module docstring) to a fixpoint, then
    applies power-of-two equilibration (``scaling`` in
    :data:`~repro.presolve.scaling.SCALING_METHODS`) to the surviving
    matrix.  The returned :class:`PresolvedLP` carries the reduced
    problem (or a terminal verdict), the :class:`PresolveReport`, and
    the exact postsolve recipe.  Deterministic: same problem in, same
    reductions out, no randomness anywhere.
    """
    if scaling not in SCALING_METHODS:
        raise ValueError(
            f"unknown scaling method {scaling!r}; expected one of "
            f"{SCALING_METHODS}"
        )
    A, b, c = problem.A, problem.b, problem.c
    m, n = A.shape
    row_alive = np.ones(m, dtype=bool)
    col_alive = np.ones(n, dtype=bool)
    counts = _Counts()
    passes = 0
    status = PresolveStatus.REDUCED
    detail = ""
    changed = True
    while changed and status is PresolveStatus.REDUCED:
        passes += 1
        changed = False
        for rule, kind in (
            (lambda: _reduce_rows(A, b, row_alive, col_alive, counts),
             PresolveStatus.INFEASIBLE),
            (lambda: _collapse_proportional_rows(
                A, b, row_alive, col_alive, counts),
             PresolveStatus.INFEASIBLE),
            (lambda: _reduce_cols(A, c, row_alive, col_alive, counts),
             PresolveStatus.UNBOUNDED),
        ):
            step_changed, certificate = rule()
            changed = changed or step_changed
            if certificate is not None:
                status = kind
                detail = certificate
                break
    rows = np.flatnonzero(row_alive)
    cols = np.flatnonzero(col_alive)
    if status is PresolveStatus.REDUCED and cols.size == 0:
        status = PresolveStatus.SOLVED
    decades_before = coefficient_decades(A)
    reduced_problem = None
    row_scale = np.ones(rows.size)
    col_scale = np.ones(cols.size)
    decades_after = 0.0
    if status is PresolveStatus.REDUCED:
        core = A[np.ix_(rows, cols)]
        row_scale, col_scale = equilibrate(core, method=scaling)
        scaled = core * row_scale[:, None] * col_scale[None, :]
        decades_after = coefficient_decades(scaled)
        reduced_problem = LinearProgram(
            c=c[cols] * col_scale,
            A=scaled,
            b=b[rows] * row_scale,
            name=f"{problem.name}:presolved" if problem.name else "presolved",
        )
    report = PresolveReport(
        status=status,
        rows_before=m,
        cols_before=n,
        rows_after=int(rows.size),
        cols_after=int(cols.size),
        empty_rows=counts.empty_rows,
        redundant_rows=counts.redundant_rows,
        duplicate_rows=counts.duplicate_rows,
        forced_cols=counts.forced_cols,
        empty_cols=counts.empty_cols,
        duplicate_cols=counts.duplicate_cols,
        passes=passes,
        scaling=scaling if status is PresolveStatus.REDUCED else "none",
        decades_before=decades_before,
        decades_after=decades_after,
        detail=detail,
    )
    return PresolvedLP(
        original=problem,
        problem=reduced_problem,
        report=report,
        row_index=rows,
        col_index=cols,
        row_scale=row_scale,
        col_scale=col_scale,
    )


def _proportional_pair(A: np.ndarray) -> bool:
    """Whether :func:`_collapse_proportional_rows` would group any two
    rows of ``A`` with every row and column alive.

    Every pair ``p < q`` is tested with the rule's own pivot, ratio,
    budget and residual arithmetic, so a pair hits here exactly when it
    hits there; with no hit the greedy scan claims no row, and so tests
    every one of these pairs.  A pair hits only if every residual cell
    is within budget, so the cell on ``q``'s own pivot column is tested
    first, for all pairs of a block of representatives at once: it
    rules out nearly every pair that is not proportional.  Blocks hold
    about :data:`_SCREEN_CELLS` residual cells, which bounds memory.
    """
    m, n = A.shape
    if m < 2:
        return False
    pivots = np.abs(A).argmax(axis=1)
    heads = A[np.arange(m), pivots]
    step = max(1, _SCREEN_CELLS // (m * n))
    for lo in range(0, m - 1, step):
        reps = np.arange(lo, min(lo + step, m - 1))
        # ratios[i, q]: row q against representative reps[i].
        ratios = A[:, pivots[reps]].T / heads[reps, None]
        budgets = (_PROPORTIONAL_RTOL * np.abs(heads[reps]))[
            :, None
        ] * np.maximum(1.0, np.abs(ratios))
        own = np.abs(heads - ratios * A[np.ix_(reps, pivots)]) <= budgets
        later = np.arange(m) > reps[:, None]
        i, q = np.nonzero(own & (ratios != 0.0) & later)
        residuals = np.abs(A[q] - ratios[i, q, None] * A[reps[i]])
        if (residuals.max(axis=1) <= budgets[i, q]).any():
            return True
    return False


def _reducible(A: np.ndarray) -> bool:
    """Whether any reduction rule can fire on ``A`` for some ``b``, ``c``.

    In the fixpoint's first pass every row and column is alive, and a
    rule can act only on a row with at most one nonzero, a column with
    none, two bit-identical columns, or two rows the proportional rule
    groups.  ``False`` therefore means that first pass changes nothing
    and finds no certificate for every right-hand side and objective:
    the fixpoint stops there with nothing reduced.
    """
    nonzero = A != 0.0
    if (nonzero.sum(axis=1) <= 1).any() or not nonzero.any(axis=0).all():
        return True
    if len({column.tobytes() for column in A.T}) < A.shape[1]:
        return True
    return _proportional_pair(A)


def detect_infeasible(problem: LinearProgram) -> str | None:
    """Cheap admission screen: certificate string if provably infeasible.

    Runs the reduction fixpoint without scaling and reports the
    infeasibility certificate, or ``None`` when presolve cannot rule
    the instance out (which is *not* a feasibility proof).  The
    serving layer calls this before placing a job so a doomed instance
    never burns O(N^2) programming writes.  When :func:`_reducible`
    finds no rule that could fire on ``A``, the answer is ``None``
    without running the fixpoint.
    """
    if not _reducible(problem.A):
        return None
    reduced = presolve(problem, scaling="none")
    if reduced.report.status is PresolveStatus.INFEASIBLE:
        return reduced.report.detail
    return None
