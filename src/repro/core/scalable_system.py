"""System builders for Solver 2 (Algorithm 2, Eqns. 16a–17b).

The large-scale variant splits the Newton system into two much smaller
pieces, solved alternately on crossbars:

- **M1** over ``[Δx, Δy]``: the block matrix ``[A RU; RL Aᵀ]`` of
  Eqn. 16c.  The zero blocks of ``[A 0; 0 Aᵀ]`` are singular for
  non-square A, so the paper fills them with "balancing" blocks RU /
  RL and notes (Algorithm 2) that M1 is updated each iteration "based
  on A, x, y".
- **M2** over ``[Δz, Δw]``: the diagonal ``diag(X, Y)`` of Eqn. 16b,
  reprogrammed every iteration at O(N) cost.

**Reproduction note.** Read literally — RU, RL tiny *constants* and the
right-hand sides exactly as printed in (16a)/(17b) — the iteration
diverges unconditionally: the solve pushes a component of size
``(residual ⟂ range(A)) / ε`` into Δy (see EXPERIMENTS.md, ablation
ABL-LITERAL).  Eliminating Δw and Δz from the *full* Newton system
(9a–9d) shows what the balancing blocks must be:

.. math::

   \\begin{bmatrix} A & -WY^{-1} \\\\ ZX^{-1} & A^T \\end{bmatrix}
   \\begin{bmatrix}\\Delta x\\\\ \\Delta y\\end{bmatrix}
   =
   \\begin{bmatrix} b - Ax - \\mu/y \\\\ c - A^Ty + \\mu/x \\end{bmatrix}

i.e. RU and RL are the *state-dependent diagonals* ``-W/Y`` and
``Z/X`` — "very small" near convergence, exactly matching Algorithm 2's
per-iteration M1 update, and the printed right-hand side
``[b-Ax-w, c-Aᵀy+z]`` coincides with the exact one on the central path
where ``w = μ/y`` and ``z = μ/x``.  The default configuration therefore
uses the state-dependent coupling and exact right-hand side (the
functional reading); the literal constants are retained behind options
for the ablation study.

All analog pieces remain crossbar-native:

- ``μ/x`` and ``μ/y`` are diagonal *solves* on the M2 array;
- the recovery coupling terms ``ZΔx`` and ``WΔy`` are a multiply on a
  fourth diagonal array D = diag(Z, W);
- negative entries (A's negatives, and the RU diagonal, which is
  negative in every Δy column) are eliminated with compensation
  variables exactly as in Eqn. 13.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import LinearProgram


class ScalableNewtonSystem:
    """Index bookkeeping and matrix assembly for Algorithm 2.

    Parameters
    ----------
    problem:
        The LP being solved.
    coupling:
        ``"state"`` (default) — RU = -W/Y, RL = Z/X, updated every
        iteration; ``"constant"`` — the literal reading, RU = -eps*I,
        RL = eps*I (diverges; ablation only).
    regularization:
        The eps used by ``coupling="constant"``.
    ratio_floor:
        Lower clamp on the state-dependent coupling diagonals — they
        must stay strictly positive to be programmable and to keep M1
        non-singular.
    ratio_cap:
        Upper clamp on the coupling diagonals w/y and z/x.  With
        row-scaled arrays this can be generous (1e6); without, a
        diverging ratio would dominate the global conductance scale
        and erase A from the mapping.
    """

    def __init__(
        self,
        problem: LinearProgram,
        *,
        coupling: str = "state",
        regularization: float = 5e-3,
        ratio_floor: float = 1e-6,
        ratio_cap: float = 1e6,
    ) -> None:
        if coupling not in ("state", "constant"):
            raise ValueError(f"unknown coupling mode {coupling!r}")
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        if not 0.0 < ratio_floor <= ratio_cap:
            raise ValueError("ratio_floor must be positive, <= ratio_cap")
        self.problem = problem
        self.coupling = coupling
        self.regularization = float(regularization)
        self.ratio_floor = float(ratio_floor)
        self.ratio_cap = float(ratio_cap)
        A = problem.A
        self.m, self.n = A.shape
        self._a_plus = np.maximum(A, 0.0)
        self._a_minus = np.maximum(-A, 0.0)
        self._neg_cols = np.flatnonzero(np.any(A < 0, axis=0))
        self.neg_cols_a = tuple(int(j) for j in self._neg_cols)
        self.k_x = len(self.neg_cols_a)
        # Per-iteration update index vectors, fixed by the problem
        # shape — built once so the hot loop only fills values.
        m, n, k = self.m, self.n, self.k_x
        self._coupling_rows = np.concatenate(
            [m + np.arange(n), np.arange(m)]
        )
        self._coupling_cols = np.concatenate(
            [np.arange(n), n + m + k + np.arange(m)]
        )
        self._diag_idx = np.arange(n + m)

    # ------------------------------------------------------------------
    # M1: columns [Δx (n), Δy (m), Δp (k_x), Δq (m)]
    #     rows    [primal (m), dual (n), p-link (k_x), q-link (m)]
    # Δp are the compensation variables for A's negative columns;
    # Δq = -Δy compensate both the RU diagonal (negative in every Δy
    # column) and Aᵀ's negative entries.
    # ------------------------------------------------------------------

    @property
    def size_m1(self) -> int:
        """Dimension of the (augmented) M1 system: n + 2m + k_x."""
        return self.n + 2 * self.m + self.k_x

    def coupling_diagonals(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(|RU| diag, RL diag): clamped w/y and z/x, or constants."""
        if self.coupling == "constant":
            return (
                np.full(self.m, self.regularization),
                np.full(self.n, self.regularization),
            )
        ru = np.clip(w / y, self.ratio_floor, self.ratio_cap)
        rl = np.clip(z / x, self.ratio_floor, self.ratio_cap)
        return ru, rl

    def build_m1(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
        *,
        with_coupling: bool = True,
    ) -> np.ndarray:
        """The augmented non-negative M1 (Eqn. 16d analogue).

        ``with_coupling=False`` gives the constant multiply matrix of
        Eqn. 17a (coupling blocks zeroed) used to form r1.
        """
        n, m, k = self.n, self.m, self.k_x
        size = self.size_m1
        M = np.zeros((size, size))
        col_x, col_y = 0, n
        col_p, col_q = n + m, n + m + k
        row_p, row_d = 0, m
        row_pl, row_ql = m + n, m + n + k

        M[row_p:row_p + m, col_x:col_x + n] = self._a_plus
        M[row_d:row_d + n, col_y:col_y + m] = self._a_plus.T
        for idx, j in enumerate(self.neg_cols_a):
            M[row_p:row_p + m, col_p + idx] = self._a_minus[:, j]
            M[row_pl + idx, col_x + j] = 1.0
        # Aᵀ's negative entries live in the Δq compensation columns.
        M[row_d:row_d + n, col_q:col_q + m] = self._a_minus.T
        if with_coupling:
            ru, rl = self.coupling_diagonals(x, y, w, z)
            # RU = -diag(ru) on the Δy columns: absolute values go to Δq.
            M[row_p:row_p + m, col_q:col_q + m] += np.diag(ru)
            # RL = +diag(rl) on the Δx columns of the dual rows.
            M[row_d:row_d + n, col_x:col_x + n] += np.diag(rl)
        M[row_pl:row_pl + k, col_p:col_p + k] = np.eye(k)
        M[row_ql:row_ql + m, col_y:col_y + m] = np.eye(m)
        M[row_ql:row_ql + m, col_q:col_q + m] = np.eye(m)
        return M

    def m1_coupling_update(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """O(N) per-iteration cell updates of the M1 solve array.

        Only the two coupling diagonals move: n cells for RL and m for
        |RU| — the "update M1 based on A, x, y" line of Algorithm 2.
        Returned as (rows, cols, values).  Note these are *additive
        overlays* only where A contributes nothing: the RL cells sit on
        the dual-row/x-column diagonal and the |RU| cells on the
        primal-row/q-column diagonal, both structurally zero in A's
        blocks, so plain assignment is correct.
        """
        ru, rl = self.coupling_diagonals(x, y, w, z)
        values = np.concatenate([rl, ru])
        return self._coupling_rows, self._coupling_cols, values

    def state_vector_m1(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pack ``[x, y, p, q] = [x, y, -x_sel, -y]`` for the r1 multiply."""
        return np.concatenate([x, y, -x[self._neg_cols], -y])

    def residual_m1(
        self,
        product: np.ndarray,
        mu_over_x: np.ndarray,
        mu_over_y: np.ndarray,
    ) -> np.ndarray:
        """r1 = ``[b - Ax - μ/y, c - Aᵀy + μ/x, 0, 0]``.

        ``product`` is the multiply of the *uncoupled* M1 by the packed
        state, i.e. ``[Ax, Aᵀy, 0, 0]``; ``mu_over_x`` / ``mu_over_y``
        come from a diagonal solve on the M2 array.
        """
        n, m = self.n, self.m
        r = np.zeros(self.size_m1)
        r[:m] = self.problem.b - product[:m] - mu_over_y
        r[m:m + n] = self.problem.c - product[m:m + n] + mu_over_x
        return r

    def paper_residual_m1(
        self,
        product: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
    ) -> np.ndarray:
        """The literal Eqn. 17a right-hand side ``[b-Ax-w, c-Aᵀy+z, 0]``.

        Used by the ablation mode only: it equals :meth:`residual_m1`
        on the central path (where w = μ/y, z = μ/x) but differs during
        the transient, breaking primal convergence.
        """
        n, m = self.n, self.m
        r = np.zeros(self.size_m1)
        r[:m] = self.problem.b - product[:m] - w
        r[m:m + n] = self.problem.c - product[m:m + n] + z
        return r

    def infeasibility_norms(
        self,
        product: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
    ) -> tuple[float, float]:
        """(primal, dual) infinity norms from the r1 multiply product.

        ``b - Ax - w`` and ``c - Aᵀy + z`` reuse the analog products
        ``Ax`` and ``Aᵀy`` already computed for r1.
        """
        n, m = self.n, self.m
        primal = self.problem.b - product[:m] - w
        dual = self.problem.c - product[m:m + n] + z
        return (
            float(np.max(np.abs(primal), initial=0.0)),
            float(np.max(np.abs(dual), initial=0.0)),
        )

    def extract_steps_m1(
        self, delta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unpack ``(Δx, Δy)`` from the M1 solution."""
        if delta.shape != (self.size_m1,):
            raise ValueError(
                f"expected solution of shape ({self.size_m1},), got "
                f"{delta.shape}"
            )
        return delta[: self.n].copy(), delta[self.n:self.n + self.m].copy()

    # ------------------------------------------------------------------
    # M2 = diag(X, Y) and D = diag(Z, W)
    # ------------------------------------------------------------------

    @property
    def size_m2(self) -> int:
        """Dimension of the M2 / D systems: n + m."""
        return self.n + self.m

    def m2_diagonal(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Diag entries ``[x, y]`` of Eqn. 16b's matrix (order: x, y)."""
        return np.concatenate([x, y])

    def build_m2(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The diagonal matrix diag(X, Y) of Eqn. 16b."""
        return np.diag(self.m2_diagonal(x, y))

    def d_diagonal(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Diag entries ``[z, w]`` of the recovery-coupling array D."""
        return np.concatenate([z, w])

    def build_d(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The diagonal matrix diag(Z, W) multiplying ``[Δx, Δy]``."""
        return np.diag(self.d_diagonal(z, w))

    def diag_update(
        self,
        values: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) for reprogramming a diagonal array."""
        return self._diag_idx, self._diag_idx, values

    def residual_m2(
        self,
        mu: float,
        xz_yw_product: np.ndarray,
        coupling_product: np.ndarray | None,
    ) -> np.ndarray:
        """r2 for the recovery solve (Eqn. 16b, with coupling).

        ``xz_yw_product`` is ``M2 @ [z, w] = [XZe, YWe]``;
        ``coupling_product`` is ``D @ [Δx, Δy] = [ZΔx, WΔy]`` (pass
        ``None`` for the literal Eqn. 17b, which omits it).
        """
        r = mu * np.ones(self.size_m2) - xz_yw_product
        if coupling_product is not None:
            r = r - coupling_product
        return r

    def extract_steps_m2(
        self, delta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unpack ``(Δz, Δw)`` from the M2 recovery solution."""
        if delta.shape != (self.size_m2,):
            raise ValueError(
                f"expected solution of shape ({self.size_m2},), got "
                f"{delta.shape}"
            )
        return delta[: self.n].copy(), delta[self.n:].copy()
