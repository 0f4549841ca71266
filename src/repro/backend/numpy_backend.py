"""Default numpy backend: each member bitwise as a one-member stack.

Serial arrays and operators are one-member stacks pinned to this
backend.  The two kernels are the exact expressions the property suite
pins against member-by-member evaluation
(``tests/property/test_backend_equivalence.py``):

- ``matvec_t`` calls ``np.matmul`` on the transposed *view* of the
  stack.  NumPy's pairwise summation blocks by memory layout, so a
  contiguous copy of the transpose would drift from the serial
  ``a.T @ v`` by 1 ULP — the view does not.
- ``solve_t`` stacks the right-hand sides as ``(K, n, 1)`` columns;
  the ``linalg.solve`` gufunc then runs the same LAPACK ``gesv`` per
  slice as the serial single-matrix call (a ``(K, n)`` rhs would be
  read as one ``(n, n)`` matrix of simultaneous right-hand sides).
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Backend


class NumpyBackend(Backend):
    """Batched kernels on the host CPU via numpy gufuncs."""

    name = "numpy"

    def matvec_t(self, stack: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``out[k] = stack[k].T @ v[k]``, bitwise == a per-member loop."""
        return np.matmul(stack.transpose(0, 2, 1), v[:, :, None])[:, :, 0]

    def solve_t(self, stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``solve(stack[k].T, rhs[k])``, bitwise == a per-member loop."""
        return np.linalg.solve(
            stack.transpose(0, 2, 1), rhs[:, :, None]
        )[:, :, 0]
