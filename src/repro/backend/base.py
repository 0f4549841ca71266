"""The batched-tensor backend contract.

A :class:`Backend` supplies the two hot tensor primitives of the
batched analog engine (:mod:`repro.crossbar.stack`): the transposed
matrix–vector read-out and the transposed linear solve, each evaluated
over a whole ``(K, n, m)`` stack of same-shape crossbars in one call.

The contract is deliberately tiny — everything else in the engine
(column-sum caches, variation draws, write planning) stays in numpy on
the host, because those paths must be *bitwise* reproducible member
by member and are cheap compared to the O(K·n·m) / O(K·n³)
primitives below.

Determinism rules:

- the **numpy** backend must give each member bitwise the result it
  gets as a one-member stack (the serial
  :class:`~repro.crossbar.array.CrossbarArray` is one, pinned to this
  backend).  Concretely: ``matvec_t`` evaluates ``np.matmul`` on the
  *transposed view* of the stack (a contiguous copy changes NumPy's
  pairwise-summation blocking and drifts by 1 ULP), and ``solve_t``
  passes the right-hand sides as a ``(K, n, 1)`` column stack so the
  gufunc runs the same LAPACK ``gesv`` per slice as ``np.linalg.solve``
  does for a single matrix;
- accelerator backends (torch) are *tolerance*-equal: property tests
  gate them at 1e-10 relative against numpy on well-conditioned
  stacks.
"""

from __future__ import annotations

import abc

import numpy as np


class Backend(abc.ABC):
    """Batched tensor kernels over a stack of same-shape crossbars."""

    #: Registry key and display name ("numpy", "torch", ...).
    name: str = "abstract"

    @abc.abstractmethod
    def matvec_t(self, stack: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-member transposed read-out ``out[k] = stack[k].T @ v[k]``.

        ``stack`` is ``(K, n, m)``, ``v`` is ``(K, n)``; returns
        ``(K, m)``.
        """

    @abc.abstractmethod
    def solve_t(self, stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Per-member transposed solve ``stack[k].T @ out[k] = rhs[k]``.

        ``stack`` is ``(K, n, n)``, ``rhs`` is ``(K, n)``; returns
        ``(K, n)``.  Raises :class:`numpy.linalg.LinAlgError` when any
        member's system is singular (callers needing per-member
        isolation fall back to member-wise solves on that error).
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"
