"""Software comparators: simplex and scipy."""

from repro.baselines.scipy_linprog import solve_scipy, timed_solve_scipy
from repro.baselines.simplex import solve_simplex

__all__ = [
    "solve_simplex",
    "solve_scipy",
    "timed_solve_scipy",
]
