"""Warm-start iterate construction for parameter-streaming re-solves.

A re-solve that changes only ``b``/``c`` leaves the programmed array
valid (the structural fingerprint excludes both), so the only remaining
cost is PDIP iterations.  Starting those iterations from the previous
optimum instead of the solvers' flat ``initial_value`` point turns a
full cold trajectory into a short polish: after a small parameter
drift the old optimum is already nearly primal/dual feasible.

The one hazard is complementarity: at an optimum roughly half of
``(x, w)`` / ``(y, z)`` sit at (numerical) zero, and a PDIP step from
an exactly-boundary point stalls — the ratio test returns a zero step
and the complementarity diagonals underflow the conductance range.
:func:`warm_start_state` therefore clamps every coordinate at a small
fraction of the cold-start ``initial_value``, re-centering the point
just inside the cone while keeping it close enough to the old optimum
that only a few polish iterations remain.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import LinearProgram
from repro.core.result import SolverResult
from repro.core.settings import CrossbarSolverSettings

#: Fraction of ``settings.initial_value`` used as the interior floor.
#: 2% keeps the point close enough to the old optimum for a short
#: polish while leaving the complementarity diagonals representable on
#: the analog array: smaller floors (1e-3) were observed to turn the
#: first Newton system near-singular under device variation.
DEFAULT_FLOOR_SCALE = 0.02

#: Type of a warm-start state: ``(x, y, w, z)`` arrays.
WarmState = "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]"


def warm_start_state(
    result: SolverResult,
    problem: LinearProgram,
    settings: CrossbarSolverSettings,
    *,
    floor_scale: float = DEFAULT_FLOOR_SCALE,
):
    """Build a PDIP starting state ``(x, y, w, z)`` from a prior result.

    ``result`` is the previous solve of a problem with the same
    structure (same ``A`` shape; typically the same ``A``), ``problem``
    the new instance.  Every coordinate is clamped at
    ``settings.initial_value * floor_scale`` so the state is strictly
    interior (see module note).  Raises :class:`ValueError` when the
    stored iterates do not match the problem's dimensions — callers
    treat that as "no warm start available" and fall back cold.
    """
    m, n = problem.A.shape
    floor = float(settings.initial_value) * float(floor_scale)
    if floor <= 0.0:
        raise ValueError("floor_scale must leave a positive interior floor")
    parts = []
    for label, values, size in (
        ("x", result.x, n),
        ("y", result.y, m),
        ("w", result.w, m),
        ("z", result.z, n),
    ):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (size,):
            raise ValueError(
                f"previous result's {label} has shape {arr.shape}, "
                f"expected ({size},) for this problem"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"previous result's {label} is not finite")
        parts.append(np.maximum(arr, floor))
    return tuple(parts)


def validated_state(
    initial_state,
    m: int,
    n: int,
    settings: CrossbarSolverSettings,
):
    """Coerce a caller-supplied ``(x, y, w, z)`` state for one attempt.

    :class:`~repro.core.attempt.AttemptState` calls this at the top of
    every warm-started attempt of both crossbar solvers: the state is
    copied, shape- and finiteness-checked against the problem
    dimensions, and clamped at ``settings.positivity_floor`` (the same
    floor the PDIP loop enforces between iterations).  Raises
    :class:`ValueError` on any mismatch.
    """
    try:
        x, y, w, z = initial_state
    except (TypeError, ValueError) as exc:
        raise ValueError(
            "initial_state must be a (x, y, w, z) quadruple"
        ) from exc
    floor = float(settings.positivity_floor)
    parts = []
    for label, values, size in (
        ("x", x, n), ("y", y, m), ("w", w, m), ("z", z, n)
    ):
        arr = np.array(values, dtype=float, copy=True)
        if arr.shape != (size,):
            raise ValueError(
                f"initial_state {label} has shape {arr.shape}, "
                f"expected ({size},)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"initial_state {label} is not finite")
        parts.append(np.maximum(arr, floor))
    return tuple(parts)
