"""Matrix <-> conductance mapping.

A memristor can only realize conductances in ``[g_off, g_on]``; matrix
coefficients must therefore be *non-negative* and scaled into that
window before programming.  This module implements the "fast and
simple" proportional mapping the paper adopts from Hu et al. (CISDA
2013, cited as [8]):

.. math::

   g_{i,j} = \\frac{g_{max}}{a_{max}} \\, A_{j,i}

(``a_max`` is the largest coefficient, ``g_max`` the largest realizable
conductance; note the transpose — the crossbar realizes ``G^T = s A``).
Entries that would fall below the device's OFF conductance are clamped
to ``g_off``; the resulting leakage is part of the hardware error
budget and may optionally be compensated at read-out (a standard
dummy-row technique) by subtracting the known floor contribution.

The :class:`ConductanceMapping` records every scale factor so results
read from the crossbar can be decoded back into problem units.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.devices.models import DeviceParameters
from repro.exceptions import MappingError


@dataclasses.dataclass(frozen=True)
class ConductanceMapping:
    """Result of mapping a coefficient matrix onto device conductances.

    Attributes
    ----------
    conductances:
        The programmed conductance matrix ``G`` with ``g[i, j]``
        connecting word-line *i* to bit-line *j*; shape (n_rows,
        n_cols) = ``matrix.T.shape``.
    scale:
        The proportionality factor(s) ``s`` such that ``G^T ≈ s * A``
        (exactly, before floor clamping).  A scalar for the global fast
        mapping; a vector of per-output-row scales (one per bit-line)
        for the row-equilibrated mapping, where each equation row of
        the coefficient matrix is scaled independently and compensated
        at the converters.
    floor:
        The conductance floor ``g_off`` entries were clamped to.
    floored:
        Boolean mask over ``G`` marking entries that sit at the floor
        because their coefficient was too small to represent.
    a_max:
        The largest coefficient of the mapped matrix.
    """

    conductances: np.ndarray
    scale: float | np.ndarray
    floor: float
    floored: np.ndarray
    a_max: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.conductances.shape

    @property
    def per_row(self) -> bool:
        """Whether this mapping carries per-row (per-bit-line) scales."""
        return isinstance(self.scale, np.ndarray)

    @property
    def scale_vector(self) -> np.ndarray:
        """Scales broadcast to one entry per output row (bit-line)."""
        n_out = self.conductances.shape[1]
        if self.per_row:
            return self.scale
        return np.full(n_out, float(self.scale))

    def decode_matrix(self) -> np.ndarray:
        """Recover the coefficient matrix implied by the conductances.

        Floor-clamped entries decode to their (nonzero) floor value —
        the leakage a real array would exhibit.
        """
        return self.conductances.T / self.scale_vector[:, None]


def map_cells(
    values: np.ndarray,
    scale: float | np.ndarray,
    params: DeviceParameters,
    *,
    off_state: str = "zero",
    bits: int | None = None,
    quantization: str = "entry",
) -> tuple[np.ndarray, np.ndarray]:
    """Map a scattered set of coefficient values to conductance targets.

    The O(#cells) counterpart of :func:`map_matrix`: applies the same
    ``target = scale * value`` mapping and ``g_off`` floor handling to
    an arbitrary cell subset, so a differential update (see
    :func:`~repro.crossbar.stack.write_cells`) never touches the full
    grid.  ``scale`` may be a scalar (global mapping) or an array
    broadcastable against ``values`` (per-row mapping, caller
    pre-gathers the row scales).

    ``bits`` optionally models the resolution of the write-path DAC:
    targets are snapped to ``bits`` of precision via
    :func:`~repro.crossbar.quantization.quantize_cells` *before* the
    floor comparison, which in ``"entry"`` mode is element-wise and
    therefore agrees bitwise with quantizing the full grid.  The
    default ``None`` keeps exact targets (the paper models write
    resolution through pulse granularity instead).

    Returns ``(targets, floored)`` where ``floored`` marks cells whose
    coefficient fell below the representable floor.
    """
    if off_state not in ("zero", "leak"):
        raise MappingError(f"unknown off_state {off_state!r}")
    target = values * scale
    if bits is not None:
        from repro.crossbar.quantization import quantize_cells

        target = quantize_cells(target, bits, quantization)
    floored = target < params.g_off
    if off_state == "zero":
        target = np.where(floored, 0.0, target)
    else:
        target = np.where(floored, params.g_off, target)
    return target, floored


def map_matrix(
    matrix: np.ndarray,
    params: DeviceParameters,
    *,
    scale: float | None = None,
    off_state: str = "zero",
) -> ConductanceMapping:
    """Map a non-negative coefficient matrix to crossbar conductances.

    Parameters
    ----------
    matrix:
        Coefficient matrix ``A`` (n_out, n_in); must be non-negative
        and finite.  The crossbar realizes ``G^T = s A``, so the
        returned conductance array has shape ``(n_in, n_out)``.
    params:
        Device preset supplying ``g_on`` (= g_max) and ``g_off``.
    scale:
        Optional explicit scale ``s``.  By default the fast mapping
        ``s = g_max / a_max`` is used, which places the largest
        coefficient at full conductance.  Pass a smaller value to share
        one scale across several arrays (the NoC tiles of one logical
        matrix must agree on scale).
    off_state:
        What happens to coefficients too small to represent (below
        ``g_off`` after scaling):

        - ``"zero"`` (default) — the cell is cut off entirely, as in a
          1T1R array whose selector transistor isolates the device;
          sub-``g_off`` targets truncate to exactly 0.
        - ``"leak"`` — a passive crossbar: every crosspoint is
          populated, so the smallest realizable conductance is
          ``g_off`` and sub-``g_off`` targets clamp *up* to it,
          leaking current.  Used in ablation studies.

    Raises
    ------
    MappingError
        If the matrix contains negative or non-finite entries, is
        empty, or the requested scale drives some entry above ``g_on``.
    """
    if off_state not in ("zero", "leak"):
        raise MappingError(f"unknown off_state {off_state!r}")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise MappingError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    if matrix.size == 0:
        raise MappingError("cannot map an empty matrix")
    if not np.all(np.isfinite(matrix)):
        raise MappingError("matrix contains non-finite entries")
    if np.any(matrix < 0):
        raise MappingError(
            "matrix contains negative coefficients; memristance is "
            "non-negative — eliminate negatives first (Eqn. 13)"
        )

    a_max = float(matrix.max())
    if a_max == 0.0:
        # All-zero matrix: every device rests at the OFF state.
        a_max = 1.0  # arbitrary; scale is irrelevant for zeros
    if scale is None:
        scale = params.g_on / a_max
    if scale <= 0:
        raise MappingError(f"scale must be positive, got {scale}")

    target = scale * matrix.T
    if target.max() > params.g_on * (1 + 1e-12):
        raise MappingError(
            f"scale {scale:.3e} drives conductance {target.max():.3e} above "
            f"g_on={params.g_on:.3e}"
        )
    floored = target < params.g_off
    if off_state == "zero":
        conductances = np.where(floored, 0.0, target)
        floor = 0.0
    else:
        conductances = np.where(floored, params.g_off, target)
        floor = params.g_off
    return ConductanceMapping(
        conductances=conductances,
        scale=float(scale),
        floor=floor,
        floored=floored,
        a_max=a_max,
    )


def map_matrix_per_row(
    matrix: np.ndarray,
    params: DeviceParameters,
    *,
    headroom: float = 1.0,
    off_state: str = "zero",
) -> ConductanceMapping:
    """Row-equilibrated mapping: one conductance scale per output row.

    In solve mode each bit-line carries one *equation* of the linear
    system; scaling all conductances on a bit-line together with the
    voltage forced on its sense node leaves the solution unchanged
    (row equilibration performed physically).  In multiply mode the
    per-column output simply decodes with its own scale.  This lets a
    matrix whose rows have wildly different magnitudes — e.g. the
    state-dependent coupling diagonals of Solver 2 — fit the device
    window row by row instead of being crushed by one global ``a_max``.

    Each row's scale is ``g_on / (headroom * row_max)``; all-zero rows
    get a scale of ``g_on`` (nothing to program).

    Raises
    ------
    MappingError
        Same validation as :func:`map_matrix`.
    """
    if off_state not in ("zero", "leak"):
        raise MappingError(f"unknown off_state {off_state!r}")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise MappingError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    if matrix.size == 0:
        raise MappingError("cannot map an empty matrix")
    if not np.all(np.isfinite(matrix)):
        raise MappingError("matrix contains non-finite entries")
    if np.any(matrix < 0):
        raise MappingError(
            "matrix contains negative coefficients; memristance is "
            "non-negative — eliminate negatives first (Eqn. 13)"
        )
    if headroom < 1.0:
        raise MappingError("headroom must be >= 1")

    row_max = matrix.max(axis=1)
    scales = np.where(
        row_max > 0, params.g_on / (np.maximum(row_max, 1e-300) * headroom),
        params.g_on,
    )
    target = (matrix * scales[:, None]).T
    floored = target < params.g_off
    if off_state == "zero":
        conductances = np.where(floored, 0.0, target)
        floor = 0.0
    else:
        conductances = np.where(floored, params.g_off, target)
        floor = params.g_off
    a_max = float(matrix.max()) if matrix.size else 0.0
    return ConductanceMapping(
        conductances=conductances,
        scale=scales,
        floor=floor,
        floored=floored,
        a_max=a_max if a_max > 0 else 1.0,
    )


@dataclasses.dataclass(frozen=True)
class DynamicRangeReport:
    """How a matrix's coefficient spread fits the device window.

    The fast proportional mapping pins the largest coefficient at
    ``g_on``; every coefficient more than ``log10(g_on / g_off)``
    decades below it falls off the representable floor and is clamped.
    This report quantifies that loss ahead of programming so callers
    can decide to equilibrate first (:func:`repro.presolve.scaling.
    equilibrate` reduces the spanned decades without changing the LP).

    Attributes
    ----------
    decades_spanned:
        ``log10(max|a| / min nonzero |a|)`` of the matrix.
    decades_representable:
        ``log10(g_on / g_off)`` of the device window.
    floored_fraction:
        Fraction of *nonzero* coefficients that would clamp to the
        floor under the fast global mapping.
    """

    decades_spanned: float
    decades_representable: float
    floored_fraction: float

    @property
    def fits(self) -> bool:
        """Whether every nonzero coefficient is representable."""
        return self.decades_spanned <= self.decades_representable

    def to_dict(self) -> dict:
        """Plain-dict form for JSON reports."""
        return {
            "decades_spanned": self.decades_spanned,
            "decades_representable": self.decades_representable,
            "floored_fraction": self.floored_fraction,
            "fits": self.fits,
        }


def dynamic_range_report(
    matrix: np.ndarray, params: DeviceParameters
) -> DynamicRangeReport:
    """Measure how ``matrix`` fits the device's conductance window.

    Accepts coefficients of any sign (only magnitudes matter — the
    negative-elimination step preserves them).  Useful before and after
    presolve equilibration to verify the scaling actually bought
    representable coefficients.
    """
    from repro.presolve.scaling import coefficient_decades

    matrix = np.asarray(matrix, dtype=float)
    magnitudes = np.abs(matrix)
    nonzero = magnitudes[magnitudes > 0]
    decades = coefficient_decades(matrix)
    representable = float(np.log10(params.g_on / params.g_off))
    if nonzero.size == 0:
        return DynamicRangeReport(0.0, representable, 0.0)
    # Fast mapping: scale = g_on / a_max, floor at g_off.
    floored = nonzero * (params.g_on / float(nonzero.max())) < params.g_off
    return DynamicRangeReport(
        decades_spanned=decades,
        decades_representable=representable,
        floored_fraction=float(np.mean(floored)),
    )


def shared_scale(
    matrices: list[np.ndarray], params: DeviceParameters
) -> float:
    """Scale factor valid for all given non-negative matrices.

    Used when one logical matrix is split across NoC tiles: all tiles
    must be programmed with the same coefficient-to-conductance scale
    so their analog outputs are commensurable.
    """
    if not matrices:
        raise MappingError("need at least one matrix")
    a_max = 0.0
    for matrix in matrices:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.size and np.any(matrix < 0):
            raise MappingError("matrices must be non-negative")
        if matrix.size:
            a_max = max(a_max, float(matrix.max()))
    if a_max == 0.0:
        a_max = 1.0
    return params.g_on / a_max
