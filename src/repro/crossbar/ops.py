"""High-level analog matrix operations in problem units.

:class:`AnalogMatrixOperator` wraps a non-negative coefficient matrix
``A`` and a simulated :class:`~repro.crossbar.array.CrossbarArray`, and
exposes the two primitives the PDIP solvers use:

- ``multiply(x)``  — returns ``y ≈ A x``      (Eqn. 5 read-out)
- ``solve(b)``     — returns ``x ≈ A^{-1} b`` (current-balance mode)

All encoding details live here: the proportional conductance mapping,
input-voltage scaling into the sub-threshold read window, 8-bit DAC/ADC
quantization of every vector crossing the analog boundary, and decoding
back into problem units with the *nominal* scale factors (the digital
controller only knows what it programmed — deviation of the actual
conductances is exactly the process-variation error the paper studies).

Two mapping policies are supported:

- **global** (default; the paper's fast mapping from Hu et al. [8]):
  one scale ``s = g_on / (headroom * a_max)`` for the whole array.
- **row-scaled** (``row_scaling=True``): each *output row* (bit-line)
  carries its own scale.  Physically this is row equilibration done in
  hardware — in solve mode a bit-line holds one equation, and scaling
  its conductances together with the voltage forced on its sense node
  leaves the solution unchanged; in multiply mode the per-column
  output decodes with its own scale.  Row scales follow the row maxima
  with hysteresis, so a rescale (a full-row rewrite) only happens when
  a row's magnitude drifts far from its window; routine updates remain
  O(cells changed).

Coefficient updates (the O(N) per-iteration rewrites of the X, Y, Z, W
blocks) go through :meth:`AnalogMatrixOperator.update_coefficients`.
"""

from __future__ import annotations

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import map_cells
from repro.crossbar.programming import WriteReport
from repro.crossbar.quantization import quantize_auto
from repro.devices.models import HP_TIO2, DeviceParameters
from repro.devices.variation import NoVariation, VariationModel
from repro.exceptions import MappingError
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.verify import WriteVerifyPolicy

#: A row is rescaled when its peak conductance target would exceed
#: ``g_on`` (overflow) or fall below ``g_on / (headroom * HYSTERESIS)``
#: (precision loss).  Between those bounds the old scale is kept, so
#: per-iteration updates rarely trigger full-row rewrites.
ROW_SCALE_HYSTERESIS = 8.0


class AnalogMatrixOperator:
    """A coefficient matrix realized on a simulated memristor crossbar.

    Parameters
    ----------
    matrix:
        Non-negative coefficient matrix ``A`` of shape
        ``(n_out, n_in)``.
    params:
        Memristor device preset.
    variation:
        Process-variation model (default: ideal hardware).
    rng:
        Random generator used for variation draws.
    dac_bits, adc_bits:
        Converter resolutions; the paper uses 8 bits for all voltage
        I/O.  ``None`` disables quantization on that side (ablations).
    quantization:
        ``"entry"`` (default) — per-entry relative precision (8-bit
        mantissa, a per-channel converter gain); ``"vector"`` — one
        programmable-gain converter per vector, uniform grid relative
        to the vector peak.  See
        :func:`repro.crossbar.quantization.quantize_auto`.
    scale_headroom:
        Scales are chosen ``headroom`` below the top of the device
        window so coefficients may grow by this factor during
        iterative updates before a remap is needed.  Must be >= 1.
    row_scaling:
        Use the row-equilibrated mapping instead of one global scale.
    off_state:
        ``"zero"`` (1T1R, default) or ``"leak"`` (passive array) —
        what happens to coefficients too small to represent.
    compensate_leak:
        In ``"leak"`` mode, digitally subtract the known floor-current
        contribution from multiply read-outs (dummy-row compensation).
        Ignored in ``"zero"`` mode.
    g_sense:
        Sense-resistor conductance; defaults to the device ``g_on``.
    write_verify:
        Closed-loop programming policy forwarded to the underlying
        :class:`~repro.crossbar.array.CrossbarArray`; ``None`` keeps
        open-loop programming.
    tracer:
        Observability hook (:mod:`repro.obs`): analog multiplies and
        solves are wrapped in ``op.multiply`` / ``op.solve`` spans and
        bump the ``analog.*`` counters; the tracer is forwarded to the
        underlying array for write accounting.  Defaults to the
        zero-overhead no-op tracer.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        params: DeviceParameters = HP_TIO2,
        variation: VariationModel | None = None,
        rng: np.random.Generator | None = None,
        dac_bits: int | None = 8,
        adc_bits: int | None = 8,
        quantization: str = "entry",
        scale_headroom: float = 1.0,
        row_scaling: bool = False,
        off_state: str = "zero",
        compensate_leak: bool = True,
        g_sense: float | None = None,
        write_verify: WriteVerifyPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise MappingError("expected a 2-D coefficient matrix")
        if matrix.size == 0:
            raise MappingError("cannot wrap an empty matrix")
        if not np.all(np.isfinite(matrix)):
            raise MappingError("matrix contains non-finite entries")
        if np.any(matrix < 0):
            raise MappingError(
                "matrix contains negative coefficients; memristance is "
                "non-negative — eliminate negatives first (Eqn. 13)"
            )
        if scale_headroom < 1.0:
            raise ValueError("scale_headroom must be >= 1")
        if off_state not in ("zero", "leak"):
            raise ValueError(f"unknown off_state {off_state!r}")
        self.params = params
        self.variation = variation if variation is not None else NoVariation()
        self.rng = rng if rng is not None else np.random.default_rng()
        if quantization not in ("entry", "vector"):
            raise ValueError(f"unknown quantization mode {quantization!r}")
        self.dac_bits = dac_bits
        self.adc_bits = adc_bits
        self.quantization = quantization
        self.scale_headroom = float(scale_headroom)
        self.row_scaling = bool(row_scaling)
        self.off_state = off_state
        self.compensate_leak = bool(compensate_leak)

        self.tracer = tracer if tracer is not None else NOOP
        self.n_out, self.n_in = matrix.shape
        self._coefficients = matrix.copy()
        self.array = CrossbarArray(
            self.n_in,
            self.n_out,
            params=params,
            variation=self.variation,
            g_sense=g_sense,
            rng=self.rng,
            write_verify=write_verify,
            tracer=self.tracer,
        )
        self._scales = self._fresh_scales()
        self._solve_gain_cache: tuple[float, np.ndarray | None] | None = None
        self._floored = np.zeros((self.n_in, self.n_out), dtype=bool)
        self._full_reprograms = 0
        self._program_rows(np.arange(self.n_out))
        self._full_reprograms = 1

    @staticmethod
    def build_stack(matrices: np.ndarray, **kwargs):
        """Construct a batched fleet of operators in one tensor pass.

        ``matrices`` is a ``(K, n_out, n_in)`` stack (or list of K
        equal-shape 2-D arrays); keyword arguments are those of
        :class:`~repro.crossbar.opstack.AnalogOperatorStack` (same
        encoding knobs as this class, plus ``rngs`` — one generator
        per member — and ``backend``).  With the numpy backend each
        member is bitwise-identical to a serial operator built with
        the same settings and generator; construction, programming and
        the per-iteration primitives all run as single batched calls.
        """
        from repro.crossbar.opstack import AnalogOperatorStack

        return AnalogOperatorStack(np.asarray(matrices, dtype=float), **kwargs)

    # -- scale management -------------------------------------------------

    def _fresh_scales(self) -> np.ndarray:
        """Scales implied by the current coefficients, no hysteresis."""
        if self.row_scaling:
            row_max = self._coefficients.max(axis=1, initial=0.0)
            safe = np.maximum(row_max, 1e-300)
            return np.where(
                row_max > 0,
                self.params.g_on / (safe * self.scale_headroom),
                self.params.g_on,
            )
        a_max = float(self._coefficients.max(initial=0.0))
        if a_max <= 0.0:
            a_max = 1.0
        scale = self.params.g_on / (a_max * self.scale_headroom)
        return np.full(self.n_out, scale)

    def _program_rows(self, rows: np.ndarray) -> WriteReport:
        """(Re)program all cells of the given coefficient rows.

        ``rows`` are sorted and unique.  The rows' targets form one
        ``(len(rows), n_in)`` block; a single 2-D ``!=`` against the
        programmed block plus ``nonzero`` finds the cells that move,
        listed in the grid's ``n_in``-major order, and only those reach
        the array.  Unchanged cells (the structural zeros of a sparse
        system, or rows rescaled back to the scale they already hold)
        cost nothing, so a "full" reprogram is O(cells that move) in
        writes and one block pass on the host.
        """
        block, floored = map_cells(
            self._coefficients[rows, :],
            self._scales[rows, None],
            self.params,
            off_state=self.off_state,
        )
        self._floored[:, rows] = floored.T
        # Crossbar cell (i, j) carries A[j, i]: compare in coefficient
        # orientation, where both blocks are contiguous, and walk the
        # transposed mask so the cells come out n_in-major.
        moved = block != self.array._nominal.T[rows]
        cells_in, cells_row = moved.T.nonzero()
        return self.array.program_cells(
            cells_in, rows[cells_row], block[cells_row, cells_in]
        )

    # -- public accessors --------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """The nominal coefficient matrix currently programmed; copy."""
        return self._coefficients.copy()

    @property
    def scale(self) -> float:
        """Global coefficient-to-conductance scale ``s``.

        Only meaningful without row scaling; raises otherwise.
        """
        if self.row_scaling:
            raise MappingError(
                "row-scaled operator has no single scale; use scale_vector"
            )
        return float(self._scales[0])

    @property
    def scale_vector(self) -> np.ndarray:
        """Per-output-row coefficient-to-conductance scales; copy."""
        return self._scales.copy()

    @property
    def min_coefficient(self) -> float:
        """Smallest strictly-positive coefficient every row can store.

        Coefficients below ``g_off / scale`` truncate to the off
        state.  Solvers that need an entry to stay nonzero clamp their
        updates to this floor (conservatively, the worst row's floor).
        """
        return float(np.max(self.params.g_off / self._scales))

    @property
    def full_reprograms(self) -> int:
        """Number of whole-array programming events (incl. the first)."""
        return self._full_reprograms

    # -- coefficient updates -------------------------------------------------

    def update_coefficients(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        *,
        floor_to_representable: bool = False,
    ) -> WriteReport:
        """Rewrite selected coefficients ``A[rows, cols] = values``.

        Only the affected crossbar cells are reprogrammed — the O(N)
        iteration-update primitive of Section 3.5.  Values outgrowing
        the programmed window trigger a remap: global mode reprograms
        the whole array with a new scale; row mode rescales only the
        rows whose maxima left their hysteresis window.

        Parameters
        ----------
        rows, cols, values:
            Cell coordinates and their new coefficient values (>= 0).
        floor_to_representable:
            Clamp each value *up* to the smallest coefficient its row
            can represent instead of letting it truncate to the off
            state.  Solvers use this for diagonal cells whose vanishing
            would make the programmed system singular.  The clamp uses
            the scales in effect after any remap this update triggers.

        Returns the :class:`WriteReport` for the write that happened.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols, values must have matching shapes")
        if values.size == 0:
            return self.array.program_cells(
                np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
            )
        if values.min() < 0:
            raise MappingError("coefficients must be non-negative")

        self._coefficients[rows, cols] = values
        if self.row_scaling:
            return self._update_row_scaled(
                rows, cols, values, floor_to_representable
            )
        return self._update_global(rows, cols, values, floor_to_representable)

    def _update_global(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        floor_to_representable: bool,
    ) -> WriteReport:
        scale = float(self._scales[0])
        needs_remap = values.max() * scale > self.params.g_on
        if needs_remap:
            a_max = max(float(self._coefficients.max()), 1e-300)
            scale_after = self.params.g_on / (a_max * self.scale_headroom)
        else:
            scale_after = scale
        if floor_to_representable:
            values = np.maximum(values, self.params.g_off / scale_after)
            self._coefficients[rows, cols] = values
        if needs_remap:
            self._scales = np.full(self.n_out, scale_after)
            self._solve_gain_cache = None
            report = self._program_rows(np.arange(self.n_out))
            self._full_reprograms += 1
            return report
        return self._program_cells(rows, cols, values)

    def renormalize(self) -> WriteReport:
        """Restore the no-hysteresis scales for the current coefficients.

        Scale management is deliberately sticky: the global mapping
        only remaps when a value *outgrows* the window, and row scales
        move only outside their hysteresis band.  A solver that drove
        its diagonals to large values therefore leaves the array with a
        shrunken scale — and a proportionally inflated
        :attr:`min_coefficient` floor — even after the coefficients are
        rewritten to modest values.  Reusing such an array for a fresh
        solve degrades convergence.

        This recomputes the scales a fresh programming of the current
        coefficient matrix would choose and reprograms exactly the rows
        whose scale moved.  When no drift happened it writes nothing.
        """
        fresh = self._fresh_scales()
        moved = ~np.isclose(fresh, self._scales, rtol=1e-12, atol=0.0)
        rows = np.nonzero(moved)[0]
        if rows.size == 0:
            return WriteReport(0, 0, 0.0, 0.0)
        self._scales[rows] = fresh[rows]
        self._solve_gain_cache = None
        report = self._program_rows(rows)
        if rows.size == self.n_out:
            self._full_reprograms += 1
        return report

    def _update_row_scaled(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        floor_to_representable: bool,
    ) -> WriteReport:
        if (rows[1:] > rows[:-1]).all():
            affected = rows  # already sorted and unique
        else:
            touched = np.zeros(self.n_out, dtype=bool)
            touched[rows] = True
            affected = np.flatnonzero(touched)
        row_max = self._coefficients[affected, :].max(axis=1, initial=0.0)
        peak_target = row_max * self._scales[affected]
        rescale = (peak_target > self.params.g_on) | (
            (row_max > 0)
            & (
                peak_target
                < self.params.g_on / (self.scale_headroom
                                      * ROW_SCALE_HYSTERESIS)
            )
        )
        rescale_rows = affected[rescale]
        if rescale_rows.size:
            safe = np.maximum(row_max[rescale], 1e-300)
            self._scales[rescale_rows] = self.params.g_on / (
                safe * self.scale_headroom
            )
            self._solve_gain_cache = None
        if floor_to_representable:
            values = np.maximum(
                values, self.params.g_off / self._scales[rows]
            )
            self._coefficients[rows, cols] = values
        if not rescale_rows.size:
            return self._program_cells(rows, cols, values)

        report = self._program_rows(rescale_rows)
        if affected is rows:
            keep = ~rescale
        else:
            rescaled = np.zeros(self.n_out, dtype=bool)
            rescaled[rescale_rows] = True
            keep = ~rescaled[rows]
        if keep.any():
            report = report + self._program_cells(
                rows[keep], cols[keep], values[keep]
            )
        return report

    def _program_cells(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> WriteReport:
        """Rewrite scattered coefficients at their rows' current scales."""
        targets, floored = map_cells(
            values,
            self._scales[rows],
            self.params,
            off_state=self.off_state,
        )
        # Crossbar cell (i, j) carries coefficient A[j, i].
        self._floored[cols, rows] = floored
        return self.array.program_cells(
            cols, rows, targets, skip_unchanged=True
        )

    def redraw_variation(
        self, rng: np.random.Generator | None = None
    ) -> WriteReport:
        """Rewrite every active cell, drawing fresh process variation.

        The recovery ladder's *reprogram* rung: coefficients, scales
        and nominal targets are all unchanged — only the physical
        realization is re-rolled, at O(active cells) cost.  After this
        the solver continues on the differential update path (the A /
        Aᵀ structural blocks are never rebuilt).  Optionally re-seats
        the RNG so the redraw is attributable to an attempt seed.
        """
        if rng is not None:
            self.rng = rng
            self.array.rng = rng
        return self.array.redraw()

    def _solve_gain(self) -> tuple[float, np.ndarray | None]:
        """Cached ``(scale_ref, per-row gain)`` for :meth:`solve`.

        Recomputed only when the scales move (remap / rescale /
        renormalize), not on every iteration's solve.  The gain is
        ``None`` without row scaling — every entry would be exactly
        1.0, so the multiply is skipped.
        """
        cache = self._solve_gain_cache
        if cache is None:
            scale_ref = float(np.max(self._scales))
            gain = self._scales / scale_ref if self.row_scaling else None
            cache = self._solve_gain_cache = (scale_ref, gain)
        return cache

    # -- analog primitives ------------------------------------------------

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Analog matrix–vector product ``y ≈ A x`` in problem units."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_in,):
            raise ValueError(
                f"expected vector of shape ({self.n_in},), got {x.shape}"
            )
        with self.tracer.span("op.multiply"):
            self.tracer.count("analog.multiplies")
            peak = float(np.max(np.abs(x)))
            if peak < 1e-300:
                # Zero or subnormal drive: below any representable input
                # voltage (and the gain s_x would overflow).
                return np.zeros(self.n_out)
            s_x = self.params.v_read / peak
            v_in = quantize_auto(x * s_x, self.dac_bits, self.quantization)
            v_out = self.array.multiply(v_in)
            v_out = quantize_auto(v_out, self.adc_bits, self.quantization)
            denominators = self.array.nominal_denominators()
            currents = v_out * denominators
            if (
                self.off_state == "leak"
                and self.compensate_leak
                and self._floored.any()
            ):
                # Dummy-row correction: the controller knows which cells
                # sit at the conductance floor and what it drove into
                # them.
                leak = self.params.g_off * (self._floored.T @ v_in)
                currents = currents - leak
            return currents / (self._scales * s_x)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Analog linear-system solve ``x ≈ A^{-1} b`` in problem units.

        With row scaling, the voltage forced on each bit-line is
        pre-scaled by its row's relative scale — physical row
        equilibration that cancels exactly in the current balance.

        Raises
        ------
        CrossbarSolveError
            If the array is not square or the perturbed system is
            singular (propagated from the array).
        """
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n_out,):
            raise ValueError(
                f"expected vector of shape ({self.n_out},), got {b.shape}"
            )
        with self.tracer.span("op.solve"):
            peak = float(np.max(np.abs(b)))
            if peak < 1e-300:
                # Zero or subnormal target: below any representable
                # voltage.
                self.tracer.count("analog.solves")
                return np.zeros(self.n_in)
            s_b = self.params.v_read / peak
            scale_ref, gain = self._solve_gain()
            v_out = quantize_auto(b * s_b, self.dac_bits, self.quantization)
            if gain is not None:
                v_out = v_out * gain
            v_in = self.array.solve(v_out)
            v_in = quantize_auto(v_in, self.adc_bits, self.quantization)
            # Counted only after the array solve succeeds: the solvers'
            # ``solves`` tally skips attempts that raised.
            self.tracer.count("analog.solves")
            return v_in * scale_ref / (self.array.g_sense * s_b)

    # -- bookkeeping --------------------------------------------------------

    @property
    def write_report(self) -> WriteReport:
        """Accumulated programming cost over this operator's lifetime."""
        return self.array.total_write_report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AnalogMatrixOperator({self.n_out}x{self.n_in}, "
            f"device={self.params.name!r}, row_scaling={self.row_scaling})"
        )
