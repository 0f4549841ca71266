"""High-level analog matrix operations in problem units, fleet-wide.

:class:`AnalogOperatorStack` wraps K same-shape non-negative
coefficient matrices ``A_k`` realized on one
:class:`~repro.crossbar.stack.CrossbarStack`, and exposes the two
primitives the PDIP solvers use, evaluated for every member in single
batched tensor ops:

- ``multiply(x)``  — returns ``y_k ≈ A_k x_k``      (Eqn. 5 read-out)
- ``try_solve(b)`` — returns ``x_k ≈ A_k^{-1} b_k`` (current-balance mode)

It is the only implementation of the encode → analog primitive →
decode pipeline: :class:`~repro.crossbar.ops.AnalogMatrixOperator` is
a one-member view of a stack pinned to the numpy backend.  All
encoding details live here: the proportional conductance mapping,
input-voltage scaling into the sub-threshold read window, 8-bit
DAC/ADC quantization of every vector crossing the analog boundary,
and decoding back into problem units with the *nominal* scale factors
(the digital controller only knows what it programmed — deviation of
the actual conductances is exactly the process-variation error the
paper studies).

Two mapping policies are supported:

- **global** (default; the paper's fast mapping from Hu et al. [8]):
  one scale ``s = g_on / (headroom * a_max)`` per member.
- **row-scaled** (``row_scaling=True``): each *output row* (bit-line)
  carries its own scale.  Physically this is row equilibration done in
  hardware — in solve mode a bit-line holds one equation, and scaling
  its conductances together with the voltage forced on its sense node
  leaves the solution unchanged; in multiply mode the per-column
  output decodes with its own scale.  Row scales follow the row maxima
  with hysteresis, so a rescale (a rewrite of the row's live cells)
  only happens when a row's magnitude drifts far from its window;
  routine updates remain O(cells changed).

Coefficient updates (the O(N) per-iteration rewrites of the X, Y, Z, W
blocks) run per member on 2-D views (:meth:`update_member`); a
multi-member global update keeps one vectorized pass
(:meth:`update_coefficients`).  A rescaled, remapped or renormalized
row maps and diffs only its *live* cells — those whose coefficient or
programmed target may be off the off state, kept as a per-member mask
— and a member whose live cells all sit on the diagonal (Solver 2's
M2 and D arrays) reads each row's one diagonal cell without the mask.
A cell left out would map to the off state it already holds, so the
moved cells, their ``n_in``-major order and the write events are the
ones a full-width pass finds.

Parity contract (gated by ``tests/property``): with the numpy backend,
member ``k``'s ``multiply``/``try_solve``/``update_coefficients``/
``renormalize`` results — and its write counters and RNG stream — are
bitwise what a one-member stack with the same settings and generator
produces, and the live-cell and diagonal paths write bitwise what a
full-width pass would (``test_write_kernel.py`` keeps one as the
reference).  ``"vector"`` quantization needs per-member converter
references, so those vectors quantize in a short member loop around
the same batched analog core.
"""

from __future__ import annotations

import numpy as np

from repro.backend import Backend
from repro.crossbar.mapping import map_cells
from repro.crossbar.programming import WriteReport
from repro.crossbar.quantization import quantize_auto
from repro.crossbar.stack import CrossbarStack, diagonal_grids
from repro.devices.models import HP_TIO2, DeviceParameters
from repro.devices.variation import NoVariation, VariationModel
from repro.exceptions import CrossbarSolveError, MappingError
from repro.obs.tracer import Tracer
from repro.reliability.verify import WriteVerifyPolicy

#: A row is rescaled when its peak conductance target would exceed
#: ``g_on`` (overflow) or fall below ``g_on / (headroom * HYSTERESIS)``
#: (precision loss).  Between those bounds the old scale is kept, so
#: per-iteration updates rarely trigger full-row rewrites.
ROW_SCALE_HYSTERESIS = 8.0


def _check_indices(rows: np.ndarray, cols: np.ndarray) -> None:
    """Reject negative coefficient indices, which would wrap around.

    Too-large ones fail the coefficient assignment itself.  The cell
    writes of a per-member update are built from these indices and
    skip the crossbar entry's re-validation.
    """
    if rows.min() < 0 or cols.min() < 0:
        raise IndexError("coefficient index out of range")


def _quantize_rows(
    values: np.ndarray, bits: int | None, mode: str
) -> np.ndarray:
    """Quantize each row of a ``(K, n)`` batch as its own vector.

    Entry mode is elementwise, so the batch quantizes in one call and
    stays bitwise-identical to per-member quantization; vector mode
    references each member's own peak, so it loops.
    """
    if bits is None or mode == "entry":
        return quantize_auto(values, bits, mode)
    return np.stack(
        [quantize_auto(values[k], bits, mode) for k in range(len(values))]
    )


class AnalogOperatorStack:
    """K same-shape coefficient matrices on one crossbar stack.

    Parameters
    ----------
    matrices:
        Non-negative coefficient matrices, shape ``(K, n_out, n_in)``
        (or a list of K equal-shape 2-D arrays).
    params:
        Memristor device preset.
    variation:
        Process-variation model (default: ideal hardware).
    rngs:
        One variation generator per member; member ``k`` consumes
        exactly the draws a one-member stack seeded with ``rngs[k]``
        would.
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
        Closed-loop programming policy forwarded to the
        :class:`~repro.crossbar.stack.CrossbarStack`; ``None`` keeps
        open-loop programming.
    tracer:
        Observability hook (:mod:`repro.obs`), shared with the stack:
        analog multiplies and solves are wrapped in ``op.multiply`` /
        ``op.solve`` spans and bump the ``analog.*`` counters, writes
        bump ``crossbar.*``.  Defaults to the no-op tracer.
    backend:
        Forwarded to the :class:`~repro.crossbar.stack.CrossbarStack`.
    """

    def __init__(
        self,
        matrices: np.ndarray,
        *,
        params: DeviceParameters = HP_TIO2,
        variation: VariationModel | None = None,
        rngs: list[np.random.Generator] | None = None,
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
        backend: Backend | str | None = None,
    ) -> None:
        matrices = np.asarray(matrices, dtype=float)
        if matrices.ndim != 3:
            raise MappingError(
                "expected a (K, n_out, n_in) stack of coefficient matrices"
            )
        if matrices.size == 0:
            raise MappingError("cannot wrap an empty matrix")
        if not np.all(np.isfinite(matrices)):
            raise MappingError("matrix contains non-finite entries")
        if np.any(matrices < 0):
            raise MappingError(
                "matrix contains negative coefficients; memristance is "
                "non-negative — eliminate negatives first (Eqn. 13)"
            )
        if scale_headroom < 1.0:
            raise ValueError("scale_headroom must be >= 1")
        if off_state not in ("zero", "leak"):
            raise ValueError(f"unknown off_state {off_state!r}")
        if quantization not in ("entry", "vector"):
            raise ValueError(f"unknown quantization mode {quantization!r}")
        self.params = params
        self.variation = variation if variation is not None else NoVariation()
        self.dac_bits = dac_bits
        self.adc_bits = adc_bits
        self.quantization = quantization
        self.scale_headroom = float(scale_headroom)
        self.row_scaling = bool(row_scaling)
        self.off_state = off_state
        self.compensate_leak = bool(compensate_leak)

        self.n_members, self.n_out, self.n_in = matrices.shape
        self._coefficients = matrices.copy()
        self.stack = CrossbarStack(
            self.n_members,
            self.n_in,
            self.n_out,
            params=params,
            variation=self.variation,
            g_sense=g_sense,
            rngs=rngs,
            write_verify=write_verify,
            tracer=tracer,
            backend=backend,
        )
        self._rows = np.arange(self.n_out)
        # Per-row coefficient-to-conductance scales (a global mapping
        # holds n_out equal entries), plus what the solve decode needs
        # from them, refreshed only when scales move.
        self._scales = np.empty((self.n_members, self.n_out))
        self._solve_ref = np.empty(self.n_members)
        self._solve_gain = (
            np.empty((self.n_members, self.n_out)) if self.row_scaling else None
        )
        # A zero coefficient maps below g_off: every cell no write has
        # mapped yet is floored.
        self._floored = np.ones(
            (self.n_members, self.n_in, self.n_out), dtype=bool
        )
        self._full_reprograms = np.ones(self.n_members, dtype=int)
        # Live cells: those whose coefficient or programmed target may
        # be off the off state -- the nonzero coefficients, plus every
        # cell an update names.  Any other cell has held a zero, the off
        # state and a set floored flag all along.  (A blank array holds
        # 0, not leak mode's g_off: there the first program maps all.)
        live = matrices != 0
        self._live = live if off_state == "zero" else np.ones_like(live)
        # Members whose live cells all sit on the diagonal.
        self._diagonal = np.zeros(self.n_members, dtype=bool)
        for member in range(self.n_members):
            self._scales[member] = self._fresh_scales(member)
            self._scales_moved(member)
            self._program_rows(member, self._rows)
        self._live = live
        if self.n_out == self.n_in:
            self._diagonal[:] = diagonal_grids(live)

    @property
    def tracer(self) -> Tracer:
        """The tracer shared with the crossbar stack."""
        return self.stack.tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self.stack.tracer = tracer

    # -- scale management -------------------------------------------------

    def _row_cells(self, member: int, rows=None) -> np.ndarray:
        """The coefficients of ``rows`` (default all) for a row maximum.

        A diagonal member's row has one live cell, its diagonal, so the
        block is ``(len(rows), 1)``; any other member's rows are read
        across their full width.  The cells left out are zeros, which
        never change a row's maximum.
        """
        coefficients = self._coefficients[member]
        if self._diagonal[member]:
            if rows is None:
                return np.diagonal(coefficients)[:, None]
            return coefficients[rows, rows][:, None]
        return coefficients if rows is None else coefficients[rows, :]

    def _fresh_scales(self, member: int) -> np.ndarray:
        """Scales implied by a member's coefficients, no hysteresis."""
        coefficients = self._row_cells(member)
        g_on = self.params.g_on
        if self.row_scaling:
            row_max = coefficients.max(axis=1, initial=0.0)
            safe = np.maximum(row_max, 1e-300)
            return np.where(
                row_max > 0, g_on / (safe * self.scale_headroom), g_on
            )
        a_max = float(coefficients.max(initial=0.0))
        if a_max <= 0.0:
            a_max = 1.0
        return np.full(self.n_out, g_on / (a_max * self.scale_headroom))

    def _scales_moved(self, member: int) -> None:
        """Refresh a member's solve reference and per-row gain.

        The solve decode divides by the largest scale; with row
        scaling each bit-line's forced voltage is pre-scaled by its
        row's scale relative to it.  Both change only when the scales
        do (remap / rescale / renormalize), not per solve.
        """
        scales = self._scales[member]
        self._solve_ref[member] = scales.max()
        if self._solve_gain is not None:
            self._solve_gain[member] = scales / self._solve_ref[member]

    def _program_rows(self, member: int, rows: np.ndarray) -> WriteReport:
        """(Re)program the live cells of a member's given coefficient rows.

        ``rows`` are sorted and unique.  Only the rows' live cells are
        mapped and diffed (a diagonal member's are its rows' diagonal
        cells; any other's come from one pass over the live mask): a
        cell outside them would map to the off state it already holds.
        The cells are listed in the grid's ``n_in``-major order, and
        only those that move reach the stack, with the programmed values
        the diff read as the old side of their write plan.  Unchanged
        cells (rows rescaled back to the scale they already hold) cost
        nothing, so a "full" reprogram is O(cells that move) in writes
        and O(live cells) in host work beyond the mask pass.
        """
        if self._diagonal[member]:
            cells_in = cells_out = rows
        else:
            # Crossbar cell (i, j) carries A[j, i]: flatten the
            # transposed mask so the cells come out n_in-major.
            cells_in, cells_row = np.divmod(
                np.flatnonzero(self._live[member][rows].T), rows.size
            )
            cells_out = rows[cells_row]
        targets, floored = map_cells(
            self._coefficients[member][cells_out, cells_in],
            self._scales[member][cells_out],
            self.params,
            off_state=self.off_state,
        )
        self._floored[member][cells_in, cells_out] = floored
        programmed = self.stack._nominal[member][cells_in, cells_out]
        moved = targets != programmed
        if not moved.all():
            cells_in, cells_out = cells_in[moved], cells_out[moved]
            targets, programmed = targets[moved], programmed[moved]
        return self.stack._write_cells(
            member, cells_in, cells_out, targets, old=programmed
        )

    def _program_cells(
        self, member: int, rows: np.ndarray, cols: np.ndarray,
        values: np.ndarray,
    ) -> WriteReport:
        """Rewrite scattered coefficients at their rows' current scales."""
        targets, floored = map_cells(
            values,
            self._scales[member][rows],
            self.params,
            off_state=self.off_state,
        )
        # Crossbar cell (i, j) carries coefficient A[j, i].
        self._floored[member][cols, rows] = floored
        return self.stack._write_cells(
            member, cols, rows, targets, skip_unchanged=True
        )

    # -- public accessors --------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """Nominal coefficient matrices ``(K, n_out, n_in)``; copy."""
        return self._coefficients.copy()

    @property
    def scales(self) -> np.ndarray:
        """Per-row coefficient-to-conductance scales ``(K, n_out)``; copy."""
        return self._scales.copy()

    @property
    def min_coefficients(self) -> np.ndarray:
        """Per-member representable-coefficient floors, ``(K,)``.

        Coefficients below ``g_off / scale`` truncate to the off
        state.  Solvers that need an entry to stay nonzero clamp their
        updates to this floor (conservatively, the worst row's floor).
        """
        return (self.params.g_off / self._scales).max(axis=1)

    @property
    def full_reprograms(self) -> np.ndarray:
        """Per-member whole-array programming events (incl. the first)."""
        return self._full_reprograms.copy()

    @property
    def write_reports(self) -> list[WriteReport]:
        """Per-member accumulated programming cost."""
        return self.stack.total_write_reports

    # -- coefficient updates -----------------------------------------------

    def update_member(
        self,
        member: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        *,
        floor_to_representable: bool = False,
    ) -> WriteReport:
        """Rewrite one member's coefficients ``A[rows, cols] = values``.

        Only the affected crossbar cells are reprogrammed — the O(N)
        iteration-update primitive of Section 3.5.  Values outgrowing
        the programmed window trigger a remap: the global mapping
        reprograms the whole array with a new scale; the row mapping
        rescales only the rows whose maxima left their hysteresis
        window.  ``floor_to_representable`` clamps each value *up* to
        the smallest coefficient its row can represent instead of
        letting it truncate to the off state (solvers use it for
        diagonal cells whose vanishing would make the programmed
        system singular); the clamp uses the scales in effect after
        any remap this update triggers.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols, values must have matching shapes")
        if values.size == 0:
            return WriteReport(0, 0, 0.0, 0.0)
        _check_indices(rows, cols)
        if values.min() < 0:
            raise MappingError("coefficients must be non-negative")
        return self._update(
            member, rows, cols, values, floor_to_representable
        )

    def _update(
        self,
        member: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        floor_to_representable: bool,
    ) -> WriteReport:
        g_on = self.params.g_on
        coefficients = self._coefficients[member]
        scales = self._scales[member]
        coefficients[rows, cols] = values
        self._live[member][rows, cols] = True
        if self._diagonal[member] and (rows != cols).any():
            self._diagonal[member] = False
        if self.row_scaling:
            if (rows[1:] > rows[:-1]).all():
                affected = rows  # already sorted and unique
            else:
                touched = np.zeros(self.n_out, dtype=bool)
                touched[rows] = True
                affected = np.flatnonzero(touched)
            row_max = self._row_cells(member, affected).max(
                axis=1, initial=0.0
            )
            peak_target = row_max * scales[affected]
            rescale = (peak_target > g_on) | (
                (row_max > 0)
                & (
                    peak_target
                    < g_on / (self.scale_headroom * ROW_SCALE_HYSTERESIS)
                )
            )
            remap = affected[rescale]
            if remap.size:
                safe = np.maximum(row_max[rescale], 1e-300)
                scales[remap] = g_on / (safe * self.scale_headroom)
                # The cells of rows that keep their scale.
                if affected is rows:
                    keep = ~rescale
                else:
                    rescaled = np.zeros(self.n_out, dtype=bool)
                    rescaled[remap] = True
                    keep = ~rescaled[rows]
        elif values.max() * scales[0] > g_on:
            a_max = max(float(self._row_cells(member).max()), 1e-300)
            scales[:] = g_on / (a_max * self.scale_headroom)
            remap = self._rows
            self._full_reprograms[member] += 1
        else:
            remap = self._rows[:0]
        if remap.size:
            self._scales_moved(member)
        if floor_to_representable:
            values = np.maximum(values, self.params.g_off / scales[rows])
            coefficients[rows, cols] = values
        if not remap.size:
            return self._program_cells(member, rows, cols, values)
        report = self._program_rows(member, remap)
        # Only a row-scaled rescale leaves rows, and so cells, to keep.
        if remap.size < self.n_out and keep.any():
            report = report + self._program_cells(
                member, rows[keep], cols[keep], values[keep]
            )
        return report

    def update_coefficients(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        *,
        floor_to_representable: bool = False,
        members=None,
    ) -> list[WriteReport | None]:
        """Rewrite ``A_k[rows, cols] = values[k]`` across the fleet.

        The batched form of :meth:`update_member`: ``rows``/``cols``
        are shared; ``values`` is ``(c,)`` (same update everywhere),
        ``(K, c)``, or ``(len(members), c)``.  Row-scaled stacks and
        single-member selections update member by member; a
        multi-member global update runs as one vectorized pass in
        which members whose new values outgrow the programmed window
        remap individually and the rest share one batched cell write.

        Returns a K-long report list (``None`` for unselected members).
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be matching 1-D arrays")
        selected, values = self.stack._select(values, rows.size, members)
        if selected is None:
            selected = np.arange(self.n_members)
        results: list[WriteReport | None] = [None] * self.n_members
        if values.size == 0:
            for member in selected:
                results[member] = WriteReport(0, 0, 0.0, 0.0)
            return results
        if values.min() < 0:
            raise MappingError("coefficients must be non-negative")
        if self.row_scaling or selected.size == 1:
            _check_indices(rows, cols)
            for pos, member in enumerate(selected):
                results[member] = self._update(
                    int(member), rows, cols, values[pos],
                    floor_to_representable,
                )
            return results

        cells = (selected[:, None], rows[None, :], cols[None, :])
        self._coefficients[cells] = values
        self._live[cells] = True
        if self._diagonal.any() and (rows != cols).any():
            self._diagonal[selected] = False
        scale = self._scales[selected, 0]
        needs_remap = values.max(axis=1) * scale > self.params.g_on
        scale_after = scale
        if needs_remap.any():
            a_max = np.maximum(
                self._coefficients[selected].max(axis=(1, 2)), 1e-300
            )
            scale_after = np.where(
                needs_remap,
                self.params.g_on / (a_max * self.scale_headroom),
                scale,
            )
        if floor_to_representable:
            values = np.maximum(
                values, self.params.g_off / scale_after[:, None]
            )
            self._coefficients[cells] = values
        for pos in np.flatnonzero(needs_remap):
            member = int(selected[pos])
            self._scales[member] = scale_after[pos]
            self._scales_moved(member)
            results[member] = self._program_rows(member, self._rows)
            self._full_reprograms[member] += 1
        keep = ~needs_remap
        if keep.any():
            keep_members = selected[keep]
            targets, floored = map_cells(
                values[keep],
                scale[keep, None],
                self.params,
                off_state=self.off_state,
            )
            # Crossbar cell (i, j) carries coefficient A[j, i].
            self._floored[
                keep_members[:, None], cols[None, :], rows[None, :]
            ] = floored
            reports = self.stack.program_cells(
                cols, rows, targets, skip_unchanged=True, members=keep_members
            )
            for member in keep_members:
                results[member] = reports[member]
        return results

    def renormalize(self, members=None) -> list[WriteReport | None]:
        """Restore the no-hysteresis scales for the current coefficients.

        Scale management is deliberately sticky: the global mapping
        only remaps when a value *outgrows* the window, and row scales
        move only outside their hysteresis band.  A solver that drove
        its diagonals to large values therefore leaves the array with a
        shrunken scale — and a proportionally inflated
        :attr:`min_coefficients` floor — even after the coefficients
        are rewritten to modest values.  Reusing such an array for a
        fresh solve degrades convergence.

        For each selected member this recomputes the scales a fresh
        programming would choose and reprograms exactly the rows whose
        scale moved; a member with no drift writes nothing.  Returns a
        K-long report list (``None`` for unselected members).
        """
        results: list[WriteReport | None] = [None] * self.n_members
        for member in self.stack._member_indices(members):
            member = int(member)
            scales = self._scales[member]
            fresh = self._fresh_scales(member)
            moved = ~np.isclose(fresh, scales, rtol=1e-12, atol=0.0)
            rows = np.nonzero(moved)[0]
            if rows.size == 0:
                results[member] = WriteReport(0, 0, 0.0, 0.0)
                continue
            scales[rows] = fresh[rows]
            self._scales_moved(member)
            results[member] = self._program_rows(member, rows)
            if rows.size == self.n_out:
                self._full_reprograms[member] += 1
        return results

    def redraw_variation(
        self, rngs: list[np.random.Generator] | None = None, members=None
    ) -> list[WriteReport | None]:
        """Rewrite every active cell, drawing fresh process variation.

        The recovery ladder's *reprogram* rung: coefficients, scales
        and nominal targets are all unchanged — only the physical
        realization is re-rolled, at O(active cells) cost.  ``rngs``
        optionally re-seats the selected members' generators so the
        redraw is attributable to an attempt seed.
        """
        selected = self.stack._member_indices(members)
        if rngs is not None:
            if len(rngs) != selected.size:
                raise ValueError(
                    f"need {selected.size} generators, got {len(rngs)}"
                )
            for pos, member in enumerate(selected):
                self.stack.rngs[int(member)] = rngs[pos]
        return self.stack.redraw(members=selected)

    # -- analog primitives ------------------------------------------------

    def multiply(self, x: np.ndarray, *, members=None) -> np.ndarray:
        """Batched analog products ``y_k ≈ A_k x_k``, one tensor op.

        ``x`` is ``(K, n_in)`` or ``(n_in,)`` broadcast; returns
        ``(K, n_out)``.  Zero/subnormal drives yield zero rows.  With
        ``members`` set, ``x`` is ``(len(selected), n_in)`` and only
        those members' rows are computed (and returned, in index
        order) — the fleet solver uses this to skip converged
        stragglers.
        """
        selected, x = self.stack._select(x, self.n_in, members)
        scales = self._scales if selected is None else self._scales[selected]
        tracer = self.stack.tracer
        with tracer.span("op.multiply"):
            tracer.count("analog.multiplies", float(len(x)))
            peaks = np.abs(x).max(axis=1)
            dead = min(peaks.tolist()) < 1e-300
            if dead:
                # Zero or subnormal drive: below any representable input
                # voltage (and the gain s_x would overflow) — read zeros.
                live = peaks >= 1e-300
                peaks = np.where(live, peaks, self.params.v_read)
            s_x = (self.params.v_read / peaks)[:, None]
            v_in = _quantize_rows(x * s_x, self.dac_bits, self.quantization)
            v_out = _quantize_rows(
                self.stack.multiply(v_in, members=selected),
                self.adc_bits,
                self.quantization,
            )
            currents = v_out * self.stack.nominal_denominators(selected)
            if self.off_state == "leak" and self.compensate_leak:
                # Dummy-row correction: the controller knows which cells
                # sit at the conductance floor and what it drove into
                # them.  Member by member, as a bool-by-float product.
                order = range(len(x)) if selected is None else selected
                for pos, member in enumerate(order):
                    floored = self._floored[member]
                    if floored.any():
                        leak = self.params.g_off * (floored.T @ v_in[pos])
                        currents[pos] = currents[pos] - leak
            out = currents / (scales * s_x)
            if dead:
                out[~live] = 0.0
            return out

    def try_solve(
        self, b: np.ndarray, *, members=None
    ) -> tuple[np.ndarray, list[CrossbarSolveError | None]]:
        """Batched analog solves ``x_k ≈ A_k^{-1} b_k`` with isolation.

        One backend ``linalg.solve`` over the fleet; a singular member
        degrades only itself (its row is zeros and its slot in the
        error list holds the :class:`CrossbarSolveError`).  With row
        scaling, the voltage forced on each bit-line is pre-scaled by
        its row's relative scale — physical row equilibration that
        cancels exactly in the current balance.  Zero/subnormal targets
        yield zero rows without driving the array.  With ``members``
        set, ``b`` is ``(len(selected), n_out)`` and the solutions and
        error list are selected-length, in index order.
        """
        selected, b = self.stack._select(b, self.n_out, members)
        tracer = self.stack.tracer
        with tracer.span("op.solve"):
            peaks = np.abs(b).max(axis=1)
            if min(peaks.tolist()) >= 1e-300:
                out, errors = self._solve_live(b, peaks, selected)
            else:
                live = peaks >= 1e-300
                out = np.zeros((len(b), self.n_in))
                errors = [None] * len(b)
                index = np.flatnonzero(live)
                if index.size:
                    order = (
                        np.arange(self.n_members)
                        if selected is None
                        else selected
                    )
                    out[index], live_errors = self._solve_live(
                        b[index], peaks[index], order[index]
                    )
                    for pos, error in zip(index, live_errors):
                        errors[pos] = error
            # Counted only for solves that succeeded: the solvers'
            # ``solves`` tally skips attempts that raised.
            solved = errors.count(None)
            if solved:
                tracer.count("analog.solves", float(solved))
            return out, errors

    def _solve_live(
        self,
        b: np.ndarray,
        peaks: np.ndarray,
        selected: np.ndarray | None,
    ) -> tuple[np.ndarray, list[CrossbarSolveError | None]]:
        """Encode, solve and decode rows whose targets are all live."""
        s_b = (self.params.v_read / peaks)[:, None]
        v_out = _quantize_rows(b * s_b, self.dac_bits, self.quantization)
        if self._solve_gain is not None:
            v_out = v_out * (
                self._solve_gain if selected is None
                else self._solve_gain[selected]
            )
        v_in, errors = self.stack.try_solve(v_out, members=selected)
        v_in = _quantize_rows(v_in, self.adc_bits, self.quantization)
        ref = self._solve_ref if selected is None else self._solve_ref[selected]
        out = v_in * ref[:, None] / (self.stack.g_sense * s_b)
        if any(errors):
            out[[error is not None for error in errors]] = 0.0
        return out, errors

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Batched solve; raises if *any* member's system is singular."""
        solutions, errors = self.try_solve(b)
        for error in errors:
            if error is not None:
                raise error
        return solutions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AnalogOperatorStack({self.n_members}x{self.n_out}x"
            f"{self.n_in}, device={self.params.name!r}, "
            f"row_scaling={self.row_scaling}, "
            f"backend={self.stack.backend.name!r})"
        )
