"""A batched fleet of analog matrix operators in problem units.

:class:`AnalogOperatorStack` is the fleet counterpart of
:class:`~repro.crossbar.ops.AnalogMatrixOperator`: K same-shape
coefficient matrices realized on one :class:`~repro.crossbar.stack.
CrossbarStack`, with the encode → analog primitive → decode pipeline
evaluated for every member in single batched tensor ops.  The sweep
engine's trial fan-out and the reliability layer's fleet probes use it
to replace K python-level operator round-trips per iteration with one.

Only the paper's **global** fast mapping is supported (one scale per
member); row scaling keeps per-bit-line scale hysteresis state whose
update pattern is inherently data-dependent per member — those runs
stay on the serial operator (the constructor rejects ``row_scaling``).

Parity contract (gated by ``tests/property``): with the numpy backend
and ``"entry"`` quantization, every member's ``multiply``/``solve``/
``update_coefficients``/``renormalize`` results — and its write
counters and RNG stream — are bitwise what a serial operator with the
same settings and generator produces.  ``"vector"`` quantization
needs per-member converter references, so those vectors quantize in a
short member loop around the same batched analog core.
"""

from __future__ import annotations

import numpy as np

from repro.backend import Backend
from repro.crossbar.mapping import map_cells
from repro.crossbar.programming import WriteReport
from repro.crossbar.quantization import quantize_auto
from repro.crossbar.stack import CrossbarStack
from repro.devices.models import HP_TIO2, DeviceParameters
from repro.devices.variation import NoVariation, VariationModel
from repro.exceptions import CrossbarSolveError, MappingError
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.verify import WriteVerifyPolicy


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
    rngs:
        One variation generator per member; member ``k`` consumes
        exactly the draws a serial operator seeded with ``rngs[k]``
        would.
    backend:
        Forwarded to the :class:`~repro.crossbar.stack.CrossbarStack`.
    params, variation, dac_bits, adc_bits, quantization,
    scale_headroom, off_state, compensate_leak, g_sense, write_verify,
    tracer:
        As for :class:`~repro.crossbar.ops.AnalogMatrixOperator`,
        shared by every member.
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
        if row_scaling:
            raise MappingError(
                "AnalogOperatorStack supports the global mapping only; "
                "row-scaled operators keep per-row hysteresis state and "
                "stay on the serial AnalogMatrixOperator"
            )
        matrices = np.asarray(matrices, dtype=float)
        if matrices.ndim != 3:
            raise MappingError(
                "expected a (K, n_out, n_in) stack of coefficient matrices"
            )
        if matrices.size == 0:
            raise MappingError("cannot wrap an empty matrix stack")
        if not np.all(np.isfinite(matrices)):
            raise MappingError("matrices contain non-finite entries")
        if np.any(matrices < 0):
            raise MappingError(
                "matrices contain negative coefficients; memristance is "
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
        self.off_state = off_state
        self.compensate_leak = bool(compensate_leak)
        self.tracer = tracer if tracer is not None else NOOP

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
            tracer=self.tracer,
            backend=backend,
        )
        self._scales = self._fresh_scales(np.arange(self.n_members))
        self._floored = np.zeros(
            (self.n_members, self.n_in, self.n_out), dtype=bool
        )
        self._full_reprograms = np.zeros(self.n_members, dtype=int)
        self._program_rows(np.arange(self.n_out), np.arange(self.n_members))
        self._full_reprograms[:] = 1

    # -- scale management -------------------------------------------------

    def _fresh_scales(self, members: np.ndarray) -> np.ndarray:
        """Per-member no-hysteresis global scales, ``(len(members),)``."""
        a_max = self._coefficients[members].max(axis=(1, 2), initial=0.0)
        a_max = np.where(a_max > 0.0, a_max, 1.0)
        return self.params.g_on / (a_max * self.scale_headroom)

    def _program_rows(
        self, rows: np.ndarray, members: np.ndarray
    ) -> list[WriteReport | None]:
        """(Re)program all cells of the given coefficient rows.

        The serial operator's block diff, fleet-wide: the rows'
        targets form a ``(len(members), n_in, len(rows))`` block (the
        global map is elementwise, so one batched :func:`map_cells`
        matches the serial per-member call bitwise), one ``!=``
        against the programmed block finds the cells that move on any
        member, in ``n_in``-major order, and only those reach the
        stack, which drops each member's unmoved cells.  The floored
        masks of the selected members are updated on the way.
        """
        block, floored = map_cells(
            self._coefficients[members][:, rows, :],
            self._scales[members, None, None],
            self.params,
            off_state=self.off_state,
        )
        block_index = np.ix_(members, np.arange(self.n_in), rows)
        self._floored[block_index] = floored.transpose(0, 2, 1)
        targets = block.transpose(0, 2, 1)
        moved = targets != self.stack._nominal[block_index]
        cells_in, cells_row = np.nonzero(moved.any(axis=0))
        return self.stack.program_cells(
            cells_in,
            rows[cells_row],
            targets[:, cells_in, cells_row],
            skip_unchanged=True,
            members=members,
        )

    # -- public accessors --------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """Nominal coefficient matrices ``(K, n_out, n_in)``; copy."""
        return self._coefficients.copy()

    @property
    def scales(self) -> np.ndarray:
        """Per-member global coefficient-to-conductance scales; copy."""
        return self._scales.copy()

    @property
    def min_coefficients(self) -> np.ndarray:
        """Per-member representable-coefficient floors, ``(K,)``."""
        return self.params.g_off / self._scales

    @property
    def full_reprograms(self) -> np.ndarray:
        """Per-member whole-array programming events (incl. the first)."""
        return self._full_reprograms.copy()

    @property
    def write_reports(self) -> list[WriteReport]:
        """Per-member accumulated programming cost."""
        return self.stack.total_write_reports

    # -- coefficient updates -----------------------------------------------

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

        The batched form of the O(N) iteration-update primitive:
        ``rows``/``cols`` are shared; ``values`` is ``(c,)`` (same
        update everywhere), ``(K, c)``, or ``(len(members), c)``.
        Members whose new values outgrow the programmed window remap
        individually (new scale, full differential reprogram), exactly
        like the serial operator; the rest share one batched cell
        write.

        Returns a K-long report list (``None`` for unselected members).
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be matching 1-D arrays")
        selected = self.stack._member_indices(members)
        if values.ndim == 1:
            if values.shape != rows.shape:
                raise ValueError("rows, cols, values must have matching shapes")
            values = np.broadcast_to(
                values, (selected.size, rows.size)
            ).copy()
        elif values.shape == (self.n_members, rows.size):
            values = values[selected].copy()
        elif values.shape == (selected.size, rows.size):
            values = values.copy()
        else:
            raise ValueError(
                f"values must be ({rows.size},), "
                f"({self.n_members}, {rows.size}) or "
                f"({selected.size}, {rows.size}), got {values.shape}"
            )
        if values.size == 0:
            return self.stack.program_cells(
                np.empty(0, dtype=int),
                np.empty(0, dtype=int),
                np.empty(0),
                members=selected,
            )
        if values.min() < 0:
            raise MappingError("coefficients must be non-negative")

        self._coefficients[
            selected[:, None], rows[None, :], cols[None, :]
        ] = values

        scale = self._scales[selected]
        needs_remap = values.max(axis=1) * scale > self.params.g_on
        if needs_remap.any():
            a_max = np.maximum(
                self._coefficients[selected].max(axis=(1, 2)), 1e-300
            )
            scale_after = np.where(
                needs_remap,
                self.params.g_on / (a_max * self.scale_headroom),
                scale,
            )
        else:
            scale_after = scale
        if floor_to_representable:
            values = np.maximum(
                values, self.params.g_off / scale_after[:, None]
            )
            self._coefficients[
                selected[:, None], rows[None, :], cols[None, :]
            ] = values

        results: list[WriteReport | None] = [None] * self.n_members
        remap_members = selected[needs_remap]
        if remap_members.size:
            self._scales[remap_members] = scale_after[needs_remap]
            reports = self._program_rows(
                np.arange(self.n_out), remap_members
            )
            self._full_reprograms[remap_members] += 1
            for member in remap_members:
                results[member] = reports[member]
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
        """Restore no-hysteresis scales; reprogram only moved members."""
        selected = self.stack._member_indices(members)
        fresh = self._fresh_scales(selected)
        moved = ~np.isclose(fresh, self._scales[selected], rtol=1e-12, atol=0.0)
        results: list[WriteReport | None] = [None] * self.n_members
        for member in selected[~moved]:
            results[member] = WriteReport(0, 0, 0.0, 0.0)
        moved_members = selected[moved]
        if moved_members.size:
            self._scales[moved_members] = fresh[moved]
            reports = self._program_rows(
                np.arange(self.n_out), moved_members
            )
            self._full_reprograms[moved_members] += 1
            for member in moved_members:
                results[member] = reports[member]
        return results

    def redraw_variation(
        self, rngs: list[np.random.Generator] | None = None, members=None
    ) -> list[WriteReport | None]:
        """Fleet redraw: fresh variation for every active cell.

        ``rngs`` optionally re-seats the selected members' generators
        (attempt-seed attribution, as in the serial
        ``redraw_variation``).
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
        ``(K, n_out)``.  Zero/subnormal drives yield zero rows, exactly
        like the serial operator's early return.  With ``members`` set,
        ``x`` is ``(len(selected), n_in)`` and only those members'
        rows are computed (and returned, in index order) — the fleet
        solver uses this to skip converged stragglers.
        """
        selected = self.stack._member_indices(members)
        full = selected.size == self.n_members
        x = np.asarray(x, dtype=float)
        if x.shape == (self.n_in,):
            x = np.broadcast_to(x, (selected.size, self.n_in))
        if x.shape != (selected.size, self.n_in):
            raise ValueError(
                f"expected ({selected.size}, {self.n_in}) inputs, "
                f"got {x.shape}"
            )
        scales = self._scales if full else self._scales[selected]
        floored = self._floored if full else self._floored[selected]
        with self.tracer.span("op.multiply"):
            self.tracer.count("analog.multiplies", selected.size)
            peaks = np.max(np.abs(x), axis=1)
            live = peaks >= 1e-300
            s_x = np.where(live, self.params.v_read / np.where(live, peaks, 1.0), 1.0)
            v_in = _quantize_rows(
                x * s_x[:, None], self.dac_bits, self.quantization
            )
            v_in[~live] = 0.0
            v_out = self.stack.multiply(v_in, members=selected)
            v_out = _quantize_rows(v_out, self.adc_bits, self.quantization)
            denominators = self.stack.nominal_denominators(selected)
            currents = v_out * denominators
            if (
                self.off_state == "leak"
                and self.compensate_leak
                and floored.any()
            ):
                # Dummy-row correction; members with no floored cells
                # get an exact-zero leak term, so applying it fleet-wide
                # is bitwise what per-member gating computes.
                leak = self.params.g_off * np.matmul(
                    floored.transpose(0, 2, 1).astype(float),
                    v_in[:, :, None],
                )[:, :, 0]
                currents = currents - leak
            out = currents / (scales[:, None] * s_x[:, None])
            out[~live] = 0.0
            return out

    def try_solve(
        self, b: np.ndarray, *, members=None
    ) -> tuple[np.ndarray, list[CrossbarSolveError | None]]:
        """Batched analog solves ``x_k ≈ A_k^{-1} b_k`` with isolation.

        One backend ``linalg.solve`` over the fleet; a singular member
        degrades only itself (its row is zeros and its slot in the
        error list holds the :class:`CrossbarSolveError`), mirroring
        serial per-operator failure semantics.  With ``members`` set,
        ``b`` is ``(len(selected), n_out)`` and the solutions/error
        list are selected-length, in index order.
        """
        selected = self.stack._member_indices(members)
        full = selected.size == self.n_members
        b = np.asarray(b, dtype=float)
        if b.shape == (self.n_out,):
            b = np.broadcast_to(b, (selected.size, self.n_out))
        if b.shape != (selected.size, self.n_out):
            raise ValueError(
                f"expected ({selected.size}, {self.n_out}) targets, "
                f"got {b.shape}"
            )
        scales = self._scales if full else self._scales[selected]
        with self.tracer.span("op.solve"):
            peaks = np.max(np.abs(b), axis=1)
            live = peaks >= 1e-300
            s_b = np.where(live, self.params.v_read / np.where(live, peaks, 1.0), 1.0)
            v_out = _quantize_rows(
                b * s_b[:, None], self.dac_bits, self.quantization
            )
            v_out[~live] = 0.0
            v_in, errors = self.stack.try_solve(v_out, members=selected)
            v_in = _quantize_rows(v_in, self.adc_bits, self.quantization)
            solved = sum(
                1 for index in range(selected.size)
                if errors[index] is None
            )
            self.tracer.count("analog.solves", solved)
            out = v_in * scales[:, None] / (
                self.stack.g_sense * s_b[:, None]
            )
            out[~live] = 0.0
            for index, error in enumerate(errors):
                if error is not None:
                    out[index] = 0.0
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
            f"backend={self.stack.backend.name!r})"
        )
