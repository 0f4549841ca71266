"""Contract test for the cell-write kernel.

Coefficient updates reach the crossbar through one kernel
(:func:`repro.crossbar.stack.write_cells`) fed with cells that are
already diffed: rescaled or remapped row blocks are compared against
the programmed grid in one 2-D pass, and a diagonal operator's rows
touch only their diagonal cell.  Before the kernel, every row
block was expanded with ``np.meshgrid``, mapped with ``map_cells``,
filtered with ``plan_diff`` and planned with ``plan_write``; that path
is kept below, verbatim, as a standalone reference operator on its own
grids, driven beside the real operator.  Through random
``update_coefficients`` / ``renormalize`` sequences, the two must agree
bitwise after every call: nominal and actual grids, floored mask,
scales, every :class:`WriteReport` field and the generator state.  The
sequences run over random sparse matrices, over diagonal matrices
(Solver 2's M2 and D arrays) and over M1-like block-sparse matrices
whose coupling diagonals sit off the main diagonal.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.array import run_write_verify
from repro.crossbar.mapping import map_cells
from repro.crossbar.ops import AnalogMatrixOperator
from repro.crossbar.opstack import ROW_SCALE_HYSTERESIS
from repro.crossbar.programming import (
    HALF_SELECT_ENERGY_FRACTION,
    WriteReport,
    conductance_to_state,
)
from repro.devices import YAKOPCIC_NAECON14, UniformVariation
from repro.exceptions import MappingError
from repro.reliability.verify import WriteVerifyPolicy


def reference_plan_write(old, new, params):
    """``plan_write`` as it was, with the zero deadband."""
    old_state = conductance_to_state(old, params)
    new_state = conductance_to_state(new, params)
    swing = np.abs(new_state - old_state)
    changed = swing > 0.0
    swing = np.where(changed, swing, 0.0)
    pulses_per_cell = np.ceil(swing * params.write_pulses_full_swing)
    total_pulses = int(pulses_per_cell.sum())
    n_rows, n_cols = new.shape
    half_selected = (n_rows - 1) + (n_cols - 1)
    energy_per_pulse = params.write_energy_per_pulse * (
        1.0 + HALF_SELECT_ENERGY_FRACTION * half_selected
    )
    return WriteReport(
        cells_written=int(np.count_nonzero(changed)),
        pulses=total_pulses,
        latency_s=total_pulses * params.write_pulse_width,
        energy_j=total_pulses * energy_per_pulse,
    )


def reference_program_cells(array, rows, cols, conductances):
    """``program_cells(..., skip_unchanged=True)`` through ``plan_diff``."""
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    conductances = np.asarray(conductances, dtype=float)
    if rows.size == 0:
        return WriteReport(0, 0, 0.0, 0.0)
    # plan_diff: drop the cells whose target is already programmed.
    current = array._nominal[rows, cols]
    changed = conductances != current
    if not changed.all():
        rows, cols = rows[changed], cols[changed]
        conductances = conductances[changed]
    if rows.size == 0:
        return WriteReport(0, 0, 0.0, 0.0)
    if not np.all(np.isfinite(conductances)):
        raise MappingError("conductance targets must be finite")
    if conductances.min() < 0.0:
        raise MappingError(
            f"target {conductances.min():.3e} is negative; "
            "memristance cannot be negative"
        )
    if conductances.max() > array.params.g_on * (1 + 1e-12):
        raise MappingError(
            f"target {conductances.max():.3e} above device g_on "
            f"{array.params.g_on:.3e}"
        )
    old_cells = array._nominal[rows, cols]
    report = reference_plan_write(
        old_cells.reshape(1, -1), conductances.reshape(1, -1), array.params
    )
    array._nominal[rows, cols] = conductances
    array._actual[rows, cols] = array.variation.perturb(
        conductances.reshape(1, -1), array.rng
    ).ravel()
    if array.write_verify is not None:
        report = run_write_verify(
            array._nominal,
            array._actual,
            rows,
            cols,
            report,
            policy=array.write_verify,
            params=array.params,
            variation=array.variation,
            rng=array.rng,
        )
    array.total = array.total + report
    return report


class ReferenceArray:
    """The crossbar state the reference path writes: grids, generator
    and the running write total."""

    def __init__(self, n_rows, n_cols, *, params, variation, rng,
                 write_verify):
        self.params = params
        self.variation = variation
        self.rng = rng
        self.write_verify = write_verify
        self._nominal = np.zeros((n_rows, n_cols))
        self._actual = variation.perturb(self._nominal, rng)
        self.total = WriteReport(0, 0, 0.0, 0.0)


class ReferenceOperator:
    """The operator's write path before the kernel."""

    def __init__(self, matrix, *, params, variation, rng, row_scaling,
                 off_state, scale_headroom, write_verify):
        self.params = params
        self.row_scaling = row_scaling
        self.off_state = off_state
        self.scale_headroom = scale_headroom
        self.n_out, self.n_in = matrix.shape
        self._coefficients = matrix.copy()
        self.array = ReferenceArray(
            self.n_in, self.n_out, params=params, variation=variation,
            rng=rng, write_verify=write_verify,
        )
        self._scales = self._fresh_scales()
        self._floored = np.zeros((self.n_in, self.n_out), dtype=bool)
        self._full_reprograms = 0
        self._program_rows(np.arange(self.n_out))
        self._full_reprograms = 1

    def _fresh_scales(self):
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

    def update_coefficients(self, rows, cols, values, *,
                            floor_to_representable=False):
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        if values.min() < 0:
            raise MappingError("coefficients must be non-negative")
        self._coefficients[rows, cols] = values
        if self.row_scaling:
            return self._update_row_scaled(
                rows, cols, values, floor_to_representable
            )
        return self._update_global(rows, cols, values, floor_to_representable)

    def renormalize(self):
        fresh = self._fresh_scales()
        moved = ~np.isclose(fresh, self._scales, rtol=1e-12, atol=0.0)
        rows = np.nonzero(moved)[0]
        if rows.size == 0:
            return WriteReport(0, 0, 0.0, 0.0)
        self._scales[rows] = fresh[rows]
        report = self._program_rows(rows)
        if rows.size == self.n_out:
            self._full_reprograms += 1
        return report

    def _program_rows(self, rows):
        rows = np.asarray(rows, dtype=int)
        block, floored = map_cells(
            self._coefficients[rows, :],
            self._scales[rows, None],
            self.params,
            off_state=self.off_state,
        )
        self._floored[:, rows] = floored.T
        targets = block.T
        grid_in, grid_rows = np.meshgrid(
            np.arange(self.n_in), rows, indexing="ij"
        )
        return reference_program_cells(
            self.array, grid_in.ravel(), grid_rows.ravel(), targets.ravel()
        )

    def _update_global(self, rows, cols, values, floor_to_representable):
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
            report = self._program_rows(np.arange(self.n_out))
            self._full_reprograms += 1
            return report
        targets, floored = map_cells(
            values, scale, self.params, off_state=self.off_state
        )
        self._floored[cols, rows] = floored
        return reference_program_cells(self.array, cols, rows, targets)

    def _update_row_scaled(self, rows, cols, values, floor_to_representable):
        affected = np.unique(rows)
        row_max = self._coefficients[affected, :].max(axis=1, initial=0.0)
        peak_target = row_max * self._scales[affected]
        rescale = (peak_target > self.params.g_on) | (
            (row_max > 0)
            & (
                peak_target
                < self.params.g_on
                / (self.scale_headroom * ROW_SCALE_HYSTERESIS)
            )
        )
        rescale_rows = affected[rescale]
        if rescale_rows.size:
            safe = np.maximum(row_max[rescale], 1e-300)
            self._scales[rescale_rows] = self.params.g_on / (
                safe * self.scale_headroom
            )
        if floor_to_representable:
            values = np.maximum(
                values, self.params.g_off / self._scales[rows]
            )
            self._coefficients[rows, cols] = values
        report = WriteReport(0, 0, 0.0, 0.0)
        if rescale_rows.size:
            report = report + self._program_rows(rescale_rows)
        keep = ~np.isin(rows, rescale_rows)
        if np.any(keep):
            k_rows = rows[keep]
            k_cols = cols[keep]
            k_vals, floored = map_cells(
                values[keep],
                self._scales[k_rows],
                self.params,
                off_state=self.off_state,
            )
            self._floored[k_cols, k_rows] = floored
            report = report + reference_program_cells(
                self.array, k_cols, k_rows, k_vals
            )
        return report


def bits(array):
    return np.ascontiguousarray(array).tobytes()


def outcome(call):
    """A call's report, or the error it raised (compared by message)."""
    try:
        return dataclasses.astuple(call())
    except MappingError as exc:
        return f"MappingError: {exc}"


def assert_bitwise_equal(op, ref, got, want):
    # repr round-trips floats exactly and tells -0.0 from 0.0.
    assert repr(got) == repr(want)
    assert repr(op.write_report) == repr(ref.array.total)
    assert bits(op.array.nominal_conductances) == bits(ref.array._nominal)
    assert bits(op.array.actual_conductances) == bits(ref.array._actual)
    assert np.array_equal(op._stack._floored[0], ref._floored)
    assert bits(op.scale_vector) == bits(ref._scales)
    assert op.full_reprograms == ref._full_reprograms
    assert op.rng.bit_generator.state == ref.array.rng.bit_generator.state
    # The column-sum cache matches a full canonical reduction.
    assert bits(op.array.nominal_denominators()) == bits(
        op.array.g_sense
        + np.ascontiguousarray(ref.array._nominal.T).sum(axis=1)
    )


def random_update(rng, n_out, n_in):
    """Cells with unsorted and duplicate coordinates; values spanning
    seven decades, so remaps, rescales and floored cells all occur."""
    count = int(rng.integers(1, 2 * max(n_out, n_in)))
    if rng.random() < 0.3:
        # A diagonal-style update: sorted, unique rows.
        rows = np.arange(min(n_out, n_in))
        cols = rows.copy()
        count = rows.size
    else:
        rows = rng.integers(0, n_out, count)
        cols = rng.integers(0, n_in, count)
    values = 10.0 ** rng.uniform(-5.0, 2.0, count)
    values[rng.random(count) < 0.15] = 0.0
    return rows, cols, values, bool(rng.random() < 0.5)


@given(
    seed=st.integers(0, 2**31 - 1),
    row_scaling=st.booleans(),
    off_state=st.sampled_from(["zero", "leak"]),
    verify=st.booleans(),
    headroom=st.sampled_from([1.0, 2.0, 4.0]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_pre_kernel_write_path(
    seed, row_scaling, off_state, verify, headroom
):
    rng = np.random.default_rng(seed)
    n_out = int(rng.integers(2, 9))
    n_in = int(rng.integers(2, 9))
    matrix = np.where(
        rng.random((n_out, n_in)) < 0.5, rng.uniform(0.0, 3.0, (n_out, n_in)), 0.0
    )
    hardware = dict(
        params=YAKOPCIC_NAECON14,
        variation=UniformVariation(0.05),
        row_scaling=row_scaling,
        off_state=off_state,
        scale_headroom=headroom,
        write_verify=WriteVerifyPolicy(tolerance=0.02) if verify else None,
    )
    op_seed = int(rng.integers(2**63))
    op = AnalogMatrixOperator(
        matrix, rng=np.random.default_rng(op_seed), **hardware
    )
    ref = ReferenceOperator(
        matrix, rng=np.random.default_rng(op_seed), **hardware
    )
    assert_bitwise_equal(op, ref, None, None)
    for _ in range(8):
        if rng.random() < 0.2:
            got = outcome(op.renormalize)
            want = outcome(ref.renormalize)
        else:
            # A duplicate coordinate can carry a value its row's window
            # cannot hold; both paths must then fail the same way.
            rows, cols, values, floor = random_update(rng, n_out, n_in)
            got = outcome(
                lambda: op.update_coefficients(
                    rows, cols, values, floor_to_representable=floor
                )
            )
            want = outcome(
                lambda: ref.update_coefficients(
                    rows, cols, values, floor_to_representable=floor
                )
            )
        assert_bitwise_equal(op, ref, got, want)


def structured_matrix(rng, kind, size):
    """A diagonal or an M1-like block-sparse coefficient matrix."""
    if kind == "diagonal":
        diagonal = 10.0 ** rng.uniform(-4.0, 2.0, size)
        diagonal[rng.random(size) < 0.1] = 0.0
        return np.diag(diagonal)
    # [A 0; c I A^T]-style blocks: two dense blocks, an identity-like
    # link block and an off-diagonal coupling diagonal.
    half = size // 2
    matrix = np.zeros((size, size))
    block = np.where(
        rng.random((half, size - half)) < 0.6,
        rng.uniform(0.0, 3.0, (half, size - half)),
        0.0,
    )
    matrix[:half, half:] = block
    matrix[half:, :half] = block.T
    coupling = np.arange(min(half, size - half))
    matrix[half + coupling, coupling] = 10.0 ** rng.uniform(-3.0, 1.0, coupling.size)
    return matrix


def structured_update(rng, kind, size):
    """Updates in the matrix's own pattern, plus the odd stray cell."""
    if kind == "diagonal":
        rows = np.arange(size)
        if rng.random() < 0.4:
            rows = np.sort(rng.choice(size, int(rng.integers(1, size + 1)), replace=False))
        cols = rows.copy()
        if rng.random() < 0.2:
            # Unsorted and duplicate diagonal cells.
            rows = rng.integers(0, size, size)
            cols = rows.copy()
    else:
        half = size // 2
        coupling = np.arange(min(half, size - half))
        rows, cols = half + coupling, coupling.copy()
    values = 10.0 ** rng.uniform(-5.0, 2.0, rows.size)
    values[rng.random(rows.size) < 0.1] = 0.0
    if rng.random() < 0.15:
        # A stray off-diagonal cell: zero keeps a diagonal operator's
        # structure, a nonzero value ends it.
        row, col = rng.choice(size, 2, replace=False)
        rows = np.append(rows, row)
        cols = np.append(cols, col)
        values = np.append(values, 0.0 if rng.random() < 0.5 else 1.0)
    return rows, cols, values, bool(rng.random() < 0.7)


@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["diagonal", "block"]),
    row_scaling=st.sampled_from([True, True, False]),
    off_state=st.sampled_from(["zero", "leak"]),
    verify=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_on_structured_matrices(
    seed, kind, row_scaling, off_state, verify
):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 12))
    matrix = structured_matrix(rng, kind, size)
    hardware = dict(
        params=YAKOPCIC_NAECON14,
        variation=UniformVariation(0.05),
        row_scaling=row_scaling,
        off_state=off_state,
        scale_headroom=float(rng.choice([1.0, 2.0, 4.0])),
        write_verify=WriteVerifyPolicy(tolerance=0.02) if verify else None,
    )
    op_seed = int(rng.integers(2**63))
    op = AnalogMatrixOperator(
        matrix, rng=np.random.default_rng(op_seed), **hardware
    )
    ref = ReferenceOperator(
        matrix, rng=np.random.default_rng(op_seed), **hardware
    )
    # A diagonal matrix takes the diagonal row path from the start.
    assert bool(op._stack._diagonal[0]) == (kind == "diagonal")
    assert_bitwise_equal(op, ref, None, None)
    for _ in range(10):
        if rng.random() < 0.2:
            got = outcome(op.renormalize)
            want = outcome(ref.renormalize)
        else:
            rows, cols, values, floor = structured_update(rng, kind, size)
            got = outcome(
                lambda: op.update_coefficients(
                    rows, cols, values, floor_to_representable=floor
                )
            )
            want = outcome(
                lambda: ref.update_coefficients(
                    rows, cols, values, floor_to_representable=floor
                )
            )
        assert_bitwise_equal(op, ref, got, want)
