"""Write-pulse programming model for memristor crossbars.

Section 3.3 of the paper: a target device is programmed by applying
``V_dd`` (or ``-V_dd``) across its word-line/bit-line pair while all
other lines are biased at ``V_dd / 2`` — the half-select scheme keeps
every unselected device below threshold.  Programming a device to a
specific resistance is achieved by adjusting the number of write
pulses.

Devices are written one at a time per array (the selected WL/BL pair
is unique), so write latency is the sum of per-cell pulse trains; only
*changed* cells are rewritten.  This is what makes the PDIP iteration
O(N): between iterations only the X, Y, Z, W diagonal blocks of the
system matrix change — O(N) cells — while the large A / A^T blocks are
programmed once (Section 3.5).

Energy accounting includes the half-select disturbance energy of the
unselected lines.  Each write pulse charges ``h`` half-selected
devices, where ``h`` is ``(rows - 1) + (cols - 1)`` of the grid the
write was *planned* on.  A full program plans the array geometry; a
differential cell write (``CrossbarStack.program_member_cells``) plans its k
written cells as one ``(1, k)`` row, so each of its pulses charges
``k - 1`` devices.  Modeled write energy therefore depends on how
writes are grouped into calls: the same cells written in two calls
cost less half-select energy than in one.  That is a known modeling
simplification, pinned by ``tests/crossbar/test_programming.py`` so it
cannot change silently; charging the array geometry instead would
move every recorded device-energy figure.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.devices.models import DeviceParameters


@dataclasses.dataclass(frozen=True)
class WriteReport:
    """Accounting record for one programming operation.

    Attributes
    ----------
    cells_written:
        Number of devices whose target conductance changed.
    pulses:
        Total write pulses issued across all written cells.
    latency_s:
        Wall-clock time of the (sequential) write phase, seconds.
    energy_j:
        Total energy of the write phase, including half-select
        overhead, joules.
    verify_reads:
        Cell read-backs performed by the write–verify loop (0 when
        verification is disabled).
    repulsed_cells:
        Cells that needed at least one corrective re-pulse round.
    unverified_cells:
        Cells still out of tolerance when the verify pulse budget ran
        out — persistent deviations (e.g. stuck-at faults).
    """

    cells_written: int
    pulses: int
    latency_s: float
    energy_j: float
    verify_reads: int = 0
    repulsed_cells: int = 0
    unverified_cells: int = 0

    def __add__(self, other: "WriteReport") -> "WriteReport":
        return WriteReport(
            cells_written=self.cells_written + other.cells_written,
            pulses=self.pulses + other.pulses,
            latency_s=self.latency_s + other.latency_s,
            energy_j=self.energy_j + other.energy_j,
            verify_reads=self.verify_reads + other.verify_reads,
            repulsed_cells=self.repulsed_cells + other.repulsed_cells,
            unverified_cells=(
                self.unverified_cells + other.unverified_cells
            ),
        )

    def __sub__(self, other: "WriteReport") -> "WriteReport":
        """Difference of two accumulated reports.

        Used to scope a long-lived array's lifetime totals to one
        window: ``array.total_write_report - baseline`` is the cost
        incurred since ``baseline`` was snapshotted.
        """
        return WriteReport(
            cells_written=self.cells_written - other.cells_written,
            pulses=self.pulses - other.pulses,
            latency_s=self.latency_s - other.latency_s,
            energy_j=self.energy_j - other.energy_j,
            verify_reads=self.verify_reads - other.verify_reads,
            repulsed_cells=self.repulsed_cells - other.repulsed_cells,
            unverified_cells=(
                self.unverified_cells - other.unverified_cells
            ),
        )


#: Fraction of the selected-cell write energy dissipated by each
#: half-selected device on the same word/bit line.  A half-selected cell
#: sees V_dd/2, i.e. a quarter of the power of the selected cell, for
#: the same pulse duration; sneak-path analyses in the crosspoint
#: literature (Liang et al., JETC 2013, cited as [15]) put the practical
#: figure near this value.
HALF_SELECT_ENERGY_FRACTION = 0.25


def conductance_to_state(
    conductance: np.ndarray, params: DeviceParameters
) -> np.ndarray:
    """Normalized device state x in [0, 1] realizing each conductance."""
    conductance = np.asarray(conductance, dtype=float)
    resistance = 1.0 / np.clip(conductance, params.g_off, params.g_on)
    return (params.r_off - resistance) / (params.r_off - params.r_on)


def _pulses_per_cell(
    old: np.ndarray,
    new: np.ndarray,
    params: DeviceParameters,
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise write pulses and changed-cell mask for ``old -> new``.

    Both grids convert to device state (the :func:`conductance_to_state`
    arithmetic, in the same order) in place on their concatenation,
    which keeps the per-call dispatch count of small differential
    writes low.
    """
    state = np.concatenate((old, new))
    np.maximum(state, params.g_off, out=state)
    np.minimum(state, params.g_on, out=state)
    np.divide(1.0, state, out=state)
    np.subtract(params.r_off, state, out=state)
    np.divide(state, params.r_off - params.r_on, out=state)
    swing = np.abs(state[len(old):] - state[: len(old)])
    if tolerance > 0.0:
        scale = np.maximum(np.abs(old), params.g_off)
        changed = np.abs(new - old) / scale > tolerance
        swing = np.where(changed, swing, 0.0)
    else:
        changed = swing > 0.0
    return np.ceil(swing * params.write_pulses_full_swing), changed


def _write_cost(
    cells: int, pulses: int, half_selected: int, params: DeviceParameters
) -> WriteReport:
    """Latency and energy of ``pulses`` sequential write pulses.

    Each pulse charges the selected cell plus ``half_selected``
    disturbed devices on its word- and bit-line.
    """
    energy_per_pulse = params.write_energy_per_pulse * (
        1.0 + HALF_SELECT_ENERGY_FRACTION * half_selected
    )
    return WriteReport(
        cells_written=cells,
        pulses=pulses,
        latency_s=pulses * params.write_pulse_width,
        energy_j=pulses * energy_per_pulse,
    )


def plan_write(
    old: np.ndarray | None,
    new: np.ndarray,
    params: DeviceParameters,
    *,
    tolerance: float = 0.0,
) -> WriteReport:
    """Cost of reprogramming an array from ``old`` to ``new``.

    Every pulse charges the half-select energy of the
    ``(n_rows - 1) + (n_cols - 1)`` other devices on the selected lines
    of the *planned grid*.  For a full program that grid is the array;
    differential cell writes plan their k cells as a ``(1, k)`` row,
    which charges ``k - 1`` (see the module docstring).

    Parameters
    ----------
    old:
        Previously programmed conductances, or ``None`` for a blank
        array (all cells isolated / fully OFF).
    new:
        Target conductances, same shape as ``old`` (if given).
    params:
        Device preset (pulse width, energy, full-swing pulse count).
    tolerance:
        Relative conductance change below which a cell is considered
        unchanged and skipped (write-verify deadband).

    Returns
    -------
    WriteReport
        Pulses, latency and energy for the sequential write.
    """
    new = np.asarray(new, dtype=float)
    if old is None:
        old = np.zeros_like(new)
    else:
        old = np.asarray(old, dtype=float)
        if old.shape != new.shape:
            raise ValueError(
                f"shape mismatch: old {old.shape} vs new {new.shape}"
            )
    pulses, changed = _pulses_per_cell(old, new, params, tolerance)
    n_rows, n_cols = new.shape
    return _write_cost(
        int(np.count_nonzero(changed)),
        int(pulses.sum()),
        (n_rows - 1) + (n_cols - 1),
        params,
    )


def plan_cells(
    old: np.ndarray, new: np.ndarray, params: DeviceParameters
) -> WriteReport:
    """Cost of a differential write of k cells.

    ``old`` and ``new`` are the cells' programmed and target
    conductances as 1-D float arrays.  The write is planned as one
    ``(1, k)`` row, so each pulse charges ``k - 1`` half-selected
    devices: the report equals ``plan_write(old.reshape(1, -1),
    new.reshape(1, -1), params)`` without its conversions and checks.
    """
    pulses, changed = _pulses_per_cell(old, new, params, 0.0)
    return _write_cost(
        int(np.count_nonzero(changed)), int(pulses.sum()), new.size - 1, params
    )
