"""Tests for the write-pulse programming model."""

import numpy as np
import pytest

from repro.crossbar import CrossbarArray, CrossbarStack, WriteReport, plan_write
from repro.crossbar.programming import HALF_SELECT_ENERGY_FRACTION
from repro.devices import HP_TIO2


class TestPlanWrite:
    def test_blank_array_write(self):
        targets = np.full((4, 4), HP_TIO2.g_on)
        report = plan_write(None, targets, HP_TIO2)
        assert report.cells_written == 16
        assert report.pulses == 16 * HP_TIO2.write_pulses_full_swing
        assert report.latency_s == pytest.approx(
            report.pulses * HP_TIO2.write_pulse_width
        )

    def test_no_change_no_cost(self, rng):
        state = rng.uniform(HP_TIO2.g_off, HP_TIO2.g_on, size=(5, 5))
        report = plan_write(state, state.copy(), HP_TIO2)
        assert report.cells_written == 0
        assert report.pulses == 0
        assert report.latency_s == 0.0
        assert report.energy_j == 0.0

    def test_partial_update_only_charges_changed_cells(self, rng):
        old = np.full((4, 4), HP_TIO2.g_off)
        new = old.copy()
        new[1, 2] = HP_TIO2.g_on
        report = plan_write(old, new, HP_TIO2)
        assert report.cells_written == 1

    def test_tolerance_deadband_skips_small_changes(self):
        old = np.full((2, 2), HP_TIO2.g_on * 0.5)
        new = old * 1.0001
        strict = plan_write(old, new, HP_TIO2, tolerance=0.0)
        lenient = plan_write(old, new, HP_TIO2, tolerance=0.01)
        assert lenient.cells_written == 0
        assert lenient.cells_written <= strict.cells_written

    def test_energy_includes_half_select_overhead(self):
        small = plan_write(
            None, np.full((2, 2), HP_TIO2.g_on), HP_TIO2
        )
        large = plan_write(
            None, np.full((16, 16), HP_TIO2.g_on), HP_TIO2
        )
        # Per-pulse energy grows with the number of half-selected lines.
        per_pulse_small = small.energy_j / small.pulses
        per_pulse_large = large.energy_j / large.pulses
        assert per_pulse_large > per_pulse_small

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            plan_write(np.zeros((2, 2)), np.zeros((3, 3)), HP_TIO2)


class TestHalfSelectAccounting:
    """Pins how write energy charges half-selected devices.

    A full program charges every pulse the array geometry,
    ``(n_rows - 1) + (n_cols - 1)`` half-selected devices.  A
    differential cell write plans its k cells as one ``(1, k)`` row and
    charges ``k - 1``, so its energy depends on how cells are grouped
    into calls.  Changing either factor moves every recorded device
    energy figure; these tests make such a change deliberate.
    """

    @staticmethod
    def per_pulse(half_selected):
        return HP_TIO2.write_energy_per_pulse * (
            1.0 + HALF_SELECT_ENERGY_FRACTION * half_selected
        )

    def test_full_program_charges_array_geometry(self):
        array = CrossbarArray(6, 9, params=HP_TIO2)
        report = array.program(np.full((6, 9), HP_TIO2.g_on))
        assert report.energy_j == report.pulses * self.per_pulse(5 + 8)

    def test_cell_write_charges_k_minus_one(self):
        array = CrossbarArray(6, 9, params=HP_TIO2)
        rows, cols = np.array([0, 2, 5]), np.array([1, 8, 4])
        report = array.program_cells(rows, cols, np.full(3, HP_TIO2.g_on))
        assert report.cells_written == 3
        assert report.energy_j == report.pulses * self.per_pulse(3 - 1)

    def test_grouping_into_calls_changes_energy(self):
        targets = np.full(4, HP_TIO2.g_on)
        rows, cols = np.arange(4), np.arange(4)
        together = CrossbarArray(4, 4, params=HP_TIO2)
        one = together.program_cells(rows, cols, targets)
        split = CrossbarArray(4, 4, params=HP_TIO2)
        first = split.program_cells(rows[:2], cols[:2], targets[:2])
        second = split.program_cells(rows[2:], cols[2:], targets[2:])
        assert first.pulses + second.pulses == one.pulses
        assert one.energy_j == one.pulses * self.per_pulse(3)
        assert first.energy_j == first.pulses * self.per_pulse(1)
        assert second.energy_j == second.pulses * self.per_pulse(1)
        assert first.energy_j + second.energy_j < one.energy_j

    def test_skipped_cells_do_not_count(self):
        # k is the number of cells that move, after the diff.
        array = CrossbarArray(4, 4, params=HP_TIO2)
        array.program_cells(
            np.array([0]), np.array([0]), np.array([HP_TIO2.g_on])
        )
        report = array.program_cells(
            np.arange(4), np.arange(4), np.full(4, HP_TIO2.g_on),
            skip_unchanged=True,
        )
        assert report.cells_written == 3
        assert report.energy_j == report.pulses * self.per_pulse(3 - 1)

    def test_stack_member_charges_its_own_k(self):
        stack = CrossbarStack(2, 4, 4, params=HP_TIO2)
        stack.program_cells(
            np.array([0]), np.array([0]), np.array([[HP_TIO2.g_on], [0.0]])
        )
        reports = stack.program_cells(
            np.arange(3), np.arange(3), np.full(3, HP_TIO2.g_on),
            skip_unchanged=True,
        )
        assert [r.cells_written for r in reports] == [2, 3]
        for report, moved in zip(reports, (2, 3)):
            assert report.energy_j == report.pulses * self.per_pulse(moved - 1)


class TestWriteReport:
    def test_addition(self):
        a = WriteReport(1, 10, 1e-6, 2e-12)
        b = WriteReport(2, 20, 3e-6, 4e-12)
        total = a + b
        assert total.cells_written == 3
        assert total.pulses == 30
        assert total.latency_s == pytest.approx(4e-6)
        assert total.energy_j == pytest.approx(6e-12)
