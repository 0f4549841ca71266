"""Tests for the crossbar array simulator."""

import numpy as np
import pytest

from repro.crossbar import CrossbarArray, map_matrix
from repro.devices import HP_TIO2, YAKOPCIC_NAECON14, UniformVariation
from repro.exceptions import CrossbarSolveError, MappingError
from repro.obs import RecordingTracer


def programmed_array(rng, n=6, variation=None, params=YAKOPCIC_NAECON14):
    matrix = rng.uniform(0.2, 1.0, size=(n, n))
    mapping = map_matrix(matrix, params)
    array = CrossbarArray(
        n, n, params=params, variation=variation, rng=rng
    )
    array.program_mapping(mapping)
    return array, matrix, mapping


class TestConstruction:
    def test_blank_array_is_off(self):
        array = CrossbarArray(3, 4)
        assert np.all(array.nominal_conductances == 0.0)
        assert array.actual_conductances.shape == (3, 4)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_bad_dimensions(self, rows, cols):
        with pytest.raises(ValueError):
            CrossbarArray(rows, cols)

    def test_rejects_bad_g_sense(self):
        with pytest.raises(ValueError, match="g_sense"):
            CrossbarArray(2, 2, g_sense=-1.0)


class TestProgramming:
    def test_program_validates_range(self):
        array = CrossbarArray(2, 2, params=HP_TIO2)
        with pytest.raises(MappingError, match="negative"):
            array.program(np.full((2, 2), -1.0))
        with pytest.raises(MappingError, match="above"):
            array.program(np.full((2, 2), HP_TIO2.g_on * 2))
        with pytest.raises(MappingError, match="finite"):
            array.program(np.full((2, 2), np.nan))

    def test_program_shape_checked(self):
        array = CrossbarArray(2, 3)
        with pytest.raises(MappingError, match="shape"):
            array.program(np.zeros((3, 2)))

    def test_program_cells_updates_selectively(self, rng):
        array, _, mapping = programmed_array(rng)
        before = array.nominal_conductances
        rows = np.array([0, 1])
        cols = np.array([2, 3])
        targets = np.full(2, YAKOPCIC_NAECON14.g_on * 0.5)
        array.program_cells(rows, cols, targets)
        after = array.nominal_conductances
        assert after[0, 2] == pytest.approx(targets[0])
        untouched = np.ones_like(before, dtype=bool)
        untouched[rows, cols] = False
        np.testing.assert_array_equal(after[untouched], before[untouched])

    def test_program_cells_redraws_variation_only_for_written(self, rng):
        array, _, mapping = programmed_array(
            rng, variation=UniformVariation(0.1)
        )
        before_actual = array.actual_conductances
        array.program_cells(
            np.array([0]), np.array([0]),
            np.array([YAKOPCIC_NAECON14.g_on * 0.3]),
        )
        after_actual = array.actual_conductances
        # Unwritten cells keep their physical deviation.
        mask = np.ones_like(before_actual, dtype=bool)
        mask[0, 0] = False
        np.testing.assert_array_equal(
            after_actual[mask], before_actual[mask]
        )

    def test_program_cells_index_bounds(self, rng):
        array, _, _ = programmed_array(rng, n=4)
        with pytest.raises(IndexError):
            array.program_cells(
                np.array([9]), np.array([0]), np.array([0.0])
            )

    def test_empty_cell_update_is_free(self, rng):
        array, _, _ = programmed_array(rng)
        report = array.program_cells(
            np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
        )
        assert report.cells_written == 0

    def test_write_log_accumulates(self, rng):
        # The array keeps running totals, not a per-event log: one
        # cell write is one programming event, and its report lands
        # in the totals.
        array, _, _ = programmed_array(rng)
        array.tracer = RecordingTracer()
        before = array.total_write_report
        report = array.program_cells(
            np.array([0]), np.array([0]),
            np.array([YAKOPCIC_NAECON14.g_on * 0.7]),
        )
        assert array.tracer.counters["crossbar.writes"] == 1
        assert report.cells_written >= 1
        assert array.total_write_report == before + report


class TestMultiply:
    def test_matches_eqn5_closed_form(self, rng):
        array, _, _ = programmed_array(rng)
        v_in = rng.uniform(-0.5, 0.5, size=array.n_rows)
        g = array.actual_conductances
        expected = (g.T @ v_in) / (array.g_sense + g.sum(axis=0))
        np.testing.assert_allclose(array.multiply(v_in), expected)

    def test_output_bounded_by_input_peak(self, rng):
        array, _, _ = programmed_array(rng)
        v_in = rng.uniform(-0.5, 0.5, size=array.n_rows)
        assert np.max(np.abs(array.multiply(v_in))) <= np.max(np.abs(v_in))

    def test_shape_validation(self, rng):
        array, _, _ = programmed_array(rng, n=5)
        with pytest.raises(ValueError, match="shape"):
            array.multiply(np.zeros(4))

    def test_nominal_denominators(self, rng):
        array, _, _ = programmed_array(rng)
        expected = array.g_sense + array.nominal_conductances.sum(axis=0)
        np.testing.assert_allclose(
            array.nominal_denominators(), expected
        )


class TestSolve:
    def test_solve_inverts_multiply_relation(self, rng):
        array, _, _ = programmed_array(rng)
        v_out = rng.uniform(-0.3, 0.3, size=array.n_cols)
        v_in = array.solve(v_out)
        g = array.actual_conductances
        np.testing.assert_allclose(
            g.T @ v_in, array.g_sense * v_out, rtol=1e-9, atol=1e-12
        )

    def test_requires_square(self):
        array = CrossbarArray(3, 4)
        with pytest.raises(CrossbarSolveError, match="square"):
            array.solve(np.zeros(4))

    def test_singular_system_raises(self):
        array = CrossbarArray(3, 3, params=HP_TIO2)
        # Leave the array blank: all-zero conductances are singular.
        with pytest.raises(CrossbarSolveError, match="singular"):
            array.solve(np.ones(3))

    def test_shape_validation(self, rng):
        array, _, _ = programmed_array(rng, n=4)
        with pytest.raises(ValueError, match="shape"):
            array.solve(np.zeros(5))


class TestFullyOpenCells:
    """Regression: stuck-OFF (conductance 0.0) cells must never produce
    division by zero — not in the analog primitives, not in the mapping
    scales, not in the operator decode path."""

    def test_multiply_finite_with_all_cells_open(self):
        array = CrossbarArray(4, 4, params=HP_TIO2)
        # Blank array: every cell fully open (actual conductance 0.0).
        out = array.multiply(np.ones(4))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, np.zeros(4))

    def test_denominators_positive_with_open_columns(self):
        array = CrossbarArray(4, 4, params=HP_TIO2)
        targets = np.full((4, 4), HP_TIO2.g_on * 0.5)
        targets[:, 2] = 0.0  # whole bit-line open
        array.program(targets)
        assert np.all(array.nominal_denominators() > 0)
        out = array.multiply(np.ones(4))
        assert np.all(np.isfinite(out))

    def test_solve_raises_instead_of_returning_nonfinite(self):
        array = CrossbarArray(3, 3, params=HP_TIO2)
        targets = np.full((3, 3), HP_TIO2.g_on * 0.5)
        targets[:, 1] = 0.0  # open column makes the system singular
        array.program(targets)
        with pytest.raises(CrossbarSolveError):
            array.solve(np.ones(3))

    def test_fast_mapping_scales_finite_for_zero_matrices(self):
        from repro.crossbar.mapping import map_matrix_per_row

        zero = np.zeros((3, 3))
        for mapping in (
            map_matrix(zero, HP_TIO2),
            map_matrix_per_row(zero, HP_TIO2),
        ):
            assert np.all(np.isfinite(mapping.scale_vector))
            assert np.all(mapping.scale_vector > 0)
            assert np.all(np.isfinite(mapping.decode_matrix()))

    def test_operator_decode_finite_with_stuck_open_cells(self):
        from repro.crossbar.ops import AnalogMatrixOperator
        from repro.devices.faults import StuckAtFaults

        matrix = np.abs(np.random.default_rng(0).normal(size=(5, 5))) + 0.1
        operator = AnalogMatrixOperator(
            matrix,
            params=HP_TIO2,
            variation=StuckAtFaults(HP_TIO2, stuck_off_rate=0.45),
            rng=np.random.default_rng(1),
        )
        out = operator.multiply(np.ones(5))
        assert np.all(np.isfinite(out))


class TestWriteReportAggregation:
    """``total_write_report`` over mixed program / program_cells runs."""

    def test_totals_equal_sum_of_write_log(self, rng):
        # Totals equal the sum of the reports each call returned.
        array, _, mapping = programmed_array(rng)
        array.tracer = RecordingTracer()
        reports = [array.total_write_report]  # the initial program
        reports.append(
            array.program_cells(
                np.array([0, 1]),
                np.array([1, 2]),
                np.full(2, YAKOPCIC_NAECON14.g_on * 0.3),
            )
        )
        reports.append(array.program(mapping.conductances))  # full rewrite
        by_hand = reports[0]
        for report in reports[1:]:
            by_hand = by_hand + report
        assert array.total_write_report == by_hand
        assert array.tracer.counters["crossbar.writes"] == 2

    def test_full_program_then_selective_costs_accumulate(self, rng):
        array, _, _ = programmed_array(rng, n=4)
        first = array.total_write_report
        assert first.cells_written == 16
        array.program_cells(
            np.array([0]), np.array([0]),
            np.array([YAKOPCIC_NAECON14.g_on * 0.4]),
        )
        total = array.total_write_report
        assert total.cells_written == 17
        assert total.pulses > first.pulses
        assert total.latency_s > first.latency_s
        assert total.energy_j > first.energy_j

    def test_unchanged_cells_add_no_cost(self, rng):
        array, _, mapping = programmed_array(rng)
        before = array.total_write_report
        # Re-issuing identical targets writes nothing...
        report = array.program(mapping.conductances)
        assert report.cells_written == 0
        assert report.pulses == 0
        # ...but still logs an (empty) event, leaving totals unchanged.
        assert array.total_write_report == before

    def test_subtraction_scopes_a_window(self, rng):
        array, _, _ = programmed_array(rng, n=4)
        baseline = array.total_write_report
        array.program_cells(
            np.array([1, 2]), np.array([1, 2]),
            np.full(2, YAKOPCIC_NAECON14.g_on * 0.25),
        )
        window = array.total_write_report - baseline
        assert window.cells_written == 2
        assert window.pulses > 0
        assert window.energy_j > 0
        # Round trip: baseline + window == lifetime total.
        assert baseline + window == array.total_write_report

    def test_blank_array_reports_zero(self):
        array = CrossbarArray(3, 3)
        total = array.total_write_report
        assert total.cells_written == 0
        assert total.pulses == 0
        assert total.latency_s == 0.0
        assert total.energy_j == 0.0


class TestStuckOffInjection:
    def test_injection_detaches_actual_from_nominal(self, rng):
        array, _, _ = programmed_array(rng, n=4)
        touched = array.inject_stuck_off(0.5, rng=rng)
        assert touched == 8  # 2 of 4 rows, all 4 columns
        assert (array.actual_conductances == 0.0).sum() >= 8
        # The controller's nominal view is untouched.
        assert array.nominal_conductances.min() > 0

    def test_full_injection_zeroes_every_row(self, rng):
        array, _, _ = programmed_array(rng, n=3)
        assert array.inject_stuck_off(1.0) == 9
        assert np.all(array.actual_conductances == 0.0)

    def test_rejects_bad_fraction(self, rng):
        array, _, _ = programmed_array(rng, n=3)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                array.inject_stuck_off(bad)
