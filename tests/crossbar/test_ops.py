"""Tests for the high-level analog matrix operator."""

import numpy as np
import pytest

from repro.crossbar import AnalogMatrixOperator
from repro.devices import (
    HP_TIO2,
    YAKOPCIC_NAECON14,
    NoVariation,
    UniformVariation,
)
from repro.exceptions import CrossbarSolveError, MappingError


def operator_for(rng, matrix, **kwargs):
    kwargs.setdefault("params", YAKOPCIC_NAECON14)
    kwargs.setdefault("rng", rng)
    return AnalogMatrixOperator(matrix, **kwargs)


class TestConstruction:
    def test_rejects_negative_matrix(self, rng):
        with pytest.raises(MappingError, match="negative"):
            operator_for(rng, np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_rejects_non_2d(self, rng):
        with pytest.raises(MappingError):
            operator_for(rng, np.ones(3))

    def test_rejects_nan(self, rng):
        with pytest.raises(MappingError, match="finite"):
            operator_for(rng, np.array([[np.nan]]))

    def test_rejects_bad_headroom(self, rng):
        with pytest.raises(ValueError, match="headroom"):
            operator_for(rng, np.ones((2, 2)), scale_headroom=0.5)

    def test_rejects_unknown_quantization(self, rng):
        with pytest.raises(ValueError, match="quantization"):
            operator_for(rng, np.ones((2, 2)), quantization="fancy")

    def test_rejects_unknown_off_state(self, rng):
        with pytest.raises(ValueError, match="off_state"):
            operator_for(rng, np.ones((2, 2)), off_state="weird")


class TestMultiply:
    def test_accuracy_ideal_hardware(self, rng):
        matrix = rng.uniform(0.1, 2.0, size=(7, 5))
        op = operator_for(rng, matrix, dac_bits=None, adc_bits=None)
        x = rng.uniform(-1, 1, size=5)
        np.testing.assert_allclose(op.multiply(x), matrix @ x, rtol=1e-9)

    def test_accuracy_8bit(self, rng):
        matrix = rng.uniform(0.1, 2.0, size=(6, 6))
        op = operator_for(rng, matrix)
        x = rng.uniform(-1, 1, size=6)
        y = op.multiply(x)
        ref = matrix @ x
        assert np.max(np.abs(y - ref)) <= 0.02 * np.max(np.abs(ref))

    def test_variation_degrades_accuracy(self, rng):
        matrix = rng.uniform(0.1, 2.0, size=(8, 8))
        x = rng.uniform(-1, 1, size=8)
        ideal = operator_for(
            rng, matrix, dac_bits=None, adc_bits=None
        ).multiply(x)
        noisy = operator_for(
            rng,
            matrix,
            variation=UniformVariation(0.2),
            dac_bits=None,
            adc_bits=None,
        ).multiply(x)
        ref = matrix @ x
        assert np.max(np.abs(noisy - ref)) > np.max(np.abs(ideal - ref))

    def test_zero_input(self, rng):
        op = operator_for(rng, np.ones((3, 3)))
        np.testing.assert_array_equal(op.multiply(np.zeros(3)), np.zeros(3))

    def test_subnormal_input_treated_as_zero(self, rng):
        # A subnormal peak would overflow the encoding gain to inf;
        # the operator must flush it to zero instead of producing NaN.
        op = operator_for(rng, np.ones((3, 3)))
        x = np.full(3, 5e-320)
        np.testing.assert_array_equal(op.multiply(x), np.zeros(3))
        np.testing.assert_array_equal(
            op.solve(np.full(3, 5e-320)), np.zeros(3)
        )

    def test_shape_validation(self, rng):
        op = operator_for(rng, np.ones((3, 4)))
        with pytest.raises(ValueError, match="shape"):
            op.multiply(np.zeros(3))

    def test_scale_invariance_of_input(self, rng):
        # Auto-gain encoding: scaling the input scales the output.
        matrix = rng.uniform(0.1, 1.0, size=(5, 5))
        op = operator_for(rng, matrix, dac_bits=None, adc_bits=None)
        x = rng.uniform(-1, 1, size=5)
        np.testing.assert_allclose(
            op.multiply(1000.0 * x), 1000.0 * op.multiply(x), rtol=1e-9
        )


class TestSolve:
    def test_accuracy_ideal_hardware(self, rng):
        matrix = rng.uniform(0.1, 2.0, size=(6, 6)) + 2 * np.eye(6)
        op = operator_for(rng, matrix, dac_bits=None, adc_bits=None)
        b = rng.uniform(-1, 1, size=6)
        np.testing.assert_allclose(
            op.solve(b), np.linalg.solve(matrix, b), rtol=1e-9
        )

    def test_accuracy_8bit(self, rng):
        matrix = rng.uniform(0.1, 2.0, size=(6, 6)) + 2 * np.eye(6)
        op = operator_for(rng, matrix)
        b = rng.uniform(-1, 1, size=6)
        ref = np.linalg.solve(matrix, b)
        assert np.max(np.abs(op.solve(b) - ref)) <= 0.05 * np.max(
            np.abs(ref)
        )

    def test_zero_rhs(self, rng):
        op = operator_for(rng, np.eye(4))
        np.testing.assert_array_equal(op.solve(np.zeros(4)), np.zeros(4))

    def test_singular_matrix_raises(self, rng):
        matrix = np.zeros((3, 3))
        matrix[0, 0] = 1.0
        op = operator_for(rng, matrix)
        with pytest.raises(CrossbarSolveError):
            op.solve(np.ones(3))

    def test_non_square_raises(self, rng):
        op = operator_for(rng, np.ones((3, 4)))
        with pytest.raises(CrossbarSolveError, match="square"):
            op.solve(np.ones(3))


class TestUpdates:
    def test_cell_update_changes_result(self, rng):
        matrix = rng.uniform(0.5, 1.0, size=(4, 4))
        op = operator_for(rng, matrix, dac_bits=None, adc_bits=None)
        op.update_coefficients(
            np.array([1]), np.array([2]), np.array([0.75])
        )
        assert op.coefficients[1, 2] == pytest.approx(0.75)
        x = rng.uniform(-1, 1, size=4)
        expected = op.coefficients @ x
        np.testing.assert_allclose(op.multiply(x), expected, rtol=1e-9)

    def test_outgrowing_value_triggers_remap(self, rng):
        matrix = rng.uniform(0.5, 1.0, size=(4, 4))
        op = operator_for(rng, matrix, scale_headroom=1.0)
        before = op.full_reprograms
        op.update_coefficients(
            np.array([0]), np.array([0]), np.array([50.0])
        )
        assert op.full_reprograms == before + 1
        x = rng.uniform(-1, 1, size=4)
        ref = op.coefficients @ x
        assert np.max(np.abs(op.multiply(x) - ref)) <= 0.05 * np.max(
            np.abs(ref)
        )

    def test_floor_to_representable_keeps_cells_alive(self, rng):
        matrix = np.eye(4)
        op = operator_for(rng, matrix, scale_headroom=1.0)
        # 1e-9 would truncate to the off state and make the diagonal
        # singular; the floor clamp must keep it solvable.
        op.update_coefficients(
            np.array([2]),
            np.array([2]),
            np.array([1e-9]),
            floor_to_representable=True,
        )
        op.solve(np.ones(4))  # must not raise

    def test_rejects_negative_values(self, rng):
        op = operator_for(rng, np.ones((3, 3)))
        with pytest.raises(MappingError, match="negative"):
            op.update_coefficients(
                np.array([0]), np.array([0]), np.array([-1.0])
            )

    def test_negative_index_rejected_before_any_change(self, rng):
        # A negative index would wrap around to the last row or column;
        # the update refuses it before touching coefficients or cells.
        op = operator_for(rng, np.ones((3, 3)))
        coefficients = op.coefficients
        written = op.write_report
        with pytest.raises(IndexError, match="out of range"):
            op.update_coefficients(
                np.array([0, -1]), np.array([1, 1]), np.array([0.5, 0.5])
            )
        assert np.array_equal(op.coefficients, coefficients)
        assert op.write_report == written

    def test_shape_mismatch_rejected(self, rng):
        op = operator_for(rng, np.ones((3, 3)))
        with pytest.raises(ValueError, match="matching"):
            op.update_coefficients(
                np.array([0, 1]), np.array([0]), np.array([1.0])
            )

    def test_write_report_grows(self, rng):
        op = operator_for(rng, np.ones((3, 3)))
        before = op.write_report.cells_written
        op.update_coefficients(
            np.array([0]), np.array([1]), np.array([0.5])
        )
        assert op.write_report.cells_written > before


class TestRenormalize:
    def test_noop_when_scale_never_drifted(self, rng):
        op = operator_for(rng, np.ones((3, 3)))
        report = op.renormalize()
        assert report.cells_written == 0
        assert report.pulses == 0

    def test_undoes_remap_drift(self, rng):
        matrix = rng.uniform(0.5, 1.0, size=(4, 4))
        op = operator_for(rng, matrix, scale_headroom=1.0)
        fresh_scale = op.scale
        # Grow a cell so the window remaps, then shrink it back: the
        # remap's scale sticks and inflates the representable floor.
        op.update_coefficients(
            np.array([0]), np.array([0]), np.array([50.0])
        )
        op.update_coefficients(
            np.array([0]), np.array([0]), np.array([matrix[0, 0]])
        )
        assert op.scale < fresh_scale
        floor_drifted = op.min_coefficient
        report = op.renormalize()
        assert report.cells_written > 0
        assert op.scale == pytest.approx(fresh_scale)
        assert op.min_coefficient < floor_drifted

    def test_multiply_accurate_after_renormalize(self, rng):
        matrix = rng.uniform(0.5, 1.0, size=(4, 4))
        op = operator_for(
            rng, matrix, scale_headroom=1.0,
            dac_bits=None, adc_bits=None,
        )
        op.update_coefficients(
            np.array([1]), np.array([1]), np.array([50.0])
        )
        op.update_coefficients(
            np.array([1]), np.array([1]), np.array([matrix[1, 1]])
        )
        op.renormalize()
        x = rng.uniform(-1, 1, size=4)
        np.testing.assert_allclose(
            op.multiply(x), op.coefficients @ x, rtol=1e-9
        )

    def test_row_scaled_renormalize_touches_only_drifted_rows(self, rng):
        matrix = rng.uniform(0.5, 1.0, size=(4, 4))
        op = operator_for(rng, matrix, row_scaling=True)
        # Overflow one row so it rescales, then restore it.  A 3x
        # excursion leaves the restored peak inside the hysteresis
        # window, so the shrunken row scale sticks until renormalize.
        op.update_coefficients(
            np.array([2]), np.array([2]), np.array([3.0])
        )
        op.update_coefficients(
            np.array([2]), np.array([2]), np.array([matrix[2, 2]])
        )
        # The scales a fresh programming of the same coefficients picks.
        fresh = operator_for(
            np.random.default_rng(0), op.coefficients, row_scaling=True
        ).scale_vector
        assert not np.allclose(op.scale_vector, fresh)
        report = op.renormalize()
        # Exactly one row (4 cells) rewritten, not the whole array.
        assert 0 < report.cells_written <= 4
        np.testing.assert_allclose(op.scale_vector, fresh, rtol=1e-12)


class TestRowScaling:
    def test_wide_dynamic_range_matrix(self, rng):
        # Rows differing by 1e6 in magnitude: a global mapping would
        # truncate the small rows entirely; row scaling keeps them.
        matrix = np.diag([1e-3, 1.0, 1e3, 1e6])
        op = operator_for(
            rng, matrix, row_scaling=True, dac_bits=None, adc_bits=None
        )
        b = np.array([1.0, 1.0, 1.0, 1.0])
        ref = np.linalg.solve(matrix, b)
        np.testing.assert_allclose(op.solve(b), ref, rtol=1e-9)

    def test_global_mapping_fails_same_matrix(self, rng):
        matrix = np.diag([1e-3, 1.0, 1e3, 1e6])
        op = operator_for(
            rng, matrix, row_scaling=False, dac_bits=None, adc_bits=None
        )
        # The tiny diagonal truncates to the off state -> singular.
        with pytest.raises(CrossbarSolveError):
            op.solve(np.ones(4))

    def test_multiply_matches_dense(self, rng):
        matrix = rng.uniform(0.1, 1.0, size=(5, 5)) * np.logspace(
            -2, 2, 5
        ).reshape(-1, 1)
        op = operator_for(
            rng, matrix, row_scaling=True, dac_bits=None, adc_bits=None
        )
        x = rng.uniform(-1, 1, size=5)
        np.testing.assert_allclose(op.multiply(x), matrix @ x, rtol=1e-9)

    def test_scale_property_raises_in_row_mode(self, rng):
        op = operator_for(rng, np.ones((3, 3)), row_scaling=True)
        with pytest.raises(MappingError, match="row-scaled"):
            _ = op.scale
        assert op.scale_vector.shape == (3,)

    def test_row_update_keeps_other_rows(self, rng):
        matrix = rng.uniform(0.5, 1.0, size=(4, 4))
        op = operator_for(
            rng, matrix, row_scaling=True, dac_bits=None, adc_bits=None
        )
        op.update_coefficients(
            np.array([0]), np.array([0]), np.array([500.0])
        )
        x = rng.uniform(-1, 1, size=4)
        np.testing.assert_allclose(
            op.multiply(x), op.coefficients @ x, rtol=1e-6
        )


class TestLeakMode:
    def test_leak_compensation_improves_multiply(self, rng):
        # Many sub-floor entries: the leak current is significant.
        matrix = np.full((6, 6), 1e-6)
        matrix[np.diag_indices(6)] = 1.0
        x = rng.uniform(0.1, 1.0, size=6)
        ref = matrix @ x
        compensated = AnalogMatrixOperator(
            matrix,
            params=HP_TIO2,
            rng=rng,
            off_state="leak",
            compensate_leak=True,
            dac_bits=None,
            adc_bits=None,
        ).multiply(x)
        uncompensated = AnalogMatrixOperator(
            matrix,
            params=HP_TIO2,
            rng=rng,
            off_state="leak",
            compensate_leak=False,
            dac_bits=None,
            adc_bits=None,
        ).multiply(x)
        err_comp = np.max(np.abs(compensated - ref))
        err_raw = np.max(np.abs(uncompensated - ref))
        assert err_comp < err_raw
