"""Backend / batched-engine equivalence gates.

The batched analog engine's contract (DESIGN.md §17): with the numpy
backend, every member of an :class:`~repro.crossbar.opstack.
AnalogOperatorStack` behaves **bitwise** like a serial
:class:`~repro.crossbar.ops.AnalogMatrixOperator` with the same
settings and an identically seeded generator — read-outs, solves,
coefficient updates, write counters, and the RNG stream position
afterwards.  Accelerator backends (torch) are tolerance-equal at
1e-10 relative and are exercised only where installed.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV,
    NumpyBackend,
    available_backends,
    get_backend,
    torch_available,
)
from repro.crossbar.array import CrossbarArray
from repro.crossbar.ops import AnalogMatrixOperator
from repro.crossbar.opstack import AnalogOperatorStack
from repro.devices.variation import UniformVariation
from repro.reliability.verify import WriteVerifyPolicy

K = 5
N = 9


def make_pair(seed=0, variation=0.05, **kwargs):
    """A fleet of serial operators and the equivalent stack.

    Both arms get identically seeded per-member generators, so any
    behavioral divergence shows up as a draw-stream or bitwise
    mismatch.
    """
    gen = np.random.default_rng(seed)
    matrices = gen.uniform(0.05, 1.0, size=(K, N, N)) + 2.0 * np.eye(N)
    serial = [
        AnalogMatrixOperator(
            matrices[k],
            variation=UniformVariation(variation),
            rng=np.random.default_rng(1000 * seed + k),
            **kwargs,
        )
        for k in range(K)
    ]
    stack = AnalogOperatorStack(
        matrices,
        variation=UniformVariation(variation),
        rngs=[np.random.default_rng(1000 * seed + k) for k in range(K)],
        **kwargs,
    )
    return serial, stack, gen


def assert_reports_equal(serial, stack):
    for k, op in enumerate(serial):
        batched = stack.write_reports[k]
        assert batched == op.write_report, k


def assert_rng_lockstep(serial, stack):
    """Both arms' generators must sit at the same stream position."""
    for k, op in enumerate(serial):
        assert (
            op.array.rng.integers(0, 2**63)
            == stack.stack.rngs[k].integers(0, 2**63)
        ), k


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(get_backend(), NumpyBackend)
        assert get_backend().name == "numpy"
        assert "numpy" in available_backends()

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert isinstance(get_backend(), NumpyBackend)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "definitely-not-a-backend")
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_serial_facades_pin_numpy(self, monkeypatch):
        # An unknown env backend breaks only stacks that ask for the
        # default; the serial operator and array always run on numpy.
        monkeypatch.setenv(BACKEND_ENV, "definitely-not-a-backend")
        gen = np.random.default_rng(12)
        matrix = gen.uniform(0.1, 1.0, size=(N, N)) + 2.0 * np.eye(N)
        op = AnalogMatrixOperator(
            matrix, variation=UniformVariation(0.05), rng=gen
        )
        op.update_coefficients(
            np.arange(N), np.arange(N), np.full(N, 3.0)
        )
        assert op.multiply(np.ones(N)).shape == (N,)
        assert op.solve(np.ones(N)).shape == (N,)
        array = CrossbarArray(N, N, rng=gen)
        array.program(op.array.nominal_conductances)
        assert array.multiply(np.ones(N)).shape == (N,)
        assert array.solve(np.ones(N)).shape == (N,)
        with pytest.raises(ValueError, match="unknown backend"):
            AnalogOperatorStack(matrix[None])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("fortran")

    @pytest.mark.skipif(
        torch_available(), reason="torch installed; guard not reachable"
    )
    def test_torch_without_torch_raises_import_error(self):
        with pytest.raises(ImportError, match="torch"):
            get_backend("torch")


class TestNumpyStackBitwiseParity:
    def test_multiply_solve_bitwise(self):
        serial, stack, gen = make_pair(seed=1)
        for trial in range(3):
            x = gen.uniform(-1.0, 1.0, size=(K, N))
            batched = stack.multiply(x)
            for k, op in enumerate(serial):
                assert batched[k].tobytes() == op.multiply(x[k]).tobytes()
            b = gen.uniform(-1.0, 1.0, size=(K, N))
            solved = stack.solve(b)
            for k, op in enumerate(serial):
                assert solved[k].tobytes() == op.solve(b[k]).tobytes()
        assert_reports_equal(serial, stack)
        assert_rng_lockstep(serial, stack)

    def test_update_coefficients_bitwise(self):
        serial, stack, gen = make_pair(seed=2)
        rows = np.arange(N)
        cols = np.arange(N)
        for scale in (0.5, 0.9, 5.0):  # 5.0 outgrows the window: remap
            values = gen.uniform(0.1, 1.0, size=(K, N)) * scale
            stack.update_coefficients(
                rows, cols, values, floor_to_representable=True
            )
            for k, op in enumerate(serial):
                op.update_coefficients(
                    rows, cols, values[k], floor_to_representable=True
                )
            x = gen.uniform(-1.0, 1.0, size=(K, N))
            batched = stack.multiply(x)
            for k, op in enumerate(serial):
                assert batched[k].tobytes() == op.multiply(x[k]).tobytes()
                assert stack.scales[k].tobytes() == op.scale_vector.tobytes()
                assert stack.full_reprograms[k] == op.full_reprograms
        assert_reports_equal(serial, stack)
        assert_rng_lockstep(serial, stack)

    def test_redraw_and_renormalize_bitwise(self):
        serial, stack, gen = make_pair(seed=3)
        stack.redraw_variation()
        for op in serial:
            op.redraw_variation()
        stack.renormalize()
        for op in serial:
            op.renormalize()
        x = gen.uniform(-1.0, 1.0, size=(K, N))
        batched = stack.multiply(x)
        for k, op in enumerate(serial):
            assert batched[k].tobytes() == op.multiply(x[k]).tobytes()
        assert_reports_equal(serial, stack)
        assert_rng_lockstep(serial, stack)

    def test_write_verify_and_leak_modes_bitwise(self):
        for kwargs in (
            {"write_verify": WriteVerifyPolicy(0.02, 3)},
            {"off_state": "leak"},
            {"dac_bits": None, "adc_bits": None},
        ):
            serial, stack, gen = make_pair(seed=4, **kwargs)
            x = gen.uniform(-1.0, 1.0, size=(K, N))
            batched = stack.multiply(x)
            for k, op in enumerate(serial):
                assert batched[k].tobytes() == op.multiply(x[k]).tobytes()
            assert_reports_equal(serial, stack)
            assert_rng_lockstep(serial, stack)

    def test_member_subset_matches_full_fleet(self):
        serial, stack, gen = make_pair(seed=5)
        x = gen.uniform(-1.0, 1.0, size=(K, N))
        full = stack.multiply(x)
        members = np.array([0, 2, 4])
        subset = stack.multiply(x[members], members=members)
        assert subset.tobytes() == full[members].tobytes()
        b = gen.uniform(-1.0, 1.0, size=(K, N))
        solved_full, errors_full = stack.try_solve(b)
        solved, errors = stack.try_solve(b[members], members=members)
        assert errors == [None] * members.size and not any(errors_full)
        assert solved.tobytes() == solved_full[members].tobytes()

    def test_row_scaled_members_match_one_member_stacks(self):
        """Row scaling on a K-member stack: member k == a one-member stack.

        Rows span four decades, so members rescale different rows in
        the same update; coordinates are unsorted with a duplicate
        cell; one update overflows rows (a rescale remap) and one
        shrinks them below the hysteresis band; renormalize follows.
        The leak pass runs with converters off and floored cells, where
        any change in the leak term's summation order shows.
        """
        n = 64  # wide enough for summation order to show in the leak term
        for off_state, bits in (("zero", 8), ("leak", None)):
            gen = np.random.default_rng(11)
            decades = np.logspace(-2, 2, n)[None, :, None]
            matrices = gen.uniform(0.05, 1.0, size=(K, n, n)) * decades
            matrices[gen.random((K, n, n)) < 0.3] *= 1e-5
            matrices += np.eye(n)
            kwargs = dict(
                variation=UniformVariation(0.05),
                row_scaling=True,
                off_state=off_state,
                dac_bits=bits,
                adc_bits=bits,
                scale_headroom=2.0,
            )
            fleet = AnalogOperatorStack(
                matrices,
                rngs=[np.random.default_rng(50 + k) for k in range(K)],
                **kwargs,
            )
            singles = [
                AnalogOperatorStack(
                    matrices[k:k + 1],
                    rngs=[np.random.default_rng(50 + k)],
                    **kwargs,
                )
                for k in range(K)
            ]

            def check():
                x = gen.uniform(-1.0, 1.0, size=(K, n))
                b = gen.uniform(-1.0, 1.0, size=(K, n))
                products = fleet.multiply(x)
                solutions, errors = fleet.try_solve(b)
                for k, single in enumerate(singles):
                    assert (
                        products[k].tobytes()
                        == single.multiply(x[k])[0].tobytes()
                    ), k
                    want, want_errors = single.try_solve(b[k])
                    assert solutions[k].tobytes() == want[0].tobytes(), k
                    assert (errors[k] is None) == (want_errors[0] is None), k
                    assert fleet.scales[k].tobytes() == single.scales[0].tobytes()
                    assert fleet.full_reprograms[k] == single.full_reprograms[0]
                    assert fleet.write_reports[k] == single.write_reports[0]
                    assert (
                        fleet.stack.rngs[k].bit_generator.state
                        == single.stack.rngs[0].bit_generator.state
                    ), k

            check()
            rows = np.array([40, 1, 40, 3, 63])  # unsorted; (40, 2) twice
            cols = np.array([2, 1, 2, 3, 0])
            base = matrices[:, rows, cols]
            for factor in (50.0, 1e-3, 1.0):
                values = base * factor
                values[:, 0] *= 0.5  # the duplicate's first write
                values[: K // 2] *= 3.0  # members diverge
                fleet.update_coefficients(
                    rows, cols, values, floor_to_representable=True
                )
                for k, single in enumerate(singles):
                    single.update_coefficients(
                        rows, cols, values[k], floor_to_representable=True
                    )
                check()
            fleet.renormalize()
            for single in singles:
                single.renormalize()
            check()

@pytest.mark.skipif(not torch_available(), reason="torch not installed")
class TestTorchBackendTolerance:
    RTOL = 1e-10

    def test_matvec_and_solve_close_to_numpy(self):
        gen = np.random.default_rng(7)
        stack = gen.uniform(0.1, 1.0, size=(K, N, N)) + 2.0 * np.eye(N)
        v = gen.uniform(-1.0, 1.0, size=(K, N))
        numpy_backend = get_backend("numpy")
        torch_backend = get_backend("torch")
        np.testing.assert_allclose(
            torch_backend.matvec_t(stack, v),
            numpy_backend.matvec_t(stack, v),
            rtol=self.RTOL,
            atol=0.0,
        )
        np.testing.assert_allclose(
            torch_backend.solve_t(stack, v),
            numpy_backend.solve_t(stack, v),
            rtol=self.RTOL,
            atol=1e-12,
        )

    def test_stack_results_close_across_backends(self):
        _, stack_np, gen = make_pair(seed=8)
        matrices = np.random.default_rng(8).uniform(
            0.05, 1.0, size=(K, N, N)
        ) + 2.0 * np.eye(N)
        stack_torch = AnalogOperatorStack(
            matrices,
            variation=UniformVariation(0.05),
            rngs=[np.random.default_rng(8000 + k) for k in range(K)],
            backend="torch",
        )
        x = gen.uniform(-1.0, 1.0, size=(K, N))
        np.testing.assert_allclose(
            stack_torch.multiply(x),
            stack_np.multiply(x),
            rtol=1e-9,
            atol=1e-12,
        )
