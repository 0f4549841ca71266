"""Batched lockstep solver vs. the serial reference, bitwise.

:func:`~repro.core.batch_solver.solve_crossbar_batch` promises that
with the numpy backend every member's result — iterates, status,
message, write counters, attempt records, and the caller's generator
position afterwards — is exactly what a serial
:func:`~repro.core.crossbar_solver.solve_crossbar` call returns.
These tests hold it to that across shapes, hardware modes, and the
rewind-to-serial escalation path.
"""

from unittest import mock

import numpy as np

from repro.core import batch_solver
from repro.core.batch_solver import solve_crossbar_batch
from repro.core.crossbar_solver import solve_crossbar
from repro.core.result import FailureReason, SolveStatus
from repro.core.settings import CrossbarSolverSettings
from repro.devices.variation import UniformVariation
from repro.reliability.verify import WriteVerifyPolicy
from repro.workloads import random_feasible_lp


def assert_parity(problems, settings, seed0=5000, **kwargs):
    """Batch and serial arms with identical generators must agree."""
    rngs_batch = [
        np.random.default_rng(seed0 + i) for i in range(len(problems))
    ]
    rngs_serial = [
        np.random.default_rng(seed0 + i) for i in range(len(problems))
    ]
    batch = solve_crossbar_batch(
        problems, settings, rngs=rngs_batch, **kwargs
    )
    serial = [
        solve_crossbar(problem, settings, rng=rngs_serial[i])
        for i, problem in enumerate(problems)
    ]
    for i, (got, want) in enumerate(zip(batch, serial)):
        assert got.status == want.status, i
        for field in ("x", "y", "w", "z"):
            assert (
                getattr(got, field).tobytes()
                == getattr(want, field).tobytes()
            ), (i, field)
        assert got.objective == want.objective, i
        assert got.iterations == want.iterations, i
        assert got.message == want.message, i
        assert got.failure_reason == want.failure_reason, i
        assert got.crossbar == want.crossbar, i
        assert [
            (r.index, r.action, r.seed, r.status) for r in got.attempts
        ] == [
            (r.index, r.action, r.seed, r.status) for r in want.attempts
        ], i
        # The caller's generators must land on the same stream position,
        # so batched and serial execution can be mixed freely.
        assert rngs_batch[i].integers(0, 2**63) == rngs_serial[i].integers(
            0, 2**63
        ), i
    return batch


def lps(count, m, n=None, seed=300):
    return [
        random_feasible_lp(m, n, rng=np.random.default_rng(seed + i))
        for i in range(count)
    ]


class TestBatchedParity:
    def test_same_shape_group(self):
        assert_parity(
            lps(6, 6),
            CrossbarSolverSettings(variation=UniformVariation(0.05)),
        )

    def test_mixed_shapes_and_singleton(self):
        problems = (
            lps(3, 5, seed=400)
            + lps(3, 8, seed=500)
            + lps(1, 4, 7, seed=600)  # structural singleton: serial path
        )
        assert_parity(
            problems,
            CrossbarSolverSettings(variation=UniformVariation(0.05)),
        )

    def test_hardware_modes(self):
        problems = lps(4, 6)
        for settings in (
            CrossbarSolverSettings(variation=UniformVariation(0.12)),
            CrossbarSolverSettings(
                variation=UniformVariation(0.05),
                write_verify=WriteVerifyPolicy(0.02, 3),
            ),
            CrossbarSolverSettings(
                variation=UniformVariation(0.05), off_state="leak"
            ),
            CrossbarSolverSettings(
                variation=UniformVariation(0.05),
                dac_bits=None,
                adc_bits=None,
            ),
        ):
            assert_parity(problems, settings)

    def test_retry_heavy_variation(self):
        # 35% variation forces inconclusive first attempts on some
        # members: those must rewind their generator and reproduce the
        # full serial recovery ladder.
        assert_parity(
            lps(5, 6),
            CrossbarSolverSettings(variation=UniformVariation(0.35)),
        )

    def test_iteration_capped(self):
        assert_parity(
            lps(6, 6),
            CrossbarSolverSettings(
                variation=UniformVariation(0.05), max_iterations=5
            ),
        )

    def test_leak_without_converters(self):
        # With converters off nothing rounds the leak correction, and
        # m=16 systems hold floored cells: a change in the dummy-row
        # term's summation order would move the batch off serial.
        assert_parity(
            lps(8, 16),
            CrossbarSolverSettings(
                variation=UniformVariation(0.05),
                off_state="leak",
                dac_bits=None,
                adc_bits=None,
            ),
        )

    def test_row_scaled_lockstep(self):
        assert_parity(
            lps(3, 6),
            CrossbarSolverSettings(
                variation=UniformVariation(0.05), row_scaling=True
            ),
        )

    def test_serial_fallbacks(self):
        assert_parity(
            lps(3, 6),
            CrossbarSolverSettings(variation=UniformVariation(0.05)),
            trace=True,
        )


class TestRewindEscalation:
    def test_doctored_failures_reproduce_serial_ladder(self):
        """Force inconclusive lockstep members; they must rewind cleanly.

        The lockstep attempt is wrapped so every other member of each
        group reports NUMERICAL_FAILURE regardless of the real outcome;
        the batch solver must rewind those members' generators and
        obtain the bitwise serial result via the full recovery ladder.
        """
        problems = lps(6, 6, seed=700)
        settings = CrossbarSolverSettings(variation=UniformVariation(0.05))
        real_attempt = batch_solver._lockstep_attempt

        def doctored(members, settings_, seeds, backend):
            results = real_attempt(members, settings_, seeds, backend)
            import dataclasses

            return [
                dataclasses.replace(
                    result,
                    status=SolveStatus.NUMERICAL_FAILURE,
                    failure_reason=FailureReason.SINGULAR_SYSTEM,
                    message="doctored",
                )
                if k % 2
                else result
                for k, result in enumerate(results)
            ]

        with mock.patch.object(
            batch_solver, "_lockstep_attempt", side_effect=doctored
        ):
            assert_parity(problems, settings, seed0=9000)
