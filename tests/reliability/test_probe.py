"""Array health probes: known-vector multiplies vs the nominal product."""

import numpy as np
import pytest

from repro.crossbar.ops import AnalogMatrixOperator
from repro.devices.faults import StuckAtFaults
from repro.devices.models import YAKOPCIC_NAECON14
from repro.devices.variation import UniformVariation
from repro.reliability import (
    ProbePolicy,
    probe_operator,
    probe_operators,
    probe_tolerance,
)


def _operator(variation=None, seed=0, n=8):
    matrix = np.abs(np.random.default_rng(42).normal(size=(n, n))) + 0.1
    kwargs = {}
    if variation is not None:
        kwargs["variation"] = variation
    return AnalogMatrixOperator(
        matrix,
        params=YAKOPCIC_NAECON14,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


class TestProbePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbePolicy(vectors=0)
        with pytest.raises(ValueError):
            ProbePolicy(margin=0.0)
        with pytest.raises(ValueError):
            ProbePolicy(min_tolerance=-1.0)
        with pytest.raises(ValueError):
            ProbePolicy(tolerance=0.0)


class TestProbeTolerance:
    def test_explicit_override_wins(self):
        operator = _operator()
        policy = ProbePolicy(tolerance=0.123)
        assert probe_tolerance(operator, policy) == 0.123

    def test_scales_with_variation_spec(self):
        quiet = probe_tolerance(
            _operator(UniformVariation(0.01)), ProbePolicy(min_tolerance=0.0)
        )
        noisy = probe_tolerance(
            _operator(UniformVariation(0.2)), ProbePolicy(min_tolerance=0.0)
        )
        assert noisy > quiet

    def test_floor_applies(self):
        policy = ProbePolicy(min_tolerance=0.5)
        assert probe_tolerance(_operator(), policy) == 0.5


class TestProbeOperator:
    def test_healthy_within_spec(self):
        operator = _operator(UniformVariation(0.1))
        report = probe_operator(
            operator, ProbePolicy(), np.random.default_rng(0), label="M"
        )
        assert report.healthy
        assert report.label == "M"
        assert report.vectors == 2
        assert report.max_rel_error <= report.tolerance

    def test_stuck_array_flagged(self):
        # A heavily faulted array deviates far beyond the soft-variation
        # spec and must be rejected.
        operator = _operator(
            StuckAtFaults(
                YAKOPCIC_NAECON14,
                stuck_off_rate=0.45,
                base=UniformVariation(0.05),
            ),
            seed=3,
        )
        report = probe_operator(
            operator, ProbePolicy(), np.random.default_rng(0)
        )
        assert not report.healthy
        assert report.max_rel_error > report.tolerance

    def test_vector_count_respected(self):
        operator = _operator(UniformVariation(0.05))
        report = probe_operator(
            operator, ProbePolicy(vectors=5), np.random.default_rng(0)
        )
        assert report.vectors == 5


class TestProbeOperators:
    def test_combined_report_sums_vectors(self):
        ops = [
            ("a", _operator(UniformVariation(0.05), seed=1)),
            ("b", _operator(UniformVariation(0.05), seed=2)),
        ]
        report = probe_operators(ops, ProbePolicy(), np.random.default_rng(0))
        assert report.vectors == 4
        assert report.healthy

    def test_one_bad_array_poisons_the_combined_verdict(self):
        ops = [
            ("good", _operator(UniformVariation(0.05), seed=1)),
            (
                "bad",
                _operator(
                    StuckAtFaults(
                        YAKOPCIC_NAECON14,
                        stuck_off_rate=0.45,
                        base=UniformVariation(0.05),
                    ),
                    seed=3,
                ),
            ),
        ]
        report = probe_operators(ops, ProbePolicy(), np.random.default_rng(0))
        assert not report.healthy
        assert report.label == "bad"

    def test_empty_iterable_rejected(self):
        with pytest.raises(ValueError):
            probe_operators([], ProbePolicy(), np.random.default_rng(0))

