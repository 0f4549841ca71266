"""Tests for experiment row types' derived quantities."""

import pytest

from repro.analysis import SampleStats
from repro.experiments import FeasibleRow, InfeasibilityRow


def stats(mean, count=3):
    return SampleStats(
        count=count, mean=mean, std=0.0, minimum=mean, maximum=mean
    )


EMPTY = SampleStats.from_samples([])


class TestFeasibleRow:
    def make(self, latency=EMPTY, energy=EMPTY):
        return FeasibleRow(
            solver="crossbar",
            constraints=64,
            variation_percent=10,
            trials=3,
            solved=3,
            error=EMPTY,
            iterations=EMPTY,
            latency=latency,
            energy=energy,
            linprog_s=1.0,
            pdip_matlab_s=2.0,
            linprog_j=10.0,
            pdip_matlab_j=20.0,
        )

    def test_speedup(self):
        assert self.make(latency=stats(0.01)).speedup_vs_linprog == (
            pytest.approx(100.0)
        )

    def test_speedup_zero_when_unsolved(self):
        assert self.make().speedup_vs_linprog == 0.0

    def test_gain(self):
        assert self.make(energy=stats(0.1)).gain_vs_linprog == (
            pytest.approx(100.0)
        )

    def test_gain_zero_when_unsolved(self):
        assert self.make().gain_vs_linprog == 0.0


class TestInfeasibilityRow:
    def make(self, detected, trials=10, latency=EMPTY):
        return InfeasibilityRow(
            solver="crossbar",
            constraints=64,
            variation_percent=0,
            trials=trials,
            detected=detected,
            iterations=EMPTY,
            latency=latency,
            linprog_s=5.0,
        )

    def test_detection_rate(self):
        assert self.make(8).detection_rate == pytest.approx(0.8)

    def test_detection_rate_empty_trials(self):
        assert self.make(0, trials=0).detection_rate == 0.0

    def test_speedup(self):
        row = self.make(10, latency=stats(0.05))
        assert row.speedup_vs_linprog == pytest.approx(100.0)

    def test_speedup_zero_without_latency_samples(self):
        assert self.make(10).speedup_vs_linprog == 0.0
