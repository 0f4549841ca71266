"""Tests for the live serving telemetry surface."""

import pytest

from repro.costmodel import estimate_energy
from repro.obs import RecordingTracer
from repro.obs.recorder import read_flight_jsonl
from repro.service import (
    FaultCampaign,
    FaultEvent,
    JobSpec,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    synthesize_jobs,
)
from repro.service.resilience import BreakerPolicy, DegradationPolicy


def run_batch(telemetry, *, jobs=8, campaign=None, **overrides):
    config = ServiceConfig(
        pool_size=2,
        base_seed=7,
        digital_fallback="reference",
        campaign=campaign,
        **overrides,
    )
    service = SolverService(
        config, tracer=RecordingTracer(), telemetry=telemetry
    )
    specs = synthesize_jobs(jobs, groups=2, constraints=10)
    records, summary = service.batch(specs)
    return service, records, summary


class TestJobFolding:
    def test_every_job_counted(self):
        telemetry = ServiceTelemetry()
        _, records, summary = run_batch(telemetry)
        assert telemetry.jobs == len(records) == 8
        assert telemetry.succeeded == summary.succeeded
        assert (
            telemetry.registry.counter_value("service.jobs_submitted")
            == 8.0
        )

    def test_energy_matches_records_exactly(self):
        telemetry = ServiceTelemetry()
        _, records, summary = run_batch(telemetry)
        assert telemetry.energy_j_total == pytest.approx(
            sum(record.energy_j for record in records), rel=1e-12
        )
        assert summary.energy_j == pytest.approx(
            telemetry.energy_j_total, rel=1e-12
        )
        assert telemetry.registry.counter_value(
            "service.energy_j"
        ) == pytest.approx(summary.energy_j, rel=1e-12)

    def test_latency_histogram_counts_jobs(self):
        telemetry = ServiceTelemetry()
        _, records, _ = run_batch(telemetry)
        series = telemetry.registry.histogram("service.latency_s")
        timed = [r for r in records if r.elapsed_seconds > 0]
        assert series.cumulative.count == len(timed)

    def test_per_label_series_created(self):
        telemetry = ServiceTelemetry()
        run_batch(telemetry)
        names = {
            (series.name, series.labels)
            for series in telemetry.registry.histograms()
        }
        assert ("service.latency_s", ()) in names
        labeled = [
            labels
            for name, labels in names
            if name == "service.latency_s" and labels
        ]
        assert labeled, "expected per-priority/group labeled series"
        keys = {key for labels in labeled for key, _ in labels}
        assert keys == {"priority", "group", "tenant"}

    def test_slo_budgets_fed(self):
        telemetry = ServiceTelemetry()
        run_batch(telemetry)
        assert telemetry.slo.availability.total == 8
        assert telemetry.registry.gauge_value(
            "slo.availability.budget_remaining"
        ) == 1.0


class TestResolveCounters:
    def test_warm_resolves_reconcile_to_zero_program_cells(self):
        from repro.workloads import rolling_horizon_stream

        telemetry = ServiceTelemetry()
        config = ServiceConfig(pool_size=1, base_seed=7)
        service = SolverService(
            config, tracer=RecordingTracer(), telemetry=telemetry
        )
        _, specs = rolling_horizon_stream(5, constraints=12, seed=7)
        records, summary = service.batch(specs)
        assert summary.failed == 0
        assert (
            telemetry.registry.counter_value("service.resolve.jobs")
            == 5.0
        )
        # The per-record program-cell fold is zero on an all-warm
        # stream.
        assert (
            telemetry.registry.counter_value(
                "service.resolve.program_cells"
            )
            == 0.0
        )
        resolve_cells = sum(
            attempt.program_cells
            for record in records
            if getattr(record.spec, "base_job_id", None)
            for attempt in record.attempts
        )
        assert resolve_cells == 0


class TestTrips:
    def test_job_failure_trips_recorder(self, tmp_path):
        telemetry = ServiceTelemetry(flight_dir=tmp_path)
        # Every 2nd job infeasible-planted still *succeeds* (conclusive);
        # use a no-fallback config with a dead pool instead.
        service = SolverService(
            ServiceConfig(pool_size=1, base_seed=7, max_attempts=1),
            telemetry=telemetry,
        )
        service.pool.inject_fault(0, 1.0, sticky=True)
        specs = synthesize_jobs(2, groups=1, constraints=10)
        _, summary = service.batch(specs)
        assert summary.failed > 0
        assert telemetry.recorder.trips >= summary.failed
        assert telemetry.recorder.dumps
        events = read_flight_jsonl(telemetry.recorder.dumps[0])
        assert events[-1]["kind"] == "trip"
        assert events[-1]["reason"] == "job_failed"

    def test_tier_change_trips_recorder(self, tmp_path):
        telemetry = ServiceTelemetry(flight_dir=tmp_path)
        campaign = FaultCampaign(
            [
                FaultEvent(
                    at_job=2,
                    kind="stuck_cells",
                    member=m,
                    row_fraction=1.0,
                    sticky=True,
                )
                for m in (0, 1)
            ],
            name="storm",
            seed=7,
        )
        telemetry_policy = DegradationPolicy(window=8, min_samples=4)
        run_batch(
            telemetry,
            jobs=16,
            campaign=campaign,
            degradation=telemetry_policy,
        )
        tier_trips = [
            e
            for e in telemetry.recorder.events
            if e["kind"] == "trip" and e["reason"] == "tier_change"
        ]
        assert tier_trips, "expected a brownout tier change"
        assert any(
            "tier_change" in dump.name
            for dump in telemetry.recorder.dumps
        )

    def test_breaker_open_trips_recorder(self):
        telemetry = ServiceTelemetry()
        service = SolverService(
            ServiceConfig(
                pool_size=2,
                base_seed=7,
                breaker=BreakerPolicy(failure_threshold=1),
            ),
            telemetry=telemetry,
        )
        member = service.pool.members[1]
        service.pool.note_result(member, False)
        assert telemetry.recorder.trips == 1
        assert telemetry.recorder.events[-1]["reason"] == "breaker_open"
        assert "brk=O" in telemetry.stats_line()
        # The pool wrote the transition once, into the same registry.
        registry = telemetry.registry
        assert registry.counter_value("pool.breaker.opened") == 1
        assert (
            registry.gauge_value("pool.breaker.state", labels={"member": "1"})
            == 2
        )


class TestDeterminismContract:
    def test_energy_is_replayable(self):
        first = ServiceTelemetry()
        second = ServiceTelemetry()
        _, records_a, _ = run_batch(first)
        _, records_b, _ = run_batch(second)
        assert [r.energy_j for r in records_a] == [
            r.energy_j for r in records_b
        ]
        assert [r.to_dict() for r in records_a] == [
            r.to_dict() for r in records_b
        ]

    def test_wall_clock_fields_not_serialized(self):
        telemetry = ServiceTelemetry()
        _, records, _ = run_batch(telemetry)
        payload = records[0].to_dict()
        assert "elapsed_seconds" not in payload
        assert "queue_wait_s" not in payload
        assert "energy_j" in payload

    def test_attempt_energy_matches_cost_model(self):
        # Attempts are priced by the cost model over the engine's own
        # totals: the result's op counts plus the operator's writes
        # since placement.
        service = SolverService(ServiceConfig(pool_size=1, base_seed=7))
        device = service.config.settings.device
        placed = []
        acquire = service.pool.acquire

        def spy(*args, **kwargs):
            member, warm = acquire(*args, **kwargs)
            placed.append(member.operator.write_report.cells_written)
            return member, warm

        service.pool.acquire = spy
        service.submit(JobSpec(job_id="base", constraints=10))
        (cold,) = service.drain()
        service.resolve("base", job_id="again", perturb=0.02)
        (warm,) = service.drain()

        (attempt,) = cold.attempts
        assert not attempt.warm
        assert attempt.program_cells == placed[0] > 0
        assert attempt.cells_written == (
            attempt.program_cells + cold.result.crossbar.cells_written
        )
        assert attempt.energy_j > estimate_energy(cold.result, device).total_j
        assert cold.energy_j == attempt.energy_j

        # The cold attempt owns the operator's whole history so far.
        assert placed[1] == cold.attempts[0].cells_written
        (attempt,) = warm.attempts
        assert attempt.warm and attempt.program_cells == 0
        assert attempt.cells_written == warm.result.crossbar.cells_written
        assert attempt.energy_j == estimate_energy(warm.result, device).total_j


class TestStatsLine:
    def test_contains_all_advertised_fields(self):
        telemetry = ServiceTelemetry()
        run_batch(telemetry)
        line = telemetry.stats_line()
        for fragment in (
            "jobs=8",
            "jobs/s",
            "p50=",
            "p99=",
            "energy/job=",
            "q=0",
            "tier=NORMAL",
            "burn ",
        ):
            assert fragment in line, line

    def test_quantiles_fall_back_to_cumulative(self):
        t = {"now": 0.0}
        telemetry = ServiceTelemetry(
            clock=lambda: t["now"], window_s=6.0
        )
        telemetry.registry.observe("service.latency_s", 0.25)
        t["now"] = 1000.0  # window long empty
        p50_ms, p99_ms = telemetry._quantiles_ms()
        assert p50_ms == pytest.approx(250.0)
        assert p99_ms == pytest.approx(250.0)
