"""End-to-end tests of the solver service.

Includes the PR's acceptance scenarios: the programming cache
measurably reducing ``crossbar.cells_written`` on a batch with shared
structure, and a pool member failing mid-batch with zero lost jobs.
"""

import dataclasses

import pytest

from repro.core.result import SolveStatus
from repro.exceptions import QueueFullError
from repro.obs.tracer import RecordingTracer
from repro.service import (
    JobSpec,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    synthesize_jobs,
)
from repro.service.pool import MemberState


def run_batch(specs, *, tracer=None, **overrides):
    config = ServiceConfig(**{"pool_size": 2, "base_seed": 7, **overrides})
    service = SolverService(config, tracer=tracer)
    records, summary = service.batch(specs)
    return service, records, summary


class TestBasicServing:
    def test_all_jobs_classified(self):
        specs = synthesize_jobs(
            8, groups=2, constraints=12, infeasible_every=4
        )
        _, records, summary = run_batch(specs)
        assert summary.jobs == 8
        assert summary.failed == 0
        by_id = {r.spec.job_id: r for r in records}
        for spec in specs:
            expected = (
                SolveStatus.INFEASIBLE
                if spec.kind == "infeasible"
                else SolveStatus.OPTIMAL
            )
            assert by_id[spec.job_id].result.status is expected

    def test_repeated_structure_served_warm(self):
        specs = synthesize_jobs(6, groups=1, constraints=12)
        _, records, summary = run_batch(specs, pool_size=1)
        assert summary.cold_acquires == 1
        assert summary.warm_acquires == 5
        assert records[0].warm is False
        assert all(r.warm for r in records[1:])

    def test_priority_runs_first(self):
        service = SolverService(
            ServiceConfig(pool_size=1, base_seed=7)
        )
        service.submit(JobSpec(job_id="low", constraints=10, priority=0))
        service.submit(JobSpec(job_id="high", constraints=10, priority=9))
        records = service.drain()
        assert [r.spec.job_id for r in records] == ["high", "low"]

    def test_deterministic_records(self):
        specs = synthesize_jobs(6, groups=2, constraints=12)
        _, first, _ = run_batch(specs)
        _, second, _ = run_batch(specs)
        assert [r.to_dict() for r in first] == [
            r.to_dict() for r in second
        ]


class TestProgrammingCacheSavings:
    """Acceptance: >=50 jobs, >=50% sharing structure, counter-proven."""

    @pytest.mark.slow
    def test_cache_reduces_cells_written(self):
        # 50 jobs over 5 groups: each structural program is reusable
        # by 9 later jobs (90% of placements can be warm).
        specs = synthesize_jobs(50, groups=5, constraints=12)

        cached_tracer = RecordingTracer()
        _, _, cached = run_batch(
            specs, tracer=cached_tracer, cache_enabled=True, pool_size=5
        )
        cold_tracer = RecordingTracer()
        _, _, cold = run_batch(
            specs, tracer=cold_tracer, cache_enabled=False, pool_size=5
        )

        assert cached.failed == 0 and cold.failed == 0
        assert cached.warm_acquires >= 25  # >=50% of 50 served warm
        assert cold.warm_acquires == 0
        cached_cells = cached_tracer.counters["crossbar.cells_written"]
        cold_cells = cold_tracer.counters["crossbar.cells_written"]
        assert cached_cells < cold_cells
        # The saving is the structural block, once per warm placement.
        assert cached.cells_written < cold.cells_written

    def test_cache_savings_small_batch(self):
        # The same comparison at smoke-test scale (not marked slow).
        specs = synthesize_jobs(10, groups=2, constraints=12)
        cached_tracer = RecordingTracer()
        _, _, cached = run_batch(specs, tracer=cached_tracer)
        cold_tracer = RecordingTracer()
        _, _, cold = run_batch(
            specs, tracer=cold_tracer, cache_enabled=False
        )
        assert cached.warm_acquires >= 5
        assert (
            cached_tracer.counters["crossbar.cells_written"]
            < cold_tracer.counters["crossbar.cells_written"]
        )


class TestFailureIsolation:
    """Acceptance: a member failing mid-batch loses zero jobs."""

    def test_faulty_member_jobs_rescheduled(self):
        specs = synthesize_jobs(12, groups=2, constraints=12)
        tracer = RecordingTracer()
        service = SolverService(
            ServiceConfig(pool_size=2, base_seed=7), tracer=tracer
        )
        for spec in specs[:4]:
            service.submit(spec)
        records = service.drain()
        # Mid-batch: poison member 0, then submit the rest.
        service.pool.inject_fault(0, 0.5)
        for spec in specs[4:]:
            service.submit(spec)
        records += service.drain()

        assert len(records) == 12
        assert all(r.success for r in records)
        rescheduled = [r for r in records if r.requeues > 0]
        assert rescheduled, "the poisoned member must fail some job"
        for record in rescheduled:
            first = record.attempts[0]
            assert first.status == "numerical_failure"
            assert first.failure_reason == "probe_unhealthy"
            assert first.member == 0
            # Rescheduled off the failed member, not back onto it.
            assert record.attempts[-1].member != 0
        registry = service.telemetry.registry
        assert registry.counter_value("pool.drains") >= 1
        assert registry.counter_value("pool.recoveries") >= 1
        assert registry.counter_value("service.requeues") >= 1
        # The drained member recovered and rejoined the fleet.
        assert service.pool.states()[0] is MemberState.IDLE

    def test_all_members_lost_falls_back_digitally(self):
        service = SolverService(
            ServiceConfig(
                pool_size=1,
                base_seed=7,
                max_drains=0,
                digital_fallback="reference",
            )
        )
        service.pool.inject_fault(0, 1.0, sticky=True)
        service.submit(JobSpec(job_id="only", constraints=10))
        records = service.drain()
        assert len(records) == 1
        record = records[0]
        assert record.success
        assert record.fallback
        assert record.result.status is SolveStatus.OPTIMAL
        assert service.pool.states()[0] is MemberState.RETIRED
        # Attempt history: probe rejection, then the fallback rung.
        assert record.attempts[0].failure_reason == "probe_unhealthy"
        assert record.attempts[-1].member is None

    def test_all_members_lost_without_fallback_reports_failure(self):
        service = SolverService(
            ServiceConfig(pool_size=1, base_seed=7, max_drains=0)
        )
        service.pool.inject_fault(0, 1.0, sticky=True)
        service.submit(JobSpec(job_id="only", constraints=10))
        records = service.drain()
        assert len(records) == 1
        assert not records[0].success
        assert records[0].result.failure_reason.value in (
            "probe_unhealthy",
            "no_capacity",
        )


class TestBackpressure:
    def test_submit_raises_when_full(self):
        service = SolverService(
            ServiceConfig(pool_size=1, queue_depth=2, base_seed=7)
        )
        service.submit(JobSpec(job_id="a", constraints=10))
        service.submit(JobSpec(job_id="b", constraints=10))
        with pytest.raises(QueueFullError):
            service.submit(JobSpec(job_id="c", constraints=10))
        assert service.try_submit(JobSpec(job_id="c", constraints=10)) is None

    def test_batch_larger_than_queue_completes(self):
        specs = synthesize_jobs(8, groups=1, constraints=10)
        _, records, summary = run_batch(
            specs, pool_size=1, queue_depth=2
        )
        assert summary.jobs == 8
        assert summary.failed == 0
        assert {r.spec.job_id for r in records} == {
            s.job_id for s in specs
        }


class TestTracing:
    def test_each_job_has_a_service_span(self):
        specs = synthesize_jobs(4, groups=1, constraints=10)
        tracer = RecordingTracer()
        run_batch(specs, tracer=tracer)
        spans = [
            e
            for e in tracer.events
            if getattr(e, "name", None) == "service.job"
        ]
        assert {s.attrs["job_id"] for s in spans} == {
            s.job_id for s in specs
        }
        for span in spans:
            assert "fingerprint" in span.attrs
            assert span.attrs["status"] == "optimal"

    def test_counters_absorbed_into_service_tracer(self):
        specs = synthesize_jobs(3, groups=1, constraints=10)
        tracer = RecordingTracer()
        service, _, _ = run_batch(specs, tracer=tracer)
        assert tracer.counters["crossbar.cells_written"] > 0
        assert tracer.counters["analog.solves"] > 0
        # The service's own numbers live in its registry, not the trace.
        assert "service.jobs_completed" not in tracer.counters
        assert (
            service.telemetry.registry.counter_value("service.jobs_completed")
            == 3
        )

    def test_service_always_owns_telemetry(self):
        # With no telemetry passed, the service builds its own: its
        # registry is where every service and pool number is written.
        specs = synthesize_jobs(3, groups=1, constraints=10)
        service, records, _ = run_batch(specs)
        telemetry = service.telemetry
        assert isinstance(telemetry, ServiceTelemetry)
        assert telemetry.jobs == telemetry.succeeded == len(records) == 3
        assert telemetry.energy_j_total == sum(r.energy_j for r in records)
        registry = telemetry.registry
        assert registry.counter_value("service.jobs_submitted") == 3
        assert registry.counter_value("pool.acquire_cold") == 1
        assert registry.counter_value("pool.acquire_warm") == 2

    def test_default_telemetry_shares_the_service_clock(self):
        # Records and the registry's windows read one clock.
        service = SolverService(ServiceConfig(), clock=lambda: 100.0)
        assert service.telemetry.clock is service.clock
        assert service.telemetry.registry.clock is service.clock

    def test_summary_render_mentions_key_figures(self):
        specs = synthesize_jobs(3, groups=1, constraints=10)
        _, _, summary = run_batch(specs)
        text = summary.render()
        assert "jobs/s" in text
        assert "cache hit rate" in text
        assert "cells written" in text


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for bad in (
            {"pool_size": 0},
            {"queue_depth": 0},
            {"max_attempts": 0},
        ):
            with pytest.raises(ValueError):
                ServiceConfig(**bad)

    def test_per_job_variation_overrides_settings(self):
        service = SolverService(ServiceConfig(base_seed=7))
        spec = JobSpec(job_id="v", constraints=10, variation=10.0)
        settings = service._settings_for(spec)
        assert settings.variation.relative_magnitude > 0
        base = service._settings_for(
            dataclasses.replace(spec, variation=0.0)
        )
        assert base is service.config.settings


class TestFingerprintBatching:
    """Scheduler-level grouping of same-structure jobs (hot path)."""

    def test_batching_lifts_warm_hit_rate(self):
        specs = synthesize_jobs(18, groups=3, constraints=8)
        _, _, interleaved = run_batch(specs, batch_by_fingerprint=False)
        _, _, batched = run_batch(specs, batch_by_fingerprint=True)
        # Interleaved round-robin over 3 structures thrashes a 2-member
        # pool; batching runs each structure's jobs consecutively, so
        # only the first job of each group (and regroupings after pool
        # churn) places cold.
        assert batched.cache_hit_rate > interleaved.cache_hit_rate
        assert batched.warm_acquires >= 18 - 2 * 3
        assert batched.cells_written <= interleaved.cells_written
        assert batched.succeeded == interleaved.succeeded == 18

    def test_batching_respects_priority(self):
        specs = [
            JobSpec(job_id="bulk-0", constraints=8, group=0, priority=0),
            JobSpec(job_id="bulk-1", constraints=8, group=0, priority=0),
            JobSpec(job_id="urgent", constraints=8, group=1, priority=9),
        ]
        service = SolverService(
            ServiceConfig(pool_size=1, base_seed=7)
        )
        records, _ = service.batch(specs)
        assert records[0].spec.job_id == "urgent"

    def test_batching_off_without_cache(self):
        # cache_enabled=False forces unique fingerprints; batching must
        # not break the control arm (every placement stays cold).
        specs = synthesize_jobs(6, groups=2, constraints=8)
        _, _, summary = run_batch(
            specs, cache_enabled=False, batch_by_fingerprint=True
        )
        assert summary.warm_acquires == 0
        assert summary.cold_acquires == 6
