"""Tests for the fault-tolerance layer: deadlines, backoff, breakers,
brownout degradation, and chaos campaigns."""

import dataclasses
import json

import pytest

from repro.core.result import FailureReason
from repro.service.jobs import JobSpec, synthesize_jobs
from repro.service.resilience import (
    BackoffPolicy,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    Deadline,
    DegradationController,
    DegradationPolicy,
    DegradationTier,
    FaultCampaign,
    FaultEvent,
    stuck_storm,
)
from repro.service.service import (
    ServiceConfig,
    SolverService,
    default_serving_settings,
)


class FakeClock:
    """Injectable clock: advances only when the test says so."""

    def __init__(self, start=100.0):
        self.t = start

    def now(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


class TestDeadline:
    def test_expires_exactly_at_budget(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock.now)
        assert not deadline.expired
        assert deadline.remaining_s() == pytest.approx(1.0)
        clock.advance(0.5)
        assert not deadline.expired
        clock.advance(0.5)
        assert deadline.expired
        assert deadline.remaining_s() == 0.0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestBackoffPolicy:
    def test_deterministic_and_seeded(self):
        policy = BackoffPolicy()
        a = policy.delay_s(7, "job-0001", 1)
        b = policy.delay_s(7, "job-0001", 1)
        assert a == b
        # Different jobs failing at the same attempt do not stampede.
        assert policy.delay_s(7, "job-0002", 1) != a

    def test_exponential_growth_capped(self):
        policy = BackoffPolicy(
            base_s=0.1, multiplier=2.0, max_s=0.4, jitter=0.0
        )
        assert policy.delay_s(0, "j", 1) == pytest.approx(0.1)
        assert policy.delay_s(0, "j", 2) == pytest.approx(0.2)
        assert policy.delay_s(0, "j", 3) == pytest.approx(0.4)
        assert policy.delay_s(0, "j", 9) == pytest.approx(0.4)  # capped

    def test_jitter_shrinks_within_bounds(self):
        policy = BackoffPolicy(base_s=1.0, multiplier=1.0, jitter=0.5)
        for attempt in range(1, 20):
            delay = policy.delay_s(3, "j", attempt)
            assert 0.5 <= delay <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_s=0.01, base_s=0.05)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy().delay_s(0, "j", 0)


class TestCircuitBreakerUnit:
    def test_threshold_and_cooldown(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, cooldown_ticks=5)
        )
        breaker.record_failure(1)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(4)  # 4 - 2 < 5
        assert breaker.allow(7)  # cooldown elapsed: HALF_OPEN probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(7)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_needs_enough_successes(self):
        breaker = CircuitBreaker(
            BreakerPolicy(
                failure_threshold=1,
                cooldown_ticks=1,
                half_open_successes=2,
            )
        )
        breaker.record_failure(1)
        assert breaker.allow(2)
        breaker.record_success(2)
        assert breaker.state is BreakerState.HALF_OPEN  # one of two
        breaker.record_success(3)
        assert breaker.state is BreakerState.CLOSED

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_ticks=0)
        with pytest.raises(ValueError):
            BreakerPolicy(half_open_successes=0)


class TestDegradationController:
    def policy(self, **kwargs):
        kwargs.setdefault("window", 4)
        kwargs.setdefault("min_samples", 4)
        kwargs.setdefault("enter_thresholds", (0.25, 0.5, 0.75))
        kwargs.setdefault("exit_margin", 0.15)
        kwargs.setdefault("cooldown", 2)
        return DegradationPolicy(**kwargs)

    def test_quiet_until_min_samples(self):
        controller = DegradationController(self.policy())
        for _ in range(3):
            controller.record(False)
        assert controller.tier is DegradationTier.NORMAL

    def test_sheds_immediately_possibly_multiple_tiers(self):
        controller = DegradationController(self.policy())
        for _ in range(4):
            controller.record(False)
        # Window failure rate 1.0 >= 0.75: straight to DIGITAL_ONLY.
        assert controller.tier is DegradationTier.DIGITAL_ONLY
        registry = controller.registry
        assert registry.counter_value("service.degradation.sheds") == 1
        assert registry.gauge_value("service.degradation.tier") == 3

    def test_recovers_one_tier_at_a_time_with_hysteresis(self):
        controller = DegradationController(self.policy())
        for _ in range(4):
            controller.record(False)
        assert controller.tier is DegradationTier.DIGITAL_ONLY
        for _ in range(20):
            controller.record(True)
        assert controller.tier is DegradationTier.NORMAL
        # Every downward transition was exactly one tier.
        downward = [
            (old, new)
            for _, old, new in controller.transitions
            if new < old
        ]
        assert all(old - new == 1 for old, new in downward)
        assert (
            controller.registry.counter_value(
                "service.degradation.recoveries"
            )
            == 3
        )

    def test_hysteresis_blocks_recovery_at_the_boundary(self):
        # Rate hovering just below the entry threshold must NOT close
        # the tier: exit requires threshold - exit_margin.
        controller = DegradationController(
            self.policy(window=10, min_samples=10, cooldown=0)
        )
        for _ in range(10):
            controller.record(False)
        assert controller.tier is DegradationTier.DIGITAL_ONLY
        # Bring the rate to 0.7: below 0.75 but above 0.75 - 0.15.
        for _ in range(3):
            controller.record(True)
        assert controller.failure_rate() == pytest.approx(0.7)
        assert controller.tier is DegradationTier.DIGITAL_ONLY

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(window=1)
        with pytest.raises(ValueError):
            DegradationPolicy(min_samples=0)
        with pytest.raises(ValueError):
            DegradationPolicy(enter_thresholds=(0.5, 0.25, 0.75))
        with pytest.raises(ValueError):
            DegradationPolicy(exit_margin=0.0)


class TestFaultCampaign:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(at_job=0, kind="meteor")
        with pytest.raises(ValueError, match="member"):
            FaultEvent(at_job=0, kind="stuck_cells")
        with pytest.raises(ValueError, match="row_fraction"):
            FaultEvent(
                at_job=0, kind="stuck_cells", member=0, row_fraction=0.0
            )
        with pytest.raises(ValueError, match="at_job"):
            FaultEvent(at_job=-1, kind="queue_pulse")
        with pytest.raises(ValueError, match="magnitude"):
            FaultEvent(at_job=0, kind="drift", member=0, magnitude=0.0)

    def test_events_sorted_and_indexed(self):
        campaign = FaultCampaign(
            [
                FaultEvent(at_job=5, kind="queue_pulse"),
                FaultEvent(at_job=1, kind="stuck_cells", member=0),
                FaultEvent(at_job=5, kind="drift", member=1),
            ]
        )
        assert [e.at_job for e in campaign.events] == [1, 5, 5]
        assert len(campaign.events_at(5)) == 2
        assert campaign.events_at(2) == ()
        assert [e.at_job for e in campaign.unfired_after(1)] == [5, 5]

    def test_json_round_trip(self, tmp_path):
        campaign = FaultCampaign(
            stuck_storm([0, 1, 2], start=2, stride=3, sticky=True),
            name="storm",
            seed=11,
        )
        path = campaign.to_json(tmp_path / "scenario.json")
        loaded = FaultCampaign.from_json(path)
        assert loaded.to_dict() == campaign.to_dict()
        assert loaded.name == "storm" and loaded.seed == 11
        assert [e.at_job for e in loaded.events] == [2, 5, 8]

    def test_from_dict_ignores_unknown_keys(self):
        campaign = FaultCampaign.from_dict(
            {
                "name": "x",
                "events": [
                    {
                        "at_job": 0,
                        "kind": "queue_pulse",
                        "future_field": True,
                    }
                ],
            }
        )
        assert len(campaign) == 1


def service_config(**kwargs):
    kwargs.setdefault("pool_size", 2)
    kwargs.setdefault("base_seed", 7)
    return ServiceConfig(**kwargs)


def small_jobs(count, **kwargs):
    kwargs.setdefault("groups", 2)
    kwargs.setdefault("constraints", 9)
    return synthesize_jobs(count, **kwargs)


class TestServiceDeadlines:
    def test_expired_deadline_fails_terminally_without_fallback(self):
        clock = FakeClock()
        config = service_config(
            pool_size=1, digital_fallback="reference", max_attempts=5
        )
        service = SolverService(config, clock=clock.now)
        # A sticky full fault: every analog attempt is probe-rejected.
        service.pool.inject_fault(0, 1.0, sticky=True)
        service.submit(
            JobSpec(job_id="doomed", constraints=9, deadline_s=1.0)
        )
        assert service._step() is None  # attempt 0 fails, requeued
        clock.advance(5.0)  # budget long gone
        record = service._step()
        assert record is not None
        assert (
            record.result.failure_reason is FailureReason.DEADLINE_EXCEEDED
        )
        # The caller has given up: no digital fallback runs.
        assert not record.fallback
        last = record.attempts[-1]
        assert last.failure_reason == "deadline_exceeded"
        assert last.member is None
        assert (
            service.telemetry.registry.counter_value(
                "service.deadline_exceeded"
            )
            == 1
        )

    def test_config_default_deadline_applies(self):
        clock = FakeClock()
        config = service_config(pool_size=1, deadline_s=2.0)
        service = SolverService(config, clock=clock.now)
        service.pool.inject_fault(0, 1.0, sticky=True)
        service.submit(JobSpec(job_id="j", constraints=9))
        service._step()
        clock.advance(3.0)
        record = service._step()
        assert (
            record.result.failure_reason is FailureReason.DEADLINE_EXCEEDED
        )

    def test_no_deadline_means_unbounded(self):
        clock = FakeClock()
        service = SolverService(service_config(), clock=clock.now)
        service.submit(JobSpec(job_id="j", constraints=9))
        clock.advance(10_000.0)
        records = service.drain()
        assert records[0].success

    def test_elapsed_seconds_excluded_from_record_dict(self):
        clock = FakeClock()
        service = SolverService(service_config(), clock=clock.now)
        service.submit(JobSpec(job_id="j", constraints=9))
        record = service.drain()[0]
        assert record.elapsed_seconds == 0.0  # fake clock never moved
        data = record.to_dict()
        assert "elapsed_seconds" not in data
        assert "first_dispatch_s" not in json.dumps(data)


class TestServiceRetryBudgets:
    def test_spec_max_attempts_overrides_config(self):
        config = service_config(pool_size=1, max_attempts=5)
        service = SolverService(config)
        service.pool.inject_fault(0, 1.0, sticky=True)
        service.submit(
            JobSpec(job_id="j", constraints=9, max_attempts=2)
        )
        records = service.drain()
        analog = [a for a in records[0].attempts if not a.status == "rejected"]
        assert len(analog) <= 2

    def test_backoff_charged_on_requeued_attempts(self):
        config = service_config(pool_size=1, max_attempts=3)
        service = SolverService(config)
        service.pool.inject_fault(0, 1.0, sticky=True)
        service.submit(JobSpec(job_id="j", constraints=9))
        record = service.drain()[0]
        requeued = [a for a in record.attempts if a.backoff_s > 0]
        assert requeued  # failed attempts that were retried carry delay
        total = sum(a.backoff_s for a in record.attempts)
        assert service.telemetry.registry.counter_value(
            "service.backoff_seconds"
        ) == pytest.approx(total)


class TestServiceBrownout:
    def degraded_service(self):
        settings = dataclasses.replace(
            default_serving_settings(), max_iterations=40
        )
        config = service_config(
            pool_size=1,
            max_attempts=1,
            probe=None,  # fail slow: failures feed the window
            digital_fallback="reference",
            settings=settings,
            degradation=DegradationPolicy(
                window=4,
                min_samples=2,
                enter_thresholds=(0.25, 0.5, 0.75),
                exit_margin=0.15,
                cooldown=2,
            ),
            breaker=None,  # isolate the degradation path
        )
        service = SolverService(config)
        # Unprobed sticky corruption: every analog attempt fails slow.
        service.pool.inject_fault(0, 1.0, sticky=True)
        return service, service.telemetry.registry

    def test_sheds_to_digital_only_and_routes_around_analog(self):
        service, registry = self.degraded_service()
        for spec in small_jobs(8, groups=1):
            service.submit(spec)
        records = service.drain()
        assert registry.counter_value("service.degradation.sheds") >= 1
        browned = [
            r
            for r in records
            if r.fallback and r.attempts[0].member is None
        ]
        assert browned  # jobs routed straight to digital under brownout
        assert all(r.success for r in browned)
        assert all(
            a.tier == int(DegradationTier.DIGITAL_ONLY)
            for r in browned
            for a in r.attempts
        )
        assert (
            registry.counter_value("service.degradation.browned_out")
            == len(browned)
        )

    def test_transitions_reconcile_with_counters(self):
        service, registry = self.degraded_service()
        for spec in small_jobs(10, groups=1):
            service.submit(spec)
        service.drain()
        controller = service.degradation
        sheds = sum(
            1 for _, old, new in controller.transitions if new > old
        )
        recoveries = sum(
            1 for _, old, new in controller.transitions if new < old
        )
        assert registry.counter_value("service.degradation.sheds") == sheds
        assert (
            registry.counter_value("service.degradation.recoveries")
            == recoveries
        )

    def test_skip_verify_tier_keeps_cache_identity(self):
        # A tier-1 brownout strips write-verify but must keep the
        # admission-stamped fingerprint, so warm placements survive.
        config = service_config()
        service = SolverService(config)
        spec = JobSpec(job_id="j", constraints=9)
        pending = service.submit(spec)
        stamped = pending.fingerprint
        assert stamped is not None
        # Force tier 1 and run: the fingerprint must not change.
        service.degradation.tier = DegradationTier.SKIP_VERIFY
        record = service.drain()[0]
        assert record.success
        assert pending.fingerprint == stamped
        assert record.attempts[0].tier == int(DegradationTier.SKIP_VERIFY)


class TestChaosAcceptance:
    def chaos_config(self, campaign):
        return service_config(
            pool_size=3,
            queue_depth=16,
            digital_fallback="reference",
            campaign=campaign,
        )

    def storm_campaign(self):
        events = stuck_storm([0, 1], start=3, stride=4, row_fraction=1.0)
        events.append(FaultEvent(at_job=12, kind="member_death", member=2))
        events.append(
            FaultEvent(at_job=20, kind="queue_pulse", jobs=4, constraints=9)
        )
        return FaultCampaign(events, name="acceptance", seed=7)

    def run_acceptance(self):
        service = SolverService(self.chaos_config(self.storm_campaign()))
        specs = synthesize_jobs(50, groups=5, constraints=9)
        records, summary = service.batch(specs)
        return service, specs, records, summary

    def test_zero_lost_jobs_under_storm(self):
        service, specs, records, summary = self.run_acceptance()
        submitted = {spec.job_id for spec in specs}
        finished = [r.spec.job_id for r in records]
        # Every accepted job produced exactly one record; pulse filler
        # jobs (chaos-generated) account for any extras.
        assert submitted <= set(finished)
        assert len(finished) == len(set(finished))
        extras = set(finished) - submitted
        assert all(job_id.startswith("pulse-") for job_id in extras)
        assert summary.jobs == len(records)
        assert (
            service.telemetry.registry.counter_value("service.chaos.events")
            == 4
        )

    def test_every_failed_attempt_has_machine_readable_reason(self):
        _, _, records, _ = self.run_acceptance()
        valid = {reason.value for reason in FailureReason}
        for record in records:
            for attempt in record.attempts:
                assert attempt.failure_reason in valid
                if attempt.status not in ("optimal", "infeasible"):
                    assert attempt.failure_reason != "none"

    def test_identical_seed_and_scenario_replay_byte_identical(self):
        def run():
            service = SolverService(
                self.chaos_config(self.storm_campaign())
            )
            records, _ = service.batch(
                synthesize_jobs(50, groups=5, constraints=9)
            )
            return "\n".join(
                json.dumps(r.to_dict(), sort_keys=True) for r in records
            )

        assert run() == run()

    def test_busy_injection_attributed_on_attempt(self):
        # Fire a stuck-cell storm at the exact dispatch of a job so the
        # injection lands while the member is mid-flight... the pool
        # inject happens pre-pop, so drive the BUSY case directly
        # through the service's consume path instead.
        config = service_config(pool_size=1, max_attempts=1)
        service = SolverService(config)
        service.submit(JobSpec(job_id="j", constraints=9))

        original = service.pool.acquire

        def acquire_and_poison(*args, **kwargs):
            member, warm = original(*args, **kwargs)
            if member is not None:
                service.pool.inject_fault(
                    member.member_id, 1.0, sticky=False
                )
            return member, warm

        service.pool.acquire = acquire_and_poison
        record = service.drain()[0]
        assert record.attempts[0].injected_fault == "stuck_off:1"
        assert not record.attempts[0].warm
