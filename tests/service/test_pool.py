"""Tests for the crossbar fleet pool lifecycle."""

import numpy as np
import pytest

from repro.crossbar.ops import AnalogMatrixOperator
from repro.exceptions import ServiceError
from repro.obs.tracer import RecordingTracer
from repro.reliability.probe import ProbePolicy
from repro.service.pool import CrossbarPool, MemberState
from repro.service.resilience import BreakerPolicy, BreakerState


MATRIX = np.array([[1.0, 0.5], [0.25, 1.0]])


def programmer(rng, tracer):
    return AnalogMatrixOperator(MATRIX, rng=rng, tracer=tracer)


def make_pool(size=2, **kwargs):
    kwargs.setdefault("rng", np.random.default_rng(0))
    return CrossbarPool(size, **kwargs)


def breaker_gauge(pool, member_id):
    return pool.registry.gauge_value(
        "pool.breaker.state", labels={"member": str(member_id)}
    )


class TestAcquire:
    def test_first_acquire_is_cold(self):
        pool = make_pool()
        member, warm = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        assert not warm
        assert member.state is MemberState.BUSY
        assert member.fingerprint == "fp"
        assert member.operator is not None

    def test_matching_fingerprint_is_warm_and_reuses_operator(self):
        pool = make_pool()
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        operator = member.operator
        pool.release(member)
        again, warm = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(2)
        )
        assert warm
        assert again is member
        assert again.operator is operator  # no reprogram happened

    def test_warm_acquire_reattaches_rng_and_tracer(self):
        pool = make_pool()
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        rng = np.random.default_rng(9)
        tracer = RecordingTracer()
        member, warm = pool.acquire(
            "fp", programmer, rng=rng, tracer=tracer
        )
        assert warm
        assert member.operator.rng is rng
        assert member.operator.array.rng is rng
        assert member.operator.tracer is tracer
        assert member.operator.array.tracer is tracer

    def test_mismatched_fingerprint_prefers_empty_member(self):
        pool = make_pool(size=2)
        first, _ = pool.acquire(
            "fp1", programmer, rng=np.random.default_rng(1)
        )
        pool.release(first)
        second, warm = pool.acquire(
            "fp2", programmer, rng=np.random.default_rng(2)
        )
        assert not warm
        assert second is not first  # the EMPTY member, no eviction

    def test_eviction_replaces_lru_idle_member(self):
        pool = make_pool(size=1)
        member, _ = pool.acquire(
            "fp1", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        evicted, warm = pool.acquire(
            "fp2", programmer, rng=np.random.default_rng(2)
        )
        assert not warm
        assert evicted is member
        assert evicted.fingerprint == "fp2"
        assert pool.registry.counter_value("pool.evictions") == 1

    def test_exclusion_and_exhaustion(self):
        pool = make_pool(size=1)
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        none, warm = pool.acquire(
            "fp",
            programmer,
            rng=np.random.default_rng(2),
            exclude={member.member_id},
        )
        assert none is None and not warm

    def test_busy_member_not_schedulable(self):
        pool = make_pool(size=1)
        pool.acquire("fp", programmer, rng=np.random.default_rng(1))
        none, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(2)
        )
        assert none is None

    def test_release_requires_busy(self):
        pool = make_pool()
        with pytest.raises(ServiceError, match="release"):
            pool.release(pool.members[0])


class TestDrainRecoverRetire:
    def test_drain_then_recover_returns_member_to_service(self):
        pool = make_pool(probe=ProbePolicy())
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        pool.drain(member)
        assert member.state is MemberState.DRAINING
        assert pool.recover(member)
        assert member.state is MemberState.IDLE
        assert pool.registry.counter_value("pool.drains") == 1
        assert pool.registry.counter_value("pool.recoveries") == 1

    def test_recover_requires_draining(self):
        pool = make_pool()
        with pytest.raises(ServiceError, match="recover"):
            pool.recover(pool.members[0])

    def test_sticky_fault_forces_retirement(self):
        pool = make_pool(probe=ProbePolicy(), max_drains=2)
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        pool.inject_fault(member.member_id, 1.0, sticky=True)
        pool.drain(member)
        # Every recover cycle reprograms, reapplies the hard fault,
        # and fails the probe — until the drain budget retires it.
        assert not pool.recover(member)
        assert member.state is MemberState.RETIRED
        assert member.drains == 2
        assert pool.registry.counter_value("pool.retirements") == 1
        assert pool.active_members() == 1

    def test_soft_fault_heals_in_one_cycle(self):
        pool = make_pool(probe=ProbePolicy())
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        pool.inject_fault(member.member_id, 1.0, sticky=False)
        pool.drain(member)
        assert pool.recover(member)
        assert member.state is MemberState.IDLE

    def test_retired_member_never_acquired(self):
        pool = make_pool(size=1, probe=ProbePolicy(), max_drains=0)
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        pool.drain(member)
        assert not pool.recover(member)
        none, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(2)
        )
        assert none is None


class TestFaultInjection:
    def test_fault_on_programmed_member_breaks_probe(self):
        pool = make_pool()
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.inject_fault(member.member_id, 1.0)
        actual = member.operator.array.actual_conductances
        assert np.all(actual == 0.0)
        # Nominal state untouched: the probe sees the mismatch.
        assert member.operator.array.nominal_conductances.max() > 0

    def test_pending_fault_applies_after_first_program(self):
        pool = make_pool()
        pool.inject_fault(0, 1.0)
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        assert member.member_id == 0
        assert np.all(member.operator.array.actual_conductances == 0.0)
        # Non-sticky: consumed by the programming it poisoned.
        assert member.pending_fault is None

    def test_busy_injection_tags_inflight_job(self):
        # Injecting into a BUSY member corrupts the job in flight: the
        # member records the fault so the service can attribute the
        # attempt's failure to the injection in its post-mortem.
        pool = make_pool()
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        assert member.state is MemberState.BUSY
        pool.inject_fault(member.member_id, 0.5, sticky=True)
        assert member.inflight_fault == "stuck_off:0.5:sticky"
        # Consuming pops exactly once.
        assert member.consume_inflight_fault() == "stuck_off:0.5:sticky"
        assert member.consume_inflight_fault() is None

    def test_idle_injection_does_not_tag(self):
        pool = make_pool()
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        pool.inject_fault(member.member_id, 0.5)
        assert member.inflight_fault is None

    def test_drift_perturbs_without_zeroing(self):
        pool = make_pool()
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        before = member.operator.array.actual_conductances.copy()
        pool.inject_drift(member.member_id, 0.2)
        after = member.operator.array.actual_conductances
        assert not np.allclose(before, after)
        assert np.all(after >= 0)
        assert member.inflight_fault == "drift:0.2"


class TestCircuitBreaker:
    def make_breaker_pool(self, **kwargs):
        kwargs.setdefault(
            "breaker",
            BreakerPolicy(failure_threshold=2, cooldown_ticks=3),
        )
        return make_pool(size=1, **kwargs)

    def run_once(self, pool, success):
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        if member is None:
            return None
        pool.release(member)
        pool.note_result(member, success)
        return member

    def test_consecutive_failures_open_the_breaker(self):
        pool = self.make_breaker_pool()
        member = self.run_once(pool, success=False)
        assert member.breaker.state is BreakerState.CLOSED
        self.run_once(pool, success=False)
        assert member.breaker.state is BreakerState.OPEN
        assert pool.registry.counter_value("pool.breaker.opened") == 1
        assert breaker_gauge(pool, 0) == 2

    def test_open_breaker_blocks_placement_until_cooldown(self):
        pool = self.make_breaker_pool()
        self.run_once(pool, success=False)
        member = self.run_once(pool, success=False)
        # OPEN: the next placements are rejected (cooldown_ticks=3,
        # counted in acquire calls; the opening tick was #2).
        assert self.run_once(pool, success=True) is None
        assert self.run_once(pool, success=True) is None
        assert pool.registry.counter_value("pool.breaker.rejections") == 2
        # Tick 5 - opened tick 2 >= 3: HALF_OPEN probe admitted.
        probe = self.run_once(pool, success=True)
        assert probe is member
        assert member.breaker.state is BreakerState.CLOSED
        assert pool.registry.counter_value("pool.breaker.half_open") == 1
        assert pool.registry.counter_value("pool.breaker.closed") == 1
        assert breaker_gauge(pool, 0) == 0

    def test_failed_probe_reopens(self):
        pool = self.make_breaker_pool()
        self.run_once(pool, success=False)
        member = self.run_once(pool, success=False)
        self.run_once(pool, success=True)  # rejected, tick 3
        self.run_once(pool, success=True)  # rejected, tick 4
        assert self.run_once(pool, success=False) is member  # probe fails
        assert member.breaker.state is BreakerState.OPEN
        assert pool.registry.counter_value("pool.breaker.reopened") == 1

    def test_success_resets_consecutive_failures(self):
        pool = self.make_breaker_pool()
        member = self.run_once(pool, success=False)
        self.run_once(pool, success=True)
        self.run_once(pool, success=False)
        assert member.breaker.state is BreakerState.CLOSED

    def test_transition_log_reconciles_with_counters(self):
        pool = self.make_breaker_pool()
        self.run_once(pool, success=False)
        member = self.run_once(pool, success=False)
        self.run_once(pool, success=True)
        self.run_once(pool, success=True)
        self.run_once(pool, success=True)
        transitions = [(old, new) for _, old, new in member.breaker.transitions]
        assert transitions == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]
        opens = sum(
            1 for _, _, new in member.breaker.transitions
            if new is BreakerState.OPEN
        )
        assert pool.registry.counter_value("pool.breaker.opened") == opens

    def test_no_breaker_policy_never_gates(self):
        pool = make_pool(size=1)
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        for _ in range(10):
            pool.note_result(member, False)
        again, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(2)
        )
        assert again is member


class TestLifecycleEdgeCases:
    def test_retired_member_ignored_by_lru_eviction_in_full_pool(self):
        # A RETIRED member is never the LRU-eviction victim even when
        # every other member is IDLE with a mismatched fingerprint.
        pool = make_pool(size=3, probe=ProbePolicy(), max_drains=0)
        doomed, _ = pool.acquire(
            "fp0", programmer, rng=np.random.default_rng(1)
        )
        pool.release(doomed)
        pool.drain(doomed)
        assert not pool.recover(doomed)  # budget 0: retires immediately
        # Fill the remaining members so the pool has no EMPTY slots.
        others = []
        for fp in ("fp1", "fp2"):
            member, _ = pool.acquire(
                fp, programmer, rng=np.random.default_rng(2)
            )
            others.append(member)
        for member in others:
            pool.release(member)
        # A new fingerprint must evict an IDLE member, not the retiree
        # (whose last_used is the *oldest* in the pool).
        placed, warm = pool.acquire(
            "fp3", programmer, rng=np.random.default_rng(3)
        )
        assert not warm
        assert placed is not doomed
        assert doomed.state is MemberState.RETIRED
        assert pool.registry.counter_value("pool.evictions") == 1

    def test_retirement_racing_cache_hit_never_hands_out_stale_member(self):
        # The retiree still *records* fingerprint "fp" when its drain
        # budget runs out mid-batch; a warm lookup for "fp" must not
        # match it (state gates before fingerprint).
        pool = make_pool(size=2, probe=ProbePolicy(), max_drains=1)
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        pool.release(member)
        pool.inject_fault(member.member_id, 1.0, sticky=True)
        pool.drain(member)
        assert not pool.recover(member)
        assert member.state is MemberState.RETIRED
        assert member.fingerprint == "fp"  # stale cache identity
        placed, warm = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(2)
        )
        assert placed is not member
        assert not warm  # cold program on the survivor, not a stale hit

    def test_renormalize_on_member_remapped_mid_drain(self):
        # recover() rebuilds the operator (the REMAP rung): the member
        # must come back with a *fresh* operator whose scale state is
        # coherent — renormalize on it is a no-op-sized write, and a
        # warm acquire reuses it without reprogramming.
        pool = make_pool(probe=ProbePolicy(), max_drains=2)
        member, _ = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(1)
        )
        stale = member.operator
        pool.release(member)
        pool.inject_fault(member.member_id, 1.0, sticky=False)
        pool.drain(member)
        assert pool.recover(member)
        rebuilt = member.operator
        assert rebuilt is not stale  # remapped, not patched
        report = rebuilt.renormalize()
        assert report.cells_written == 0  # fresh map is already normal
        again, warm = pool.acquire(
            "fp", programmer, rng=np.random.default_rng(2)
        )
        assert warm and again.operator is rebuilt

