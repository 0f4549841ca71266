"""Tests for concurrent dispatch, queue thread safety, and fairness."""

import json
import threading
import time

import pytest

import repro.service.dispatch
from repro.obs import RecordingTracer
from repro.service import (
    ConcurrentDispatcher,
    JobQueue,
    JobSpec,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    TenantPolicy,
    synthesize_jobs,
)


def run_service(*, workers, jobs=12, tenants=(), telemetry=None, **overrides):
    config = ServiceConfig(
        pool_size=4,
        queue_depth=16,
        base_seed=7,
        workers=workers,
        tenants=tuple(tenants),
        **overrides,
    )
    service = SolverService(
        config, tracer=RecordingTracer(), telemetry=telemetry
    )
    specs = synthesize_jobs(
        jobs, groups=2, constraints=8, tenants=2 if tenants else 1
    )
    records, summary = service.batch(specs)
    return service, records, summary


class TestQueueConcurrency:
    def test_no_lost_or_duplicated_jobs_under_concurrent_submit(self):
        queue = JobQueue(max_depth=4096)
        per_thread, threads = 50, 8
        popped: list = []
        pop_lock = threading.Lock()
        barrier = threading.Barrier(threads + 1)

        def submitter(worker):
            barrier.wait()
            for index in range(per_thread):
                queue.submit(
                    JobSpec(job_id=f"w{worker}-{index:03d}", constraints=8)
                )

        def popper():
            barrier.wait()
            drained_strikes = 0
            while drained_strikes < 200:
                try:
                    job = queue.pop()
                except IndexError:
                    drained_strikes += 1
                    continue
                drained_strikes = 0
                with pop_lock:
                    popped.append(job.spec.job_id)

        workers = [
            threading.Thread(target=submitter, args=(w,))
            for w in range(threads)
        ] + [threading.Thread(target=popper)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        while queue:
            popped.append(queue.pop().spec.job_id)
        expected = {
            f"w{w}-{i:03d}" for w in range(threads) for i in range(per_thread)
        }
        assert len(popped) == len(expected)  # nothing duplicated
        assert set(popped) == expected  # nothing lost

    def test_concurrent_requeue_preserves_aging(self):
        queue = JobQueue(max_depth=64, aging_step=1)
        jobs = [
            queue.submit(JobSpec(job_id=f"j{i}", constraints=8))
            for i in range(8)
        ]
        while queue:
            queue.pop()

        def requeuer(job):
            for _ in range(5):
                queue.requeue(job)
                queue.pop()

        threads = [
            threading.Thread(target=requeuer, args=(job,)) for job in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every requeue bumped exactly once per trip: 5 trips each.
        assert all(job.priority_boost == 5 for job in jobs)

    def test_aged_job_still_overtakes_under_concurrency(self):
        queue = JobQueue(max_depth=64, aging_step=1)
        old = queue.submit(JobSpec(job_id="old", constraints=8, priority=0))
        queue.pop()
        for _ in range(3):
            queue.requeue(old)
            queue.pop()
        queue.requeue(old)
        queue.submit(JobSpec(job_id="fresh", constraints=8, priority=2))
        # boost 4 > fresh priority 2: the aged job runs first.
        assert queue.pop().spec.job_id == "old"


class TestTenantFairness:
    def two_tenant_queue(self, counts, weights=(1.0, 1.0)):
        queue = JobQueue(
            max_depth=4096,
            tenants=[
                TenantPolicy(tenant="a", weight=weights[0]),
                TenantPolicy(tenant="b", weight=weights[1]),
            ],
        )
        for tenant, count in zip(("a", "b"), counts):
            for index in range(count):
                queue.submit(
                    JobSpec(
                        job_id=f"{tenant}-{index:03d}",
                        constraints=8,
                        tenant=tenant,
                    )
                )
        return queue

    def test_ten_to_one_submit_rates_get_fair_completions(self):
        # Tenant a floods 10x the jobs of tenant b; with equal weights
        # the first 2*len(b) pops must alternate evenly — submit rate
        # buys no extra share while both are backlogged.
        queue = self.two_tenant_queue((100, 10))
        head = [queue.pop().spec.tenant for _ in range(20)]
        assert head.count("a") == head.count("b") == 10

    def test_weights_set_the_completion_ratio(self):
        queue = self.two_tenant_queue((90, 90), weights=(3.0, 1.0))
        head = [queue.pop().spec.tenant for _ in range(40)]
        assert head.count("a") == 30
        assert head.count("b") == 10

    def test_idle_tenant_forfeits_deficit(self):
        # b drains; while idle its credit must not bank.  When it
        # returns, the split goes back to even from that point on.
        queue = self.two_tenant_queue((50, 2))
        drained = [queue.pop().spec.tenant for _ in range(12)]
        assert drained.count("b") == 2  # b emptied early on
        for index in range(6):
            queue.submit(
                JobSpec(job_id=f"b-late-{index}", constraints=8, tenant="b")
            )
        tail = [queue.pop().spec.tenant for _ in range(12)]
        assert tail.count("b") == 6
        assert tail.count("a") == 6

    def test_blocked_tenant_is_skipped_with_deficit_frozen(self):
        queue = self.two_tenant_queue((4, 4))
        assert queue.pop(blocked={"a"}).spec.tenant == "b"
        assert queue.eligible(blocked={"a", "b"}) is False
        assert queue.pop(blocked={"a", "b"}) is None

    def test_service_level_weighted_fairness(self):
        policies = [
            TenantPolicy(tenant="tenant-00", weight=2.0),
            TenantPolicy(tenant="tenant-01", weight=1.0),
        ]
        _, records, summary = run_service(
            workers=2, jobs=12, tenants=policies
        )
        assert summary.succeeded == 12
        # Completion *order* is timing-dependent, but every job of
        # both tenants completes and bills to its own tenant.
        by_tenant = {}
        for record in records:
            by_tenant.setdefault(record.spec.tenant, []).append(record)
        assert set(by_tenant) == {"tenant-00", "tenant-01"}
        assert all(len(v) == 6 for v in by_tenant.values())


class TestConcurrentDispatch:
    def test_no_lost_or_duplicated_jobs(self):
        _, records, summary = run_service(workers=4, jobs=16)
        assert summary.jobs == 16
        job_ids = [record.spec.job_id for record in records]
        assert len(job_ids) == len(set(job_ids))  # no duplicates
        assert set(job_ids) == {f"job-{i:04d}" for i in range(16)}

    def test_telemetry_totals_reconcile_exactly(self):
        telemetry = ServiceTelemetry()
        service, records, summary = run_service(
            workers=4, jobs=12, telemetry=telemetry
        )
        record_energy = sum(record.energy_j for record in records)
        # Exact equality, not approx: live registry, record stream,
        # and trace replay accumulate in the same completion order
        # under the service lock.
        assert telemetry.energy_j_total == record_energy
        assert (
            telemetry.registry.counter_value("service.energy_j")
            == record_energy
        )
        assert (
            service.tracer.counters.get("service.energy_j", 0.0)
            == record_energy
        )
        assert telemetry.jobs == len(records) == 12
        assert (
            telemetry.registry.counter_value("service.jobs_completed")
            == summary.succeeded
        )

    def test_lock_contention_counters_populated(self):
        telemetry = ServiceTelemetry()
        run_service(workers=4, jobs=8, telemetry=telemetry)
        acquires = telemetry.registry.counter_value("service.lock.acquires")
        assert acquires > 0
        assert (
            telemetry.registry.counter_value("service.lock.wait_s") >= 0.0
        )

    def test_per_tenant_in_flight_cap_respected(self):
        # With every tenant capped at 1 in flight, the run still
        # completes everything — the dispatcher blocks capped tenants
        # instead of deadlocking or dropping.
        policies = [
            TenantPolicy(tenant="tenant-00", max_in_flight=1),
            TenantPolicy(tenant="tenant-01", max_in_flight=1),
        ]
        _, records, summary = run_service(
            workers=4, jobs=10, tenants=policies
        )
        assert summary.jobs == 10
        assert summary.succeeded == 10

    def test_worker_exception_propagates(self):
        service, _, _ = run_service(workers=2, jobs=2)

        def boom(*args, **kwargs):
            raise RuntimeError("injected dispatch failure")

        service._dispatch = boom
        service.queue.submit(JobSpec(job_id="doomed", constraints=8))
        with pytest.raises(RuntimeError, match="injected dispatch"):
            ConcurrentDispatcher(service).run()

    def test_process_executor_small_batch(self):
        _, records, summary = run_service(
            workers=2, jobs=4, executor="process"
        )
        assert summary.jobs == 4
        assert summary.succeeded == 4
        assert {r.spec.job_id for r in records} == {
            f"job-{i:04d}" for i in range(4)
        }


class TestWakeOnAdmission:
    """Admission from any thread wakes an idle worker at once; the
    dispatcher's timed wait is only a missed-notify safety net."""

    @pytest.mark.parametrize("entry", ["submit", "try_submit", "resolve"])
    def test_admission_wakes_idle_worker(self, monkeypatch, entry):
        monkeypatch.setattr(repro.service.dispatch, "_WAIT_S", 30.0)
        service = SolverService(
            ServiceConfig(pool_size=1, base_seed=7, workers=1)
        )
        arrived = threading.Event()
        records = []

        def on_record(record):
            records.append(record.spec.job_id)
            arrived.set()

        if entry == "resolve":
            # The base is admitted before the dispatcher starts, so the
            # worker finds it on its first look.
            service.submit(JobSpec(job_id="base", constraints=8))
        dispatcher = ConcurrentDispatcher(service)
        dispatcher.start(on_record=on_record)
        try:
            if entry == "resolve":
                assert arrived.wait(timeout=30)
                arrived.clear()
            time.sleep(0.2)  # let the worker go idle on the condition
            admit = {
                "submit": lambda: service.submit(
                    JobSpec(job_id="late", constraints=8)
                ),
                "try_submit": lambda: service.try_submit(
                    JobSpec(job_id="late", constraints=8)
                ),
                "resolve": lambda: service.resolve(
                    "base", job_id="late", perturb=0.02
                ),
            }[entry]
            submitter = threading.Thread(target=admit)
            submitter.start()
            submitter.join()
            assert arrived.wait(timeout=5), "worker slept through admission"
        finally:
            dispatcher.stop()
        assert records[-1] == "late"

    def test_dispatcher_builds_no_condition_of_its_own(self):
        service = SolverService(ServiceConfig(workers=2))
        assert ConcurrentDispatcher(service)._cond is service.work_ready


class TestSerialReplayContract:
    def serial_run(self, **overrides):
        tracer = RecordingTracer()
        config = ServiceConfig(
            pool_size=2, queue_depth=16, base_seed=7, workers=1, **overrides
        )
        service = SolverService(config, tracer=tracer)
        specs = synthesize_jobs(8, groups=2, constraints=8)
        records, _ = service.batch(specs)
        payload = "\n".join(
            json.dumps(record.to_dict(), sort_keys=True)
            for record in records
        )
        events = [event["name"] for event in tracer.event_dicts()]
        return payload, events, tracer.counters

    def test_workers_1_replays_byte_identical(self):
        first = self.serial_run()
        second = self.serial_run()
        assert first[0] == second[0]  # records, byte for byte
        assert first[1] == second[1]  # trace event stream
        assert first[2] == second[2]  # counter totals

    def test_device_latency_never_changes_records(self):
        baseline = self.serial_run()
        paced = self.serial_run(device_latency_s=0.005)
        assert baseline[0] == paced[0]
        assert baseline[1] == paced[1]

    def test_concurrent_run_covers_the_same_jobs(self):
        _, serial_records, _ = run_service(workers=1, jobs=10)
        _, concurrent_records, _ = run_service(workers=4, jobs=10)
        assert {r.spec.job_id for r in serial_records} == {
            r.spec.job_id for r in concurrent_records
        }
        assert all(r.success for r in concurrent_records)


class TestConfigValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)

    def test_executor_must_be_known(self):
        with pytest.raises(ValueError, match="executor"):
            ServiceConfig(executor="gpu")

    def test_device_latency_must_be_non_negative(self):
        with pytest.raises(ValueError, match="device_latency"):
            ServiceConfig(device_latency_s=-0.1)

    def test_tenant_policy_validation(self):
        with pytest.raises(ValueError, match="weight"):
            TenantPolicy(tenant="a", weight=0.0)
        with pytest.raises(ValueError, match="max_in_flight"):
            TenantPolicy(tenant="a", max_in_flight=0)
