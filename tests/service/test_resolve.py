"""The warm re-solve tier: parameter-only updates without reprogramming.

Acceptance scenarios from the re-solve PR:

- warm re-solves write exactly **0** programming cells, proven by the
  per-attempt ``program_cells`` accounting and the service counters;
- warm and cold re-solves reach the same optimum (within solver
  tolerance — the trajectories differ, the answer must not);
- ``workers=1`` replay of a resolve stream is byte-identical;
- a resolve naming an unknown base job is a structured client error
  (:class:`~repro.exceptions.UnknownJobError`), never a crash;
- presolve-detected infeasibility surfaces as
  ``FailureReason.INFEASIBLE_PRESOLVE`` at zero programming cost.
"""

import json

import numpy as np
import pytest

from repro.baselines import solve_scipy
from repro.core.result import FailureReason, SolveStatus
from repro.exceptions import UnknownJobError
from repro.obs.tracer import RecordingTracer
from repro.service import (
    JobSpec,
    ResolveSpec,
    ServiceConfig,
    SolverService,
    build_resolve_problem,
    read_jobs_jsonl,
)
from repro.workloads import rolling_horizon_stream

SEED = 11


def make_service(*, tracer=None, **overrides):
    config = ServiceConfig(
        **{"pool_size": 1, "base_seed": SEED, **overrides}
    )
    return SolverService(config, tracer=tracer or RecordingTracer())


def stream_specs(steps=6, *, constraints=16, chain=True):
    _, specs = rolling_horizon_stream(
        steps, constraints=constraints, seed=SEED, chain=chain
    )
    return specs


class TestWarmResolve:
    def test_resolves_write_zero_programming_cells(self):
        service = make_service()
        records, summary = service.batch(stream_specs())
        assert summary.failed == 0
        resolves = [
            r for r in records if getattr(r.spec, "base_job_id", None)
        ]
        assert len(resolves) == 6
        for record in resolves:
            assert record.warm is True
            assert all(a.program_cells == 0 for a in record.attempts)
        counters = service.tracer.counters
        assert counters["service.resolve.submitted"] == 6
        assert counters["service.resolve.completed"] == 6
        assert counters["service.resolve.warm_placements"] == 6
        assert counters.get("service.resolve.program_cells", 0.0) == 0.0
        assert counters["service.resolve.cells_saved"] > 0

    def test_base_job_pays_the_only_program(self):
        service = make_service()
        records, _ = service.batch(stream_specs())
        base = records[0]
        assert getattr(base.spec, "base_job_id", None) is None
        assert base.attempts[0].program_cells > 0

    def test_warm_and_cold_reach_same_optimum(self):
        specs = stream_specs(4)
        warm_service = make_service()
        warm_records, _ = warm_service.batch(specs)
        cold_records, _ = make_service(
            cache_enabled=False, warm_start=False
        ).batch(specs)
        for warm, cold in zip(warm_records, cold_records):
            assert warm.spec.job_id == cold.spec.job_id
            assert warm.result.status is SolveStatus.OPTIMAL
            assert cold.result.status is SolveStatus.OPTIMAL
            # Same optimum as the digital reference, both arms.
            problem = warm_service._problems[warm.spec.job_id]
            truth = solve_scipy(problem).objective
            scale = max(1.0, abs(truth))
            assert abs(warm.result.objective - truth) / scale < 5e-2
            assert abs(cold.result.objective - truth) / scale < 5e-2

    def test_workers_one_replay_is_byte_identical(self):
        specs = stream_specs()
        first, _ = make_service().batch(specs)
        second, _ = make_service().batch(specs)
        assert [r.to_dict() for r in first] == [
            r.to_dict() for r in second
        ]

    def test_record_dict_carries_base_job_id(self):
        records, _ = make_service().batch(stream_specs(2))
        payload = records[-1].to_dict()
        assert payload["base_job_id"]
        assert json.dumps(payload)  # JSONL-serializable


class TestResolveApi:
    def test_resolve_auto_id_and_inheritance(self):
        service = make_service()
        service.submit(
            JobSpec(job_id="plant", constraints=14, group=2, priority=3)
        )
        pending = service.resolve("plant", perturb=0.05)
        assert pending.spec.job_id == "plant~r0001"
        assert pending.spec.base_job_id == "plant"
        assert pending.spec.constraints == 14
        assert pending.spec.group == 2
        records = service.drain()
        by_id = {r.spec.job_id: r for r in records}
        assert by_id["plant~r0001"].result.status is SolveStatus.OPTIMAL
        assert by_id["plant~r0001"].warm is True
        assert all(
            a.program_cells == 0
            for a in by_id["plant~r0001"].attempts
        )

    def test_resolve_explicit_parameters(self):
        service = make_service()
        service.submit(JobSpec(job_id="plant", constraints=12))
        base_problem = service._problems["plant"]
        new_b = tuple(float(v) * 1.01 for v in base_problem.b)
        pending = service.resolve("plant", new_b)
        spec = pending.spec
        problem = build_resolve_problem(spec, base_problem, SEED)
        np.testing.assert_array_equal(problem.b, np.asarray(new_b))
        np.testing.assert_array_equal(problem.c, base_problem.c)
        assert problem.A is base_problem.A

    def test_unknown_base_is_a_client_error(self):
        service = make_service()
        with pytest.raises(UnknownJobError, match="nope"):
            service.resolve("nope")
        with pytest.raises(UnknownJobError):
            service.try_submit(
                ResolveSpec(job_id="r1", base_job_id="nope")
            )
        with pytest.raises(UnknownJobError):
            service.submit(
                ResolveSpec(job_id="r2", base_job_id="nope")
            )

    def test_wrong_shape_parameters_rejected_before_queueing(self):
        service = make_service()
        service.submit(JobSpec(job_id="plant", constraints=12))
        submitted = service.tracer.counters["service.jobs_submitted"]
        with pytest.raises(ValueError, match="shape"):
            service.resolve("plant", new_b=[1.0, 2.0], job_id="bad-b")
        with pytest.raises(ValueError, match="shape"):
            service.try_submit(
                ResolveSpec(job_id="bad-c", base_job_id="plant", c=(1.0,))
            )
        # Nothing of either reject was queued, cataloged, or counted.
        assert len(service.queue) == 1
        assert "bad-b" not in service._catalog
        assert "bad-c" not in service._catalog
        assert service.tracer.counters["service.jobs_submitted"] == submitted
        assert [r.spec.job_id for r in service.drain()] == ["plant"]

    def test_chained_resolve_of_a_resolve(self):
        service = make_service()
        service.submit(JobSpec(job_id="j0", constraints=12))
        service.resolve("j0", job_id="j1", perturb=0.02)
        service.resolve("j1", job_id="j2", perturb=0.02)
        records = service.drain()
        assert [r.spec.job_id for r in records] == ["j0", "j1", "j2"]
        assert all(r.result.status is SolveStatus.OPTIMAL for r in records)

    def test_jsonl_round_trip_mixed_batch(self, tmp_path):
        specs = stream_specs(3)
        path = tmp_path / "jobs.jsonl"
        with path.open("w") as fh:
            for spec in specs:
                fh.write(json.dumps(spec.to_dict()) + "\n")
        loaded = list(read_jobs_jsonl(path))
        assert [s.job_id for s in loaded] == [s.job_id for s in specs]
        assert isinstance(loaded[0], JobSpec)
        assert all(isinstance(s, ResolveSpec) for s in loaded[1:])
        records, summary = make_service().batch(loaded)
        assert summary.failed == 0
        assert len(records) == len(specs)


class TestPresolveScreen:
    def test_infeasible_job_rejected_at_zero_cost(self):
        tracer = RecordingTracer()
        service = make_service(tracer=tracer)
        service.submit(
            JobSpec(job_id="doomed", constraints=12, kind="infeasible")
        )
        (record,) = service.drain()
        assert record.result.status is SolveStatus.INFEASIBLE
        assert (
            record.result.failure_reason
            is FailureReason.INFEASIBLE_PRESOLVE
        )
        assert record.attempts[0].cells_written == 0
        assert record.attempts[0].program_cells == 0
        assert tracer.counters["service.presolve.infeasible"] == 1
        assert tracer.counters.get("crossbar.cells_written", 0.0) == 0.0

    def test_presolve_knob_restores_old_path(self):
        tracer = RecordingTracer()
        service = make_service(tracer=tracer, presolve=False)
        service.submit(
            JobSpec(job_id="doomed", constraints=12, kind="infeasible")
        )
        (record,) = service.drain()
        assert record.result.status is SolveStatus.INFEASIBLE
        # Without the screen the verdict comes from the array and
        # costs real programming writes.
        assert (
            record.result.failure_reason
            is not FailureReason.INFEASIBLE_PRESOLVE
        )
        assert tracer.counters["crossbar.cells_written"] > 0

    def test_warm_start_knob_disables_warm_starts(self):
        service = make_service(warm_start=False)
        records, summary = service.batch(stream_specs(3))
        assert summary.failed == 0
        resolves = [
            r for r in records if getattr(r.spec, "base_job_id", None)
        ]
        # Placement stays warm (the cache is on) but iterate reuse is
        # off: cold trajectories run noticeably longer than a polish.
        assert all(r.warm for r in resolves)
        assert all(r.result.iterations > 5 for r in resolves)
