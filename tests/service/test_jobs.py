"""Tests for job specs and the deterministic problem derivation."""

import numpy as np
import pytest

from repro.service.jobs import (
    JobSpec,
    ResolveSpec,
    attempt_seed,
    build_problem,
    job_seed,
    read_jobs_jsonl,
    structure_seed,
    synthesize_jobs,
    write_jobs_jsonl,
)


class TestJobSpec:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="job_id"):
            JobSpec(job_id="")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(job_id="a", kind="maximal")

    def test_dict_roundtrip(self):
        spec = JobSpec(
            job_id="j1", constraints=16, group=3, kind="infeasible",
            priority=2, variation=10.0,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = JobSpec.from_dict({"job_id": "j", "extra": "ignored"})
        assert spec.job_id == "j"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("job_id", 5),
            ("tenant", 7),
            ("constraints", "12"),
            ("constraints", True),
            ("group", 1.5),
            ("priority", "high"),
            ("max_attempts", 2.0),
            ("variation", "5"),
            ("deadline_s", False),
        ],
    )
    def test_rejects_wrongly_typed_fields(self, field, value):
        fields = {"job_id": "j", field: value}
        with pytest.raises(TypeError, match=field):
            JobSpec(**fields)
        fields.setdefault("base_job_id", "base")
        with pytest.raises(TypeError, match=field):
            ResolveSpec(**fields)

    def test_accepts_numpy_numbers_and_optional_nones(self):
        spec = JobSpec(
            job_id="j",
            constraints=np.int64(12),
            variation=np.float64(5.0),
            deadline_s=None,
            max_attempts=None,
        )
        assert spec.constraints == 12
        with pytest.raises(TypeError, match="base_job_id"):
            ResolveSpec(job_id="r", base_job_id=3)
        with pytest.raises(TypeError, match="perturb"):
            ResolveSpec(job_id="r", base_job_id="b", perturb="0.1")

    @pytest.mark.parametrize("field", ["variation", "deadline_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_rejects_numbers_no_float_holds(self, field, value):
        with pytest.raises(ValueError, match=field):
            JobSpec(job_id="j", **{field: value})
        with pytest.raises(ValueError, match=field):
            ResolveSpec(job_id="j", base_job_id="b", **{field: value})
        with pytest.raises(ValueError, match="non-finite"):
            ResolveSpec(job_id="j", base_job_id="b", b=[1.0, value])

    @pytest.mark.parametrize(
        "vector", ["12345678", {"1": 0.0}, [1.0, "2"], [[1.0]], [True], 3.0]
    )
    def test_rejects_vectors_that_are_not_lists_of_numbers(self, vector):
        with pytest.raises(TypeError, match="b must be a list of numbers"):
            ResolveSpec(job_id="r", base_job_id="b", b=vector)

    @pytest.mark.parametrize("variation", [-1.0, 100.0, 150])
    def test_rejects_variation_outside_the_device_range(self, variation):
        # The dispatcher's device model takes percents in [0, 100).
        with pytest.raises(ValueError, match="variation"):
            JobSpec(job_id="j", variation=variation)


class TestSeeds:
    def test_attempt_seeds_differ_per_attempt(self):
        seeds = {attempt_seed(0, "job", k) for k in range(5)}
        assert len(seeds) == 5

    def test_seeds_are_stable(self):
        assert job_seed(7, "x") == job_seed(7, "x")
        assert attempt_seed(7, "x", 1) == attempt_seed(7, "x", 1)

    def test_structure_seed_ignores_job_id(self):
        a = JobSpec(job_id="a", group=1, constraints=12)
        b = JobSpec(job_id="b", group=1, constraints=12)
        assert structure_seed(0, a) == structure_seed(0, b)


class TestBuildProblem:
    def test_same_group_shares_constraint_matrix(self):
        a = build_problem(JobSpec(job_id="a", group=0, constraints=12), 0)
        b = build_problem(JobSpec(job_id="b", group=0, constraints=12), 0)
        np.testing.assert_array_equal(a.A, b.A)
        # b and c are per-job: they must differ.
        assert not np.array_equal(a.b, b.b)
        assert not np.array_equal(a.c, b.c)

    def test_infeasible_jobs_share_structure_too(self):
        a = build_problem(
            JobSpec(job_id="a", group=0, constraints=12, kind="infeasible"), 0
        )
        b = build_problem(
            JobSpec(job_id="b", group=0, constraints=12, kind="infeasible"), 0
        )
        np.testing.assert_array_equal(a.A, b.A)

    def test_groups_differ(self):
        a = build_problem(JobSpec(job_id="a", group=0, constraints=12), 0)
        b = build_problem(JobSpec(job_id="b", group=1, constraints=12), 0)
        assert not np.array_equal(a.A, b.A)

    def test_base_seed_changes_everything(self):
        spec = JobSpec(job_id="a", group=0, constraints=12)
        assert not np.array_equal(
            build_problem(spec, 0).A, build_problem(spec, 1).A
        )

    def test_derivation_is_pure(self):
        spec = JobSpec(job_id="a", group=0, constraints=12)
        first = build_problem(spec, 5)
        second = build_problem(spec, 5)
        np.testing.assert_array_equal(first.A, second.A)
        np.testing.assert_array_equal(first.b, second.b)
        np.testing.assert_array_equal(first.c, second.c)


class TestSynthesizeAndJsonl:
    def test_round_robin_groups(self):
        specs = synthesize_jobs(6, groups=3)
        assert [s.group for s in specs] == [0, 1, 2, 0, 1, 2]

    def test_infeasible_every(self):
        specs = synthesize_jobs(6, groups=1, infeasible_every=3)
        assert [s.kind == "infeasible" for s in specs] == [
            False, False, True, False, False, True,
        ]

    def test_jsonl_roundtrip(self, tmp_path):
        specs = synthesize_jobs(
            5, groups=2, constraints=10, variation=5.0, infeasible_every=2
        )
        path = write_jobs_jsonl(specs, tmp_path / "jobs.jsonl")
        assert list(read_jobs_jsonl(path)) == specs
