"""Job specifications for the solver service.

A :class:`JobSpec` names one LP solve request without carrying the
problem data: the problem is *derived* deterministically from the spec
and the service's base seed, so a job file is a few bytes per job, a
batch replays bit-for-bit, and two services with the same base seed
agree on every problem.

The derivation splits randomness the same way the crossbar splits the
Newton matrix:

- the **structure seed** depends only on ``(base_seed, group)`` and
  drives the constraint matrix A — every job in a group programs
  byte-identical structural blocks, which is what the programming
  cache (:mod:`repro.service.fingerprint`) exploits;
- the **job seed** depends on ``(base_seed, job_id)`` and drives the
  right-hand sides b and objective c — per-job state that never
  touches the array;
- the **attempt seed** additionally folds in the attempt index, so a
  rescheduled job re-draws process variation (the paper's Section 4.5
  reading: each retry is a fresh physical draw) while the problem
  itself stays fixed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import pathlib
from typing import Iterable, Iterator

import numpy as np

from repro.core.problem import LinearProgram
from repro.workloads.random_lp import (
    random_feasible_lp,
    random_infeasible_lp,
)

#: Valid ``JobSpec.kind`` values.
JOB_KINDS = ("feasible", "infeasible")

#: Tenant a spec bills to when none is named.
DEFAULT_TENANT = "default"

#: Spec field -> (required type, its name in the error).  ``bool`` is
#: rejected wherever a number is expected.
_FIELD_TYPES = {
    "job_id": (str, "a string"),
    "base_job_id": (str, "a string"),
    "tenant": (str, "a string"),
    "constraints": (numbers.Integral, "an integer"),
    "group": (numbers.Integral, "an integer"),
    "priority": (numbers.Integral, "an integer"),
    "max_attempts": (numbers.Integral, "an integer"),
    "variation": (numbers.Real, "a number"),
    "deadline_s": (numbers.Real, "a number"),
    "perturb": (numbers.Real, "a number"),
}

#: Spec fields that may be ``None`` (inherit the service default).
_OPTIONAL_FIELDS = ("max_attempts", "deadline_s")


def _check_field_types(spec) -> None:
    """Raise ``TypeError`` for a wrongly typed field of ``spec`` and
    ``ValueError`` for a number no float holds (NaN, infinite, or an
    integer too large), so a bad JSONL line fails when its spec is
    built, not inside the scheduler."""
    for name, (required, label) in _FIELD_TYPES.items():
        if not hasattr(spec, name):
            continue
        value = getattr(spec, name)
        if value is None and name in _OPTIONAL_FIELDS:
            continue
        if isinstance(value, bool) or not isinstance(value, required):
            raise TypeError(
                f"{name} must be {label}, got {type(value).__name__}"
            )
        if required is numbers.Real:
            try:
                finite = math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite number")


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One solve request.

    Parameters
    ----------
    job_id:
        Unique name; seeds the per-job b/c draw, keys the result
        records, and labels the job's trace span.
    constraints:
        Number of inequality constraints (m); variables follow the
        paper's ``m // 3`` rule.
    group:
        Structure-sharing group: jobs with equal ``(group,
        constraints, kind)`` share the exact same constraint matrix A
        and therefore the same programming-cache fingerprint.
    kind:
        ``"feasible"`` or ``"infeasible"`` (planted certificate).
    priority:
        Scheduling priority; higher runs first (FIFO within a level).
        Priority orders jobs *within* a tenant; across tenants the
        queue's weighted fair scheduler decides (see
        :class:`~repro.service.queue.JobQueue`).
    tenant:
        Admission/fairness bucket this job bills to.  Tenants share
        the pool under deficit-round-robin weighted fair scheduling
        with per-tenant in-flight and queue-depth caps
        (:class:`~repro.service.queue.TenantPolicy`).  The default
        tenant makes single-tenant deployments behave exactly like
        the pre-tenancy scheduler.
    variation:
        Process-variation percent for this job's hardware model.
    deadline_s:
        Wall-clock budget in seconds, counted from the job's first
        dispatch.  ``None`` inherits the service default (which may
        itself be unbounded).  Checked between recovery rungs and PDIP
        iterations; an expired job fails with a machine-readable
        DEADLINE_EXCEEDED and is never re-dispatched.
    max_attempts:
        Per-job retry budget override; ``None`` inherits the service
        default.  Must be >= 1.
    """

    job_id: str
    constraints: int = 24
    group: int = 0
    kind: str = "feasible"
    priority: int = 0
    tenant: str = DEFAULT_TENANT
    variation: float = 0.0
    deadline_s: float | None = None
    max_attempts: int | None = None

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.constraints < 3:
            raise ValueError("constraints must be >= 3")
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of "
                f"{JOB_KINDS}"
            )
        if not 0 <= self.variation < 100:
            # The device model's range; anything else would pass
            # admission and fail the dispatcher that builds its settings.
            raise ValueError("variation percent must lie in [0, 100)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 when set")

    def to_dict(self) -> dict:
        """Plain-dict form (the JSONL job-file line)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build a spec from a parsed JSONL line (extras ignored)."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclasses.dataclass(frozen=True)
class ResolveSpec:
    """A parameter-only re-solve of an already-admitted job.

    The structural fields (``constraints``, ``group``, ``kind``,
    ``variation``) are *inherited* from the base job at admission —
    the service overwrites whatever a JSONL line carries — so a
    resolve can never silently name a different structure than the
    array it expects to reuse.  Only ``b``/``c`` (explicit new
    parameters) and/or ``perturb`` (a seeded multiplicative drift of
    the base problem's parameters, the rolling-horizon idiom) are new.

    Parameters
    ----------
    job_id / priority / tenant / deadline_s / max_attempts:
        As on :class:`JobSpec` (``priority``/``tenant`` default to the
        base job's values when admitted through
        ``SolverService.resolve``).
    base_job_id:
        The admitted job whose structure (and stored optimum, for
        warm-starting) this re-solve reuses.  May itself name an
        earlier resolve — rolling horizons chain.
    b / c:
        Explicit replacement right-hand side / objective (optional;
        ``None`` keeps the base problem's vector).
    perturb:
        Relative drift amplitude: each kept parameter vector is
        multiplied by ``1 + perturb * U(-1, 1)`` drawn from the job
        seed.  ``0`` re-solves the base parameters unchanged.
    """

    job_id: str
    base_job_id: str
    constraints: int = 24
    group: int = 0
    kind: str = "feasible"
    priority: int = 0
    tenant: str = DEFAULT_TENANT
    variation: float = 0.0
    deadline_s: float | None = None
    max_attempts: int | None = None
    b: tuple[float, ...] | None = None
    c: tuple[float, ...] | None = None
    perturb: float = 0.0

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not self.base_job_id:
            raise ValueError("base_job_id must be non-empty")
        if self.job_id == self.base_job_id:
            raise ValueError("a resolve cannot name itself as base")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if not 0.0 <= self.perturb < 1.0:
            raise ValueError("perturb must lie in [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 when set")
        for label, vector in (("b", self.b), ("c", self.c)):
            if vector is None:
                continue
            # A JSON string or object would iterate as characters or
            # keys; a vector is a list of numbers.
            if not isinstance(vector, (list, tuple, np.ndarray)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in vector
            ):
                raise TypeError(f"{label} must be a list of numbers")
            try:
                values = tuple(float(v) for v in vector)
            except OverflowError:  # an integer no float holds
                values = None
            if values is None or not all(np.isfinite(values)):
                raise ValueError(f"{label} contains non-finite entries")
            object.__setattr__(self, label, values)

    def to_dict(self) -> dict:
        """Plain-dict form (the JSONL job-file line)."""
        data = dataclasses.asdict(self)
        for label in ("b", "c"):
            if data[label] is not None:
                data[label] = list(data[label])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ResolveSpec":
        """Build a spec from a parsed JSONL line (extras ignored)."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def _derived_seed(*parts) -> int:
    """A 63-bit seed from a sha256 over the joined parts."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def structure_seed(base_seed: int, spec: JobSpec) -> int:
    """Seed of the shared constraint-matrix draw for ``spec``'s group."""
    return _derived_seed(
        "structure", base_seed, spec.group, spec.constraints, spec.kind
    )


def job_seed(base_seed: int, job_id: str) -> int:
    """Seed of the per-job right-hand-side / objective draw."""
    return _derived_seed("job", base_seed, job_id)


def attempt_seed(base_seed: int, job_id: str, attempt: int) -> int:
    """Seed of one attempt's variation / fault / probe draws."""
    return _derived_seed("attempt", base_seed, job_id, attempt)


def build_problem(spec: JobSpec, base_seed: int) -> LinearProgram:
    """Materialize the LP a spec names (pure function of spec + seed)."""
    s_rng = np.random.default_rng(structure_seed(base_seed, spec))
    rng = np.random.default_rng(job_seed(base_seed, spec.job_id))
    generator = (
        random_feasible_lp
        if spec.kind == "feasible"
        else random_infeasible_lp
    )
    return generator(
        spec.constraints,
        rng=rng,
        structure_rng=s_rng,
        name=spec.job_id,
    )


def build_resolve_problem(
    spec: ResolveSpec,
    base_problem: LinearProgram,
    base_seed: int,
) -> LinearProgram:
    """Materialize the LP a resolve spec names, given its base problem.

    The constraint matrix is the base problem's ``A`` unchanged (that
    is the whole point — the programmed array stays valid).  Explicit
    ``b``/``c`` replace the base vectors; otherwise ``perturb`` applies
    a multiplicative drift drawn from the job seed.  Both drift vectors
    are always drawn so the stream replays bit-for-bit regardless of
    which parameters a given step overrides.
    """
    m, n = base_problem.A.shape
    b = (
        np.asarray(spec.b, dtype=float)
        if spec.b is not None
        else base_problem.b
    )
    c = (
        np.asarray(spec.c, dtype=float)
        if spec.c is not None
        else base_problem.c
    )
    if spec.perturb > 0.0:
        rng = np.random.default_rng(job_seed(base_seed, spec.job_id))
        drift_b = 1.0 + spec.perturb * rng.uniform(-1.0, 1.0, m)
        drift_c = 1.0 + spec.perturb * rng.uniform(-1.0, 1.0, n)
        if spec.b is None:
            b = base_problem.b * drift_b
        if spec.c is None:
            c = base_problem.c * drift_c
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError(
            f"resolve {spec.job_id!r} carries b/c of shape "
            f"{b.shape}/{c.shape}; base problem needs ({m},)/({n},)"
        )
    return LinearProgram(c=c, A=base_problem.A, b=b, name=spec.job_id)


def synthesize_resolve_stream(
    steps: int,
    *,
    constraints: int = 24,
    group: int = 0,
    perturb: float = 0.02,
    tenant: str = DEFAULT_TENANT,
    prefix: str = "horizon",
    chain: bool = True,
) -> list:
    """One cold base job plus ``steps`` rolling-horizon re-solves.

    Models the paper's streaming regime: the network/recipe matrix A
    is fixed, demands drift a few percent per scheduling period.  With
    ``chain=True`` (default) each step perturbs the *previous* step's
    parameters (a random walk, like a real horizon); otherwise every
    step drifts from the base job directly.  The first spec is the
    :class:`JobSpec` that pays the one cold programming; everything
    after re-solves warm.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    base = JobSpec(
        job_id=f"{prefix}-base",
        constraints=constraints,
        group=group,
        tenant=tenant,
    )
    specs: list = [base]
    parent = base.job_id
    for index in range(steps):
        spec = ResolveSpec(
            job_id=f"{prefix}-r{index:04d}",
            base_job_id=parent,
            constraints=constraints,
            group=group,
            perturb=perturb,
            tenant=tenant,
        )
        specs.append(spec)
        if chain:
            parent = spec.job_id
    return specs


def synthesize_jobs(
    count: int,
    *,
    groups: int = 1,
    constraints: int = 24,
    variation: float = 0.0,
    infeasible_every: int = 0,
    tenants: int = 1,
    prefix: str = "job",
) -> list[JobSpec]:
    """A deterministic batch of job specs for demos, tests, and CI.

    Jobs are assigned to structure groups round-robin, so ``count``
    jobs over ``groups`` groups repeat each constraint matrix roughly
    ``count / groups`` times — the warm-cache regime.  When
    ``infeasible_every > 0``, every k-th job plants an infeasibility
    certificate instead (its own structure sub-group, since the
    contradiction rows change A).  ``tenants > 1`` spreads jobs
    round-robin over ``tenant-00`` .. ``tenant-NN`` buckets for
    multi-tenant serving demos; the default keeps every job on the
    single default tenant.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if groups < 1:
        raise ValueError("groups must be positive")
    if tenants < 1:
        raise ValueError("tenants must be positive")
    specs = []
    for index in range(count):
        infeasible = infeasible_every > 0 and (index + 1) % infeasible_every == 0
        specs.append(
            JobSpec(
                job_id=f"{prefix}-{index:04d}",
                constraints=constraints,
                group=index % groups,
                kind="infeasible" if infeasible else "feasible",
                tenant=(
                    f"tenant-{index % tenants:02d}"
                    if tenants > 1
                    else DEFAULT_TENANT
                ),
                variation=variation,
            )
        )
    return specs


def write_jobs_jsonl(
    specs: Iterable[JobSpec], path: str | pathlib.Path
) -> pathlib.Path:
    """Write one spec per line; the ``repro batch`` input format."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for spec in specs:
            handle.write(json.dumps(spec.to_dict(), sort_keys=True) + "\n")
    return path


def read_jobs_jsonl(path: str | pathlib.Path) -> Iterator:
    """Yield specs from a JSONL job file (blank lines ignored).

    Lines carrying a ``base_job_id`` parse as :class:`ResolveSpec`,
    everything else as :class:`JobSpec` — so one file can hold a mixed
    solve/re-solve stream (``repro batch`` replays it in order, and
    order matters: a resolve must follow its base).
    """
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if data.get("base_job_id"):
                yield ResolveSpec.from_dict(data)
            else:
                yield JobSpec.from_dict(data)
