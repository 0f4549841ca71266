"""The solver service: scheduler over the pool, queue, and cache.

:class:`SolverService` turns the one-shot solvers into a serving
layer.  Jobs enter through ``submit`` / ``try_submit`` / ``batch``
(admission-controlled by the bounded :class:`~repro.service.queue.
JobQueue`); ``drain`` pops them in priority order and runs each
attempt on a :class:`~repro.service.pool.CrossbarPool` member:

1. the job's problem is derived deterministically from its spec
   (:mod:`repro.service.jobs`) and its structural fingerprint computed
   (:mod:`repro.service.fingerprint`);
2. the pool places it — *warm* on a member already holding that
   fingerprint (diagonal rewrites only), else *cold* (full program);
3. the solve runs via :meth:`~repro.core.crossbar_solver.
   CrossbarPDIPSolver.solve_on` under a per-job ``service.job`` span
   and is priced from the engine's own totals (the result's op counts
   and the operator's write report since placement).  When the service
   tracer records, the attempt records on a private
   :class:`~repro.obs.tracer.RecordingTracer` absorbed into it
   afterwards (the sweep engine's merge discipline), so a batch trace
   attributes every analog op and cell write to its job; otherwise the
   attempt traces to ``NOOP``.  The service's own numbers (admissions,
   completions, energy, latency, requeues, pool transitions …) are
   never traced: each is written once into the registry of the
   service's :class:`~repro.service.telemetry.ServiceTelemetry`;
4. failures are isolated, never fatal: the failing member is excluded
   and — on a health-probe rejection — drained and recovered; the job
   is *requeued* (exempt from the admission bound: an accepted job is
   never lost) up to ``max_attempts``, then optionally handed to the
   digital fallback.

Determinism: with ``workers=1`` (the default) the scheduler is
serial, placement is by deterministic preference order, and every
attempt's randomness comes from ``attempt_seed(base_seed, job_id,
attempt)`` — two services with equal config and job stream produce
identical records *and* identical traces, byte for byte.

Concurrency (``workers > 1``) keeps the same scheduler code but splits
each step into three phases: ``_dispatch`` (pop + placement, under the
service lock), ``_execute`` (the solve, lock-free), and ``_conclude``
(member release + requeue-or-finalize + telemetry, under the lock
again).  A :class:`~repro.service.dispatch.ConcurrentDispatcher` runs N
worker threads through those phases, optionally shipping the numeric
solve to a worker *process* (``executor="process"``) to sidestep the
GIL; both executors run the same attempt body
(:func:`run_served_attempt`).  While every schedulable member is BUSY,
``_dispatch`` leaves the queue alone, so extra workers wait for a
conclusion instead of failing jobs for want of capacity.
Concurrent completion order is timing-dependent, so byte-identical
replay is not promised — but per-attempt results stay deterministic
(seeds derive from ``(base_seed, job_id, attempt)`` exactly as in
serial mode) and telemetry totals still reconcile exactly: the live
registry and the record stream accumulate in the one completion order
the lock serializes (see DESIGN.md §15).

Multi-tenancy: every job bills to its spec's ``tenant``; the queue
runs deficit-round-robin weighted fair election across tenants
(:class:`~repro.service.queue.TenantPolicy` sets weights and caps) and
the dispatcher enforces per-tenant in-flight caps by passing capped
tenants as ``blocked`` to :meth:`~repro.service.queue.JobQueue.pop`.

Fault tolerance (:mod:`repro.service.resilience`) is layered on the
same scheduler without changing the no-fault path: per-job deadlines
and retry budgets bound how long an accepted job can occupy the
service, per-member circuit breakers keep placements off arrays that
fail repeatedly without tripping the health probe, a brownout
controller sheds work to cheaper execution tiers when the failure-rate
window degrades, and a :class:`~repro.service.resilience.FaultCampaign`
drives all of it under seeded, declarative chaos scenarios.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.crossbar_solver import CrossbarPDIPSolver
from repro.core.result import (
    FailureReason,
    SolverResult,
    SolveStatus,
)
from repro.core.problem import LinearProgram
from repro.core.settings import CrossbarSolverSettings
from repro.core.warmstart import warm_start_state
from repro.costmodel.energy import estimate_energy
from repro.crossbar.ops import AnalogMatrixOperator
from repro.crossbar.programming import WriteReport
from repro.devices import variation_from_percent
from repro.exceptions import UnknownJobError
from repro.obs.clock import Deadline, Stopwatch, monotonic
from repro.obs.merge import absorb_events
from repro.obs.metrics import exact_quantile
from repro.obs.tracer import NOOP, RecordingTracer, Tracer
from repro.presolve import detect_infeasible, infeasible_result
from repro.reliability.policy import RecoveryPolicy
from repro.reliability.probe import ProbePolicy
from repro.reliability.recovery import run_digital_fallback
from repro.service.fingerprint import structural_fingerprint
from repro.service.jobs import (
    JobSpec,
    ResolveSpec,
    attempt_seed,
    build_problem,
    build_resolve_problem,
)
from repro.service.pool import CrossbarPool, PoolMember
from repro.service.queue import JobQueue, PendingJob, TenantPolicy
from repro.service.resilience import (
    BackoffPolicy,
    BreakerPolicy,
    DegradationController,
    DegradationPolicy,
    DegradationTier,
    FaultCampaign,
    FaultEvent,
)
from repro.service.telemetry import ServiceTelemetry


#: Default ``scale_headroom`` for served solves.  The library default
#: (2.0) maps the initial matrix snugly, so growing PDIP diagonals
#: trigger mid-solve remaps — full-array rewrites that both dominate
#: the write budget and leave the array's scale drifted, forcing the
#: next warm placement to renormalize (another full rewrite).  A 4x
#: headroom keeps typical diagonal excursions inside the programmed
#: window: empirically it minimizes total cells written per batch and
#: lets warm placements pay only the O(N) diagonal writes.
SERVING_SCALE_HEADROOM = 4.0


def default_serving_settings() -> CrossbarSolverSettings:
    """Solver settings tuned for array reuse (see module note)."""
    return dataclasses.replace(
        CrossbarSolverSettings(), scale_headroom=SERVING_SCALE_HEADROOM
    )


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Serving-layer configuration.

    Parameters
    ----------
    pool_size:
        Number of crossbar fleet members.
    queue_depth:
        Admission bound of the job queue (requeues are exempt).
    max_attempts:
        Analog attempts per job before giving up / falling back.
    cache_enabled:
        Whether equal structural fingerprints share programmed arrays;
        disabling forces every placement cold (the control arm of the
        cache-savings measurement).
    batch_by_fingerprint:
        Whether the scheduler groups same-fingerprint jobs: within the
        top priority level, the next job popped prefers the fingerprint
        the last one ran, so a warm pool member executes consecutive
        jobs with zero structural rewrites.  Priority ordering is never
        violated; only FIFO order *within* a priority level bends.
        Requires ``cache_enabled`` to have any effect.
    base_seed:
        Root of every derived seed (problems, attempts, recovery).
    settings:
        Solver + hardware model; a job's ``variation`` percent, when
        positive, overrides the variation model per job.  The serving
        default raises ``scale_headroom`` to ``SERVING_SCALE_HEADROOM``
        (see module note below): with the library default of 2 the
        PDIP diagonals outgrow the programmed window in most solves,
        and every mid-solve remap is a full-array rewrite that erases
        the programming cache's advantage.
    probe:
        Health-probe policy gating every analog attempt and recovery;
        ``None`` disables probing (not recommended with fault
        injection: a corrupted array then fails slow, not fast).
    digital_fallback:
        ``"reference"`` / ``"scipy"`` rung after analog attempts are
        exhausted, or ``None`` to report the failure.
    max_drains:
        Drain/recover cycles before a pool member is retired.
    breaker:
        Per-pool-member circuit-breaker policy, or ``None`` to disable
        breakers.
    degradation:
        Brownout policy watching the sliding failure-rate window, or
        ``None`` to always run the full pipeline.
    backoff:
        Retry-backoff policy for requeued jobs, or ``None`` for
        immediate requeue with no delay accounting.
    deadline_s:
        Default per-job wall-clock budget (seconds from first
        dispatch); a spec's own ``deadline_s`` overrides it.  ``None``
        means unbounded.
    campaign:
        Chaos campaign fired at dispatch indices, or ``None`` for a
        fault-free run.
    workers:
        Dispatcher worker threads draining the queue.  ``1`` (the
        default) runs the serial scheduler with its byte-identical
        replay guarantee; ``> 1`` runs a
        :class:`~repro.service.dispatch.ConcurrentDispatcher` that
        overlaps attempts across IDLE pool members (deterministic
        per-attempt results, timing-dependent completion order).
    executor:
        Where a concurrent attempt's numeric solve runs: ``"thread"``
        (in the worker thread — simple, but the GIL serializes the
        Python-loop-heavy PDIP iterations) or ``"process"`` (a
        pre-warmed worker-process pool — true parallel solves;
        operator state round-trips by pickling).  Ignored when
        ``workers == 1``.
    tenants:
        Per-tenant :class:`~repro.service.queue.TenantPolicy` entries
        (weights, in-flight caps, queue caps) for the queue's weighted
        fair scheduler.  Tenants not listed get defaults (weight 1, no
        caps); the empty default means single-tenant behaviour.
    presolve:
        Screen every job's problem through the presolve reduction
        pipeline (:mod:`repro.presolve`) at first dispatch: a detected
        infeasibility certificate finalizes the job as INFEASIBLE with
        failure reason ``INFEASIBLE_PRESOLVE`` and *zero* crossbar
        programming, instead of burning a full structural program on a
        doomed instance.  The screen is deterministic and conclusive,
        so records stay replayable.
    warm_start:
        Warm-start re-solve (:class:`~repro.service.jobs.ResolveSpec`)
        attempts from the base job's stored optimum
        (:mod:`repro.core.warmstart`) on their first attempt; retries
        always run the seeded cold start.  Disabling it is the control
        arm of the re-solve benchmark.
    device_latency_s:
        Hardware-in-the-loop emulation: each analog attempt occupies
        its pool member for this many extra wall-clock seconds after
        the simulated solve, modeling the fixed settle/readout time a
        host spends blocked on a *physical* crossbar array.  The wait
        releases the GIL, so it is the honest workload for measuring
        dispatcher overlap (capacity planning for real hardware, where
        solve wall-time is array time, not host CPU).  ``0`` (the
        default) disables it; it never changes records or traces —
        only wall-clock.
    """

    pool_size: int = 2
    queue_depth: int = 64
    max_attempts: int = 3
    cache_enabled: bool = True
    batch_by_fingerprint: bool = True
    base_seed: int = 0
    settings: CrossbarSolverSettings = dataclasses.field(
        default_factory=default_serving_settings
    )
    probe: ProbePolicy | None = dataclasses.field(
        default_factory=ProbePolicy
    )
    digital_fallback: str | None = None
    max_drains: int = 2
    breaker: BreakerPolicy | None = dataclasses.field(
        default_factory=BreakerPolicy
    )
    degradation: DegradationPolicy | None = dataclasses.field(
        default_factory=DegradationPolicy
    )
    backoff: BackoffPolicy | None = dataclasses.field(
        default_factory=BackoffPolicy
    )
    deadline_s: float | None = None
    campaign: FaultCampaign | None = None
    workers: int = 1
    executor: str = "thread"
    tenants: tuple[TenantPolicy, ...] = ()
    presolve: bool = True
    warm_start: bool = True
    device_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}; expected 'thread' "
                f"or 'process'"
            )
        if self.device_latency_s < 0:
            raise ValueError("device_latency_s must be non-negative")


@dataclasses.dataclass(frozen=True)
class JobAttempt:
    """One analog (or fallback) attempt of one job.

    ``tier`` is the degradation tier the attempt ran under,
    ``backoff_s`` the (deterministic, seeded) retry delay charged
    after the attempt failed, and ``injected_fault`` the chaos fault
    injected into the member *while this attempt was in flight* —
    post-mortem attribution that the failure was the fault's doing.

    ``energy_j`` is the attempt's estimated energy, priced by the
    Fig. 7 cost model (:func:`~repro.costmodel.energy.estimate_energy`)
    from the engine's op counts and the operator's writes since
    placement — so a cold placement's full structural program is
    charged to the attempt that caused it.  Derived purely from
    deterministic counters, it replays byte-identically and is safe to
    serialize.

    ``program_cells`` isolates the *placement* cost within
    ``cells_written``: the cells written while acquiring the member
    (full structural program on a cold placement, 0 on a warm one) as
    opposed to the per-iteration diagonal rewrites.  The re-solve
    tier's "warm re-solves write zero programming cells" guarantee is
    asserted against exactly this field.
    """

    index: int
    member: int | None
    warm: bool
    seed: int | None
    status: str
    failure_reason: str
    iterations: int
    cells_written: int
    tier: int = 0
    backoff_s: float = 0.0
    injected_fault: str | None = None
    energy_j: float = 0.0
    program_cells: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form (nested in the job's JSONL record)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class JobRecord:
    """Final outcome of one job, with its full attempt history.

    ``elapsed_seconds`` (first dispatch to completion, wall-clock) and
    ``queue_wait_s`` (admission to first dispatch) are deliberately
    **excluded** from :meth:`to_dict`: the JSONL record stream is part
    of the determinism contract — identical seed and scenario must
    produce byte-identical records — and wall-clock never replays.
    Latency reporting reads the attributes directly.  ``energy_j``
    (the sum of per-attempt cost-model estimates) *is* serialized:
    it derives only from deterministic op counters.
    """

    spec: JobSpec
    result: SolverResult
    attempts: tuple[JobAttempt, ...]
    member: int | None
    warm: bool
    requeues: int
    fallback: bool = False
    elapsed_seconds: float = 0.0
    queue_wait_s: float = 0.0
    energy_j: float = 0.0

    @property
    def success(self) -> bool:
        """Whether the job's final result is conclusive."""
        return self.result.success

    def to_dict(self) -> dict:
        """JSONL-ready summary (the ``repro batch`` output record)."""
        return {
            "job_id": self.spec.job_id,
            "base_job_id": getattr(self.spec, "base_job_id", None),
            "group": self.spec.group,
            "kind": self.spec.kind,
            "constraints": self.spec.constraints,
            "priority": self.spec.priority,
            "status": self.result.status.value,
            "failure_reason": self.result.failure_reason.value,
            "objective": float(self.result.objective),
            "iterations": self.result.iterations,
            "member": self.member,
            "warm": self.warm,
            "requeues": self.requeues,
            "fallback": self.fallback,
            "energy_j": self.energy_j,
            "message": self.result.message,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
        }


@dataclasses.dataclass(frozen=True)
class ServiceSummary:
    """Batch-level throughput and cache accounting."""

    jobs: int
    succeeded: int
    failed: int
    warm_acquires: int
    cold_acquires: int
    requeues: int
    fallbacks: int
    cells_written: int
    elapsed_seconds: float
    energy_j: float = 0.0
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Warm share of analog placements (0 when none happened)."""
        placements = self.warm_acquires + self.cold_acquires
        return self.warm_acquires / placements if placements else 0.0

    @property
    def jobs_per_second(self) -> float:
        """Batch throughput (0 when no wall-clock elapsed)."""
        return (
            self.jobs / self.elapsed_seconds
            if self.elapsed_seconds > 0
            else 0.0
        )

    def render(self) -> str:
        """Human-readable block for the CLI."""
        return "\n".join(
            [
                f"jobs:          {self.jobs} "
                f"({self.succeeded} ok, {self.failed} failed)",
                f"placements:    {self.warm_acquires} warm, "
                f"{self.cold_acquires} cold "
                f"(cache hit rate {self.cache_hit_rate:.1%})",
                f"reschedules:   {self.requeues} requeues, "
                f"{self.fallbacks} digital fallbacks",
                f"cells written: {self.cells_written}",
                f"latency:       p50 {self.latency_p50_s * 1e3:.1f} ms, "
                f"p99 {self.latency_p99_s * 1e3:.1f} ms",
                f"energy:        {self.energy_j:.3g} J total "
                f"({self.energy_j / self.jobs if self.jobs else 0.0:.3g} "
                f"J/job)",
                f"throughput:    {self.jobs_per_second:.2f} jobs/s "
                f"({self.elapsed_seconds:.2f} s)",
            ]
        )


@dataclasses.dataclass
class _WorkItem:
    """One dispatched attempt in flight between the scheduler phases.

    ``_dispatch`` fills the placement fields under the service lock,
    ``_execute`` (or the dispatcher's process-executor path) fills the
    outcome fields lock-free, and ``_conclude`` releases the member and
    folds everything back into the scheduler under the lock.  Owned by
    exactly one worker from dispatch to conclusion — never shared
    across threads.
    """

    pending: PendingJob
    index: int
    problem: object
    settings: CrossbarSolverSettings
    tier: DegradationTier
    fingerprint: str
    mode: str = "analog"  # "analog" | "brownout"
    seed: int | None = None
    rng: np.random.Generator | None = None
    solver: CrossbarPDIPSolver | None = None
    programmer: object | None = None
    member: PoolMember | None = None
    warm: bool = False
    remote: bool = False
    #: Whether the attempt records trace events (the service tracer
    #: records, so it absorbs them at conclusion).
    record: bool = False
    job_tracer: Tracer = NOOP
    span: object | None = None
    #: Warm-start iterates for a re-solve's first attempt, or None.
    initial_state: tuple | None = None
    # Outcome, filled by the execute phase:
    #: Cells written while *acquiring* the member (0 on warm placement).
    program_cells: int = 0
    result: SolverResult | None = None
    operator: object | None = None  # child-returned state (remote)
    cells: int = 0
    energy_j: float = 0.0
    events: list | None = None


def attempt_tracer(record: bool) -> Tracer:
    """A served attempt's private tracer: recording only when the
    service tracer records (it alone reads the events), else ``NOOP``."""
    return RecordingTracer() if record else NOOP


def attempt_solver(
    problem: LinearProgram,
    settings: CrossbarSolverSettings,
    rng: np.random.Generator,
    probe: ProbePolicy | None,
    tracer: Tracer,
    deadline: Deadline | None = None,
) -> CrossbarPDIPSolver:
    """The solver of one served attempt: no recovery ladder.

    Rescheduling is the service's concern, so the attempt gets one try
    gated by the health ``probe``.
    """
    return CrossbarPDIPSolver(
        problem,
        settings,
        rng=rng,
        recovery=RecoveryPolicy(
            reprograms=0, remaps=0, digital_fallback=None, probe=probe
        ),
        tracer=tracer,
        deadline=deadline,
    )


def program_operator(
    problem: LinearProgram,
    settings: CrossbarSolverSettings,
    probe: ProbePolicy | None,
    rng: np.random.Generator,
    tracer: Tracer,
) -> AnalogMatrixOperator:
    """Program a fresh operator for ``problem`` (a cold placement):
    bound to a job by :func:`functools.partial`, the pool's
    ``programmer(rng, tracer)``."""
    solver = attempt_solver(problem, settings, rng, probe, tracer)
    return solver.build_operator(rng)


def job_span(tracer: Tracer, spec: JobSpec, index: int, fingerprint: str):
    """The ``service.job`` span one served attempt runs under."""
    return tracer.span(
        "service.job",
        job_id=spec.job_id,
        group=spec.group,
        kind=spec.kind,
        attempt=index,
        fingerprint=fingerprint,
    )


#: Where a cold attempt's writes count from: the fresh operator's
#: whole history, its structural program included, is the attempt's.
_NO_WRITES = WriteReport(0, 0, 0.0, 0.0)


def run_served_attempt(
    solver: CrossbarPDIPSolver,
    operator: AnalogMatrixOperator,
    warm: bool,
    span,
    *,
    initial_state: tuple | None,
) -> tuple[SolverResult, int, int, float]:
    """Solve one just-placed attempt with crash isolation, then price it.

    The attempt body both executors share.  Returns ``(result,
    cells_written, program_cells, energy_j)``, all from the engine's
    own totals: the cells are the operator's writes since placement (a
    cold placement's structural program included, which is also
    ``program_cells``; a warm one writes nothing), and the energy is
    the Fig. 7 estimate of the result's op counts with those writes.
    A crash becomes a failed result with zero energy.
    """
    baseline = operator.write_report if warm else _NO_WRITES
    program_cells = (operator.write_report - baseline).cells_written
    try:
        result = solver.solve_on(operator, initial_state=initial_state)
    except Exception as exc:  # noqa: BLE001 - isolation
        result = _failed_result(
            solver.problem,
            f"attempt crashed: {type(exc).__name__}: {exc}",
            FailureReason.SINGULAR_SYSTEM,
        )
    span.set(status=result.status.value)
    writes = operator.write_report - baseline
    energy_j = 0.0
    if result.crossbar is not None:
        counters = dataclasses.replace(
            result.crossbar,
            cells_written=writes.cells_written,
            write_energy_j=writes.energy_j,
        )
        energy_j = estimate_energy(
            dataclasses.replace(result, crossbar=counters),
            solver.settings.device,
        ).total_j
    return result, writes.cells_written, program_cells, energy_j


def _failed_result(
    problem, message: str, reason: FailureReason
) -> SolverResult:
    """A synthetic failure record when no solver ran (or one crashed)."""
    m, n = problem.A.shape
    return SolverResult(
        status=SolveStatus.NUMERICAL_FAILURE,
        x=np.zeros(n),
        y=np.zeros(m),
        w=np.zeros(m),
        z=np.zeros(n),
        objective=0.0,
        iterations=0,
        message=message,
        failure_reason=reason,
    )


class SolverService:
    """Scheduler over a crossbar fleet: serial or concurrent.

    With ``config.workers == 1`` this is the serial, deterministic
    scheduler (byte-identical replay); with more workers, ``drain`` /
    ``batch`` hand the same three scheduler phases to a
    :class:`~repro.service.dispatch.ConcurrentDispatcher`.

    ``telemetry`` is the one store of the service's numbers; a
    default :class:`~repro.service.telemetry.ServiceTelemetry` on
    ``clock`` is built when none is passed, so :attr:`telemetry` is
    never ``None`` and the service keeps one clock.

    Thread safety: ``submit`` / ``try_submit`` are safe from any
    thread (front-door handlers call them directly); everything else
    is driven either by the single serial caller or by dispatcher
    workers that hold :attr:`lock` around the scheduler phases.  The
    pool shares this same lock, so pool transitions, queue decisions,
    registry writes and tracer emission all serialize together;
    :attr:`work_ready` is the one condition over it, so an admission
    from any thread wakes an idle dispatcher worker at once.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        tracer: Tracer | None = None,
        telemetry: ServiceTelemetry | None = None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.tracer = tracer if tracer is not None else NOOP
        self.telemetry = (
            telemetry
            if telemetry is not None
            else ServiceTelemetry(clock=clock)
        )
        self.clock = clock
        #: The service-wide scheduler lock: admission, dispatch,
        #: conclusion, pool transitions, registry writes and all
        #: service-tracer emission happen under it.  Solves never
        #: hold it.
        self.lock = threading.RLock()
        #: The one condition over :attr:`lock`, notified (lock held)
        #: whenever work may have become dispatchable: admission here;
        #: conclusion, requeue, a freed in-flight cap, a worker failure
        #: and shutdown in the dispatcher.  Dispatcher workers and the
        #: backpressured producer sleep on it.
        self.work_ready = threading.Condition(self.lock)
        self.pool = CrossbarPool(
            self.config.pool_size,
            probe=self.config.probe,
            max_drains=self.config.max_drains,
            rng=np.random.default_rng(
                attempt_seed(self.config.base_seed, "__pool__", 0)
            ),
            tracer=self.tracer,
            breaker=self.config.breaker,
            registry=self.telemetry.registry,
            on_breaker_transition=self.telemetry.on_breaker,
            lock=self.lock,
        )
        self.queue = JobQueue(
            self.config.queue_depth, tenants=self.config.tenants
        )
        self.degradation = (
            DegradationController(
                self.config.degradation,
                registry=self.telemetry.registry,
                on_transition=self.telemetry.on_tier,
            )
            if self.config.degradation is not None
            else None
        )
        #: Scheduler steps taken so far; chaos-campaign events fire on
        #: this index *before* the step's job is popped.
        self._dispatched = 0
        # Re-solve tier state (all guarded by the service lock).  The
        # catalog and problem/optimum stores are grow-only: a rolling
        # horizon may chain a resolve off any earlier job, so ancestry
        # must stay resolvable for the life of the service.
        self._catalog: dict[str, JobSpec | ResolveSpec] = {}
        self._problems: dict[str, LinearProgram] = {}
        self._optima: dict[str, SolverResult] = {}
        # Last observed cold programming cost per fingerprint — what a
        # warm re-solve *saved* (the cells-saved registry counter).
        self._program_cost: dict[str, int] = {}
        self._resolve_counter = 0
        # Fingerprint of the most recently attempted job: the batching
        # scheduler prefers it on the next pop, so same-structure jobs
        # run back to back on a warm member.
        self._last_fingerprint: str | None = None

    # -- admission -----------------------------------------------------------

    def submit(self, spec: JobSpec | ResolveSpec) -> PendingJob:
        """Admit one job; raises
        :class:`~repro.exceptions.QueueFullError` at a depth bound.

        Accepts :class:`~repro.service.jobs.ResolveSpec` too — a
        resolve whose ``base_job_id`` was never admitted raises
        :class:`~repro.exceptions.UnknownJobError`, and one whose
        ``b`` / ``c`` do not fit the base problem raises
        ``ValueError``; either way nothing is queued.  An admitted job
        wakes an idle dispatcher worker.  Thread-safe (atomic under the
        service lock); the front door calls it from handler threads.
        """
        with self.lock:
            spec, problem = self._normalize(spec)
            pending = self.queue.submit(spec)
            self._admit(pending, problem)
            return pending

    def try_submit(self, spec: JobSpec | ResolveSpec) -> PendingJob | None:
        """Non-raising :meth:`submit`; ``None`` when a bound rejects.

        An unknown ``base_job_id`` (or a wrongly shaped ``b`` / ``c``)
        on a resolve still raises, as in :meth:`submit` — that is a
        client error, not admission backpressure.  Thread-safe (atomic
        under the service lock).
        """
        with self.lock:
            spec, problem = self._normalize(spec)
            pending = self.queue.try_submit(spec)
            if pending is not None:
                self._admit(pending, problem)
            return pending

    def resolve(
        self,
        base_job_id: str,
        new_b=None,
        new_c=None,
        *,
        job_id: str | None = None,
        perturb: float = 0.0,
        priority: int | None = None,
        tenant: str | None = None,
        deadline_s: float | None = None,
        max_attempts: int | None = None,
    ) -> PendingJob:
        """Admit a parameter-only re-solve of an already-admitted job.

        Builds a :class:`~repro.service.jobs.ResolveSpec` against
        ``base_job_id`` (which may itself be an earlier resolve — the
        rolling-horizon chain), inheriting the base's structure,
        priority, and tenant unless overridden, and admits it through
        :meth:`submit`.  ``new_b`` / ``new_c`` replace the parameter
        vectors; ``perturb`` applies the seeded drift instead.  The
        scheduler then routes the job to the pool member already
        holding the structure's fingerprint (zero programming) and
        warm-starts the PDIP iterates from the base's stored optimum.

        Raises :class:`~repro.exceptions.UnknownJobError` for an
        unknown base, ``ValueError`` when ``new_b`` / ``new_c`` do not
        fit the base problem, and
        :class:`~repro.exceptions.QueueFullError` at the admission
        bound.
        """
        with self.lock:
            base = self._catalog.get(base_job_id)
            if base is None:
                raise UnknownJobError(
                    f"resolve names unknown base job {base_job_id!r}"
                )
            self._resolve_counter += 1
            spec = ResolveSpec(
                job_id=(
                    job_id
                    if job_id is not None
                    else f"{base_job_id}~r{self._resolve_counter:04d}"
                ),
                base_job_id=base_job_id,
                constraints=base.constraints,
                group=base.group,
                kind=base.kind,
                priority=base.priority if priority is None else priority,
                tenant=base.tenant if tenant is None else tenant,
                variation=base.variation,
                deadline_s=deadline_s,
                max_attempts=max_attempts,
                b=(
                    tuple(float(v) for v in np.asarray(new_b).ravel())
                    if new_b is not None
                    else None
                ),
                c=(
                    tuple(float(v) for v in np.asarray(new_c).ravel())
                    if new_c is not None
                    else None
                ),
                perturb=perturb,
            )
            return self.submit(spec)

    def _normalize(
        self, spec: JobSpec | ResolveSpec
    ) -> tuple[JobSpec | ResolveSpec, LinearProgram | None]:
        """Check a spec before admission; returns ``(spec, problem)``.

        A plain :class:`JobSpec` passes through with no problem (it is
        built at admission or first dispatch).  A :class:`ResolveSpec`
        may arrive from a JSONL line carrying default (or stale)
        structure fields; the admitted spec always takes
        ``constraints`` / ``group`` / ``kind`` / ``variation`` from the
        base job so it can never name a structure other than the one
        whose array it reuses, and its problem is built here, before
        the queue sees the job.  Raises
        :class:`~repro.exceptions.UnknownJobError` when the base was
        never admitted and ``ValueError`` when ``b`` / ``c`` do not fit
        the base problem.  Caller holds the service lock.
        """
        if not isinstance(spec, ResolveSpec):
            return spec, None
        base = self._catalog.get(spec.base_job_id)
        if base is None:
            raise UnknownJobError(
                f"resolve {spec.job_id!r} names unknown base job "
                f"{spec.base_job_id!r}"
            )
        spec = dataclasses.replace(
            spec,
            constraints=base.constraints,
            group=base.group,
            kind=base.kind,
            variation=base.variation,
        )
        problem = build_resolve_problem(
            spec, self._problem_for(spec.base_job_id), self.config.base_seed
        )
        return spec, problem

    def _admit(
        self, pending: PendingJob, problem: LinearProgram | None
    ) -> None:
        """Post-admission bookkeeping shared by both submit paths; ends
        by waking the dispatcher (caller holds the service lock)."""
        pending.submitted_s = self.clock()
        spec = pending.spec
        self._catalog[spec.job_id] = spec
        if isinstance(spec, ResolveSpec):
            pending.problem = problem
        self._stamp_fingerprint(pending)
        if pending.problem is not None:
            self._problems[spec.job_id] = pending.problem
        self.telemetry.on_submit(spec)
        self.work_ready.notify_all()

    def _problem_for(self, job_id: str) -> LinearProgram:
        """The materialized problem of an admitted job (memoized).

        Resolve jobs store their problem at admission, so only plain
        :class:`JobSpec` bases ever need a build here.  Caller holds
        the service lock.
        """
        problem = self._problems.get(job_id)
        if problem is None:
            problem = build_problem(
                self._catalog[job_id], self.config.base_seed
            )
            self._problems[job_id] = problem
        return problem

    def _stamp_fingerprint(self, pending: PendingJob) -> None:
        """Memoize the job's structural fingerprint at admission.

        Computed once per job (the per-attempt path reuses it), and
        only when both the programming cache and batching are on —
        without them the fingerprint never influences scheduling.
        Resolve jobs arrive with their problem already materialized;
        plain jobs build it here.
        """
        config = self.config
        if not (config.cache_enabled and config.batch_by_fingerprint):
            return
        spec = pending.spec
        problem = (
            pending.problem
            if pending.problem is not None
            else build_problem(spec, config.base_seed)
        )
        pending.problem = problem
        pending.fingerprint = structural_fingerprint(
            problem, self._settings_for(spec)
        )

    # -- execution -----------------------------------------------------------

    def drain(
        self,
        *,
        on_record: Callable[[JobRecord], None] | None = None,
    ) -> list[JobRecord]:
        """Run until the queue is empty; return the completed records.

        ``on_record`` is invoked with each record as it completes —
        the hook behind live ``--stats-every`` printing (always called
        under the service lock, so the callback itself need not be
        thread-safe).  Call from one thread at a time; with
        ``workers > 1`` the concurrent dispatcher drains the queue.
        """
        if self.config.workers == 1:
            records: list[JobRecord] = []
            while self.queue:
                record = self._step()
                if record is not None:
                    records.append(record)
                    if on_record is not None:
                        on_record(record)
            return records
        from repro.service.dispatch import ConcurrentDispatcher

        return ConcurrentDispatcher(self).run(on_record=on_record)

    def batch(
        self,
        specs: Iterable[JobSpec],
        *,
        on_record: Callable[[JobRecord], None] | None = None,
    ) -> tuple[list[JobRecord], ServiceSummary]:
        """Submit a stream of jobs with backpressure and run it dry.

        When the queue bound is hit, the service makes room before
        admitting the next spec: serially by completing queued work
        inline, concurrently by blocking the producer until a
        dispatcher worker frees a slot.  ``on_record`` fires per
        completed record (under the service lock), including the
        backpressure ones.  Call from one thread at a time.
        """
        if self.config.workers == 1:
            records: list[JobRecord] = []
            with Stopwatch() as clock:
                for spec in specs:
                    while self.try_submit(spec) is None:
                        record = self._step()
                        if record is not None:
                            records.append(record)
                            if on_record is not None:
                                on_record(record)
                records.extend(self.drain(on_record=on_record))
            return records, summarize(records, clock.elapsed_seconds)
        from repro.service.dispatch import ConcurrentDispatcher

        with Stopwatch() as clock:
            records = ConcurrentDispatcher(self).run(
                specs, on_record=on_record
            )
        return records, summarize(records, clock.elapsed_seconds)

    # -- internals -----------------------------------------------------------

    def _settings_for(self, spec: JobSpec) -> CrossbarSolverSettings:
        if spec.variation > 0:
            return dataclasses.replace(
                self.config.settings,
                variation=variation_from_percent(spec.variation),
            )
        return self.config.settings

    @property
    def tier(self) -> DegradationTier:
        """Current brownout tier (NORMAL when degradation is off)."""
        return (
            self.degradation.tier
            if self.degradation is not None
            else DegradationTier.NORMAL
        )

    def _fire_campaign_events(self) -> None:
        campaign = self.config.campaign
        if campaign is None:
            return
        for position, event in enumerate(
            campaign.events_at(self._dispatched)
        ):
            self._fire_event(campaign, event, position)

    def _fire_event(
        self, campaign: FaultCampaign, event: FaultEvent, position: int
    ) -> None:
        """Apply one chaos event to the live service.

        Member ids wrap modulo the pool size, so a scenario written
        for one fleet replays on any.
        """
        campaign.fired += 1
        self.telemetry.on_chaos(event)
        if event.kind == "queue_pulse":
            # Saturation pulse: filler jobs through *admission control*
            # (try_submit), so an already-full queue sheds them — the
            # pulse pressures the bound, it never breaks it.
            for offset in range(event.jobs):
                spec = JobSpec(
                    job_id=(
                        f"pulse-{campaign.name}-{event.at_job:04d}-"
                        f"{position}-{offset:02d}"
                    ),
                    constraints=event.constraints,
                    group=1_000_000 + event.at_job,
                )
                if self.try_submit(spec) is None:
                    self.telemetry.registry.inc(
                        "service.chaos.pulse_rejected"
                    )
            return
        assert event.member is not None  # validated on construction
        member_id = event.member % len(self.pool.members)
        if event.kind == "stuck_cells":
            self.pool.inject_fault(
                member_id, event.row_fraction, sticky=event.sticky
            )
        elif event.kind == "member_death":
            # A full-array sticky fault: every reprogram re-breaks it,
            # so the member drains, fails recovery, and retires.
            self.pool.inject_fault(member_id, 1.0, sticky=True)
        elif event.kind == "drift":
            self.pool.inject_drift(member_id, event.magnitude)

    def _step(self) -> JobRecord | None:
        """Run one attempt of the next queued job (serial phase chain).

        Returns the final record if the job finished (either way), or
        ``None`` if it was requeued for another attempt.  Single-
        threaded callers only; the concurrent dispatcher drives the
        three phases itself.
        """
        dispatched = self._dispatch()
        if dispatched is None:
            raise IndexError("step on an empty job queue")
        kind, payload = dispatched
        if kind == "record":
            return payload
        self._execute(payload)
        return self._conclude(payload)

    def _dispatch(
        self,
        *,
        blocked: frozenset | set = frozenset(),
        remote: bool = False,
    ) -> tuple[str, JobRecord | _WorkItem] | None:
        """Pop and place the next attempt (the under-lock phase).

        Returns ``("record", JobRecord)`` when the job completed with
        no compute (its deadline expired in the queue, or presolve
        proved it infeasible), ``("work", item)`` when an execute phase
        must run, or ``None`` when nothing is dispatchable (queue
        empty, every backlogged tenant in ``blocked``, or every
        schedulable member BUSY until a conclusion releases one).
        ``remote`` reserves the pool member
        without programming it (the process-executor path).  The
        caller must hold the service lock (the serial path trivially
        does: it is single-threaded).
        """
        config = self.config
        if not self.queue.eligible(blocked) or self.pool.saturated():
            return None
        self._fire_campaign_events()
        self._dispatched += 1
        prefer = (
            self._last_fingerprint if config.batch_by_fingerprint else None
        )
        pending = self.queue.pop(prefer=prefer, blocked=blocked)
        if pending is None:
            return None
        spec = pending.spec
        index = len(pending.attempts)
        problem = (
            pending.problem
            if pending.problem is not None
            else build_problem(spec, config.base_seed)
        )
        base_settings = self._settings_for(spec)
        tier = self.tier

        # Arm the wall-clock budget at first dispatch: queue wait
        # before admission-to-dispatch is the caller's to bound.
        if pending.first_dispatch_s is None:
            pending.first_dispatch_s = self.clock()
            budget = (
                spec.deadline_s
                if spec.deadline_s is not None
                else config.deadline_s
            )
            if budget is not None:
                pending.deadline = Deadline(budget, clock=self.clock)

        if pending.deadline is not None and pending.deadline.expired:
            # The budget ran out while the job waited for this
            # dispatch: fail terminally, no fallback — the caller has
            # already given up on the answer.
            result = _failed_result(
                problem,
                f"deadline of {pending.deadline.budget_s:.3g}s expired "
                f"before attempt {index}",
                FailureReason.DEADLINE_EXCEEDED,
            )
            return (
                "record",
                self._finalize_memberless(pending, index, tier, result),
            )

        if config.presolve and index == 0:
            # Admission screen: a trivially-provable infeasible
            # instance is finalized here, before any placement — the
            # whole point is that the verdict costs zero programming
            # cells.  Deterministic (pure function of the problem), so
            # replay is unaffected.
            certificate = detect_infeasible(problem)
            if certificate is not None:
                result = infeasible_result(problem, certificate)
                return (
                    "record",
                    self._finalize_memberless(pending, index, tier, result),
                )

        if (
            tier is DegradationTier.DIGITAL_ONLY
            and config.digital_fallback is not None
        ):
            # Full brownout: analog is browned out, route straight to
            # the digital solver.  The outcome still feeds the window —
            # that is what lets the tier recover once the storm passes.
            # The digital solve itself is compute, so it runs in the
            # lock-free execute phase.
            return (
                "work",
                _WorkItem(
                    pending=pending,
                    index=index,
                    problem=problem,
                    settings=base_settings,
                    tier=tier,
                    fingerprint="",
                    mode="brownout",
                ),
            )

        settings = base_settings
        if (
            tier >= DegradationTier.SKIP_VERIFY
            and settings.write_verify is not None
        ):
            # Tier 1+ sheds closed-loop write-verify.  The admission-
            # stamped fingerprint (whose identity includes the verify
            # policy) is deliberately kept: nominal targets do not
            # change, so warm reuse across tiers stays valid and the
            # cache is not cold-started by a brownout.
            settings = dataclasses.replace(settings, write_verify=None)

        seed = attempt_seed(config.base_seed, spec.job_id, index)
        rng = np.random.default_rng(seed)
        if config.cache_enabled:
            fingerprint = (
                pending.fingerprint
                if pending.fingerprint is not None
                else structural_fingerprint(problem, base_settings)
            )
        else:
            # Unique per attempt: no two placements can ever match, so
            # every job pays the full structural program (control arm).
            fingerprint = f"nocache:{spec.job_id}:{index}"

        item = _WorkItem(
            pending=pending,
            index=index,
            problem=problem,
            settings=settings,
            tier=tier,
            fingerprint=fingerprint,
            seed=seed,
            rng=rng,
            programmer=functools.partial(
                program_operator, problem, settings, config.probe
            ),
            remote=remote,
            record=isinstance(self.tracer, RecordingTracer),
        )
        if (
            config.warm_start
            and index == 0
            and isinstance(spec, ResolveSpec)
        ):
            # Parameter-streaming tier: seed the interior-point
            # iterates from the base job's stored optimum.  Retries
            # (index > 0) always fall back to the cold flat start —
            # if the warm iterate stalled once, it is not retried.
            base_result = self._optima.get(spec.base_job_id)
            if base_result is not None and base_result.is_optimal:
                try:
                    item.initial_state = warm_start_state(
                        base_result, problem, settings
                    )
                except ValueError:
                    item.initial_state = None
        if remote:
            # Process-executor path: select + mark BUSY only; the
            # worker child programs / solves, the parent installs the
            # returned state at conclusion.
            item.member, item.warm = self.pool.reserve(
                fingerprint, exclude=pending.excluded_members
            )
            return ("work", item)

        job_tracer = item.job_tracer = attempt_tracer(item.record)
        item.solver = attempt_solver(
            problem, settings, rng, config.probe, job_tracer, pending.deadline
        )
        span = item.span = job_span(job_tracer, spec, index, fingerprint)
        span.__enter__()
        item.member, item.warm = self.pool.acquire(
            fingerprint,
            item.programmer,
            rng=rng,
            tracer=job_tracer,
            exclude=pending.excluded_members,
        )
        span.set(
            member=(
                item.member.member_id if item.member is not None else None
            ),
            warm=item.warm,
        )
        return ("work", item)

    def _execute(self, item: _WorkItem) -> None:
        """Run a dispatched attempt's compute (the lock-free phase).

        Covers thread-mode analog attempts and brownout fallbacks;
        the concurrent dispatcher executes ``remote`` items in a
        worker process instead.  Touches no shared scheduler state —
        the member stays BUSY until ``_conclude`` releases it — so any
        number of executes may overlap.
        """
        if item.mode == "brownout":
            item.result = run_digital_fallback(
                self.config.digital_fallback, item.problem
            )
            return
        member = item.member
        if member is not None:
            (
                item.result,
                item.cells,
                item.program_cells,
                item.energy_j,
            ) = run_served_attempt(
                item.solver,
                member.operator,
                item.warm,
                item.span,
                initial_state=item.initial_state,
            )
            if self.config.device_latency_s > 0:
                # Emulated array occupancy: the member stays BUSY for
                # the modeled hardware settle/readout window.
                time.sleep(self.config.device_latency_s)
        item.span.__exit__(None, None, None)
        if item.record:
            item.events = item.job_tracer.event_dicts()

    def _conclude(self, item: _WorkItem) -> JobRecord | None:
        """Fold an executed attempt back into the scheduler.

        Requeue-or-finalize, breaker / brownout feedback, trace
        absorption, and telemetry — everything that mutates shared
        state, in one fixed order per attempt, so a concurrent run
        accumulates its totals in exactly the completion order the
        lock serializes (the reconciliation guarantee).  Returns the
        final record, or ``None`` when the job was requeued.  The
        caller must hold the service lock.
        """
        config = self.config
        pending = item.pending
        spec = pending.spec
        index = item.index
        tier = item.tier

        if item.mode == "brownout":
            fallback = item.result
            assert fallback is not None
            self.telemetry.registry.inc("service.degradation.browned_out")
            if self.degradation is not None:
                self.degradation.record(fallback.success)
            return self._finalize_memberless(
                pending, index, tier, fallback, fallback=True
            )

        member = item.member
        warm = item.warm
        result = item.result
        if member is not None:
            # The one release site, under the lock: drain / recover,
            # breaker feedback and fault attribution below can only
            # touch this attempt's member, never a later placement.
            if item.remote:
                self.pool.install(
                    member,
                    item.operator,
                    fingerprint=item.fingerprint,
                    programmer=item.programmer,
                    rng=item.rng,
                )
            self.pool.release(member)
        if item.events:
            absorb_events(self.tracer, item.events)
        self._last_fingerprint = pending.fingerprint
        success = result is not None and result.success
        injected = (
            member.consume_inflight_fault() if member is not None else None
        )
        if member is not None:
            self.pool.note_result(member, success)
            if self.degradation is not None:
                self.degradation.record(success)

        # Retry budget: the spec's override, the service default, or —
        # under CAP_RECOVERY brownout — a single attempt.
        cap = (
            spec.max_attempts
            if spec.max_attempts is not None
            else config.max_attempts
        )
        if tier >= DegradationTier.CAP_RECOVERY:
            cap = 1
        timed_out = (
            pending.deadline is not None and pending.deadline.expired
        ) or (
            result is not None
            and result.failure_reason is FailureReason.DEADLINE_EXCEEDED
        )
        will_requeue = (
            not success
            and result is not None
            and not timed_out
            and index + 1 < cap
        )
        backoff_s = 0.0
        if will_requeue and config.backoff is not None:
            backoff_s = config.backoff.delay_s(
                config.base_seed, spec.job_id, index + 1
            )

        if member is not None and not warm and item.program_cells > 0:
            # Remember what a cold structural program of this
            # fingerprint costs, so warm placements can report exactly
            # how many cell writes they avoided.
            self._program_cost[item.fingerprint] = item.program_cells
        if isinstance(spec, ResolveSpec) and warm:
            # What this warm placement did not have to program: the
            # last cold program of its fingerprint (no record holds it).
            saved = self._program_cost.get(item.fingerprint, 0)
            if saved > 0:
                self.telemetry.registry.inc(
                    "service.resolve.cells_saved", float(saved)
                )

        pending.attempts.append(
            JobAttempt(
                index=index,
                member=member.member_id if member is not None else None,
                warm=warm,
                seed=item.seed,
                status=(
                    result.status.value if result is not None else "rejected"
                ),
                failure_reason=(
                    result.failure_reason.value
                    if result is not None
                    else FailureReason.NO_CAPACITY.value
                ),
                iterations=result.iterations if result is not None else 0,
                cells_written=item.cells,
                tier=int(tier),
                backoff_s=backoff_s,
                injected_fault=injected,
                energy_j=item.energy_j,
                program_cells=item.program_cells,
            )
        )

        if success:
            assert result is not None
            return self._finalize(
                pending,
                result,
                member=member.member_id if member is not None else None,
                warm=warm,
            )

        # Failure isolation: never run this job on the same member
        # again, and pull a probe-rejected member out for recovery.
        if member is not None:
            pending.excluded_members.add(member.member_id)
            if (
                result is not None
                and result.failure_reason is FailureReason.PROBE_UNHEALTHY
            ):
                self.pool.drain(member)
                self.pool.recover(member)

        if will_requeue:
            self.telemetry.registry.inc("service.requeues")
            self.queue.requeue(pending)
            return None

        # Analog attempts exhausted (or no member can take the job).
        # A timed-out job skips the fallback: its caller is gone.
        if config.digital_fallback is not None and not timed_out:
            fallback = run_digital_fallback(
                config.digital_fallback, item.problem
            )
            return self._finalize_memberless(
                pending, len(pending.attempts), tier, fallback, fallback=True
            )
        if result is None:
            result = _failed_result(
                item.problem,
                "no schedulable pool member (all excluded or retired)",
                FailureReason.NO_CAPACITY,
            )
        return self._finalize(
            pending,
            result,
            member=member.member_id if member is not None else None,
            warm=warm,
        )

    def _finalize_memberless(
        self,
        pending: PendingJob,
        index: int,
        tier: DegradationTier,
        result: SolverResult,
        *,
        fallback: bool = False,
    ) -> JobRecord:
        """Record an outcome no pool member produced — an expired
        deadline, a presolve verdict or a digital fallback — as the
        job's last attempt, and finalize the job (lock held)."""
        pending.attempts.append(
            JobAttempt(
                index=index,
                member=None,
                warm=False,
                seed=None,
                status=result.status.value,
                failure_reason=result.failure_reason.value,
                iterations=result.iterations,
                cells_written=0,
                tier=int(tier),
            )
        )
        return self._finalize(
            pending, result, member=None, warm=False, fallback=fallback
        )

    def _finalize(
        self,
        pending: PendingJob,
        result: SolverResult,
        *,
        member: int | None,
        warm: bool,
        fallback: bool = False,
    ) -> JobRecord:
        analog_attempts = sum(
            1 for attempt in pending.attempts if attempt.member is not None
        )
        elapsed = (
            self.clock() - pending.first_dispatch_s
            if pending.first_dispatch_s is not None
            else 0.0
        )
        queue_wait = (
            pending.first_dispatch_s - pending.submitted_s
            if pending.first_dispatch_s is not None
            and pending.submitted_s is not None
            else 0.0
        )
        energy_j = sum(attempt.energy_j for attempt in pending.attempts)
        record = JobRecord(
            spec=pending.spec,
            result=result,
            attempts=tuple(pending.attempts),
            member=member,
            warm=warm,
            requeues=max(0, analog_attempts - 1),
            fallback=fallback,
            elapsed_seconds=elapsed,
            queue_wait_s=max(queue_wait, 0.0),
            energy_j=energy_j,
        )
        if result.is_optimal:
            # The stored optimum is the warm-start source for any
            # later re-solve that names this job as its base.
            self._optima[pending.spec.job_id] = result
        # The deterministic record is fully built first, so the fold
        # below can never alter what the service did or will serialize.
        self.telemetry.on_job(
            record, queue_depth=len(self.queue), tier=int(self.tier)
        )
        return record


def summarize(
    records: Sequence[JobRecord], elapsed_seconds: float
) -> ServiceSummary:
    """Aggregate a batch's records into a :class:`ServiceSummary`."""
    warm = cold = requeues = fallbacks = 0
    cells = 0
    energy = 0.0
    for record in records:
        requeues += record.requeues
        fallbacks += 1 if record.fallback else 0
        energy += record.energy_j
        for attempt in record.attempts:
            cells += attempt.cells_written
            if attempt.member is not None:
                if attempt.warm:
                    warm += 1
                else:
                    cold += 1
    succeeded = sum(1 for record in records if record.success)
    latencies = [
        record.elapsed_seconds
        for record in records
        if record.elapsed_seconds > 0
    ]
    return ServiceSummary(
        jobs=len(records),
        succeeded=succeeded,
        failed=len(records) - succeeded,
        warm_acquires=warm,
        cold_acquires=cold,
        requeues=requeues,
        fallbacks=fallbacks,
        cells_written=cells,
        elapsed_seconds=elapsed_seconds,
        energy_j=energy,
        latency_p50_s=exact_quantile(latencies, 0.5),
        latency_p99_s=exact_quantile(latencies, 0.99),
    )
