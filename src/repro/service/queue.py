"""Bounded, tenant-aware priority job queue with fair scheduling.

The queue bounds how much work callers can park in the service
(``max_depth`` globally, :attr:`TenantPolicy.max_queued` per tenant);
:meth:`JobQueue.submit` raises
:class:`~repro.exceptions.QueueFullError` at either bound so producers
feel backpressure instead of growing an unbounded backlog.  Jobs that
are already *inside* the service and merely being rescheduled after a
member failure re-enter through :meth:`JobQueue.requeue`, which is
exempt from both bounds — admission control must never turn an
accepted job into a lost one.

Ordering is deterministic and two-level:

- **Across tenants** the queue runs deficit round robin (DRR): tenants
  are visited in first-seen order, each visit tops the tenant's
  deficit up by its :attr:`TenantPolicy.weight`, and a pop spends one
  unit of deficit — so over any backlogged interval tenant completions
  converge to the weight ratio, and no tenant can starve another
  regardless of how fast it submits.  A tenant whose sub-queue is
  empty forfeits its deficit (classic DRR: you cannot bank credit
  while idle), and a tenant in the caller's ``blocked`` set (at its
  in-flight cap) is skipped with its deficit frozen.
- **Within a tenant** the original semantics hold unchanged: a binary
  heap on ``(-priority, sequence)``.  Higher priority first; within a
  priority level, submission order (FIFO).  A requeued job keeps its
  original sequence number, so a rescheduled job does not go to the
  back of its priority level.

With a single tenant the DRR layer always elects it, so the pop order
is exactly the pre-tenancy scheduler's — the determinism contract of
``--workers 1`` replay is unchanged.

Requeues also *age*: every trip through :meth:`JobQueue.requeue` bumps
the job's effective priority by ``aging_step``.  Without aging, a
low-priority job that keeps failing on a degraded member can starve
behind a steady stream of fresh high-priority work; with it, a job
that has been rescheduled ``k`` times outranks fresh submissions up to
``base_priority + k * aging_step - 1``, bounding its wait to the work
already ahead of it at that level — starvation-free as long as
admission priorities are bounded.

Thread safety: every public method takes the queue's internal lock, so
concurrent submit / requeue / pop from dispatcher workers and front
door threads never lose or duplicate a job.  The lock covers single
calls only; multi-step invariants (e.g. "pop then mark in-flight") are
the :class:`~repro.service.service.SolverService` scheduler's to hold
under its own lock.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
from typing import Iterable, Mapping

from repro.exceptions import QueueFullError
from repro.obs.clock import Deadline
from repro.service.jobs import DEFAULT_TENANT, JobSpec


@dataclasses.dataclass(frozen=True)
class TenantPolicy:
    """Admission and fairness knobs of one tenant.

    Parameters
    ----------
    tenant:
        Tenant name (the value of :attr:`JobSpec.tenant` it governs).
    weight:
        DRR share relative to other tenants (default 1.0 — equal
        shares).  A tenant with weight 2 completes twice the jobs of a
        weight-1 tenant while both are backlogged.
    max_in_flight:
        Cap on this tenant's concurrently executing jobs, or ``None``
        for no cap.  Enforced by the service scheduler (it passes
        capped tenants as ``blocked`` to :meth:`JobQueue.pop`).
    max_queued:
        Cap on this tenant's *queued* jobs (admission bound), or
        ``None`` for the global bound only.  Requeues are exempt.

    Immutable, hence safe to share across threads.
    """

    tenant: str = DEFAULT_TENANT
    weight: float = 1.0
    max_in_flight: int | None = None
    max_queued: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 when set")
        if self.max_queued is not None and self.max_queued < 1:
            raise ValueError("max_queued must be >= 1 when set")


@dataclasses.dataclass
class PendingJob:
    """A job inside the service: its spec plus scheduling state.

    Mutable scheduling state owned by exactly one thread at a time:
    the queue while the job waits (under the queue lock), the worker
    that popped it while an attempt runs.  Never touched from two
    threads concurrently.

    Attributes
    ----------
    spec:
        The immutable job description.
    sequence:
        Admission order; the FIFO tiebreaker within a priority level.
    attempts:
        Attempt history accumulated across reschedules (the service
        appends one :class:`~repro.service.service.JobAttempt` per
        analog attempt).
    excluded_members:
        Pool member ids this job must not be placed on again (members
        it already failed on).
    fingerprint:
        Memoized structural fingerprint of the job's problem, set by
        the service at admission when fingerprint batching is on.
        ``None`` means unknown — the job never matches a ``prefer``
        filter but schedules normally otherwise.
    problem:
        Memoized materialized LP (specs only *name* problems).  Set
        alongside ``fingerprint`` so the attempt path does not derive
        the problem a second time.
    priority_boost:
        Aging credit accumulated across requeues; the heap orders on
        ``spec.priority + priority_boost`` so rescheduled jobs cannot
        starve behind fresh same-priority submissions.
    deadline:
        The job's wall-clock budget, armed at first dispatch (``None``
        until then, and forever when the job has no budget).
    first_dispatch_s:
        Clock reading at first dispatch; lets records report queueing
        and service time separately.  Never serialized.
    submitted_s:
        Clock reading at admission, stamped by the service; with
        ``first_dispatch_s`` it yields the job's queue wait.  Never
        serialized (wall-clock does not replay).
    """

    spec: JobSpec
    sequence: int
    attempts: list = dataclasses.field(default_factory=list)
    excluded_members: set = dataclasses.field(default_factory=set)
    fingerprint: str | None = None
    problem: object | None = None
    priority_boost: int = 0
    deadline: Deadline | None = None
    first_dispatch_s: float | None = None
    submitted_s: float | None = None

    @property
    def effective_priority(self) -> int:
        """Admission priority plus requeue-aging credit."""
        return self.spec.priority + self.priority_boost

    @property
    def tenant(self) -> str:
        """Tenant this job bills to (from its spec)."""
        return self.spec.tenant


class JobQueue:
    """Deterministic bounded tenant-fair priority queue.

    Thread-safe: all public methods are atomic under an internal lock
    (see module note for what the lock does *not* cover).

    Parameters
    ----------
    max_depth:
        Global admission bound across all tenants.
    aging_step:
        Effective-priority bump per requeue (0 disables aging).
    tenants:
        Per-tenant :class:`TenantPolicy` overrides, keyed by tenant
        name.  Tenants not listed get the default policy (weight 1, no
        caps), so single-tenant callers need not configure anything.
    """

    def __init__(
        self,
        max_depth: int = 64,
        *,
        aging_step: int = 1,
        tenants: Mapping[str, TenantPolicy] | Iterable[TenantPolicy] | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        if aging_step < 0:
            raise ValueError("aging_step must be non-negative")
        self.max_depth = max_depth
        self.aging_step = aging_step
        self._policies: dict[str, TenantPolicy] = {}
        if tenants is not None:
            entries = (
                tenants.values()
                if isinstance(tenants, Mapping)
                else tenants
            )
            for policy in entries:
                self._policies[policy.tenant] = policy
        self._lock = threading.RLock()
        # tenant -> heap of (-effective_priority, sequence, job); the
        # per-tenant sub-queues behind the DRR election.
        self._heaps: dict[str, list[tuple[int, int, PendingJob]]] = {}
        # DRR election state: first-seen tenant order, a cursor into
        # it, and each tenant's unspent deficit.
        self._order: list[str] = []
        self._cursor = 0
        self._deficit: dict[str, float] = {}
        self._size = 0
        self._sequence = itertools.count()

    def __len__(self) -> int:
        """Total queued jobs across all tenants."""
        with self._lock:
            return self._size

    def __bool__(self) -> bool:
        """Whether any job is queued."""
        return len(self) > 0

    @property
    def full(self) -> bool:
        """Whether the *global* bound would reject a new submission."""
        with self._lock:
            return self._size >= self.max_depth

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The effective :class:`TenantPolicy` of ``tenant``."""
        return self._policies.get(tenant, TenantPolicy(tenant=tenant))

    def eligible(self, blocked: frozenset | set = frozenset()) -> bool:
        """Whether a :meth:`pop` with this ``blocked`` set would
        return a job — i.e. some tenant outside ``blocked`` has
        backlog.  Atomic under the queue lock (advisory only: the
        answer can change as soon as the lock drops unless the caller
        serializes pops itself, as the service scheduler does).
        """
        with self._lock:
            return any(
                heap and tenant not in blocked
                for tenant, heap in self._heaps.items()
            )

    def depths(self) -> dict[str, int]:
        """``tenant -> queued jobs`` snapshot (telemetry surface)."""
        with self._lock:
            return {
                tenant: len(heap)
                for tenant, heap in self._heaps.items()
                if heap
            }

    # -- admission -----------------------------------------------------------

    def _reject_reason(self, spec: JobSpec) -> str | None:
        """Why a submission would be rejected, or ``None`` to admit."""
        if self._size >= self.max_depth:
            return (
                f"queue depth {self.max_depth} reached; drain completed "
                f"work before submitting more"
            )
        cap = self.policy_for(spec.tenant).max_queued
        if cap is not None and len(self._heaps.get(spec.tenant, ())) >= cap:
            return (
                f"tenant {spec.tenant!r} queue cap {cap} reached; drain "
                f"completed work before submitting more"
            )
        return None

    def submit(self, spec: JobSpec) -> PendingJob:
        """Admit a new job, or raise :class:`QueueFullError` at a bound."""
        with self._lock:
            reason = self._reject_reason(spec)
            if reason is not None:
                raise QueueFullError(reason)
            pending = PendingJob(spec=spec, sequence=next(self._sequence))
            self._push(pending)
            return pending

    def try_submit(self, spec: JobSpec) -> PendingJob | None:
        """Non-raising :meth:`submit`; ``None`` when a bound rejects."""
        with self._lock:
            if self._reject_reason(spec) is not None:
                return None
            return self.submit(spec)

    def requeue(self, pending: PendingJob) -> None:
        """Re-admit a rescheduled job, exempt from all depth bounds.

        Each requeue bumps the job's aging credit by ``aging_step`` so
        repeatedly-rescheduled work climbs past fresh same-priority
        submissions instead of starving behind them.
        """
        with self._lock:
            pending.priority_boost += self.aging_step
            self._push(pending)

    # -- election ------------------------------------------------------------

    def pop(
        self,
        *,
        prefer: str | None = None,
        blocked: frozenset | set = frozenset(),
    ) -> PendingJob | None:
        """Remove and return the next job under tenant-fair election.

        The DRR layer elects a tenant (see module note); within the
        elected tenant the highest-priority (then oldest) job is
        taken.  ``prefer`` names a structural fingerprint: within the
        elected tenant's *top priority level only* (batching never
        violates priority ordering), the oldest job carrying that
        fingerprint is chosen over the strict-FIFO head, so a warm
        pool member runs same-structure jobs back to back.

        ``blocked`` names tenants currently at their in-flight cap:
        their jobs stay queued and their deficit is frozen.  Returns
        ``None`` when jobs exist but every backlogged tenant is
        blocked (the caller waits for an in-flight slot); raises
        ``IndexError`` when the queue is truly empty, matching the
        pre-tenancy contract.
        """
        with self._lock:
            if self._size == 0:
                raise IndexError("pop from an empty job queue")
            tenant = self._elect(blocked)
            if tenant is None:
                return None
            return self._pop_from(tenant, prefer)

    def _elect(self, blocked) -> str | None:
        """DRR tenant election; ``None`` if all backlogged are blocked."""
        order = self._order
        eligible = [
            tenant
            for tenant in order
            if self._heaps.get(tenant) and tenant not in blocked
        ]
        if not eligible:
            return None
        # Bounded top-up loop: each round adds every eligible tenant's
        # weight to its deficit, so within ceil(1/min_weight) rounds
        # someone crosses 1.0.
        while True:
            for step in range(len(order)):
                position = (self._cursor + step) % len(order)
                tenant = order[position]
                if not self._heaps.get(tenant):
                    # Idle tenants forfeit credit (no banking).
                    self._deficit[tenant] = 0.0
                    continue
                if tenant in blocked:
                    continue
                if self._deficit[tenant] >= 1.0:
                    self._deficit[tenant] -= 1.0
                    # Stay on this tenant: it may spend the rest of
                    # its deficit on consecutive pops (DRR quantum).
                    self._cursor = position
                    return tenant
            for tenant in eligible:
                self._deficit[tenant] += self.policy_for(tenant).weight

    def _pop_from(self, tenant: str, prefer: str | None) -> PendingJob:
        heap = self._heaps[tenant]
        entry: tuple[int, int, PendingJob] | None = None
        if prefer is not None:
            top = heap[0][0]
            best: tuple[int, int, PendingJob] | None = None
            for candidate in heap:
                if candidate[0] != top:
                    continue
                if candidate[2].fingerprint == prefer and (
                    best is None or candidate[1] < best[1]
                ):
                    best = candidate
            if best is not None:
                heap.remove(best)
                heapq.heapify(heap)
                entry = best
        if entry is None:
            entry = heapq.heappop(heap)
        self._size -= 1
        return entry[2]

    def _push(self, pending: PendingJob) -> None:
        tenant = pending.tenant
        heap = self._heaps.get(tenant)
        if heap is None:
            heap = self._heaps[tenant] = []
            self._order.append(tenant)
            self._deficit.setdefault(tenant, 0.0)
        heapq.heappush(
            heap,
            (-pending.effective_priority, pending.sequence, pending),
        )
        self._size += 1
