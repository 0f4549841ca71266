"""The crossbar fleet: a pool of long-lived programmed arrays.

One-shot solvers program a fresh array per solve and throw it away.
The pool keeps ``size`` simulated physical members alive across jobs,
which is what makes the programming cache possible: a member that just
solved a job whose structural fingerprint matches the next job's is
handed out *warm* — the O(N²) structural program is skipped and only
the O(N) diagonal rewrite (already part of every solve) remains.

Member lifecycle::

    EMPTY ──program──▶ IDLE ◀──release── BUSY
                        │  ▲                ▲
              drain()   │  │ recover() ok   │ acquire()
                        ▼  │                │
                     DRAINING ──budget──▶ RETIRED
                               exhausted

``drain`` is how the service reacts to a health-probe rejection
(:mod:`repro.reliability.probe`): the member leaves the schedulable
set, ``recover`` re-programs it from its stored programmer — a fresh
physical array in simulation terms: new variation *and* fault draw,
the REMAP rung of the recovery ladder — and re-probes.  A member that
exhausts its drain budget is retired for good.  Jobs never wait on a
draining member; the service reschedules them onto other members.

On top of the drain ladder each member can carry a circuit breaker
(:class:`~repro.service.resilience.CircuitBreaker`): consecutive
placement failures trip it OPEN, the member takes no placements for a
cooldown counted in ``acquire`` ticks, then a single probe placement
(HALF_OPEN) decides whether it closes again.  The breaker catches
members that keep failing *without* tripping the health probe —
marginal arrays the drain ladder never sees — before they eat the
retry budget of every job placed on them.

Every state transition is counted once, as a ``pool.*`` series of the
pool's :class:`~repro.obs.metrics.MetricsRegistry` (the service's
telemetry registry): warm/cold placements, evictions, drains,
recoveries, retirements, injected faults, and breaker transitions.

Thread safety: every public method is atomic under the pool's lock.
The concurrent service passes its *own* scheduler lock in, so pool
transitions, registry writes, and queue decisions serialize on one
lock — a BUSY member is then touched by exactly one worker until
released.  The lock covers bookkeeping, not the solve: compute on an
acquired member runs lock-free (the member is BUSY, so no other
worker selects it).  For process-backed execution the placement is
split into :meth:`CrossbarPool.reserve` (select + mark BUSY, no
programming) and :meth:`CrossbarPool.install` (adopt the operator
state the worker process returned).
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Callable

import numpy as np

from repro.crossbar.ops import AnalogMatrixOperator
from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.probe import ProbePolicy, probe_operator
from repro.service.resilience import (
    BREAKER_STATE_GAUGE,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
)

#: Builds (and fully programs) an operator: ``programmer(rng, tracer)``.
#: The pool stores the last programmer per member so ``recover`` can
#: rebuild the member without knowing anything about LPs.
Programmer = Callable[[np.random.Generator, Tracer], AnalogMatrixOperator]


class MemberState(enum.Enum):
    """Lifecycle state of one pool member."""

    #: Never programmed; first acquire programs it.
    EMPTY = "empty"
    #: Programmed and schedulable.
    IDLE = "idle"
    #: Currently executing a job.
    BUSY = "busy"
    #: Pulled from scheduling after a probe rejection; awaiting recover.
    DRAINING = "draining"
    #: Drain budget exhausted; permanently out of the fleet.
    RETIRED = "retired"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PoolMember:
    """One simulated physical array plus its scheduling metadata."""

    def __init__(self, member_id: int) -> None:
        self.member_id = member_id
        self.state = MemberState.EMPTY
        self.operator: AnalogMatrixOperator | None = None
        self.fingerprint: str | None = None
        self.programmer: Programmer | None = None
        self.drains = 0
        self.last_used = -1
        #: Pending chaos fault: ``(row_fraction, sticky)``.  Applied to
        #: the current operator immediately and — when sticky — after
        #: every reprogram, modelling a hard defect of the physical
        #: member rather than of one programming.
        self.pending_fault: tuple[float, bool] | None = None
        #: Per-member circuit breaker (``None`` when breakers are off).
        self.breaker: CircuitBreaker | None = None
        #: Fault injected while this member was BUSY, as a short label
        #: (e.g. ``"stuck_off:0.5:sticky"``).  The service consumes it
        #: when the in-flight job's attempt concludes, so post-mortems
        #: can attribute that attempt's failure to the injection.
        self.inflight_fault: str | None = None
        #: Whether the member's in-flight attempt executes in a worker
        #: *process* (its operator state lives in the child until
        #: :meth:`CrossbarPool.install`).  Faults injected meanwhile
        #: are deferred as ``pending_fault`` so they land on the
        #: member when the attempt returns instead of being silently
        #: overwritten by the child's state.
        self.remote_inflight = False

    def consume_inflight_fault(self) -> str | None:
        """Pop the fault label injected while the member was BUSY."""
        fault, self.inflight_fault = self.inflight_fault, None
        return fault

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PoolMember(id={self.member_id}, state={self.state}, "
            f"fingerprint={self.fingerprint!r}, drains={self.drains})"
        )


class CrossbarPool:
    """A fleet of :class:`PoolMember` arrays with warm placement.

    Parameters
    ----------
    size:
        Number of members.
    probe:
        Health-probe policy ``recover`` applies before returning a
        member to service; ``None`` skips the re-probe (the next job's
        own probe still gates it).
    max_drains:
        Drain/recover cycles a member survives before retirement.
    rng:
        Generator driving recovery-time reprogram draws.
    tracer:
        Tracer a recovery reprogram writes its engine events to.
    breaker:
        Per-member circuit-breaker policy; ``None`` disables breakers
        (every member always passes the breaker gate).
    registry:
        Where the ``pool.*`` counters and the ``pool.breaker.state``
        gauge are written; ``None`` creates a private registry.
    on_breaker_transition:
        Optional ``(member_id, old, new, tick)`` callback invoked on
        every breaker state change, *after* the ``pool.breaker.*``
        series are written — the serving layer's flight-recorder hook
        (state strings, e.g. ``"closed" -> "open"``).
    lock:
        Re-entrant lock all public methods take; the concurrent
        service passes its scheduler lock so pool transitions and
        scheduling decisions serialize together (and registry writes
        stay single-threaded).  ``None`` creates a private lock.
    """

    def __init__(
        self,
        size: int,
        *,
        probe: ProbePolicy | None = None,
        max_drains: int = 2,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
        breaker: BreakerPolicy | None = None,
        registry: MetricsRegistry | None = None,
        on_breaker_transition: Callable[
            [int, str, str, int], None
        ] | None = None,
        lock: threading.RLock | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be positive")
        if max_drains < 0:
            raise ValueError("max_drains must be non-negative")
        self._lock = lock if lock is not None else threading.RLock()
        self.probe = probe
        self.max_drains = max_drains
        self.rng = rng if rng is not None else np.random.default_rng()
        self.tracer = tracer if tracer is not None else NOOP
        self.registry = registry if registry is not None else MetricsRegistry()
        self.members = [PoolMember(index) for index in range(size)]
        self._ticks = itertools.count()
        self._acquires = 0
        self.on_breaker_transition = on_breaker_transition
        if breaker is not None:
            for member in self.members:
                member.breaker = CircuitBreaker(breaker)

    def _breaker_call(
        self, member: PoolMember, call: Callable[[int], object], tick: int
    ):
        """Run one breaker method at ``tick`` and count the transition
        it made, if any (lock held).

        The pool counts after the call instead of handing each breaker
        a callback closed over the pool, which would make every
        pool -> member -> breaker chain a reference cycle.
        """
        transitions = member.breaker.transitions
        seen = len(transitions)
        outcome = call(tick)
        for at, old, new in transitions[seen:]:
            if new is BreakerState.OPEN:
                name = (
                    "pool.breaker.reopened"
                    if old is BreakerState.HALF_OPEN
                    else "pool.breaker.opened"
                )
            elif new is BreakerState.HALF_OPEN:
                name = "pool.breaker.half_open"
            else:
                name = "pool.breaker.closed"
            self.registry.inc(name)
            self.registry.set_gauge(
                "pool.breaker.state",
                float(BREAKER_STATE_GAUGE[new]),
                labels={"member": str(member.member_id)},
            )
            if self.on_breaker_transition is not None:
                self.on_breaker_transition(
                    member.member_id, old.value, new.value, at
                )
        return outcome

    # -- placement -----------------------------------------------------------

    def acquire(
        self,
        fingerprint: str,
        programmer: Programmer,
        *,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
        exclude: frozenset | set = frozenset(),
    ) -> tuple[PoolMember | None, bool]:
        """Place a job: returns ``(member, warm)`` or ``(None, False)``.

        Placement preference: an IDLE member already programmed with
        ``fingerprint`` (warm — most recently used wins, keeping the
        working set hot), else an EMPTY member (cold program), else
        the least-recently-used IDLE member (cold: its previous
        program is *evicted*).  Members in ``exclude`` — typically
        ones the job already failed on — and members not schedulable
        (BUSY / DRAINING / RETIRED) are never chosen; if nothing is
        left, ``(None, False)`` tells the caller to fall back or fail.

        Cold placements call ``programmer(rng, tracer)`` so the full
        structural write lands in the *job's* trace; warm placements
        re-attach ``rng`` and ``tracer`` to the existing operator so
        the job's diagonal writes and variation draws stay
        deterministic per attempt and attributed per job.

        Atomic under the pool lock.  Note that a cold placement's
        programming runs *inside* the lock — the thread-executor
        concurrent mode therefore serializes cold programs (a one-off
        cost while the fleet warms up); the process executor programs
        in the worker child via :meth:`reserve` / :meth:`install`
        instead.
        """
        with self._lock:
            job_tracer = tracer if tracer is not None else NOOP
            member, warm = self._select(fingerprint, exclude)
            if member is None:
                return None, False
            if warm:
                operator = member.operator
                assert operator is not None
                operator.rng = rng
                operator.tracer = job_tracer
            else:
                member.operator = programmer(rng, job_tracer)
                member.fingerprint = fingerprint
                member.programmer = programmer
                self._apply_pending_fault(member, rng)
            self._mark_busy(member)
            return member, warm

    def reserve(
        self,
        fingerprint: str,
        *,
        exclude: frozenset | set = frozenset(),
    ) -> tuple[PoolMember | None, bool]:
        """Select and mark a member BUSY *without* programming it.

        The process-executor placement path: selection (and its
        counts) matches :meth:`acquire` exactly, but programming is
        deferred to the worker child — a cold reservation evicts the
        member's old program immediately and leaves ``operator`` as
        ``None`` until :meth:`install`; a warm reservation keeps the
        operator attached so the caller can snapshot its state for
        shipping.  Atomic under the pool lock.
        """
        with self._lock:
            member, warm = self._select(fingerprint, exclude)
            if member is None:
                return None, False
            if not warm:
                member.operator = None
                member.fingerprint = None
                member.programmer = None
            member.remote_inflight = True
            self._mark_busy(member)
            return member, warm

    def install(
        self,
        member: PoolMember,
        operator: AnalogMatrixOperator | None,
        *,
        fingerprint: str,
        programmer: Programmer,
        rng: np.random.Generator,
    ) -> None:
        """Adopt the operator state a worker process returned.

        Completes a :meth:`reserve`: the member takes the (possibly
        mutated) operator back, records the fingerprint it now holds,
        and stores a parent-side ``programmer`` so :meth:`recover` can
        rebuild it later.  A fault injected while the attempt was in
        flight is applied now (see ``PoolMember.remote_inflight``).
        Atomic under the pool lock; call before :meth:`release`.
        """
        with self._lock:
            member.remote_inflight = False
            if operator is None:
                return
            member.operator = operator
            member.fingerprint = fingerprint
            member.programmer = programmer
            self._apply_pending_fault(member, rng)

    def _select(
        self, fingerprint: str, exclude: frozenset | set
    ) -> tuple[PoolMember | None, bool]:
        """Shared placement choice of :meth:`acquire` / :meth:`reserve`.

        Caller holds the pool lock.
        """
        self._acquires += 1
        tick = self._acquires
        candidates = []
        for member in self.members:
            if member.member_id in exclude or member.state not in (
                MemberState.EMPTY,
                MemberState.IDLE,
            ):
                continue
            if member.breaker is not None and not self._breaker_call(
                member, member.breaker.allow, tick
            ):
                self.registry.inc("pool.breaker.rejections")
                continue
            candidates.append(member)
        if not candidates:
            self.registry.inc("pool.placement_failures")
            return None, False

        warm_hits = [
            member
            for member in candidates
            if member.state is MemberState.IDLE
            and member.fingerprint == fingerprint
        ]
        if warm_hits:
            self.registry.inc("pool.acquire_warm")
            return max(warm_hits, key=lambda m: m.last_used), True
        empty = [
            member
            for member in candidates
            if member.state is MemberState.EMPTY
        ]
        if empty:
            member = empty[0]
        else:
            member = min(candidates, key=lambda m: m.last_used)
            self.registry.inc("pool.evictions")
        self.registry.inc("pool.acquire_cold")
        return member, False

    def _mark_busy(self, member: PoolMember) -> None:
        """Transition a selected member into BUSY (lock held)."""
        member.state = MemberState.BUSY
        member.last_used = next(self._ticks)

    def release(self, member: PoolMember) -> None:
        """Return a BUSY member to the schedulable set.

        A member whose reservation never got an operator installed
        (the attempt found no capacity or crashed before programming)
        goes back to EMPTY rather than IDLE.  Atomic under the pool
        lock.
        """
        with self._lock:
            if member.state is not MemberState.BUSY:
                raise ServiceError(
                    f"cannot release member {member.member_id} in state "
                    f"{member.state}"
                )
            member.remote_inflight = False
            member.state = (
                MemberState.IDLE
                if member.operator is not None
                else MemberState.EMPTY
            )

    def saturated(self) -> bool:
        """Whether placement must wait: no member is EMPTY or IDLE and
        at least one is BUSY, so a placement now would fail where one
        after the next release could succeed.  Atomic under the pool
        lock."""
        with self._lock:
            states = {member.state for member in self.members}
            return MemberState.BUSY in states and not (
                states & {MemberState.EMPTY, MemberState.IDLE}
            )

    def note_result(self, member: PoolMember, success: bool) -> None:
        """Feed a placement outcome to the member's circuit breaker.

        Ticks use the acquire counter so the cooldown means "this many
        further placement decisions", which is deterministic under
        replay (wall-clock is not).  Atomic under the pool lock.
        """
        with self._lock:
            breaker = member.breaker
            if breaker is None:
                return
            self._breaker_call(
                member,
                breaker.record_success if success else breaker.record_failure,
                self._acquires,
            )

    # -- health --------------------------------------------------------------

    def drain(self, member: PoolMember) -> None:
        """Pull a member from scheduling after a health failure.

        Atomic under the pool lock.
        """
        with self._lock:
            if member.state is MemberState.RETIRED:
                return
            member.state = MemberState.DRAINING
            self.registry.inc("pool.drains")

    def recover(self, member: PoolMember) -> bool:
        """Reprogram and re-probe a DRAINING member.

        Each cycle burns one unit of the drain budget and rebuilds the
        member from its stored programmer — in simulation terms a
        fresh physical array (new variation and fault draw), i.e. the
        REMAP rung of the recovery ladder.  A sticky injected fault
        survives the rebuild (hard defect), so such a member fails its
        re-probe repeatedly and retires once the budget is gone.
        Returns whether the member is back in service.

        Atomic under the pool lock (including the reprogram itself —
        recovery is rare, correctness beats overlap here).
        """
        with self._lock:
            if member.state is not MemberState.DRAINING:
                raise ServiceError(
                    f"cannot recover member {member.member_id} in state "
                    f"{member.state}"
                )
            while member.drains < self.max_drains:
                member.drains += 1
                if member.programmer is None:
                    # Never programmed: nothing to rebuild, back to EMPTY.
                    member.state = MemberState.EMPTY
                    break
                member.operator = member.programmer(self.rng, self.tracer)
                self._apply_pending_fault(member, self.rng)
                if self.probe is not None:
                    report = probe_operator(
                        member.operator,
                        self.probe,
                        self.rng,
                        label=f"pool-{member.member_id}",
                    )
                    if not report.healthy:
                        self.registry.inc("pool.recover_failures")
                        continue
                member.state = MemberState.IDLE
                break
            else:
                member.state = MemberState.RETIRED
                member.operator = None
                self.registry.inc("pool.retirements")
                return False
            self.registry.inc("pool.recoveries")
            return True

    # -- chaos ---------------------------------------------------------------

    def inject_fault(
        self,
        member_id: int,
        row_fraction: float = 0.5,
        *,
        sticky: bool = False,
    ) -> None:
        """Knock rows of a member stuck-OFF (see
        :meth:`~repro.crossbar.array.CrossbarArray.inject_stuck_off`).

        Applied to the member's current operator immediately if it has
        one, and remembered so a member programmed later is poisoned
        right after programming.  A non-sticky fault is cleared by the
        next (re)program — soft corruption one recover cycle fixes; a
        sticky fault re-applies forever — a hard defect that forces
        retirement.

        Injecting into a BUSY member corrupts the job *in flight* on
        it; the member records the injection as :attr:`inflight_fault`
        so the service can tag that job's attempt with the fault for
        post-mortem attribution (the attempt's failure is the fault's
        doing, not the job's).  A member whose attempt runs in a
        worker *process* (``remote_inflight``) keeps the fault pending
        instead — the authoritative operator state is in the child, so
        the fault lands via :meth:`install` when the attempt returns
        (the in-flight attempt itself is not corrupted; the drift is
        documented as transient in DESIGN.md §15).

        Atomic under the pool lock.
        """
        with self._lock:
            member = self.members[member_id]
            member.pending_fault = (row_fraction, sticky)
            if member.remote_inflight:
                label = f"stuck_off:{row_fraction:g}"
                if sticky:
                    label += ":sticky"
                member.inflight_fault = label
            elif member.operator is not None:
                member.operator.array.inject_stuck_off(row_fraction)
                if not sticky:
                    member.pending_fault = None
                if member.state is MemberState.BUSY:
                    label = f"stuck_off:{row_fraction:g}"
                    if sticky:
                        label += ":sticky"
                    member.inflight_fault = label
            self.registry.inc("pool.faults_injected")

    def inject_drift(self, member_id: int, magnitude: float = 0.1) -> None:
        """Apply a multiplicative conductance-drift burst to a member.

        Unlike :meth:`inject_fault` this perturbs every programmed
        cell by a bounded relative amount (see
        :meth:`~repro.crossbar.array.CrossbarArray.apply_drift`) — the
        aged-array / temperature-step chaos mode.  Drift is inherently
        transient: the next (re)program overwrites it, so nothing is
        remembered.  A BUSY member tags its in-flight job, as with
        :meth:`inject_fault`.  Drift against a ``remote_inflight``
        member is a no-op on state (the child holds the real operator
        and drift is transient by definition) but still tags the
        in-flight attempt.

        Atomic under the pool lock.
        """
        with self._lock:
            member = self.members[member_id]
            if member.remote_inflight:
                member.inflight_fault = f"drift:{magnitude:g}"
            elif member.operator is None:
                return
            else:
                member.operator.array.apply_drift(magnitude, rng=self.rng)
                if member.state is MemberState.BUSY:
                    member.inflight_fault = f"drift:{magnitude:g}"
            self.registry.inc("pool.drift_injected")

    def _apply_pending_fault(
        self, member: PoolMember, rng: np.random.Generator
    ) -> None:
        if member.pending_fault is None or member.operator is None:
            return
        row_fraction, sticky = member.pending_fault
        member.operator.array.inject_stuck_off(row_fraction, rng=rng)
        if not sticky:
            member.pending_fault = None

    # -- introspection -------------------------------------------------------

    def states(self) -> dict[int, MemberState]:
        """``member_id -> state`` snapshot (atomic under the lock)."""
        with self._lock:
            return {m.member_id: m.state for m in self.members}

    def active_members(self) -> int:
        """Members not yet retired (atomic under the lock)."""
        with self._lock:
            return sum(
                1
                for m in self.members
                if m.state is not MemberState.RETIRED
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        states = ", ".join(
            f"{m.member_id}:{m.state}" for m in self.members
        )
        return f"CrossbarPool({states})"
