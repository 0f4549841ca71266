"""Concurrent dispatch: worker threads draining the service in parallel.

:class:`ConcurrentDispatcher` runs ``config.workers`` threads through
the service's three scheduler phases.  Dispatch and conclusion happen
under the service lock; the solve in between runs lock-free, overlapped
across IDLE pool members.

Wake-up: workers sleep on the service's one condition
(:attr:`~repro.service.service.SolverService.work_ready`, over the
service lock) while nothing is dispatchable.  Every event that can
make work dispatchable notifies it under the lock — an admission
through ``submit`` / ``try_submit`` from any thread (front-door
handlers, ``resolve``, chaos queue pulses, the batch producer), a
conclusion or requeue, a freed in-flight cap, a worker failure, and
shutdown — so an idle worker picks a job up as soon as the admitting
thread releases the lock.  The timed wait (:data:`_WAIT_S`) is only a
safety net against a missed notify, never the path a job takes.

Two executor modes, chosen by ``config.executor``:

- ``"thread"`` — the solve runs in the worker thread.  Simple and
  state-sharing-free (each BUSY member is owned by one worker), but
  the PDIP iteration loop is Python-heavy, so the GIL caps the speedup
  well below the worker count.  Useful when jobs spend their time in
  BLAS or when latency overlap (not throughput) is the goal.
- ``"process"`` — the numeric attempt ships to a pre-warmed
  :class:`~concurrent.futures.ProcessPoolExecutor` via
  :func:`_remote_attempt`: the parent *reserves* a pool member
  (select + mark BUSY, no programming), the child programs-or-adopts
  the operator, solves, and returns (result, trace events, operator
  state, write counts); the parent *installs* the returned state and
  concludes.  True parallel solves — this is the mode the sustained-
  load benchmark scales with.

Fairness: the dispatcher tracks per-tenant in-flight counts and passes
tenants at their :attr:`~repro.service.queue.TenantPolicy.max_in_flight`
cap as ``blocked`` to the queue's DRR election, so a tenant can never
hold more than its cap of the fleet no matter its submit rate.

Reconciliation: every ``_conclude`` (registry increments, record
append, trace absorption) runs under the one lock in completion
order, so live telemetry totals, the record stream, and trace replay
agree exactly even though that order is timing-dependent.  Scheduler-
lock contention is itself measured: each worker's lock-acquisition
wait feeds the ``service.lock.acquires`` / ``service.lock.wait_s``
registry counters (registry only — never the tracer, which must stay
byte-identical in ``workers=1`` replay and deterministic-total in
concurrent runs).

Threads never fork: in process mode all children are spawned before
the first worker thread starts, so no lock can be held across a fork.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable

import numpy as np

from repro.core.crossbar_solver import CrossbarPDIPSolver
from repro.core.result import FailureReason
from repro.obs.clock import Deadline
from repro.obs.tracer import NOOP, RecordingTracer
from repro.reliability.policy import RecoveryPolicy
from repro.service.service import (
    JobRecord,
    SolverService,
    _failed_result,
    _WorkItem,
    attempt_energy,
)

#: Longest sleep on the service condition before a waiter rechecks.
#: Every dispatchable event notifies, so this only bounds the cost of
#: a missed notify; it sets no latency on the normal path.
_WAIT_S = 0.05


def _warm_child() -> int:
    """No-op task submitted once per child to force pre-thread forks."""
    return 0


def _remote_attempt(
    problem,
    settings,
    probe,
    seed: int,
    job_id: str,
    group: int,
    kind: str,
    index: int,
    fingerprint: str,
    member_id: int,
    operator_blob: bytes | None,
    trace_iterations: bool,
    deadline_budget_s: float | None,
    initial_state=None,
):
    """One analog attempt, executed inside a worker process.

    Mirrors the in-process attempt exactly: same seed derivation, same
    ``service.job`` span attributes, same RNG call order (operator
    program / adopt, then solve), so for a given ``(job, attempt,
    warm-state)`` the child computes the same result the serial
    scheduler would.  Returns ``(result, trace event dicts, pickled
    operator state or None, cells_written, program_cells, energy_j)``
    — everything the parent needs to install the member and conclude
    the attempt.

    Runs single-threaded in its own process; needs no locks.
    """
    rng = np.random.default_rng(seed)
    recovery = RecoveryPolicy(
        reprograms=0, remaps=0, digital_fallback=None, probe=probe
    )
    job_tracer = RecordingTracer()
    deadline = (
        Deadline(max(deadline_budget_s, 1e-9))
        if deadline_budget_s is not None
        else None
    )
    solver = CrossbarPDIPSolver(
        problem,
        settings,
        rng=rng,
        recovery=recovery,
        tracer=job_tracer,
        deadline=deadline,
    )
    warm = operator_blob is not None
    with job_tracer.span(
        "service.job",
        job_id=job_id,
        group=group,
        kind=kind,
        attempt=index,
        fingerprint=fingerprint,
    ) as span:
        if warm:
            operator = pickle.loads(operator_blob)
            operator.rng = rng
            operator.tracer = job_tracer
        else:
            operator = CrossbarPDIPSolver(
                problem,
                settings,
                rng=rng,
                recovery=recovery,
                tracer=job_tracer,
            ).build_operator(rng)
        span.set(member=member_id, warm=warm)
        # Placement cost so far (structural program on a cold member,
        # zero on a warm adopt) — everything after this point is
        # per-iteration diagonal rewrites.
        program_cells = int(
            job_tracer.counters.get("crossbar.cells_written", 0.0)
        )
        try:
            result = solver.solve_on(
                operator,
                trace=trace_iterations,
                initial_state=initial_state,
            )
        except Exception as exc:  # noqa: BLE001 - isolation
            result = _failed_result(
                problem,
                f"attempt crashed: {type(exc).__name__}: {exc}",
                FailureReason.SINGULAR_SYSTEM,
            )
        span.set(status=result.status.value)
    cells = int(job_tracer.counters.get("crossbar.cells_written", 0.0))
    energy_j = attempt_energy(result, job_tracer.counters, settings)
    # Detach the child-local tracer before shipping the operator back:
    # the parent re-attaches its own, and the blob stays compact.
    operator.tracer = NOOP
    return (
        result,
        job_tracer.event_dicts(),
        pickle.dumps(operator),
        cells,
        program_cells,
        energy_j,
    )


class ConcurrentDispatcher:
    """Drains a :class:`~repro.service.service.SolverService` with N
    worker threads (see module note for the execution model).

    One-shot: build, call :meth:`run`, discard.  :meth:`run` must be
    called from a single thread (it doubles as the producer); the
    internal worker threads are an implementation detail.  All shared
    state below is guarded by the service lock via ``_cond``, the
    service's own condition (the dispatcher builds none).
    """

    def __init__(self, service: SolverService) -> None:
        self.service = service
        config = service.config
        self.workers = config.workers
        self.remote = config.executor == "process"
        self._cond = service.work_ready
        self._inflight: dict[str, int] = {}
        self._inflight_total = 0
        self._records: list[JobRecord] = []
        self._on_record: Callable[[JobRecord], None] | None = None
        self._producing = False
        self._failure: BaseException | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._threads: list[threading.Thread] = []

    def _spawn(self) -> None:
        """Warm the process pool (if any) and start the worker threads.

        Children are forked *before* any worker thread exists, so no
        thread can hold a lock across the fork.  Call once, from the
        coordinating thread.
        """
        if self.remote:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            for future in [
                self._executor.submit(_warm_child)
                for _ in range(self.workers)
            ]:
                future.result()
        self._threads = [
            threading.Thread(
                target=self._worker,
                name=f"repro-dispatch-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    def _join(self) -> None:
        """Signal end-of-input, wait for workers, tear down the pool.

        Workers finish everything queued or in flight before exiting
        (an accepted job is never lost).  Call from the coordinating
        thread; rethrows the first worker failure.
        """
        with self._cond:
            self._producing = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        # Drop the callback so a finished dispatcher keeps nothing of
        # its caller alive (a front door hands in its bound method).
        self._on_record = None
        if self._executor is not None:
            self._executor.shutdown()
        if self._failure is not None:
            raise self._failure

    def run(
        self,
        specs: Iterable | None = None,
        *,
        on_record: Callable[[JobRecord], None] | None = None,
    ) -> list[JobRecord]:
        """Drain the queue (and optionally feed ``specs`` through
        admission backpressure) to completion; returns records in
        completion order.

        Rethrows the first worker failure after all threads stop.
        ``on_record`` fires under the service lock.
        """
        self._on_record = on_record
        self._producing = specs is not None
        self._spawn()
        try:
            if specs is not None:
                self._produce(specs)
        finally:
            self._join()
        return self._records

    def start(
        self,
        *,
        on_record: Callable[[JobRecord], None] | None = None,
    ) -> None:
        """Begin draining continuously (the front-door serving mode).

        Workers run until :meth:`stop`, sleeping on the service
        condition while the queue is empty; ``service.submit`` /
        ``try_submit`` (and so ``resolve``) notify it from any thread,
        so an admitted job is picked up at once instead of a specs
        iterable feeding it.  Pair every ``start`` with exactly one
        ``stop``.
        """
        self._on_record = on_record
        self._producing = True
        self._spawn()

    def stop(self) -> list[JobRecord]:
        """End continuous draining; returns all completed records.

        Blocks until in-flight and queued jobs finish (an accepted job
        is never lost), then rethrows the first worker failure if any.
        """
        self._join()
        return self._records

    # -- producer ------------------------------------------------------------

    def _produce(self, specs: Iterable) -> None:
        """Admit specs with backpressure: block while the queue is
        full, waking as workers make room (the multi-threaded version
        of serial ``batch``'s complete-then-admit loop)."""
        service = self.service
        for spec in specs:
            with self._cond:
                while True:
                    if self._failure is not None:
                        return
                    if service.try_submit(spec) is not None:
                        break
                    self._cond.wait(timeout=_WAIT_S)

    # -- workers -------------------------------------------------------------

    def _blocked_tenants(self) -> frozenset:
        """Tenants at their in-flight cap (lock held)."""
        queue = self.service.queue
        blocked = set()
        for tenant, count in self._inflight.items():
            if count <= 0:
                continue
            cap = queue.policy_for(tenant).max_in_flight
            if cap is not None and count >= cap:
                blocked.add(tenant)
        return frozenset(blocked)

    def _note_lock_wait(self, waited_s: float) -> None:
        """Feed one lock-acquisition wait into the telemetry registry
        (lock held; registry-only so traces stay deterministic)."""
        telemetry = self.service.telemetry
        if telemetry is not None:
            telemetry.on_lock_wait(waited_s)

    def _deliver(self, record: JobRecord) -> None:
        """Append a completed record and fire the callback (lock held,
        so completion order and callback order agree)."""
        self._records.append(record)
        if self._on_record is not None:
            self._on_record(record)

    def _worker(self) -> None:
        """One dispatcher thread: dispatch → execute → conclude until
        the queue is dry, nothing is in flight, and the producer is
        done."""
        service = self.service
        try:
            while True:
                item = self._next_item()
                if item is None:
                    return
                if item.remote:
                    self._execute_remote(item)
                else:
                    service._execute(item)
                started = time.perf_counter()
                with self._cond:
                    self._note_lock_wait(time.perf_counter() - started)
                    record = service._conclude(item)
                    tenant = item.pending.tenant
                    self._inflight[tenant] -= 1
                    self._inflight_total -= 1
                    if record is not None:
                        self._deliver(record)
                    self._cond.notify_all()
        except BaseException as exc:  # noqa: BLE001 - propagated by run()
            with self._cond:
                if self._failure is None:
                    self._failure = exc
                self._cond.notify_all()

    def _next_item(self) -> _WorkItem | None:
        """Block until a dispatchable attempt exists; ``None`` means
        shut down (drained, or another worker failed)."""
        service = self.service
        started = time.perf_counter()
        with self._cond:
            self._note_lock_wait(time.perf_counter() - started)
            while True:
                if self._failure is not None:
                    return None
                dispatched = service._dispatch(
                    blocked=self._blocked_tenants(), remote=self.remote
                )
                if dispatched is not None:
                    kind, payload = dispatched
                    if kind == "record":
                        # Completed with no compute (deadline expired
                        # in queue): deliver and keep looking.
                        self._deliver(payload)
                        self._cond.notify_all()
                        continue
                    tenant = payload.pending.tenant
                    self._inflight[tenant] = (
                        self._inflight.get(tenant, 0) + 1
                    )
                    self._inflight_total += 1
                    return payload
                if (
                    not self._producing
                    and self._inflight_total == 0
                    and not service.queue
                ):
                    return None
                self._cond.wait(timeout=_WAIT_S)

    def _execute_remote(self, item: _WorkItem) -> None:
        """Run one reserved attempt in the process pool (lock-free).

        Ships the problem + (for warm placements) the member's pickled
        operator state to :func:`_remote_attempt`, then unpacks the
        outcome into the item for ``_conclude`` to install.  A crashed
        or broken child becomes a failed attempt, never a lost job —
        the retry / fallback ladder handles it like any other failure.
        """
        member = item.member
        if member is None:
            # Reservation found no capacity; _conclude turns this into
            # the NO_CAPACITY path exactly as in serial mode.
            item.events = []
            return
        service = self.service
        spec = item.pending.spec
        blob = (
            pickle.dumps(member.operator)
            if item.warm and member.operator is not None
            else None
        )
        deadline = item.pending.deadline
        budget = deadline.remaining_s() if deadline is not None else None
        try:
            future = self._executor.submit(
                _remote_attempt,
                item.problem,
                item.settings,
                service.config.probe,
                item.seed,
                spec.job_id,
                spec.group,
                spec.kind,
                item.index,
                item.fingerprint,
                member.member_id,
                blob,
                service.config.trace_iterations,
                budget,
                item.initial_state,
            )
            (
                result,
                events,
                operator_blob,
                cells,
                program_cells,
                energy_j,
            ) = future.result()
            operator = (
                pickle.loads(operator_blob)
                if operator_blob is not None
                else None
            )
        except Exception as exc:  # noqa: BLE001 - isolation
            result = _failed_result(
                item.problem,
                f"attempt crashed in worker process: "
                f"{type(exc).__name__}: {exc}",
                FailureReason.SINGULAR_SYSTEM,
            )
            events, operator, cells, program_cells, energy_j = (
                [],
                None,
                0,
                0,
                0.0,
            )
        if service.config.device_latency_s > 0:
            # Emulated array occupancy (see ServiceConfig): the member
            # stays reserved for the modeled hardware settle window.
            time.sleep(service.config.device_latency_s)
        item.result = result
        item.events = events
        item.operator = operator
        item.cells = cells
        item.program_cells = program_cells
        item.energy_j = energy_j
