"""Live serving telemetry: the service's streaming dashboard state.

:class:`ServiceTelemetry` bundles the three obs-layer primitives into
one object every :class:`~repro.service.service.SolverService` owns
and drives through narrow hooks:

- a :class:`~repro.obs.metrics.MetricsRegistry`, the one store of the
  serving plane's numbers: each ``service.*`` / ``pool.*`` series is
  written into it once — by :meth:`on_job` when a finished record
  determines it, else where its event happens (DESIGN.md §14);
- an :class:`~repro.obs.slo.SLOTracker` folding every job outcome
  into availability and deadline error budgets with multi-window
  burn-rate gauges;
- a :class:`~repro.obs.recorder.FlightRecorder` ring of recent job /
  breaker / tier / chaos events, dumped to JSONL when a job fails, a
  breaker opens, or the brownout tier changes.

Everything here is wall-clock-side observability: nothing feeds back
into scheduling, and the deterministic record stream is computed
before any hook fires, so telemetry can never change what the service
does — only what it reports.

:meth:`ServiceTelemetry.stats_line` renders the one-line periodic
status ``repro serve --stats-every N`` prints: throughput, windowed
p50/p99 latency, energy per job, queue depth, tier, breaker states,
and SLO burn.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOTracker
from repro.service.resilience import DegradationTier

#: Stats-line badge per ``pool.breaker.state`` gauge value (closed,
#: half-open, open): ``brk=CCO`` reads as "members 0,1 closed,
#: member 2 open".
_BREAKER_BADGE = "CHO"

#: Failure-reason value that counts against the deadline SLO.
_DEADLINE_REASON = "deadline_exceeded"

#: Failure-reason value of a job the presolve screen proved infeasible.
_PRESOLVE_REASON = "infeasible_presolve"


class ServiceTelemetry:
    """Aggregates live metrics, SLO budgets, and the flight recorder.

    Parameters
    ----------
    registry / slo / recorder:
        Pre-built components, or ``None`` to construct defaults.
    flight_dir:
        Directory the default flight recorder dumps into; ignored when
        ``recorder`` is given.  ``None`` keeps the ring in memory only
        (trips are still counted).
    clock:
        Time source for windows, budgets, and event stamps; injectable
        for deterministic tests.
    window_s:
        Sliding-window width of the default registry's histograms.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        slo: SLOTracker | None = None,
        recorder: FlightRecorder | None = None,
        flight_dir=None,
        clock: Callable[[], float] = monotonic,
        window_s: float = 60.0,
    ) -> None:
        self.clock = clock
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(window_s=window_s, clock=clock)
        )
        self.slo = slo if slo is not None else SLOTracker(clock=clock)
        self.recorder = (
            recorder
            if recorder is not None
            else FlightRecorder(directory=flight_dir, clock=clock)
        )
        self._started_s = clock()

    # -- reads of the registry -----------------------------------------------

    @property
    def jobs(self) -> int:
        """Jobs finished so far, either way."""
        return self.succeeded + int(
            self.registry.counter_value("service.jobs_failed")
        )

    @property
    def succeeded(self) -> int:
        """Jobs finished with a conclusive result."""
        return int(self.registry.counter_value("service.jobs_completed"))

    @property
    def energy_j_total(self) -> float:
        """Modeled energy of every finished job, in joules."""
        return self.registry.counter_value("service.energy_j")

    @property
    def queue_depth(self) -> int:
        """Queue depth when the last job finished."""
        return int(self.registry.gauge_value("service.queue.depth"))

    # -- service hooks -------------------------------------------------------

    def on_submit(self, spec) -> None:
        """One job admitted (``submit`` / ``try_submit`` success).

        Called under the service lock (admission is atomic there), so
        it needs no locking of its own.
        """
        self.registry.inc("service.jobs_submitted")
        self.registry.inc(
            "service.jobs_submitted",
            labels={"tenant": spec.tenant},
        )
        if getattr(spec, "base_job_id", None) is not None:
            self.registry.inc("service.resolve.submitted")

    def on_lock_wait(self, waited_s: float) -> None:
        """One scheduler-lock acquisition by a dispatcher worker.

        Feeds the lock-contention counters (acquisitions and total
        seconds spent waiting).  Called with the lock held.
        """
        self.registry.inc("service.lock.acquires")
        self.registry.inc("service.lock.wait_s", waited_s)

    def on_job(
        self, record, *, queue_depth: int = 0, tier: int = 0
    ) -> None:
        """One job finished (either way); fold it into every surface.

        Called once per final record, under the service lock.
        """
        registry = self.registry
        spec = record.spec
        success = record.success
        reason = record.result.failure_reason.value
        outcome = "service.jobs_completed" if success else "service.jobs_failed"
        registry.inc(outcome)
        registry.inc(outcome, labels={"tenant": spec.tenant})
        registry.set_gauge("service.queue.depth", float(queue_depth))
        if not success and reason == _DEADLINE_REASON:
            registry.inc("service.deadline_exceeded")
        if reason == _PRESOLVE_REASON:
            registry.inc("service.presolve.infeasible")
        if record.fallback:
            registry.inc("service.fallbacks")
        for attempt in record.attempts:
            if attempt.backoff_s > 0:
                registry.inc("service.backoff_seconds", attempt.backoff_s)

        labels: Mapping[str, str] = {
            "priority": str(spec.priority),
            "group": str(spec.group),
            "tenant": spec.tenant,
        }
        latency_s = record.elapsed_seconds
        if latency_s > 0:
            registry.observe("service.latency_s", latency_s)
            registry.observe("service.latency_s", latency_s, labels=labels)
        if record.queue_wait_s > 0:
            registry.observe("service.queue_wait_s", record.queue_wait_s)
        energy = record.energy_j
        if energy > 0:
            registry.inc("service.energy_j", energy)
            registry.observe("service.job_energy_j", energy)
            registry.observe("service.job_energy_j", energy, labels=labels)

        if getattr(spec, "base_job_id", None) is not None:
            # Re-solve tier: count the job, its placements and the
            # programming they actually paid (zero for a pure warm
            # re-solve).
            registry.inc("service.resolve.jobs")
            registry.inc(
                "service.resolve.completed" if success else "service.resolve.failed"
            )
            program_cells = 0
            for attempt in record.attempts:
                if attempt.member is None:
                    continue
                program_cells += attempt.program_cells
                registry.inc("service.resolve.attempts")
                registry.inc(
                    "service.resolve.warm_placements"
                    if attempt.warm
                    else "service.resolve.cold_placements"
                )
            if program_cells > 0:
                registry.inc("service.resolve.program_cells", float(program_cells))

        deadline_missed = reason == _DEADLINE_REASON
        self.slo.record(success=success, deadline_missed=deadline_missed)
        for name, value in self.slo.gauges().items():
            registry.set_gauge(name, value)

        self.recorder.record(
            "job",
            job_id=spec.job_id,
            status=record.result.status.value,
            failure_reason=reason,
            member=record.member,
            warm=record.warm,
            requeues=record.requeues,
            fallback=record.fallback,
            tier=tier,
            latency_s=latency_s,
            energy_j=energy,
        )
        if not success:
            self.recorder.trip(
                "job_failed",
                job_id=spec.job_id,
                failure_reason=reason,
            )

    def on_breaker(
        self, member_id: int, old: str, new: str, tick: int
    ) -> None:
        """One member's circuit breaker changed state (the pool has
        already counted it)."""
        self.recorder.record(
            "breaker", member=member_id, old=old, new=new, tick=tick
        )
        if new == "open":
            self.recorder.trip(
                "breaker_open", member=member_id, previous=old, tick=tick
            )

    def on_tier(self, old: int, new: int, samples: int) -> None:
        """The brownout controller moved tiers (and counted it)."""
        self.recorder.record(
            "tier", old=old, new=new, samples=samples
        )
        self.recorder.trip(
            "tier_change",
            old=DegradationTier(old).name,
            new=DegradationTier(new).name,
            samples=samples,
        )

    def on_chaos(self, event) -> None:
        """One chaos-campaign event fired into the live service."""
        self.registry.inc("service.chaos.events")
        if event.kind == "member_death":
            self.registry.inc("service.chaos.member_deaths")
        self.recorder.record(
            "chaos",
            fault=event.kind,
            at_job=event.at_job,
            member=event.member,
        )

    # -- rendering -----------------------------------------------------------

    def _quantiles_ms(self) -> tuple[float, float]:
        """Windowed (p50, p99) latency in ms, cumulative fallback.

        The sliding window goes empty during an idle stretch; falling
        back to the cumulative histogram keeps the stats line showing
        the run's percentiles instead of zeros.
        """
        series = self.registry.histogram("service.latency_s")
        hist = series.window.snapshot()
        if hist.count == 0:
            hist = series.cumulative
        return hist.quantile(0.5) * 1e3, hist.quantile(0.99) * 1e3

    def stats_line(self) -> str:
        """One-line live status for ``--stats-every`` printing."""
        elapsed = max(self.clock() - self._started_s, 1e-9)
        jobs = self.jobs
        rate = jobs / elapsed
        p50_ms, p99_ms = self._quantiles_ms()
        energy_per_job = self.energy_j_total / jobs if jobs else 0.0
        tier = DegradationTier(
            int(self.registry.gauge_value("service.degradation.tier"))
        )
        states = {
            int(dict(labels)["member"]): int(value)
            for name, labels, value in self.registry.gauges()
            if name == "pool.breaker.state"
        }
        badges = "".join(_BREAKER_BADGE[states[m]] for m in sorted(states))
        parts = [
            f"jobs={jobs}",
            f"ok={self.succeeded}",
            f"{rate:.1f} jobs/s",
            f"p50={p50_ms:.1f}ms",
            f"p99={p99_ms:.1f}ms",
            f"energy/job={energy_per_job:.3g}J",
            f"q={self.queue_depth}",
            f"tier={tier.name}",
        ]
        if badges:
            parts.append(f"brk={badges}")
        parts.append(self.slo.describe())
        return "  ".join(parts)
