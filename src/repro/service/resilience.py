"""Fault-tolerance primitives for the serving layer.

The paper's pitch is a solver that keeps delivering answers on
imperfect analog hardware; this module gives the serving stack the
matching operational vocabulary, treating device failure as a
continuous operating condition rather than an exception:

- **deadlines** — :class:`~repro.obs.clock.Deadline` (re-exported
  here) bounds a job's wall-clock budget; the solvers check it between
  recovery rungs and PDIP iterations, and the service refuses to
  dispatch (or re-dispatch) an expired job;
- **retry budgets** — :class:`BackoffPolicy` computes exponential
  backoff with *deterministic seeded jitter* between requeue attempts,
  so a fault storm does not turn into a synchronized retry stampede
  while batch replays stay bit-identical;
- **circuit breakers** — :class:`CircuitBreaker` (one per pool member)
  stops placing jobs on a flapping array after consecutive failures,
  cools down for a fixed number of scheduler ticks, then lets a single
  probe job through (HALF_OPEN) before closing again — catching
  members that fail *without* tripping the health probe before the
  drain budget retires them;
- **brownout degradation** — :class:`DegradationController` watches a
  sliding failure-rate window and sheds work to a cheaper tier
  (skip write-verify → cap retry attempts → route straight to the
  digital fallback) with hysteresis on the way back up, so throughput
  degrades smoothly instead of collapsing;
- **chaos campaigns** — :class:`FaultCampaign` schedules declarative,
  seeded fault scenarios (stuck-cell storms, member death, drift
  bursts, queue-saturation pulses) at chosen dispatch indices,
  replacing one-shot ``inject_fault`` poking for sustained failure
  testing (``repro batch --chaos scenario.json``).

Everything here is deterministic by construction: breaker cooldowns
count scheduler ticks (not wall-clock), backoff jitter derives from
sha256 over ``(base_seed, job_id, attempt)``, and campaign events fire
at dispatch indices — the same seed and scenario replay to the same
``JobRecord`` stream.  Deadlines are the one wall-clock concept; tests
inject a fake clock to keep them deterministic too.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
import json
import pathlib
from typing import Iterable

from repro.obs.clock import Deadline
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "BackoffPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "DegradationController",
    "DegradationPolicy",
    "DegradationTier",
    "FAULT_KINDS",
    "FaultCampaign",
    "FaultEvent",
]


def _unit_interval(*parts) -> float:
    """Deterministic uniform draw in [0, 1) from sha256 over the parts."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


# -- retry budgets -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic seeded jitter.

    The delay before requeue attempt ``k`` (1-based) is
    ``min(max_s, base_s * multiplier**(k-1))`` shrunk by up to
    ``jitter`` of itself, where the jitter draw is a pure function of
    ``(base_seed, job_id, attempt)`` — two services with the same seed
    and job stream compute identical delays, but two jobs failing at
    the same instant back off differently (no retry stampede).

    The service only *accounts* the delay — it is stamped on the
    attempt record and the ``service.backoff_seconds`` counter — and
    never sleeps it: the requeue happens under the service lock, where
    a sleep would stall admission, the front door and every other
    worker.
    """

    base_s: float = 0.05
    multiplier: float = 2.0
    max_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ValueError("base_s must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_s < self.base_s:
            raise ValueError("max_s must be >= base_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def delay_s(self, base_seed: int, job_id: str, attempt: int) -> float:
        """Backoff before requeue attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        raw = min(self.max_s, self.base_s * self.multiplier ** (attempt - 1))
        unit = _unit_interval("backoff", base_seed, job_id, attempt)
        return raw * (1.0 - self.jitter * unit)


# -- circuit breakers --------------------------------------------------------


class BreakerState(enum.Enum):
    """Circuit-breaker state machine (CLOSED → OPEN → HALF_OPEN)."""

    #: Healthy: placements flow normally.
    CLOSED = "closed"
    #: Tripped: the member takes no placements until the cooldown ends.
    OPEN = "open"
    #: Cooling down ended: exactly one probe job is let through.
    HALF_OPEN = "half_open"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Numeric encoding for the ``pool.breaker.state{member=<id>}`` gauge.
BREAKER_STATE_GAUGE = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@dataclasses.dataclass(frozen=True)
class BreakerPolicy:
    """Per-pool-member circuit-breaker configuration.

    Cooldowns count *scheduler ticks* (pool ``acquire`` calls), not
    wall-clock — the breaker stays deterministic under replay and
    meaningful in simulation, where a thousand jobs run in a second.
    """

    #: Consecutive failures that trip CLOSED → OPEN.
    failure_threshold: int = 3
    #: Scheduler ticks an OPEN breaker waits before probing.
    cooldown_ticks: int = 8
    #: Probe successes needed to close from HALF_OPEN.
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_ticks < 1:
            raise ValueError("cooldown_ticks must be >= 1")
        if self.half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")


class CircuitBreaker:
    """One member's breaker; the pool drives it from placement results.

    :attr:`transitions` keeps the full ``(tick, old, new)`` history:
    the pool writes the ``pool.breaker.*`` counters and state gauge
    into its registry for the entries each of its breaker calls
    appends.  The breaker holds no callback, so it keeps nothing of
    its pool alive.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_tick: int | None = None
        self._half_open_successes = 0
        self.transitions: list[tuple[int, BreakerState, BreakerState]] = []

    def _move(self, new: BreakerState, tick: int) -> None:
        old = self.state
        if old is new:
            return
        self.state = new
        self.transitions.append((tick, old, new))

    def allow(self, tick: int) -> bool:
        """Whether a placement may land on this member at ``tick``.

        An OPEN breaker whose cooldown has elapsed moves to HALF_OPEN
        and admits the probe placement in the same call.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_tick is not None
            if tick - self.opened_tick >= self.policy.cooldown_ticks:
                self._half_open_successes = 0
                self._move(BreakerState.HALF_OPEN, tick)
                return True
            return False
        return True  # HALF_OPEN: the probe placement

    def record_success(self, tick: int) -> None:
        """A placement on this member concluded successfully."""
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= self.policy.half_open_successes:
                self._move(BreakerState.CLOSED, tick)

    def record_failure(self, tick: int) -> None:
        """A placement on this member failed."""
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to OPEN, fresh cooldown.
            self.opened_tick = tick
            self.consecutive_failures = self.policy.failure_threshold
            self._move(BreakerState.OPEN, tick)
            return
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.opened_tick = tick
            self._move(BreakerState.OPEN, tick)


# -- brownout degradation ----------------------------------------------------


class DegradationTier(enum.IntEnum):
    """Service degradation tiers, cheapest-first shedding order."""

    #: Full pipeline: write-verify, probes, full retry budget.
    NORMAL = 0
    #: Shed closed-loop write-verify (cheaper programming).
    SKIP_VERIFY = 1
    #: Additionally cap each job to a single analog attempt.
    CAP_RECOVERY = 2
    #: Route jobs straight to the digital fallback (analog browned out).
    DIGITAL_ONLY = 3


@dataclasses.dataclass(frozen=True)
class DegradationPolicy:
    """Sliding-window brownout configuration with hysteresis.

    The controller tracks the failure rate of the last ``window``
    attempts.  Crossing ``enter_thresholds[k-1]`` sheds to tier ``k``
    immediately; recovery steps down one tier at a time, and only when
    the rate has fallen ``exit_margin`` *below* the tier's entry
    threshold and at least ``cooldown`` attempts have passed since the
    last change — the hysteresis that keeps the service from flapping
    between tiers at the boundary.
    """

    window: int = 16
    min_samples: int = 8
    enter_thresholds: tuple[float, float, float] = (0.25, 0.5, 0.75)
    exit_margin: float = 0.15
    cooldown: int = 4

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError("min_samples must lie in [1, window]")
        if len(self.enter_thresholds) != 3:
            raise ValueError("enter_thresholds must have one entry per tier")
        previous = 0.0
        for threshold in self.enter_thresholds:
            if not previous < threshold <= 1.0:
                raise ValueError(
                    "enter_thresholds must be increasing and in (0, 1]"
                )
            previous = threshold
        if self.exit_margin <= 0:
            raise ValueError("exit_margin must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class DegradationController:
    """Tracks attempt outcomes and drives the current tier.

    Writes the ``service.degradation.sheds`` / ``.recoveries`` counters
    and the ``service.degradation.tier`` gauge into ``registry`` (the
    service's telemetry registry, or a private one);
    :attr:`transitions` keeps ``(sample_index, old_tier, new_tier)``.
    """

    def __init__(
        self,
        policy: DegradationPolicy | None = None,
        *,
        registry: MetricsRegistry | None = None,
        on_transition=None,
    ) -> None:
        self.policy = policy if policy is not None else DegradationPolicy()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tier = DegradationTier.NORMAL
        self.samples = 0
        self._outcomes: collections.deque = collections.deque(
            maxlen=self.policy.window
        )
        self._since_change = 0
        self.transitions: list[tuple[int, int, int]] = []
        #: Optional ``(old, new, samples)`` callback fired on every
        #: tier change — the serving layer's telemetry hook.
        self.on_transition = on_transition

    def failure_rate(self) -> float:
        """Failure share of the current window (0 when empty)."""
        if not self._outcomes:
            return 0.0
        failures = sum(1 for ok in self._outcomes if not ok)
        return failures / len(self._outcomes)

    def _target_tier(self, rate: float) -> DegradationTier:
        target = DegradationTier.NORMAL
        for tier, threshold in zip(
            (
                DegradationTier.SKIP_VERIFY,
                DegradationTier.CAP_RECOVERY,
                DegradationTier.DIGITAL_ONLY,
            ),
            self.policy.enter_thresholds,
        ):
            if rate >= threshold:
                target = tier
        return target

    def _move(self, new: DegradationTier) -> None:
        old = self.tier
        self.tier = new
        self._since_change = 0
        self.transitions.append((self.samples, int(old), int(new)))
        self.registry.inc(
            "service.degradation.sheds"
            if new > old
            else "service.degradation.recoveries"
        )
        self.registry.set_gauge("service.degradation.tier", float(new))
        if self.on_transition is not None:
            self.on_transition(int(old), int(new), self.samples)

    def record(self, success: bool) -> DegradationTier:
        """Fold one attempt outcome in; returns the (new) tier."""
        self._outcomes.append(bool(success))
        self.samples += 1
        self._since_change += 1
        if len(self._outcomes) < self.policy.min_samples:
            return self.tier
        rate = self.failure_rate()
        target = self._target_tier(rate)
        if target > self.tier:
            # Shed immediately: brownouts do not wait for cooldowns.
            self._move(target)
        elif (
            target < self.tier
            and self._since_change >= self.policy.cooldown
            and rate
            <= self.policy.enter_thresholds[int(self.tier) - 1]
            - self.policy.exit_margin
        ):
            # Recover one tier at a time, with hysteresis.
            self._move(DegradationTier(int(self.tier) - 1))
        return self.tier


# -- chaos campaigns ---------------------------------------------------------


#: Valid ``FaultEvent.kind`` values.
FAULT_KINDS = ("stuck_cells", "member_death", "drift", "queue_pulse")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, fired before dispatch ``at_job``.

    Parameters
    ----------
    at_job:
        Dispatch index (0-based count of scheduler steps) at which the
        event fires — *before* that step's job is popped.
    kind:
        ``stuck_cells`` — knock ``row_fraction`` of ``member``'s rows
        stuck-OFF (``sticky`` survives reprogramming: a hard defect);
        ``member_death`` — permanent full-array hard fault on
        ``member`` (drains, fails recovery, retires);
        ``drift`` — multiplicative conductance drift burst of relative
        ``magnitude`` on ``member``'s programmed array;
        ``queue_pulse`` — a burst of ``jobs`` synthetic filler jobs
        (``constraints`` each) submitted through admission control,
        saturating the queue.
    """

    at_job: int
    kind: str
    member: int | None = None
    row_fraction: float = 0.5
    sticky: bool = False
    magnitude: float = 0.1
    jobs: int = 4
    constraints: int = 12

    def __post_init__(self) -> None:
        if self.at_job < 0:
            raise ValueError("at_job must be non-negative")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.kind in ("stuck_cells", "member_death", "drift"):
            if self.member is None or self.member < 0:
                raise ValueError(f"{self.kind} event needs a member id")
        if self.kind == "stuck_cells" and not 0 < self.row_fraction <= 1:
            raise ValueError("row_fraction must lie in (0, 1]")
        if self.kind == "drift" and self.magnitude <= 0:
            raise ValueError("drift magnitude must be positive")
        if self.kind == "queue_pulse" and self.jobs < 1:
            raise ValueError("queue_pulse needs jobs >= 1")

    def to_dict(self) -> dict:
        """Plain-dict form (one entry of the scenario JSON)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Build an event from a parsed scenario entry."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class FaultCampaign:
    """A declarative, seeded schedule of fault events.

    Replaces one-shot ``inject_fault`` poking for sustained failure
    scenarios: the service fires :meth:`events_at` before every
    scheduler step, so the same seed and scenario replay the exact
    fault sequence at any pool size.  The JSON form (one object:
    ``name``, ``seed``, ``events`` list) is the ``repro batch --chaos``
    input.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent],
        *,
        name: str = "campaign",
        seed: int = 0,
    ) -> None:
        self.name = name
        self.seed = seed
        # Stable order: by dispatch index, ties by listing order.
        self.events = tuple(
            sorted(enumerate(events), key=lambda pair: (pair[1].at_job, pair[0]))
        )
        self.events = tuple(event for _, event in self.events)
        self._by_index: dict[int, list[FaultEvent]] = {}
        for event in self.events:
            self._by_index.setdefault(event.at_job, []).append(event)
        self.fired = 0

    def __len__(self) -> int:
        return len(self.events)

    def events_at(self, index: int) -> tuple[FaultEvent, ...]:
        """Events scheduled for dispatch index ``index`` (may be empty)."""
        return tuple(self._by_index.get(index, ()))

    def unfired_after(self, index: int) -> tuple[FaultEvent, ...]:
        """Events scheduled past ``index`` (diagnostics for short runs)."""
        return tuple(e for e in self.events if e.at_job > index)

    def to_dict(self) -> dict:
        """Plain-dict form (the ``--chaos`` scenario JSON object)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultCampaign":
        """Build a campaign from a parsed scenario object."""
        return cls(
            [FaultEvent.from_dict(e) for e in data.get("events", [])],
            name=data.get("name", "campaign"),
            seed=data.get("seed", 0),
        )

    @classmethod
    def from_json(cls, path: str | pathlib.Path) -> "FaultCampaign":
        """Load a scenario file (the ``repro batch --chaos`` input)."""
        with pathlib.Path(path).open("r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_json(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the scenario JSON; returns the path written."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultCampaign(name={self.name!r}, seed={self.seed}, "
            f"events={len(self.events)})"
        )


def stuck_storm(
    members: Iterable[int],
    *,
    start: int = 0,
    stride: int = 2,
    row_fraction: float = 0.5,
    sticky: bool = False,
) -> list[FaultEvent]:
    """A stuck-cell storm: one ``stuck_cells`` hit per member, staggered
    ``stride`` dispatches apart starting at ``start``.  A convenience
    for benches and CI scenarios.
    """
    return [
        FaultEvent(
            at_job=start + position * stride,
            kind="stuck_cells",
            member=member,
            row_fraction=row_fraction,
            sticky=sticky,
        )
        for position, member in enumerate(members)
    ]
