"""Trace replay: span summaries and counter reconciliation.

Consumes the event stream of a :class:`~repro.obs.tracer.
RecordingTracer` (live, or re-read from a JSONL trace via
:func:`repro.obs.sinks.read_trace_jsonl`) and produces:

- :func:`span_totals` — per-span-name call counts and cumulative
  seconds (the "where did the wall clock go" table);
- :func:`replay_counters` / :func:`replay_gauges` — counter totals
  and final gauge values recomputed purely from the event stream,
  optionally restricted to one span's subtree;
- :func:`reconcile_with_counters` — checks the replayed analog-op
  totals of the *final* solve attempt against the run's
  :class:`~repro.core.result.CrossbarCounters` and iteration count.
  The two are maintained independently (tracer events inside the
  crossbar simulator vs. the solver's own tallies), so agreement is a
  strong end-to-end consistency check on the instrumentation.
"""

from __future__ import annotations

import dataclasses
import math

from repro.analysis.tables import render_table

#: Tracer counter name -> CrossbarCounters field carrying the same
#: total.  Integer fields must match exactly; float fields (latency /
#: energy) are compared with a relative tolerance.
COUNTER_FIELDS = {
    "analog.multiplies": "multiplies",
    "analog.solves": "solves",
    "crossbar.cells_written": "cells_written",
    "crossbar.write_pulses": "write_pulses",
    "crossbar.write_latency_s": "write_latency_s",
    "crossbar.write_energy_j": "write_energy_j",
    "crossbar.verify_reads": "verify_reads",
    "crossbar.verify_repulsed": "verify_repulsed",
    "crossbar.verify_unverified": "verify_unverified",
}

_FLOAT_FIELDS = frozenset({"write_latency_s", "write_energy_j"})


def _as_dicts(events) -> list[dict]:
    """Accept tracer event objects or already-plain dicts."""
    return [
        event if isinstance(event, dict) else event.to_dict()
        for event in events
    ]


def _subtree_ids(events: list[dict], root_id: int) -> set[int]:
    """Span ids inside ``root_id``'s subtree (including the root)."""
    parents = {
        e["span_id"]: e["parent_id"] for e in events if e["kind"] == "span"
    }
    members = set()
    for span_id in parents:
        probe: int | None = span_id
        seen = set()
        while probe is not None and probe not in seen:
            if probe == root_id:
                members.add(span_id)
                break
            seen.add(probe)
            probe = parents.get(probe)
    members.add(root_id)
    return members


def _scope_ids(events: list[dict], within: str | None) -> set[int] | None:
    """Span-id filter for ``within``; ``None`` means no restriction.

    ``within`` selects the subtree of the *last* span with that name
    (e.g. the final recovery attempt).
    """
    if within is None:
        return None
    roots = [
        e["span_id"]
        for e in events
        if e["kind"] == "span" and e["name"] == within
    ]
    if not roots:
        raise ValueError(f"trace contains no span named {within!r}")
    return _subtree_ids(events, max(roots))


def span_totals(events) -> dict[str, tuple[int, float]]:
    """``span name -> (calls, cumulative seconds)`` over the trace."""
    events = _as_dicts(events)
    totals: dict[str, tuple[int, float]] = {}
    for event in events:
        if event["kind"] != "span":
            continue
        calls, seconds = totals.get(event["name"], (0, 0.0))
        totals[event["name"]] = (calls + 1, seconds + event["duration_s"])
    return totals


def replay_counters(events, *, within: str | None = None) -> dict[str, float]:
    """Counter totals recomputed from the event stream.

    With ``within`` (a span name), only count events attributed to the
    *last* such span's subtree are summed.
    """
    events = _as_dicts(events)
    scope = _scope_ids(events, within)
    totals: dict[str, float] = {}
    for event in events:
        if event["kind"] != "count":
            continue
        if scope is not None and event["span_id"] not in scope:
            continue
        totals[event["name"]] = totals.get(event["name"], 0.0) + event["value"]
    return totals


def replay_gauges(events, *, within: str | None = None) -> dict[str, float]:
    """Final gauge values from the event stream (last write wins)."""
    events = _as_dicts(events)
    scope = _scope_ids(events, within)
    values: dict[str, float] = {}
    for event in events:
        if event["kind"] != "gauge":
            continue
        if scope is not None and event["span_id"] not in scope:
            continue
        values[event["name"]] = event["value"]
    return values


def render_span_summary(events) -> str:
    """Per-span table: calls, total seconds, mean milliseconds."""
    totals = span_totals(events)
    rows = [
        [
            name,
            calls,
            seconds,
            (seconds / calls) * 1e3 if calls else 0.0,
        ]
        for name, (calls, seconds) in sorted(
            totals.items(), key=lambda item: -item[1][1]
        )
    ]
    return render_table(["span", "calls", "total_s", "mean_ms"], rows)


@dataclasses.dataclass(frozen=True)
class ReconcileRow:
    """One reconciled quantity: trace replay vs. solver counters."""

    name: str
    traced: float
    counted: float
    matches: bool


def reconcile_with_counters(events, result) -> list[ReconcileRow]:
    """Reconcile a trace against a result's analog-op counters.

    Replays the count events of the final ``attempt`` span (falling
    back to the whole trace when no attempt spans exist) and compares
    each total in :data:`COUNTER_FIELDS` with the corresponding
    :class:`~repro.core.result.CrossbarCounters` field, plus the
    ``solver.iterations`` gauge against ``result.iterations``.

    Raises ``ValueError`` when the result carries no crossbar counters
    (software solvers have nothing to reconcile).
    """
    counters = result.crossbar
    if counters is None:
        raise ValueError("result has no crossbar counters to reconcile")
    events = _as_dicts(events)
    has_attempts = any(
        e["kind"] == "span" and e["name"] == "attempt" for e in events
    )
    within = "attempt" if has_attempts else None
    replayed = replay_counters(events, within=within)
    gauges = replay_gauges(events, within=within)

    rows = []
    for name, field in COUNTER_FIELDS.items():
        traced = replayed.get(name, 0.0)
        counted = float(getattr(counters, field))
        if field in _FLOAT_FIELDS:
            matches = math.isclose(
                traced, counted, rel_tol=1e-9, abs_tol=1e-30
            )
        else:
            matches = traced == counted
        rows.append(
            ReconcileRow(
                name=name, traced=traced, counted=counted, matches=matches
            )
        )
    iterations = gauges.get("solver.iterations", 0.0)
    rows.append(
        ReconcileRow(
            name="solver.iterations",
            traced=iterations,
            counted=float(result.iterations),
            matches=iterations == float(result.iterations),
        )
    )
    return rows


def render_reconciliation(rows: list[ReconcileRow]) -> str:
    """Text table for a reconciliation report."""
    return render_table(
        ["quantity", "traced", "counted", "ok"],
        [
            [row.name, row.traced, row.counted, "yes" if row.matches else "NO"]
            for row in rows
        ],
    )
