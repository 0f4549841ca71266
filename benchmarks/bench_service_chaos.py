"""SERVICE-CHAOS: fault-campaign benchmark of the resilience layer.

Runs the service benchmark batch (50 jobs / 5 structure groups) under
three seeded chaos scenarios — a stuck-cell storm, a member-death
wave, and a queue-saturation pulse train — and reports, per scenario:

- **success rate** (conclusive answers / jobs) and lost-job count
  (always asserted zero: admission-accepted jobs are never dropped);
- **latency** p50 / p99 over per-job ``elapsed_seconds`` (first
  dispatch to completion — wall-clock, so reported here and *not* in
  the deterministic JSONL records);
- **time-to-recover**: dispatch steps from the first chaos event until
  the service next completes ``RECOVER_RUN`` consecutive jobs without
  a requeue or fallback.

Also carries the resilience perf gate: with no faults, a service with
the full resilience stack enabled must write *exactly* as many
crossbar cells as one with breakers/degradation/backoff disabled —
the fault-tolerance wiring must cost nothing on the no-fault path.
"""

import pytest

from repro.obs.metrics import exact_quantile
from repro.obs.tracer import RecordingTracer
from repro.service import (
    FaultCampaign,
    FaultEvent,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    synthesize_jobs,
)
from repro.service.resilience import stuck_storm

JOBS = 50
GROUPS = 5
POOL = 5
CONSTRAINTS = 12
RECOVER_RUN = 5


def scenario_stuck_storm() -> FaultCampaign:
    """One full-row stuck-OFF hit per pool member, staggered."""
    return FaultCampaign(
        stuck_storm(range(POOL), start=5, stride=3, row_fraction=1.0),
        name="stuck-storm",
        seed=7,
    )


def scenario_member_death() -> FaultCampaign:
    """Two members die permanently mid-batch."""
    return FaultCampaign(
        [
            FaultEvent(at_job=10, kind="member_death", member=1),
            FaultEvent(at_job=25, kind="member_death", member=3),
        ],
        name="member-death",
        seed=7,
    )


def scenario_queue_pulse() -> FaultCampaign:
    """Saturation pulses against a tight admission bound."""
    return FaultCampaign(
        [
            FaultEvent(
                at_job=at,
                kind="queue_pulse",
                jobs=6,
                constraints=CONSTRAINTS,
            )
            for at in (8, 24, 40)
        ],
        name="queue-pulse",
        seed=7,
    )


SCENARIOS = {
    "stuck_storm": scenario_stuck_storm,
    "member_death": scenario_member_death,
    "queue_pulse": scenario_queue_pulse,
}


def run_campaign(
    campaign: FaultCampaign | None,
    *,
    telemetry: ServiceTelemetry | None = None,
    **overrides,
):
    config = ServiceConfig(
        pool_size=POOL,
        queue_depth=16,
        base_seed=7,
        digital_fallback="reference",
        campaign=campaign,
        **overrides,
    )
    tracer = RecordingTracer()
    service = SolverService(config, tracer=tracer, telemetry=telemetry)
    specs = synthesize_jobs(JOBS, groups=GROUPS, constraints=CONSTRAINTS)
    records, summary = service.batch(specs)
    return service, specs, records, summary, tracer


def time_to_recover(campaign: FaultCampaign, records) -> int | None:
    """Dispatch steps from first chaos event to a clean-run streak.

    Records are in completion order, which for the serial scheduler is
    dispatch order; "recovered" means ``RECOVER_RUN`` consecutive jobs
    finished first-try (no requeue, no fallback) after the first event
    fired.  ``None`` means the batch ended before the streak.
    """
    first_event = min(e.at_job for e in campaign.events)
    streak = 0
    for position, record in enumerate(records):
        if position < first_event:
            continue
        if record.requeues == 0 and not record.fallback:
            streak += 1
            if streak >= RECOVER_RUN:
                return position - first_event + 1
        else:
            streak = 0
    return None


@pytest.mark.benchmark(group="service-chaos")
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_service_under_chaos(benchmark, perf_record, scenario):
    campaign = SCENARIOS[scenario]()

    def run():
        return run_campaign(campaign)

    service, specs, records, summary, _ = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Zero lost jobs: every accepted job produced exactly one record.
    submitted = {spec.job_id for spec in specs}
    finished = [record.spec.job_id for record in records]
    assert submitted <= set(finished)
    assert len(finished) == len(set(finished))
    # The campaign fully fired (no events scheduled past the batch).
    assert campaign.fired == len(campaign)

    success_rate = summary.succeeded / summary.jobs
    assert success_rate >= 0.9  # fallback-backed: chaos never routs it

    latencies = [record.elapsed_seconds for record in records]
    recover = time_to_recover(campaign, records)
    registry = service.telemetry.registry
    record_fields = {
        "bench": f"service_chaos_{scenario}",
        "scenario": scenario,
        "jobs": JOBS,
        "chaos_events": len(campaign),
        "records": len(records),
        "success_rate": round(success_rate, 4),
        "requeues": summary.requeues,
        "fallbacks": summary.fallbacks,
        "retired_members": POOL - service.pool.active_members(),
        "latency_p50_ms": round(1e3 * exact_quantile(latencies, 0.50), 3),
        "latency_p99_ms": round(1e3 * exact_quantile(latencies, 0.99), 3),
        "energy_j": summary.energy_j,
        "time_to_recover_jobs": recover,
        "breaker_opens": registry.counter_value("pool.breaker.opened"),
        "degradation_sheds": registry.counter_value(
            "service.degradation.sheds"
        ),
        "jobs_per_second": summary.jobs_per_second,
    }
    # Schema guard: downstream tooling greps these exact keys, so the
    # shared-quantile swap must not rename or drop any of them.
    assert {
        "bench", "scenario", "jobs", "chaos_events", "records",
        "success_rate", "requeues", "fallbacks", "retired_members",
        "latency_p50_ms", "latency_p99_ms", "time_to_recover_jobs",
        "breaker_opens", "degradation_sheds", "jobs_per_second",
    } <= set(record_fields)
    perf_record.update(record_fields)


@pytest.mark.benchmark(group="service-chaos")
def test_resilience_no_fault_overhead(perf_record):
    """Perf gate: resilience + telemetry wiring is free of writes.

    The no-fault batch must write the identical number of crossbar
    cells with the full resilience stack (breakers, degradation,
    backoff — the defaults) as with all of it disabled; any extra
    write means the wiring leaked into the hot path.  A third arm
    attaches full live telemetry (registry + SLO + flight recorder) —
    observability must also cost zero cells.
    """
    _, _, _, on_summary, on_tracer = run_campaign(None)
    _, _, _, off_summary, off_tracer = run_campaign(
        None, breaker=None, degradation=None, backoff=None
    )
    telemetry = ServiceTelemetry()
    _, _, _, telem_summary, telem_tracer = run_campaign(
        None, telemetry=telemetry
    )
    on_cells = on_tracer.counters["crossbar.cells_written"]
    off_cells = off_tracer.counters["crossbar.cells_written"]
    telem_cells = telem_tracer.counters["crossbar.cells_written"]
    assert on_summary.failed == 0 and off_summary.failed == 0
    assert telem_summary.failed == 0
    assert on_cells == off_cells
    assert telem_cells == on_cells
    assert on_summary.cache_hit_rate == off_summary.cache_hit_rate
    assert telemetry.jobs == JOBS  # the hooks actually fired
    perf_record.update(
        {
            "bench": "resilience_no_fault_overhead",
            "jobs": JOBS,
            "cells_written_resilience_on": on_cells,
            "cells_written_resilience_off": off_cells,
            "cells_written_telemetry_on": telem_cells,
            "cache_hit_rate": on_summary.cache_hit_rate,
        }
    )
