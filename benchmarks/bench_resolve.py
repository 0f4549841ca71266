"""RESOLVE: warm parameter-streaming re-solves vs cold re-programming.

One benchmark: ``test_warm_resolve_stream_vs_cold`` runs the same
20-step rolling-horizon parameter stream (fixed constraint matrix,
drifting ``b``/``c``) through the solver service twice:

- **warm** — the re-solve tier as shipped: the structural program is
  paid once by the base job, every step lands on the pool member
  already holding the structure's fingerprint (zero programming-cell
  writes, counter-asserted) and warm-starts its interior-point
  iterates from the base optimum.
- **cold** — the control arm with the programming cache and warm
  starts disabled: every step re-programs the full array and runs the
  cold iteration trajectory, which is what a solver without the
  re-solve tier would pay.

Gates: warm re-solves write exactly **0** programming cells, and the
warm stream completes at least **3x** faster wall-clock than the cold
stream.  Drops a machine-readable ``BENCH_*.json`` perf record under
``REPRO_BENCH_OUT`` with the measured cells-saved figures.
"""

import pytest

from repro.obs.clock import Stopwatch
from repro.obs.tracer import RecordingTracer
from repro.service import ServiceConfig, SolverService
from repro.workloads import rolling_horizon_stream

STEPS = 20
CONSTRAINTS = 24
SEED = 13
DRIFT = 0.02


def run_stream(*, warm: bool):
    """One pass over the stream; returns (records, summary, service, s)."""
    service = SolverService(
        ServiceConfig(
            pool_size=1,
            base_seed=SEED,
            cache_enabled=warm,
            warm_start=warm,
        ),
        tracer=RecordingTracer(),
    )
    _, specs = rolling_horizon_stream(
        STEPS, constraints=CONSTRAINTS, seed=SEED, drift=DRIFT
    )
    with Stopwatch() as clock:
        records, summary = service.batch(specs)
    assert summary.failed == 0
    assert len(records) == STEPS + 1
    return records, summary, service, clock.elapsed_seconds


@pytest.mark.benchmark(group="resolve")
def test_warm_resolve_stream_vs_cold(benchmark, perf_record):
    cold_records, _, cold_service, cold_s = run_stream(warm=False)

    def run():
        return run_stream(warm=True)

    records, summary, service, warm_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    resolves = [
        r for r in records if getattr(r.spec, "base_job_id", None)
    ]
    assert len(resolves) == STEPS

    # Gate 1: the warm tier pays zero programming cells per re-solve.
    resolve_program_cells = sum(
        attempt.program_cells
        for record in resolves
        for attempt in record.attempts
    )
    assert resolve_program_cells == 0, (
        f"warm re-solves wrote {resolve_program_cells} programming "
        f"cells; the re-solve tier must write none"
    )
    registry = service.telemetry.registry
    assert registry.counter_value("service.resolve.program_cells") == 0.0
    assert (
        registry.counter_value("service.resolve.warm_placements") == STEPS
    )

    # Gate 2: the warm stream is at least 3x faster wall-clock.
    speedup = cold_s / warm_s
    assert speedup >= 3.0, (
        f"warm stream only {speedup:.2f}x faster than cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s)"
    )

    # Cells the cold arm wrote for the same work (program + iteration
    # diagonals) vs the warm arm's iteration-only writes.
    warm_cells = service.tracer.counters["crossbar.cells_written"]
    cold_cells = cold_service.tracer.counters["crossbar.cells_written"]
    cold_program_cells = sum(
        attempt.program_cells
        for record in cold_records
        for attempt in record.attempts
        if getattr(record.spec, "base_job_id", None)
    )
    warm_iters = [
        r.result.iterations
        for r in records
        if getattr(r.spec, "base_job_id", None)
    ]
    cold_iters = [
        r.result.iterations
        for r in cold_records
        if getattr(r.spec, "base_job_id", None)
    ]
    perf_record.update(
        {
            "bench": "resolve_stream",
            "steps": STEPS,
            "constraints": CONSTRAINTS,
            "drift": DRIFT,
            "warm_elapsed_s": round(warm_s, 4),
            "cold_elapsed_s": round(cold_s, 4),
            "speedup": round(speedup, 2),
            "resolve_program_cells_warm": resolve_program_cells,
            "resolve_program_cells_cold": cold_program_cells,
            "cells_written_warm_total": warm_cells,
            "cells_written_cold_total": cold_cells,
            "cells_saved_fraction": 1.0 - warm_cells / cold_cells,
            "mean_iterations_warm": round(
                sum(warm_iters) / len(warm_iters), 2
            ),
            "mean_iterations_cold": round(
                sum(cold_iters) / len(cold_iters), 2
            ),
        }
    )
