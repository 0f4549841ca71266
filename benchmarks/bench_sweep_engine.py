"""EXP-ENGINE: serial vs parallel sweep engine benchmark.

Runs the Figs. 5-7 ``feasible`` sweep once inline (``workers=1``)
and once through the process pool (``workers=4``) on the benchmark
grid, asserts the two produce byte-identical rendered tables (the
engine's determinism contract), and records both wall-clock times plus
the measured speedup in a ``BENCH_*.json`` perf record.

The speedup is bounded by the host.  Each worker process pins its
BLAS to one thread (``repro.backend.blas.pin_blas_threads``), so the
workers do not oversubscribe the cores: on a 2-core host, in three
alternating runs of each, a 36-cell ``feasible`` sweep took 4.1-5.4 s
inline and 2.4-2.6 s at ``workers=2``.  On a single-core
container the pool adds only fork overhead and the ratio sits near (or
below) 1.0.  ``cpu_count`` is recorded alongside the timings so the
number can be judged in context.
"""

import os

import pytest

from repro.experiments import run_sweep
from repro.experiments.engine import resolve_spec
from repro.obs.clock import monotonic

from conftest import bench_config

WORKERS = 4


@pytest.mark.benchmark(group="sweep-engine")
def test_parallel_sweep_identical_and_timed(benchmark, perf_record):
    config = bench_config()
    spec = resolve_spec("feasible")

    started = monotonic()
    serial = run_sweep("feasible", "crossbar", config, workers=1)
    serial_s = monotonic() - started

    def run():
        return run_sweep(
            "feasible", "crossbar", config, workers=WORKERS
        )

    parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    parallel_s = parallel.elapsed_seconds

    # Determinism contract: rows and rendered tables are
    # byte-identical at any worker count.
    assert serial.rows == parallel.rows
    assert spec.render(serial.rows) == spec.render(parallel.rows)
    assert not serial.failures and not parallel.failures

    perf_record.update(
        {
            "bench": "sweep_engine_feasible",
            "grid": {
                "sizes": list(config.sizes),
                "variations": list(config.variations),
                "trials": config.trials,
            },
            "cells": serial.executed,
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s else None,
            "identical_rows": True,
            "fingerprint": serial.fingerprint,
        }
    )
