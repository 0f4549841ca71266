"""BLAS thread pinning in worker processes."""

import concurrent.futures

import pytest

import repro.service.dispatch
from repro.backend.blas import blas_threads, pin_blas_threads
from repro.experiments import SweepConfig, run_sweep
from repro.service import ServiceConfig, SolverService, synthesize_jobs

pytestmark = pytest.mark.skipif(
    not blas_threads(), reason="no bundled OpenBLAS in this numpy/scipy"
)


def test_pinned_child_reports_one_thread():
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=1, initializer=pin_blas_threads
    ) as executor:
        counts = executor.submit(blas_threads).result(timeout=60)
    assert set(counts) == set(blas_threads())
    assert set(counts.values()) == {1}


@pytest.fixture
def initializers(monkeypatch):
    """The initializer of every process pool the test builds."""
    seen = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            seen.append(kwargs.get("initializer"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(repro.service.dispatch, "ProcessPoolExecutor", Spy)
    return seen


def test_sweep_workers_pin_blas(initializers):
    config = SweepConfig(sizes=(8,), variations=(0,), trials=2)
    run_sweep("feasible", solver="reference", config=config, workers=2)
    assert initializers == [pin_blas_threads]


def test_service_process_executor_pins_blas(initializers):
    service = SolverService(
        ServiceConfig(pool_size=2, base_seed=7, workers=2, executor="process")
    )
    _, summary = service.batch(synthesize_jobs(2, constraints=8))
    assert summary.failed == 0
    assert initializers == [pin_blas_threads]
