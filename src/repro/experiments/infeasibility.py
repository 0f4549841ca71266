"""Infeasibility-detection study (Section 4.4 anchors).

The paper highlights infeasibility detection as the biggest win: at
m = 1024, Matlab linprog needs ~30 s to certify infeasibility while
the crossbar solver's big-M divergence test fires in ~265 ms (113x).
This experiment measures detection rate, iterations-to-detection, and
estimated detection latency on batches of planted-contradiction LPs.

Execution goes through the sweep engine
(:mod:`repro.experiments.engine`) via :func:`infeasibility_trial` /
:func:`aggregate_infeasibility`, registered as :data:`SPEC` — so the
sweep parallelizes and resumes like every other experiment.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np

from repro.analysis.metrics import SampleStats
from repro.analysis.tables import render_table
from repro.core.result import SolveStatus
from repro.costmodel.cpu import linprog_latency
from repro.costmodel.latency import estimate_latency
from repro.experiments.engine import SweepSpec, run_sweep
from repro.experiments.runner import (
    SweepConfig,
    cell_seed,
    settings_for,
    solver_for,
)
from repro.obs.tracer import Tracer
from repro.workloads.random_lp import random_infeasible_lp


@dataclasses.dataclass(frozen=True)
class InfeasibilityRow:
    """One sweep cell of the infeasibility-detection study."""

    solver: str
    constraints: int
    variation_percent: int
    trials: int
    detected: int
    iterations: SampleStats
    latency: SampleStats
    linprog_s: float

    @property
    def detection_rate(self) -> float:
        """Fraction of planted-infeasible problems flagged INFEASIBLE."""
        return self.detected / self.trials if self.trials else 0.0

    @property
    def speedup_vs_linprog(self) -> float:
        """linprog infeasibility latency / mean crossbar latency."""
        if self.latency.count == 0 or self.latency.mean == 0.0:
            return 0.0
        return self.linprog_s / self.latency.mean


def infeasibility_trial(
    solver: str,
    size: int,
    variation: int,
    trial: int,
    config: SweepConfig,
    tracer: Tracer,
) -> dict:
    """One detection trial: planted-infeasible LP, big-M divergence."""
    seed = cell_seed(config, size, variation, trial)
    rng = np.random.default_rng(seed)
    problem = random_infeasible_lp(size, rng=rng)
    tracer.count("sweep.trials")
    solve = solver_for(solver, variation, tracer=tracer)
    result = solve(problem, np.random.default_rng(seed.spawn(1)[0]))
    payload: dict = {"detected": False}
    if result.status is SolveStatus.INFEASIBLE:
        tracer.count("sweep.detected")
        payload.update(detected=True, iterations=float(result.iterations))
        if result.crossbar is not None:
            settings = settings_for(solver, variation)
            breakdown = estimate_latency(result, settings.device)
            payload["latency_s"] = breakdown.total_s
    return payload


def aggregate_infeasibility(
    solver: str,
    size: int,
    variation: int,
    config: SweepConfig,
    payloads: list[dict | None],
) -> InfeasibilityRow:
    """Fold one cell's per-trial payloads (trial order) into a row."""
    detected = [
        p for p in payloads if p is not None and p.get("detected")
    ]
    return InfeasibilityRow(
        solver=solver,
        constraints=size,
        variation_percent=variation,
        trials=config.trials,
        detected=len(detected),
        iterations=SampleStats.from_samples(
            [p["iterations"] for p in detected]
        ),
        latency=SampleStats.from_samples(
            [p["latency_s"] for p in detected if "latency_s" in p]
        ),
        linprog_s=linprog_latency(size, infeasible=True),
    )


def infeasibility_sweep(
    solver: str = "crossbar",
    config: SweepConfig | None = None,
    *,
    tracer: Tracer | None = None,
    workers: int = 1,
    cache_path: str | pathlib.Path | None = None,
) -> list[InfeasibilityRow]:
    """Run the detection sweep and return one row per cell.

    Instrumented like the ``feasible`` sweep: one
    ``sweep_cell`` span per trial (attributes include the worker pid),
    ``sweep.trials`` / ``sweep.detected`` counters across the run.
    ``workers`` / ``cache_path`` enable parallel and resumable
    execution with bit-identical rows.
    """
    return run_sweep(
        "infeasibility",
        solver,
        config,
        tracer=tracer,
        workers=workers,
        cache_path=cache_path,
    ).rows


def render_infeasibility(rows: list[InfeasibilityRow]) -> str:
    """Detection-study text table."""
    table = [
        [
            row.solver,
            row.constraints,
            row.variation_percent,
            f"{row.detected}/{row.trials}",
            row.iterations.mean,
            row.latency.mean * 1e3,
            row.linprog_s * 1e3,
            row.speedup_vs_linprog,
        ]
        for row in rows
    ]
    return render_table(
        [
            "solver",
            "constraints",
            "var%",
            "detected",
            "mean_iters",
            "crossbar_ms",
            "linprog_ms",
            "speedup",
        ],
        table,
    )


#: Engine registration: per-trial work + per-cell fold + renderer.
SPEC = SweepSpec(
    name="infeasibility",
    trial=infeasibility_trial,
    aggregate=aggregate_infeasibility,
    render=render_infeasibility,
)
