"""Figs. 5-7 reproduction: accuracy, latency and energy of one sweep.

The paper's Figs. 5, 6 and 7 report three views of the same simulated
solves, so each trial solves one random feasible LP once and reads all
three off the result:

- Fig. 5 — relative error of the optimal value against the software
  ground truth (scipy HiGHS, the "Matlab linprog" stand-in);
- Fig. 6 — the measured iteration and write counters priced by the
  device + periphery latency model, against the anchored CPU models
  of Matlab ``linprog`` and PDIP-in-Matlab;
- Fig. 7 — the same counters priced in joules, the CPU side at the
  paper-implied package power (~35 W).

Execution goes through the sweep engine
(:mod:`repro.experiments.engine`) via :func:`feasible_trial` (and its
lockstep twin :func:`feasible_trial_batch`) and
:func:`aggregate_feasible`, registered as :data:`SPEC`.  One sweep
renders all three tables: :func:`render_accuracy`,
:func:`render_latency` and :func:`render_energy`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.metrics import SampleStats, relative_error
from repro.analysis.tables import render_table
from repro.baselines.scipy_linprog import solve_scipy
from repro.core.batch_solver import solve_crossbar_batch
from repro.core.result import SolverResult, SolveStatus
from repro.costmodel.cpu import (
    cpu_energy,
    linprog_latency,
    software_pdip_latency,
)
from repro.costmodel.energy import estimate_energy
from repro.costmodel.latency import estimate_latency
from repro.experiments.engine import SweepSpec
from repro.experiments.runner import (
    SweepConfig,
    cell_seed,
    settings_for,
    solver_for,
)
from repro.obs.tracer import Tracer
from repro.workloads.random_lp import random_feasible_lp


@dataclasses.dataclass(frozen=True)
class FeasibleRow:
    """One sweep cell of Figs. 5-7.

    Attributes
    ----------
    solver:
        Registry name of the solver under test.
    constraints / variation_percent:
        Cell coordinates.
    trials:
        Problems attempted.
    solved:
        Problems that returned OPTIMAL.
    error / iterations:
        Relative-error and iteration-count statistics over the solved
        problems (Fig. 5).
    latency / energy:
        Modeled seconds and joules per solved problem (Figs. 6-7);
        empty for a software solver, which has no counters to price.
    linprog_s / pdip_matlab_s / linprog_j / pdip_matlab_j:
        The anchored CPU models at this size, in seconds and joules.
    """

    solver: str
    constraints: int
    variation_percent: int
    trials: int
    solved: int
    error: SampleStats
    iterations: SampleStats
    latency: SampleStats
    energy: SampleStats
    linprog_s: float
    pdip_matlab_s: float
    linprog_j: float
    pdip_matlab_j: float

    @property
    def speedup_vs_linprog(self) -> float:
        """linprog latency / mean crossbar latency (0 if unsolved).

        The paper's headline ratio (26x-113x at m=1024).
        """
        if self.latency.count == 0 or self.latency.mean == 0.0:
            return 0.0
        return self.linprog_s / self.latency.mean

    @property
    def gain_vs_linprog(self) -> float:
        """linprog energy / mean crossbar energy (0 if unsolved)."""
        if self.energy.count == 0 or self.energy.mean == 0.0:
            return 0.0
        return self.linprog_j / self.energy.mean


def _setup(
    size: int,
    variation: int,
    trial: int,
    config: SweepConfig,
    tracer: Tracer,
) -> tuple:
    """A trial's problem, HiGHS truth and solver generator.

    ``random_feasible_lp`` is feasible and bounded by construction, so
    a truth without an optimum is an error: the engine records the
    cell as crashed instead of silently dropping it.
    """
    seed = cell_seed(config, size, variation, trial)
    problem = random_feasible_lp(size, rng=np.random.default_rng(seed))
    truth = solve_scipy(problem)
    if truth.status is not SolveStatus.OPTIMAL:
        raise RuntimeError(
            f"HiGHS returned {truth.status.value} on a feasible, "
            "bounded LP"
        )
    tracer.count("sweep.trials")
    return problem, truth, np.random.default_rng(seed.spawn(1)[0])


def _payload(
    solver: str,
    variation: int,
    result: SolverResult,
    truth: SolverResult,
    tracer: Tracer,
) -> dict:
    """Score one solve against its truth and price its counters."""
    if result.status is not SolveStatus.OPTIMAL:
        return {"solved": False}
    tracer.count("sweep.solved")
    payload = {
        "solved": True,
        "error": relative_error(result.objective, truth.objective),
        "iterations": float(result.iterations),
    }
    if result.crossbar is not None:
        device = settings_for(solver, variation).device
        payload["latency_s"] = estimate_latency(result, device).total_s
        payload["energy_j"] = estimate_energy(result, device).total_j
    return payload


def feasible_trial(
    solver: str,
    size: int,
    variation: int,
    trial: int,
    config: SweepConfig,
    tracer: Tracer,
) -> dict:
    """One trial: solve a random feasible LP, score it, price it.

    Runs in a sweep-engine worker; all randomness derives from
    :func:`~repro.experiments.runner.cell_seed`, so the payload is
    identical wherever (and whenever) the cell executes.
    """
    problem, truth, rng = _setup(size, variation, trial, config, tracer)
    result = solver_for(solver, variation, tracer=tracer)(problem, rng)
    return _payload(solver, variation, result, truth, tracer)


def feasible_trial_batch(
    solver: str,
    keys: list,
    config: SweepConfig,
    tracer: Tracer,
) -> list[dict]:
    """A same-``(size, variation)`` group of trials, batched.

    The crossbar solves for the whole group run as ONE lockstep fleet
    on stacked arrays (:func:`~repro.core.batch_solver.
    solve_crossbar_batch`); problem generation, ground truth, pricing
    and seed derivation stay per-trial, exactly as
    :func:`feasible_trial` does them, so every payload is bitwise what
    the serial path returns.  Non-crossbar solvers have no batched
    engine and fall through to the per-trial function.
    """
    if solver != "crossbar":
        return [
            feasible_trial(
                solver, key.size, key.variation, key.trial, config, tracer
            )
            for key in keys
        ]
    if len({key.variation for key in keys}) != 1:
        raise ValueError("batched trials must share one variation level")
    variation = keys[0].variation
    setups = [
        _setup(key.size, key.variation, key.trial, config, tracer)
        for key in keys
    ]
    results = solve_crossbar_batch(
        [problem for problem, _, _ in setups],
        settings_for(solver, variation),
        rngs=[rng for _, _, rng in setups],
    )
    return [
        _payload(solver, variation, result, truth, tracer)
        for (_, truth, _), result in zip(setups, results)
    ]


def aggregate_feasible(
    solver: str,
    size: int,
    variation: int,
    config: SweepConfig,
    payloads: list[dict | None],
) -> FeasibleRow:
    """Fold one cell's per-trial payloads (trial order) into a row."""
    solved = [p for p in payloads if p is not None and p["solved"]]
    priced = [p for p in solved if "latency_s" in p]
    linprog_s = linprog_latency(size)
    pdip_matlab_s = software_pdip_latency(size)
    return FeasibleRow(
        solver=solver,
        constraints=size,
        variation_percent=variation,
        trials=config.trials,
        solved=len(solved),
        error=SampleStats.from_samples([p["error"] for p in solved]),
        iterations=SampleStats.from_samples(
            [p["iterations"] for p in solved]
        ),
        latency=SampleStats.from_samples([p["latency_s"] for p in priced]),
        energy=SampleStats.from_samples([p["energy_j"] for p in priced]),
        linprog_s=linprog_s,
        pdip_matlab_s=pdip_matlab_s,
        linprog_j=cpu_energy(linprog_s),
        pdip_matlab_j=cpu_energy(pdip_matlab_s),
    )


#: The columns every figure table starts with.
_CELL_HEADERS = ["solver", "constraints", "var%", "solved"]


def _cell_columns(row: FeasibleRow) -> list:
    """A row's values for :data:`_CELL_HEADERS`."""
    return [
        row.solver,
        row.constraints,
        row.variation_percent,
        f"{row.solved}/{row.trials}",
    ]


def render_accuracy(rows: list[FeasibleRow]) -> str:
    """Fig. 5-style text table: relative error per cell."""
    return render_table(
        [*_CELL_HEADERS, "mean_rel_err", "max_rel_err", "mean_iters"],
        [
            [
                *_cell_columns(row),
                row.error.mean,
                row.error.maximum,
                row.iterations.mean,
            ]
            for row in rows
        ],
    )


def render_latency(rows: list[FeasibleRow]) -> str:
    """Fig. 6-style text table (latencies in milliseconds)."""
    return render_table(
        [
            *_CELL_HEADERS,
            "crossbar_ms",
            "linprog_ms",
            "pdip_matlab_ms",
            "speedup",
        ],
        [
            [
                *_cell_columns(row),
                row.latency.mean * 1e3,
                row.linprog_s * 1e3,
                row.pdip_matlab_s * 1e3,
                row.speedup_vs_linprog,
            ]
            for row in rows
        ],
    )


def render_energy(rows: list[FeasibleRow]) -> str:
    """Fig. 7-style text table (energies in joules)."""
    return render_table(
        [*_CELL_HEADERS, "crossbar_J", "linprog_J", "pdip_matlab_J", "gain"],
        [
            [
                *_cell_columns(row),
                row.energy.mean,
                row.linprog_j,
                row.pdip_matlab_j,
                row.gain_vs_linprog,
            ]
            for row in rows
        ],
    )


def render_feasible(rows: list[FeasibleRow]) -> str:
    """The Fig. 5, 6 and 7 tables of one sweep, blank-line separated."""
    return "\n\n".join(
        render(rows)
        for render in (render_accuracy, render_latency, render_energy)
    )


#: Engine registration: per-trial work + per-cell fold + renderer.
SPEC = SweepSpec(
    name="feasible",
    trial=feasible_trial,
    aggregate=aggregate_feasible,
    render=render_feasible,
    trial_batch=feasible_trial_batch,
)
