"""Table/figure regeneration harness (Figs. 5-7, Section 4.4 anchors).

Every sweep executes on the parallel, resumable engine
(:mod:`repro.experiments.engine`): call
:func:`~repro.experiments.engine.run_sweep` with ``workers=N`` /
``cache_path=...`` for the full
:class:`~repro.experiments.engine.SweepRunResult` (failures, cache
hits, fingerprint), or :func:`run_figures` to render figures from
:data:`FIGURES`, running each sweep once.
"""

from repro.experiments.engine import (
    CellFailure,
    CellKey,
    CellOutcome,
    SweepCache,
    SweepRunResult,
    SweepSpec,
    grid_keys,
    run_sweep,
    sweep_fingerprint,
)
from repro.experiments.feasible import (
    FeasibleRow,
    render_accuracy,
    render_energy,
    render_latency,
)
from repro.experiments.infeasibility import (
    InfeasibilityRow,
    infeasibility_sweep,
    render_infeasibility,
)
from repro.experiments.parasitics import (
    ParasiticsRow,
    max_usable_tile,
    parasitics_sweep,
    render_parasitics,
)
from repro.experiments.reproduce import (
    FIGURES,
    ReproductionArtifact,
    reproduce_all,
    run_figures,
)
from repro.experiments.runner import (
    SOLVER_NAMES,
    SweepConfig,
    paper_scale,
    settings_for,
    solver_for,
)

__all__ = [
    "SweepConfig",
    "paper_scale",
    "run_sweep",
    "sweep_fingerprint",
    "grid_keys",
    "SweepSpec",
    "SweepRunResult",
    "SweepCache",
    "CellKey",
    "CellOutcome",
    "CellFailure",
    "solver_for",
    "settings_for",
    "SOLVER_NAMES",
    "FeasibleRow",
    "render_accuracy",
    "render_latency",
    "render_energy",
    "InfeasibilityRow",
    "infeasibility_sweep",
    "render_infeasibility",
    "ParasiticsRow",
    "parasitics_sweep",
    "max_usable_tile",
    "render_parasitics",
    "FIGURES",
    "run_figures",
    "ReproductionArtifact",
    "reproduce_all",
]
