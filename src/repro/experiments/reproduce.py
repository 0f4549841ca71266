"""One-call reproduction driver: run every experiment, write artifacts.

:data:`FIGURES` is the one table of the paper's figures: each name maps
to the sweep that produces it and the renderer that prints it.  Figs.
5, 6 and 7 are three views of one ``feasible`` sweep per solver, so
:func:`run_figures` runs each distinct (experiment, solver) sweep once
however many of its figures are asked for.  ``repro figures``,
``examples/reproduce_figures.py`` and :func:`reproduce_all` all go
through it; ``reproduce_all(output_dir)`` also runs the parasitics
study and writes, per figure, a rendered text table plus
machine-readable CSV/JSON — everything needed to re-plot the paper's
Section 4 from this repository's data.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.analysis.export import write_csv, write_json
from repro.experiments.engine import run_sweep
from repro.experiments.feasible import (
    render_accuracy,
    render_energy,
    render_latency,
)
from repro.experiments.infeasibility import render_infeasibility
from repro.experiments.parasitics import (
    parasitics_sweep,
    render_parasitics,
)
from repro.experiments.runner import SweepConfig

#: Figure name -> (experiment, solver, renderer), in run order.
FIGURES: dict[str, tuple[str, str, Callable]] = {
    "fig5a": ("feasible", "crossbar", render_accuracy),
    "fig5b": ("feasible", "large_scale", render_accuracy),
    "fig6a": ("feasible", "crossbar", render_latency),
    "fig6b": ("feasible", "large_scale", render_latency),
    "fig7a": ("feasible", "crossbar", render_energy),
    "fig7b": ("feasible", "large_scale", render_energy),
    "infeasibility_s1": ("infeasibility", "crossbar", render_infeasibility),
    "infeasibility_s2": (
        "infeasibility",
        "large_scale",
        render_infeasibility,
    ),
}


@dataclasses.dataclass(frozen=True)
class ReproductionArtifact:
    """One experiment's written outputs.

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``fig5a``).
    table_path / csv_path / json_path:
        Files written under the output directory.
    rows:
        The in-memory result rows.
    """

    name: str
    table_path: Path
    csv_path: Path
    json_path: Path
    rows: list


def run_figures(
    names: Iterable[str],
    config: SweepConfig | None = None,
    *,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> Iterator[tuple[str, list, str]]:
    """Yield ``(name, rows, table)`` for each named figure, in order.

    Each distinct (experiment, solver) sweep runs once, on first need,
    and every later figure of that sweep renders the same rows.
    ``workers`` is the process-pool width of each sweep; with
    ``cache_dir`` set, each sweep keeps its resumable cell cache there
    as ``<experiment>-<solver>.cells.jsonl``.
    """
    rows_by_sweep: dict[tuple[str, str], list] = {}
    for name in names:
        experiment, solver, render = FIGURES[name]
        if (experiment, solver) not in rows_by_sweep:
            cache = (
                None
                if cache_dir is None
                else Path(cache_dir) / f"{experiment}-{solver}.cells.jsonl"
            )
            rows_by_sweep[experiment, solver] = run_sweep(
                experiment,
                solver,
                config,
                workers=workers,
                cache_path=cache,
            ).rows
        rows = rows_by_sweep[experiment, solver]
        yield name, rows, render(rows)


def reproduce_all(
    output_dir: str | Path,
    config: SweepConfig | None = None,
    *,
    experiments: tuple[str, ...] | None = None,
    workers: int = 1,
) -> list[ReproductionArtifact]:
    """Run the experiment set and write artifacts under ``output_dir``.

    Parameters
    ----------
    output_dir:
        Directory for the artifacts (created if missing).
    config:
        Sweep grid; defaults to the scaled-down
        :class:`~repro.experiments.runner.SweepConfig`.
    experiments:
        Optional subset of :data:`FIGURES` names (plus
        ``"parasitics"``).
    workers:
        Process-pool width for each sweep (the engine guarantees
        identical rows at any worker count).

    Returns
    -------
    list[ReproductionArtifact]
        One record per experiment, in :data:`FIGURES` order, then
        parasitics.
    """
    output = Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)
    selected = set(experiments) if experiments is not None else None
    names = [n for n in FIGURES if selected is None or n in selected]
    artifacts = [
        _write(output, name, rows, table)
        for name, rows, table in run_figures(names, config, workers=workers)
    ]
    if selected is None or "parasitics" in selected:
        rows = parasitics_sweep()
        artifacts.append(
            _write(output, "parasitics", rows, render_parasitics(rows))
        )
    return artifacts


def _write(
    output: Path, name: str, rows: list, table: str
) -> ReproductionArtifact:
    table_path = output / f"{name}.txt"
    table_path.write_text(table + "\n")
    csv_path = write_csv(rows, output / f"{name}.csv")
    json_path = write_json(rows, output / f"{name}.json")
    return ReproductionArtifact(
        name=name,
        table_path=table_path,
        csv_path=csv_path,
        json_path=json_path,
        rows=rows,
    )
