"""Regenerate any of the paper's figures/tables from the command line.

Usage:
    python examples/reproduce_figures.py fig5a [--paper-scale]
    python examples/reproduce_figures.py fig5b fig6a fig7b --workers 4
    python examples/reproduce_figures.py all --workers 4 --cache-dir .sweeps

Targets: fig5a fig5b fig6a fig6b fig7a fig7b infeasibility_s1
infeasibility_s2 all

``--paper-scale`` runs the full Section 4.2 grid (constraints to 1024,
100 trials per cell); the default grid preserves every figure's shape
in minutes.  Figs. 5-7 of one solver come from one sweep, run once
however many of them are asked for.  ``--workers N`` fans each sweep
out to N processes with bit-identical tables; ``--cache-dir`` keeps
one JSONL cell cache per sweep so an interrupted (paper-scale) run
resumes instead of restarting.  Run with ``--help`` for a walkthrough
mapping each paper figure to its experiment module and CLI entry
point.
"""

import argparse

from repro.experiments import FIGURES, SweepConfig, paper_scale, run_figures

WALKTHROUGH = """\
walkthrough — paper figure -> module -> invocation:

  fig5a-fig7b (Figs. 5-7).  repro/experiments/feasible.py solves
  random feasible LPs on Solver 1 (the "a" panels) or Solver 2 (the
  "b" panels), once per cell, and reads three figures off each solve:
  Fig. 5's relative error against scipy HiGHS (the paper's Matlab
  linprog stand-in); Fig. 6's latency, the measured iteration/write
  counters priced by the device + periphery cost model
  (repro/costmodel/latency.py) against the anchored CPU models; and
  Fig. 7's energy, the same counters priced in joules
  (repro/costmodel/energy.py), CPU side at the paper-implied ~35 W.
  Equivalent CLI, printing all three tables:
  `python -m repro sweep feasible --solver crossbar|large_scale`.

  infeasibility_s1 / infeasibility_s2 (Section 4.4).
  repro/experiments/infeasibility.py plants contradictory constraints
  and measures how fast the big-M divergence certificate fires — the
  paper's 113x headline.  Equivalent CLI:
  `python -m repro sweep infeasibility --solver crossbar|large_scale`.

  Both run on the sweep engine (repro/experiments/engine.py):
  deterministic per-cell seeding means any --workers count produces
  bit-identical tables, and a --cache-dir cell cache makes long runs
  resumable; each worker process runs one BLAS thread.  The
  parasitics study (`python -m repro parasitics`) and the NoC
  comparison (benchmarks/bench_noc.py) have no sweep grid and run
  separately.
"""


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's figures as text tables.",
        epilog=WALKTHROUGH,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "targets",
        nargs="+",
        choices=[*FIGURES, "all"],
        help="figures to regenerate",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run the full Section 4.2 grid (slow)",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="override trials per cell",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width (tables identical at any count)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="keep per-sweep cell caches here; re-runs resume",
    )
    args = parser.parse_args()

    config = paper_scale() if args.paper_scale else SweepConfig()
    if args.trials is not None:
        config = SweepConfig(
            sizes=config.sizes,
            variations=config.variations,
            trials=args.trials,
            seed=config.seed,
        )

    targets = list(FIGURES) if "all" in args.targets else args.targets
    for target, _, table in run_figures(
        targets, config, workers=args.workers, cache_dir=args.cache_dir
    ):
        experiment, solver, _ = FIGURES[target]
        print(f"\n=== {target} ({experiment}, {solver}) ===")
        print(table)


if __name__ == "__main__":
    main()
