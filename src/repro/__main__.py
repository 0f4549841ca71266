"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``solve`` — solve a random LP of a given size on a chosen solver and
  print the outcome (a smoke test of the whole stack); exits non-zero
  when the solve is inconclusive.
- ``sweep`` — run one experiment sweep on the parallel, resumable
  engine (``--workers N --resume cache.jsonl``).
- ``figures`` — regenerate the paper's figure tables (same engine as
  ``examples/reproduce_figures.py``).
- ``parasitics`` — the IR-drop tile-size study.
- ``serve`` — run a synthetic job batch through the solver service
  (crossbar fleet pool + programming cache + job queue).
- ``batch`` — run a JSONL job file through the solver service and emit
  per-job result records.

Installed as the ``repro`` console script (``pip install -e .``), or
runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib

import numpy as np

from repro.baselines import solve_scipy
from repro.costmodel import estimate_energy, estimate_latency
from repro.devices import variation_from_percent
from repro.devices.faults import StuckAtFaults
from repro.reliability import (
    ProbePolicy,
    RecoveryPolicy,
    WriteVerifyPolicy,
    describe_attempts,
)
from repro.experiments import (
    FIGURES,
    SweepConfig,
    run_figures,
    run_sweep,
    max_usable_tile,
    paper_scale,
    parasitics_sweep,
    render_parasitics,
    settings_for,
    solver_for,
)
from repro.experiments.engine import SPEC_REFS, resolve_spec
from repro.obs import (
    RecordingTracer,
    write_metrics_textfile,
    write_trace_jsonl,
)
from repro.obs.clock import Stopwatch
from repro.exceptions import UnknownJobError
from repro.presolve import (
    PresolveStatus,
    detect_infeasible,
    infeasible_result,
    presolve,
)
from repro.service import (
    FaultCampaign,
    FrontDoor,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    TenantPolicy,
    read_jobs_jsonl,
    summarize,
    synthesize_jobs,
)
from repro.workloads import (
    random_feasible_lp,
    random_infeasible_lp,
    rolling_horizon_stream,
)

def _reliability_solver(args: argparse.Namespace, tracer=None):
    """A solver callable honouring the CLI's reliability flags."""
    from repro.core import (
        CrossbarPDIPSolver,
        LargeScaleCrossbarPDIPSolver,
    )

    overrides: dict = {}
    if args.write_verify is not None:
        overrides["write_verify"] = WriteVerifyPolicy(
            tolerance=args.write_verify
        )
    settings = settings_for(args.solver, args.variation, **overrides)
    if args.stuck_off > 0 or args.stuck_on > 0:
        settings = dataclasses.replace(
            settings,
            variation=StuckAtFaults(
                settings.device,
                stuck_on_rate=args.stuck_on,
                stuck_off_rate=args.stuck_off,
                base=variation_from_percent(args.variation),
            ),
        )
    recovery = RecoveryPolicy(
        reprograms=settings.retries,
        remaps=args.remaps,
        digital_fallback=(
            None if args.fallback == "none" else args.fallback
        ),
        probe=ProbePolicy() if args.probe else None,
    )
    cls = (
        CrossbarPDIPSolver
        if args.solver == "crossbar"
        else LargeScaleCrossbarPDIPSolver
    )

    def solve(problem, rng):
        return cls(
            problem, settings, rng=rng, recovery=recovery, tracer=tracer
        ).solve()

    return solve, settings


def _cmd_solve(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.infeasible:
        problem = random_infeasible_lp(args.constraints, rng=rng)
    else:
        problem = random_feasible_lp(args.constraints, rng=rng)

    # Presolve admission screen: a provably infeasible instance is
    # classified here with zero crossbar programming — the same
    # zero-cell path the serving layer takes.  Feasible instances pass
    # through with byte-identical output to before.
    certificate = detect_infeasible(problem)
    if certificate is not None:
        result = infeasible_result(problem, certificate)
        print(f"problem: {problem}")
        print(
            f"{args.solver}: status={result.status} "
            f"objective={result.objective:.6g} "
            f"iterations={result.iterations}"
        )
        print(f"failure reason: {result.failure_reason.value}")
        print(f"presolve certificate: {certificate}")
        return 0

    truth = solve_scipy(problem)
    tracer = (
        RecordingTracer()
        if (args.trace_out or args.metrics_out)
        else None
    )
    reliability_flags = (
        args.stuck_off > 0
        or args.stuck_on > 0
        or args.fallback != "none"
        or args.probe
        or args.remaps > 0
        or args.write_verify is not None
    )
    if reliability_flags and args.solver != "reference":
        solve, _ = _reliability_solver(args, tracer)
    else:
        solve = solver_for(args.solver, args.variation, tracer=tracer)
    presolved = None
    if args.presolve:
        presolved = presolve(problem, scaling=args.scaling)
        if presolved.report.status is PresolveStatus.REDUCED:
            result = presolved.postsolve(
                solve(
                    presolved.problem,
                    np.random.default_rng(args.seed + 1),
                )
            )
        else:
            result = presolved.solution()
    else:
        result = solve(problem, np.random.default_rng(args.seed + 1))
    print(f"problem: {problem}")
    if presolved is not None:
        print(f"presolve: {presolved.report.summary()}")
    print(f"scipy optimum: {truth.objective:.6g}")
    # elapsed_seconds is deliberately not printed: same-seed output is
    # byte-identical, and a wall-clock field would break that.
    print(
        f"{args.solver}: status={result.status} "
        f"objective={result.objective:.6g} "
        f"iterations={result.iterations}"
    )
    if truth.objective:
        error = abs(result.objective - truth.objective) / abs(
            truth.objective
        )
        print(f"relative error: {error:.4%}")
    if result.crossbar is not None:
        settings = settings_for(args.solver, args.variation)
        latency = estimate_latency(result, settings.device)
        energy = estimate_energy(result, settings.device)
        print(
            f"modeled hardware: {latency.total_s * 1e3:.3f} ms, "
            f"{energy.total_j * 1e3:.3f} mJ"
        )
    if result.failure_reason.value != "none":
        print(f"failure reason: {result.failure_reason.value}")
    if result.attempts:
        print("attempt history:")
        for line in describe_attempts(result.attempts).splitlines():
            print(f"  {line}")
    if tracer is not None:
        if args.trace_out:
            path = write_trace_jsonl(
                tracer, pathlib.Path(args.trace_out)
            )
            print(f"trace written: {path}")
        if args.metrics_out:
            path = write_metrics_textfile(
                tracer, pathlib.Path(args.metrics_out)
            )
            print(f"metrics written: {path}")
    # A conclusive classification (optimal / infeasible) is success;
    # anything else exits non-zero so scripts and CI can gate on it.
    return 0 if result.success else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    config = paper_scale() if args.paper_scale else SweepConfig()
    targets = list(FIGURES) if "all" in args.targets else args.targets
    for target, _, table in run_figures(
        targets, config, workers=args.workers
    ):
        _, solver, _ = FIGURES[target]
        print(f"\n=== {target} ({solver}) ===")
        print(table)
    return 0


def _sweep_grid(args: argparse.Namespace) -> SweepConfig:
    """The grid a ``repro sweep`` invocation selects."""
    base = paper_scale() if args.paper_scale else SweepConfig()
    return SweepConfig(
        sizes=(
            tuple(int(m) for m in args.sizes.split(","))
            if args.sizes
            else base.sizes
        ),
        variations=(
            tuple(int(v) for v in args.variations.split(","))
            if args.variations
            else base.variations
        ),
        trials=args.trials if args.trials is not None else base.trials,
        seed=args.seed if args.seed is not None else base.seed,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = resolve_spec(args.experiment)
    config = _sweep_grid(args)
    tracer = (
        RecordingTracer()
        if (args.trace_out or args.metrics_out)
        else None
    )
    run = run_sweep(
        args.experiment,
        args.solver,
        config,
        workers=args.workers,
        tracer=tracer,
        cache_path=args.resume,
        batch_trials=args.batch_trials,
    )
    print(spec.render(run.rows))
    cells = len(run.outcomes)
    print(
        f"\n{cells} cells: {run.executed} executed, "
        f"{run.skipped} restored from cache, "
        f"{len(run.failures)} failed "
        f"({run.workers} worker(s), {run.elapsed_seconds:.2f} s, "
        f"fingerprint {run.fingerprint})"
    )
    if args.resume:
        print(f"cell cache: {args.resume}")
    for outcome in run.failures:
        f = outcome.failure
        print(
            f"FAILED cell size={outcome.key.size} "
            f"variation={outcome.key.variation} trial={outcome.key.trial}: "
            f"{f.failure_reason} ({f.error_type}: {f.message})"
        )
    if tracer is not None:
        if args.trace_out:
            path = write_trace_jsonl(tracer, pathlib.Path(args.trace_out))
            print(f"trace written: {path}")
        if args.metrics_out:
            path = write_metrics_textfile(
                tracer, pathlib.Path(args.metrics_out)
            )
            print(f"metrics written: {path}")
    return 1 if run.failures else 0


def _cmd_parasitics(args: argparse.Namespace) -> int:
    rows = parasitics_sweep()
    print(render_parasitics(rows))
    budgets = max_usable_tile(rows, args.budget)
    print(f"\nmax tile size within {args.budget:.1%} IR-drop budget:")
    for resistance, size in sorted(budgets.items()):
        label = str(size) if size else "none sampled"
        print(f"  wire {resistance:4.1f} ohm -> {label}")
    return 0


def _parse_tenant_policy(text: str) -> TenantPolicy:
    """Parse one ``--tenant NAME[:WEIGHT[:INFLIGHT[:QUEUED]]]`` spec."""
    parts = text.split(":")
    if not parts[0] or len(parts) > 4:
        raise SystemExit(
            f"bad --tenant spec {text!r}; expected "
            f"NAME[:WEIGHT[:MAX_INFLIGHT[:MAX_QUEUED]]]"
        )
    try:
        return TenantPolicy(
            tenant=parts[0],
            weight=float(parts[1]) if len(parts) > 1 else 1.0,
            max_in_flight=(
                int(parts[2]) if len(parts) > 2 and parts[2] else None
            ),
            max_queued=(
                int(parts[3]) if len(parts) > 3 and parts[3] else None
            ),
        )
    except ValueError as exc:
        raise SystemExit(f"bad --tenant spec {text!r}: {exc}")


def _service_from_args(args: argparse.Namespace, tracer, telemetry=None):
    """Build the configured :class:`SolverService` for serve/batch."""
    campaign = None
    if args.chaos is not None:
        path = pathlib.Path(args.chaos)
        if not path.is_file():
            raise SystemExit(f"--chaos scenario not found: {path}")
        campaign = FaultCampaign.from_json(path)
    workers = args.workers if args.workers else args.pool_size
    config = ServiceConfig(
        pool_size=args.pool_size,
        queue_depth=args.queue_depth,
        max_attempts=args.max_attempts,
        cache_enabled=not args.no_cache,
        base_seed=args.seed,
        digital_fallback=(
            None if args.fallback == "none" else args.fallback
        ),
        deadline_s=args.deadline,
        campaign=campaign,
        workers=workers,
        executor=args.executor,
        device_latency_s=args.device_latency,
        tenants=tuple(
            _parse_tenant_policy(text) for text in args.tenant or ()
        ),
        presolve=not args.no_presolve,
        warm_start=not args.no_warm_start,
    )
    service = SolverService(config, tracer=tracer, telemetry=telemetry)
    if args.inject_fault is not None:
        if not 0 <= args.inject_fault < args.pool_size:
            raise SystemExit(
                f"--inject-fault {args.inject_fault} out of range for "
                f"pool size {args.pool_size}"
            )
        service.pool.inject_fault(args.inject_fault, 0.5)
    return service


def _run_service(args: argparse.Namespace, specs) -> int:
    """Shared serve/batch body: run, report, export."""
    tracer = (
        RecordingTracer()
        if (args.trace_out or args.metrics_out)
        else None
    )
    flight_dir = (
        pathlib.Path(args.flight_dir) if args.flight_dir else None
    )
    if flight_dir is not None:
        flight_dir.mkdir(parents=True, exist_ok=True)
    telemetry = ServiceTelemetry(flight_dir=flight_dir)
    service = _service_from_args(args, tracer, telemetry)

    completed = 0
    last_stats_at = 0

    def on_record(record) -> None:
        nonlocal completed, last_stats_at
        completed += 1
        if args.stats_every and completed % args.stats_every == 0:
            last_stats_at = completed
            print(f"[stats] {telemetry.stats_line()}", flush=True)

    records, summary = service.batch(specs, on_record=on_record)
    if args.stats_every and completed != last_stats_at:
        # Final flush: the queue drained between intervals, so the
        # last jobs would otherwise never appear in a stats line.
        print(f"[stats] {telemetry.stats_line()}", flush=True)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(
                    json.dumps(record.to_dict(), sort_keys=True) + "\n"
                )
        print(f"records written: {out}")
    for record in records:
        marker = "warm" if record.warm else "cold"
        placement = (
            "fallback"
            if record.fallback
            else f"member {record.member} ({marker})"
        )
        line = (
            f"{record.spec.job_id}: {record.result.status.value:<17} "
            f"{placement}"
        )
        if record.requeues:
            line += f" requeues={record.requeues}"
        print(line)
    print()
    print(summary.render())
    _print_resolve_summary(records)
    campaign = service.config.campaign
    if campaign is not None:
        print(
            f"chaos:         {campaign.fired}/{len(campaign)} events "
            f"fired ({campaign.name})"
        )
    recorder = telemetry.recorder
    if recorder.dumps:
        print(f"flight recordings: {len(recorder.dumps)} dumped")
        for dump in recorder.dumps:
            print(f"  {dump}")
    elif recorder.trips and flight_dir is None:
        print(
            f"flight recorder: {recorder.trips} trip(s) not dumped "
            f"(pass --flight-dir to keep them)"
        )
    if tracer is not None:
        if args.trace_out:
            path = write_trace_jsonl(tracer, pathlib.Path(args.trace_out))
            print(f"trace written: {path}")
        if args.metrics_out:
            path = write_metrics_textfile(
                tracer,
                pathlib.Path(args.metrics_out),
                registry=telemetry.registry,
            )
            print(f"metrics written: {path}")
    return 1 if summary.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen is not None:
        return _run_frontdoor(args)
    specs = synthesize_jobs(
        args.jobs,
        groups=args.groups,
        constraints=args.constraints,
        variation=args.variation,
        infeasible_every=args.infeasible_every,
        tenants=args.tenants,
    )
    return _run_service(args, specs)


def _run_frontdoor(args: argparse.Namespace) -> int:
    """``repro serve --listen``: take jobs over HTTP until Ctrl-C."""
    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(
            f"bad --listen address {args.listen!r}; expected HOST:PORT"
        )
    tracer = (
        RecordingTracer()
        if (args.trace_out or args.metrics_out)
        else None
    )
    flight_dir = (
        pathlib.Path(args.flight_dir) if args.flight_dir else None
    )
    if flight_dir is not None:
        flight_dir.mkdir(parents=True, exist_ok=True)
    telemetry = ServiceTelemetry(flight_dir=flight_dir)
    service = _service_from_args(args, tracer, telemetry)

    completed = 0

    def on_record(record) -> None:
        nonlocal completed
        completed += 1
        if args.stats_every and completed % args.stats_every == 0:
            print(f"[stats] {telemetry.stats_line()}", flush=True)

    door = FrontDoor(
        service,
        host=host,
        port=int(port_text),
        on_record=on_record,
    )
    bound_host, bound_port = door.address
    print(
        f"listening on http://{bound_host}:{bound_port} "
        f"(POST /submit, GET /stream, /stats, /healthz; Ctrl-C stops)",
        flush=True,
    )
    with Stopwatch() as clock:
        records = door.serve_forever()
    summary = summarize(records, clock.elapsed_seconds)
    if args.stats_every:
        print(f"[stats] {telemetry.stats_line()}", flush=True)
    print()
    print(summary.render())
    if tracer is not None:
        if args.trace_out:
            path = write_trace_jsonl(tracer, pathlib.Path(args.trace_out))
            print(f"trace written: {path}")
        if args.metrics_out:
            path = write_metrics_textfile(
                tracer,
                pathlib.Path(args.metrics_out),
                registry=telemetry.registry,
            )
            print(f"metrics written: {path}")
    return 1 if summary.failed else 0


def _print_resolve_summary(records) -> None:
    """Epilogue for batches containing re-solve jobs: placement cost."""
    resolves = [
        record
        for record in records
        if getattr(record.spec, "base_job_id", None) is not None
    ]
    if not resolves:
        return
    warm = sum(1 for record in resolves if record.warm)
    paid = sum(
        attempt.program_cells
        for record in resolves
        for attempt in record.attempts
    )
    cold_costs = [
        attempt.program_cells
        for record in records
        if getattr(record.spec, "base_job_id", None) is None
        for attempt in record.attempts
        if not attempt.warm and attempt.program_cells > 0
    ]
    line = (
        f"re-solves:     {len(resolves)} jobs, {warm} warm placements, "
        f"{paid} programming cells paid"
    )
    if cold_costs:
        line += (
            f" (a cold program costs "
            f"{max(cold_costs)} cells per placement)"
        )
    print(line)


def _cmd_resolve(args: argparse.Namespace) -> int:
    _, specs = rolling_horizon_stream(
        args.steps,
        constraints=args.constraints,
        seed=args.seed,
        drift=args.drift,
    )
    return _run_service(args, specs)


def _cmd_batch(args: argparse.Namespace) -> int:
    specs = list(read_jobs_jsonl(args.jobs_file))
    if not specs:
        raise SystemExit(f"no jobs in {args.jobs_file}")
    try:
        return _run_service(args, specs)
    except UnknownJobError as exc:
        raise SystemExit(f"{args.jobs_file}: {exc}")


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pool-size", type=int, default=2,
                        help="crossbar fleet members")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="admission bound of the job queue")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="analog attempts per job before fallback")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of all derived randomness")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the programming cache "
                             "(every placement reprograms)")
    parser.add_argument("--fallback",
                        choices=("none", "reference", "scipy"),
                        default="none",
                        help="digital fallback after analog attempts")
    parser.add_argument("--inject-fault", type=int, default=None,
                        metavar="MEMBER",
                        help="knock half the rows of this pool member "
                             "stuck-OFF before the batch")
    parser.add_argument("--chaos", default=None, metavar="SCENARIO",
                        help="JSON fault-campaign scenario to fire "
                             "during the batch (see DESIGN.md §13)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-job wall-clock budget from "
                             "first dispatch")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write per-job JSONL records here")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the merged JSONL trace here")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a Prometheus-style textfile here "
                             "(includes the live-telemetry registry)")
    parser.add_argument("--stats-every", type=int, default=0,
                        metavar="N",
                        help="print a one-line live stats summary every "
                             "N completed jobs (jobs/s, p50/p99 "
                             "latency, energy/job, queue depth, tier, "
                             "breaker states, SLO burn); 0 disables")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="dump flight-recorder JSONL rings here on "
                             "job failure, breaker OPEN, or brownout "
                             "tier change")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="dispatcher worker threads; 1 (default) "
                             "is the serial byte-identical scheduler, "
                             "0 means one per pool member")
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread",
                        help="where concurrent solves run: in the "
                             "worker thread (GIL-shared) or a "
                             "pre-warmed worker-process pool (one BLAS "
                             "thread per process)")
    parser.add_argument("--device-latency", type=float, default=0.0,
                        metavar="SECONDS",
                        help="hardware-in-the-loop emulation: each "
                             "analog attempt occupies its member this "
                             "long after the simulated solve (models "
                             "blocking on a physical array; 0 off)")
    parser.add_argument("--tenant", action="append", default=None,
                        metavar="NAME[:WEIGHT[:INFLIGHT[:QUEUED]]]",
                        help="per-tenant fairness policy (repeatable): "
                             "DRR weight, in-flight cap, queue cap; "
                             "unlisted tenants get weight 1, no caps")
    parser.add_argument("--no-presolve", action="store_true",
                        help="disable the presolve infeasibility "
                             "screen at first dispatch")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="disable warm-starting re-solve jobs "
                             "from their base job's optimum")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memristor-crossbar LP solver (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a random LP")
    solve.add_argument("--constraints", type=int, default=24)
    solve.add_argument(
        "--solver",
        choices=("crossbar", "large_scale", "reference"),
        default="crossbar",
    )
    solve.add_argument("--variation", type=float, default=0.0,
                       help="process variation percent (e.g. 10)")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--stuck-off", type=float, default=0.0,
                       help="stuck-OFF (open cell) fault rate")
    solve.add_argument("--stuck-on", type=float, default=0.0,
                       help="stuck-ON (shorted cell) fault rate")
    solve.add_argument("--remaps", type=int, default=0,
                       help="remap-to-fresh-array rungs in the ladder")
    solve.add_argument("--fallback",
                       choices=("none", "reference", "scipy"),
                       default="none",
                       help="digital fallback after analog attempts")
    solve.add_argument("--probe", action="store_true",
                       help="run array health probes before solving")
    solve.add_argument("--write-verify", type=float, default=None,
                       metavar="TOL",
                       help="closed-loop write-verify tolerance")
    solve.add_argument("--infeasible", action="store_true",
                       help="solve a planted-infeasible instance "
                            "instead (exercises the presolve screen)")
    solve.add_argument("--presolve", action="store_true",
                       help="run the reduction + equilibration "
                            "pipeline before solving and postsolve "
                            "the answer back to original units")
    solve.add_argument("--scaling",
                       choices=("ruiz", "geometric", "none"),
                       default="ruiz",
                       help="equilibration method used by --presolve")
    solve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a JSONL span/counter trace here")
    solve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus-style textfile here")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser(
        "sweep",
        help="run one experiment sweep (parallel, resumable)",
        description=(
            "Run one experiment grid on the sweep execution engine. "
            "Rows are bit-identical at any --workers count; --resume "
            "keeps a JSONL cell cache so an interrupted run skips "
            "completed cells when re-invoked."
        ),
    )
    sweep.add_argument(
        "experiment",
        metavar="experiment",
        help=f"one of {', '.join(sorted(SPEC_REFS))}, or any "
             "importable module:SPEC reference",
    )
    sweep.add_argument(
        "--solver",
        choices=("crossbar", "large_scale", "reference"),
        default="crossbar",
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="process-pool width (1 = inline; each "
                            "process runs one BLAS thread)")
    sweep.add_argument("--resume", default=None, metavar="CACHE",
                       help="JSONL cell cache; created if absent, "
                            "completed cells are skipped on re-run")
    sweep.add_argument("--paper-scale", action="store_true",
                       help="start from the full Section 4.2 grid")
    sweep.add_argument("--sizes", default=None,
                       help="comma-separated constraint counts")
    sweep.add_argument("--variations", default=None,
                       help="comma-separated variation percents")
    sweep.add_argument("--trials", type=int, default=None,
                       help="trials per (size, variation) cell")
    sweep.add_argument("--seed", type=int, default=None,
                       help="base seed of the cell_seed derivation")
    sweep.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the merged JSONL trace here")
    sweep.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus-style textfile here")
    sweep.add_argument("--batch-trials", action="store_true",
                       help="solve each cell's trials as one batched "
                            "crossbar fleet (bit-identical rows; "
                            "ignored while tracing)")
    sweep.set_defaults(func=_cmd_sweep)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figure tables"
    )
    figures.add_argument(
        "targets", nargs="+", choices=[*FIGURES, "all"]
    )
    figures.add_argument("--paper-scale", action="store_true")
    figures.add_argument("--workers", type=int, default=1,
                         help="process-pool width for each sweep "
                              "(one BLAS thread per process)")
    figures.set_defaults(func=_cmd_figures)

    parasitics = sub.add_parser(
        "parasitics", help="IR-drop tile-size study"
    )
    parasitics.add_argument("--budget", type=float, default=0.02)
    parasitics.set_defaults(func=_cmd_parasitics)

    serve = sub.add_parser(
        "serve",
        help="run a synthetic job batch through the solver service",
        description=(
            "Synthesize a deterministic job batch and run it through "
            "the serving layer: crossbar fleet pool, fingerprint-keyed "
            "programming cache, and bounded priority job queue."
        ),
    )
    serve.add_argument("--jobs", type=int, default=20,
                       help="number of synthetic jobs")
    serve.add_argument("--groups", type=int, default=2,
                       help="structure-sharing groups (jobs in a group "
                            "share the constraint matrix, hence warm "
                            "placements)")
    serve.add_argument("--constraints", type=int, default=24,
                       help="constraints per job")
    serve.add_argument("--variation", type=float, default=0.0,
                       help="process variation percent per job")
    serve.add_argument("--infeasible-every", type=int, default=0,
                       help="plant an infeasible job every k-th job")
    serve.add_argument("--tenants", type=int, default=1,
                       help="spread synthetic jobs round-robin over "
                            "this many tenant buckets")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve external traffic over HTTP instead "
                            "of a synthetic batch (POST /submit, GET "
                            "/stream; Ctrl-C drains and exits)")
    _add_service_options(serve)
    serve.set_defaults(func=_cmd_serve)

    batch = sub.add_parser(
        "batch",
        help="run a JSONL job file through the solver service",
        description=(
            "Each input line is a JobSpec object (job_id, constraints, "
            "group, kind, priority, variation) or — when it carries a "
            "base_job_id — a ResolveSpec re-solving an earlier job's "
            "structure with new parameters.  Emits one JSONL result "
            "record per job with --out."
        ),
    )
    batch.add_argument("jobs_file", metavar="jobs.jsonl",
                       help="job specs, one JSON object per line")
    _add_service_options(batch)
    batch.set_defaults(func=_cmd_batch)

    resolve = sub.add_parser(
        "resolve",
        help="run a rolling-horizon warm re-solve stream",
        description=(
            "Solve one base LP cold, then stream parameter-only "
            "re-solves of it through the service's warm re-solve "
            "tier: each step drifts (b, c) and is placed on the pool "
            "member already programmed with the structure, writing "
            "zero programming cells and warm-starting the iterates "
            "from the base optimum."
        ),
    )
    resolve.add_argument("--steps", type=int, default=20,
                         help="number of re-solve steps in the stream")
    resolve.add_argument("--constraints", type=int, default=24,
                         help="constraints of the base instance")
    resolve.add_argument("--drift", type=float, default=0.02,
                         help="per-step relative drift of b and c")
    _add_service_options(resolve)
    resolve.set_defaults(func=_cmd_resolve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
