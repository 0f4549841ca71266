"""Repository benchmark: four closed-loop workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # all four, one process each

``--trace 0`` runs untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints one table
per layer (see ``spans.py``).  Every answer is checked against HiGHS
outside the timed phase, and every pass must repeat the first pass's
deterministic columns exactly.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metric definitions.
"""

import os
import sys
import time

#: Process start for ``setup_s``: taken before ``import repro``.
START = time.perf_counter()

#: BLAS/OpenMP threads, pinned before numpy loads (at most nproc).
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("batch-mixed", "http-resolve", "fleet-batch", "large-s2")
#: Set-up is measured this many times per run (this process plus fresh
#: child processes) and reported as the median.
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import the checkout's own ``src/repro`` and the benchmark modules."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    import loops

    return loops


def run_passes(workload, seconds: float, tracer=None):
    """Timed passes until ``seconds`` of wall time would be exceeded.

    At least two passes run, so the determinism guard always compares.
    With a tracer, each step is an untraced pass followed by a traced
    one; otherwise the traced list stays empty.
    """
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if untraced:
            workload.prepare()
        untraced.append(workload.run())
        if tracer is not None:
            workload.prepare()
            traced.append(tracer.traced(workload.run))
        step = time.perf_counter() - begun
        if len(untraced) + len(traced) >= 2 and (
            time.perf_counter() - started + step > seconds
        ):
            return untraced, traced


def determinism_guard(passes) -> str | None:
    """A description of the first pass that differs from pass 1, if any."""
    reference = [answer.deterministic() for answer in passes[0].answers]
    for number, outcome in enumerate(passes[1:], start=2):
        columns = [answer.deterministic() for answer in outcome.answers]
        if columns != reference:
            for mine, theirs in zip(columns, reference):
                if mine != theirs:
                    return f"pass {number} differs at {mine[0]}: {mine} != {theirs}"
            return f"pass {number} has {len(columns)} answers, pass 1 {len(reference)}"
    return None


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh process (import, build, warm-up)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def percentile_ms(values, q: int) -> float:
    """The q-th percentile in ms, interpolated between order statistics."""
    if len(values) < 2:
        return sum(values) * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(passes, wrong, setup_s, peak_rss_mb) -> dict:
    """The eight end-to-end metrics as ``name -> (value, unit)``.

    Host metrics are computed per pass and reported as the median over
    passes, so one pass slowed by a noisy neighbour moves them little.
    """
    wrong = set(wrong)
    good = [
        [a for a in p.answers if a.answered and a.request not in wrong]
        for p in passes
    ]
    attempted = sum(len(p.answers) for p in passes)
    first = good[0]
    count = max(len(first), 1)

    def median_over_passes(measure):
        return statistics.median(measure(g, p) for g, p in zip(good, passes))

    def latency_ms(q):
        return median_over_passes(
            lambda g, p: percentile_ms([a.latency_s for a in g], q)
        )

    return {
        "solves_per_s": (median_over_passes(lambda g, p: len(g) / p.seconds), "1/s"),
        "latency_p50_ms": (latency_ms(50), "ms"),
        "latency_p90_ms": (latency_ms(90), "ms"),
        "answered_frac": (sum(len(g) for g in good) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "device_latency_us_per_solve": (
            sum(sum(a.device_s) for a in first) / count * 1e6,
            "us",
        ),
        "device_energy_uj_per_solve": (
            sum(sum(a.device_j) for a in first) / count * 1e6,
            "uJ",
        ),
    }


def run_one(args) -> int:
    loops = import_program()
    ledger = loops.AttemptLedger()
    ledger.install()
    workload = loops.WORKLOADS[args.workload](args.seed, ledger)
    try:
        workload.setup()
        setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(f"{setup_s!r}")
            return 0
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        untraced, traced = run_passes(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.close()
    passes = untraced + traced
    guard = determinism_guard(passes)
    wrong, errors = loops.check_answers(
        passes[0].answers, workload.references(), workload.tolerance
    )
    unanswered = sum(1 for a in passes[0].answers if not a.answered)
    attempted = sum(len(p.answers) for p in passes)
    failed = (unanswered + len(wrong)) * len(passes)
    correct = guard is None and not wrong

    print(f"workload {workload.name}: seed {args.seed}, {len(untraced)} untraced "
          f"+ {len(traced)} traced pass(es), {len(passes[0].answers)} requests "
          f"per pass, {attempted} attempted, {failed} failed")
    print(f"blas threads {BLAS_THREADS} (nproc {os.cpu_count()}), "
          f"answer tolerance {workload.tolerance} scaled error vs HiGHS, "
          f"max error {max(errors, default=0.0):.4f}, "
          f"median {statistics.median(errors) if errors else 0.0:.4f}")
    if wrong:
        print(f"WRONG ANSWERS: {', '.join(wrong[:10])}")
    if guard is not None:
        print(f"DETERMINISM GUARD FAILED: {guard}")

    if args.trace:
        metrics, spans_seen = spans.layer_metrics(tracer, workload, traced, untraced)
        print(spans.render_tables(workload, spans_seen, metrics, traced))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"spans of the first traced pass: {trace_path.relative_to(ROOT)}")
    else:
        samples = [setup_s] + [
            setup_probe_seconds(workload.name, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = end_to_end(untraced, wrong, statistics.median(samples), peak_rss_mb)
        print(f"latency samples: {len(untraced[0].answers)} per pass x "
              f"{len(untraced)} passes; setup samples (s): "
              f"{', '.join(f'{s:.3f}' for s in samples)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30}{value:>14.6g} {unit}")
        print(f"  {'failed_frac':<30}{failed / attempted:>14.6g} ratio "
              f"(= 1 - answered_frac)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            print(f"perfbench: {name} exited {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
