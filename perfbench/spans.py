"""Per-layer tracing for the benchmark's traced run.

:class:`Tracer` installs wrappers, defined here, around the public entry
points of each layer, records one span per call in memory, and removes
the wrappers again.  Nothing is handed to the program — no
``RecordingTracer`` and no ``trace=True``, both of which change code
paths — so a traced pass executes exactly what an untraced one does.

A span's self time is its duration minus the time its direct children
cover.  Each thread keeps its own parent stack, so spans on the front
door's dispatcher thread nest under the job they serve: a synthetic
``job`` span opens when ``JobQueue.pop`` hands a job out and closes
when ``ServiceTelemetry.on_job`` has folded its record.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import threading
import time

from repro.backend.numpy_backend import NumpyBackend
from repro.core import batch_solver, crossbar_solver, scalable_solver
from repro.core.newton import AugmentedNewtonSystem
from repro.core.scalable_system import ScalableNewtonSystem
from repro.crossbar.array import CrossbarArray
from repro.crossbar.ops import AnalogMatrixOperator
from repro.crossbar.opstack import AnalogOperatorStack
from repro.crossbar.stack import CrossbarStack
from repro.service import service as service_module
from repro.service.pool import CrossbarPool
from repro.service.queue import JobQueue
from repro.service.telemetry import ServiceTelemetry

import loops

_NEWTON = (
    "build_matrix",
    "diagonal_update",
    "state_vector",
    "rhs_targets",
    "residual_from_product",
    "extract_steps",
    "infeasibility_norms",
)
_S2_SYSTEM = (
    "coupling_diagonals",
    "build_m1",
    "m1_coupling_update",
    "state_vector_m1",
    "residual_m1",
    "paper_residual_m1",
    "infeasibility_norms",
    "extract_steps_m1",
    "m2_diagonal",
    "build_m2",
    "d_diagonal",
    "build_d",
    "diag_update",
    "residual_m2",
    "extract_steps_m2",
)

#: ``(owner, attribute, layer)`` for every timed entry point.  Module
#: functions are patched where they are *called* (the importing module),
#: so the call site picks the wrapper up.
ENTRY_POINTS = (
    [
        (loops.HttpClient, "resolve", "frontdoor"),
        (loops.HttpClient, "stream", "frontdoor"),
        (JobQueue, "submit", "queue"),
        (JobQueue, "try_submit", "queue"),
        (JobQueue, "pop", "queue"),
        (service_module.SolverService, "batch", "service"),
        (service_module.SolverService, "try_submit", "service"),
        (service_module, "build_problem", "jobs"),
        (service_module, "build_resolve_problem", "jobs"),
        (ServiceTelemetry, "on_job", "telemetry"),
        (CrossbarPool, "acquire", "pool"),
        (service_module, "structural_fingerprint", "fingerprint"),
        (service_module, "detect_infeasible", "presolve"),
        (crossbar_solver, "probe_operator", "probe"),
        (service_module, "warm_start_state", "warmstart"),
        (crossbar_solver.CrossbarPDIPSolver, "solve_on", "s1"),
        (crossbar_solver.CrossbarPDIPSolver, "solve", "s1"),
        (crossbar_solver.CrossbarPDIPSolver, "build_operator", "s1"),
    ]
    + [(AugmentedNewtonSystem, name, "newton") for name in _NEWTON]
    + [
        (AnalogMatrixOperator, name, "op")
        for name in (
            "multiply",
            "solve",
            "update_coefficients",
            "renormalize",
            "redraw_variation",
        )
    ]
    + [
        (CrossbarArray, name, "array")
        for name in ("program", "program_cells", "multiply", "solve", "redraw")
    ]
    + [
        (batch_solver, "solve_crossbar_batch", "batch"),
        (AnalogOperatorStack, "multiply", "opstack"),
        (AnalogOperatorStack, "try_solve", "opstack"),
        (AnalogOperatorStack, "update_coefficients", "opstack"),
        (CrossbarStack, "program_cells", "stack"),
        (CrossbarStack, "multiply", "stack"),
        (CrossbarStack, "try_solve", "stack"),
        (NumpyBackend, "matvec_t", "backend"),
        (NumpyBackend, "solve_t", "backend"),
        (scalable_solver.LargeScaleCrossbarPDIPSolver, "solve", "s2"),
    ]
    + [(ScalableNewtonSystem, name, "s2system") for name in _S2_SYSTEM]
)


@dataclasses.dataclass
class Span:
    """One timed call: name, start/end (perf_counter seconds), parent
    index (-1 for a root), job id, thread, and per-call facts."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: str | None = None
    thread: int = 0
    child_s: float = 0.0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(first, last)`` span indices of each traced pass.
        self.windows: list[tuple[int, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._submitted: dict[str, float] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()

    # -- span stack ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, start: float | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(
            name,
            layer,
            time.perf_counter() if start is None else start,
            parent=parent,
            job=self.spans[parent].job if parent >= 0 else None,
            thread=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        stack.pop()
        span = self.spans[index]
        span.end = end
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        after = getattr(self, f"_after_{layer}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _after_queue(self, span, args, kwargs, result) -> None:
        if span.name.endswith("submit"):
            if result is not None:
                self._submitted[result.spec.job_id] = span.end
            return
        if result is None:
            return
        # JobQueue.pop handed a job out: open the job span at the pop's
        # start and move the pop span under it.
        job_id = result.spec.job_id
        waited = span.end - self._submitted.pop(job_id, span.end)
        span.info = {"wait_s": waited}
        stack = self._stack()
        if stack and self.spans[stack[-1]].layer == "job":
            self.close(stack[-1])  # a requeued job's previous attempt
        if span.parent >= 0:
            self.spans[span.parent].child_s -= span.duration
        job = self.open("job", "job", start=span.start)
        self.spans[job].job = job_id
        self.spans[job].child_s += span.duration
        span.parent = job
        span.job = job_id

    def _after_service(self, span, args, kwargs, result) -> None:
        if span.name.endswith("try_submit") and span.job is None:
            span.job = args[1].job_id

    def _after_telemetry(self, span, args, kwargs, result) -> None:
        stack = self._stack()
        if stack and self.spans[stack[-1]].layer == "job":
            self.close(stack[-1])

    def _after_pool(self, span, args, kwargs, result) -> None:
        span.info = {"warm": bool(result[1])}

    def _after_presolve(self, span, args, kwargs, result) -> None:
        span.info = {"screened": result is not None}

    def _after_array(self, span, args, kwargs, result) -> None:
        if span.name.split(".")[-1] in ("program", "program_cells", "redraw"):
            span.info = {"cells": int(result.cells_written)}

    def _after_opstack(self, span, args, kwargs, result) -> None:
        if span.name.endswith("multiply"):
            members = kwargs.get("members")
            k = args[0].n_members
            span.info = {
                "active": k if members is None else len(members),
                "k": k,
            }

    def install(self) -> None:
        """Wrap every entry point (idempotent per install/uninstall)."""
        for owner, attribute, layer in ENTRY_POINTS:
            original = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            label = (
                f"{owner.__name__}.{attribute}"
                if isinstance(owner, type)
                else attribute
            )
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, label, layer))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def traced(self, run):
        """Run one pass with the wrappers installed; records its window."""
        first = len(self.spans)
        self.install()
        try:
            outcome = run()
        finally:
            self.uninstall()
        self.windows.append((first, len(self.spans)))
        return outcome

    def write_jsonl(self, path) -> None:
        """The first traced pass's spans, one JSON object per line."""
        first, last = self.windows[0]
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(first, last):
                span = self.spans[index]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "job": span.job,
                            "thread": span.thread,
                            "self_s": span.self_s,
                            **(span.info or {}),
                        }
                    )
                    + "\n"
                )


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, workload, passes, untraced) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``.

    ``passes`` are the traced passes, ``untraced`` the untraced passes
    of the same run.  ``per_job`` values divide run totals by the jobs
    (requests) of the traced passes, ``per_iter`` by their iterations.
    """
    spans = [
        tracer.spans[index]
        for first, last in tracer.windows
        for index in range(first, last)
    ]
    by_name: dict[str, list[Span]] = {}
    by_layer: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        by_layer.setdefault(span.layer, []).append(span)

    def named(*names):
        return [span for name in names for span in by_name.get(name, [])]

    def self_total(*layers):
        return sum(span.self_s for layer in layers for span in by_layer.get(layer, []))

    def median_self_us(*names):
        return _median([span.self_s for span in named(*names)]) * 1e6

    def duration(*names):
        return sum(span.duration for span in named(*names))

    def per(total, count):
        return total / count if count else 0.0

    answers = [answer for p in passes for answer in p.answers]
    jobs = len(answers)
    iterations = sum(answer.iterations for answer in answers)
    s1_iters = iterations if workload.solver == "s1" else 0
    s2_iters = iterations if workload.solver == "s2" else 0
    s1_solves = ("CrossbarPDIPSolver.solve_on", "CrossbarPDIPSolver.solve")
    attempts = len(named(*s1_solves))
    acquires = named("CrossbarPool.acquire")
    screens = named("detect_infeasible")
    rounds = named("AnalogOperatorStack.multiply")
    programs = ("CrossbarArray.program", "CrossbarArray.program_cells")
    op_calls = (
        "AnalogMatrixOperator.multiply",
        "AnalogMatrixOperator.solve",
        "AnalogMatrixOperator.update_coefficients",
    )
    ok = [a for a in passes[0].answers if a.answered]

    traced_s = _median([p.seconds for p in passes])
    untraced_s = _median([p.seconds for p in untraced])
    covered = sum(
        span.duration
        for span in spans
        if span.parent < 0 and span.thread == tracer._main
    )
    timed = sum(p.seconds for p in passes)

    def device(parts: str, index: int, scale: float) -> float:
        return per(sum(getattr(a, parts)[index] for a in ok), len(ok)) * scale

    ms, us = 1e3, 1e6
    metrics = {
        "frontdoor.ack_ms": (_median([s.duration for s in named("HttpClient.resolve")]) * ms, "ms"),
        "queue.wait_ms": (
            _median([s.info["wait_s"] for s in named("JobQueue.pop") if s.info]) * ms,
            "ms",
        ),
        "service.self_ms_per_job": (per(self_total("service", "job"), jobs) * ms, "ms"),
        "service.attempts_per_job": (per(attempts, jobs) if acquires else 0.0, "count"),
        "jobs.build_us_per_job": (per(self_total("jobs"), jobs) * us, "us"),
        "telemetry.us_per_job": (per(self_total("telemetry"), jobs) * us, "us"),
        "pool.acquire_ms_per_job": (per(duration("CrossbarPool.acquire"), jobs) * ms, "ms"),
        "pool.warm_frac": (
            per(sum(1 for s in acquires if s.info["warm"]), len(acquires)),
            "ratio",
        ),
        "pool.program_cells_per_job": (
            per(sum(a.placement[0] for a in answers), jobs),
            "count",
        ),
        "fingerprint.us_per_job": (per(self_total("fingerprint"), jobs) * us, "us"),
        "presolve.us_per_job": (per(self_total("presolve"), jobs) * us, "us"),
        "presolve.screened_frac": (
            per(sum(1 for s in screens if s.info["screened"]), len(screens)),
            "ratio",
        ),
        "probe.us_per_attempt": (per(self_total("probe"), attempts) * us, "us"),
        "warmstart.us_per_job": (per(self_total("warmstart"), jobs) * us, "us"),
        "s1.solve_ms_per_job": (per(duration(*s1_solves), jobs) * ms, "ms"),
        "s1.self_us_per_iter": (per(self_total("s1"), s1_iters) * us, "us"),
        "s1.iters_per_job": (per(s1_iters, jobs), "count"),
        "newton.us_per_iter": (per(self_total("newton"), s1_iters) * us, "us"),
        "op.multiply_us": (median_self_us("AnalogMatrixOperator.multiply"), "us"),
        "op.solve_us": (median_self_us("AnalogMatrixOperator.solve"), "us"),
        "op.update_us": (median_self_us("AnalogMatrixOperator.update_coefficients"), "us"),
        "op.calls_per_job": (per(len(named(*op_calls)), jobs), "count"),
        "array.program_us": (median_self_us(*programs), "us"),
        "array.solve_us": (median_self_us("CrossbarArray.solve"), "us"),
        "array.cells_written_per_job": (
            per(
                sum(s.info["cells"] for s in named(*programs, "CrossbarArray.redraw")),
                jobs,
            ),
            "count",
        ),
        "batch.rounds_per_call": (
            per(len(rounds), len(named("solve_crossbar_batch"))),
            "count",
        ),
        "batch.active_frac": (
            per(sum(s.info["active"] for s in rounds), sum(s.info["k"] for s in rounds)),
            "ratio",
        ),
        "opstack.multiply_us": (median_self_us("AnalogOperatorStack.multiply"), "us"),
        "opstack.solve_us": (median_self_us("AnalogOperatorStack.try_solve"), "us"),
        "opstack.update_us": (
            median_self_us("AnalogOperatorStack.update_coefficients"),
            "us",
        ),
        "backend.matvec_t_us": (median_self_us("NumpyBackend.matvec_t"), "us"),
        "backend.solve_t_us": (median_self_us("NumpyBackend.solve_t"), "us"),
        "s2.solve_ms_per_job": (
            per(duration("LargeScaleCrossbarPDIPSolver.solve"), jobs) * ms,
            "ms",
        ),
        "s2.self_us_per_iter": (per(self_total("s2"), s2_iters) * us, "us"),
        "s2.iters_per_job": (per(s2_iters, jobs), "count"),
        "s2system.us_per_iter": (per(self_total("s2system"), s2_iters) * us, "us"),
    }
    for index, part in enumerate(("write", "analog", "conversion", "digital")):
        metrics[f"device.{part}_us"] = (device("device_s", index, us), "us")
    for index, part in enumerate(("write", "analog", "conversion", "digital")):
        metrics[f"device.{part}_nj"] = (device("device_j", index, 1e9), "nJ")
    metrics["trace.overhead_frac"] = (
        per(traced_s - untraced_s, untraced_s),
        "ratio",
    )
    metrics["trace.unattributed_frac"] = (1.0 - per(covered, timed), "ratio")
    return metrics, spans


POOL_TABLE = "service.pool, service.fingerprint"
OPS_TABLE = "crossbar.ops, crossbar.array"
BATCH_TABLE = "core.batch_solver, crossbar.opstack, crossbar.stack, backend"
S1_TABLE = "core.crossbar_solver, core.newton"
S2_TABLE = "core.scalable_solver, core.scalable_system"


#: One printed table per layer: (title, span layers, metric prefixes).
TABLES = (
    ("service.frontdoor", ("frontdoor",), ("frontdoor.",)),
    ("service.queue, service.dispatch", ("queue",), ("queue.",)),
    (
        "service.service, service.jobs, service.telemetry",
        ("service", "job", "jobs", "telemetry"),
        ("service.", "jobs.", "telemetry."),
    ),
    (POOL_TABLE, ("pool", "fingerprint"), ("pool.", "fingerprint.")),
    ("presolve", ("presolve",), ("presolve.",)),
    ("reliability.probe, core.warmstart", ("probe", "warmstart"), ("probe.", "warmstart.")),
    (S1_TABLE, ("s1", "newton"), ("s1.", "newton.")),
    (OPS_TABLE, ("op", "array"), ("op.", "array.")),
    (BATCH_TABLE, ("batch", "opstack", "stack", "backend"), ("batch.", "opstack.", "backend.")),
    (S2_TABLE, ("s2", "s2system"), ("s2.", "s2system.")),
    ("costmodel (modeled, deterministic)", (), ("device.",)),
    ("benchmark tracing", (), ("trace.",)),
)


def device_share(workload, title: str, ok) -> tuple[float, float] | None:
    """Modeled device time (us) and energy (nJ) per solve a layer owns.

    Placement programming belongs to the pool, the remaining writes and
    the analog evaluations to the operator layer the workload uses, and
    the controller's digital work to its solver; ``None`` for a layer
    that owns none of it.
    """
    batched = workload.name == "fleet-batch"
    operators = BATCH_TABLE if batched else OPS_TABLE
    solver = BATCH_TABLE if batched else {"s1": S1_TABLE, "s2": S2_TABLE}[workload.solver]
    if not ok or title not in (POOL_TABLE, operators, solver):
        return None

    def total(field: str, parts) -> float:
        return sum(getattr(a, field)[i] for a in ok for i in parts)

    seconds = joules = 0.0
    placement_s = sum(a.placement[1] for a in ok)
    placement_j = sum(a.placement[2] for a in ok)
    if title == POOL_TABLE:
        seconds, joules = placement_s, placement_j
    if title == operators:
        seconds += total("device_s", (0, 1, 2)) - placement_s
        joules += total("device_j", (0, 1, 2)) - placement_j
    if title == solver:
        seconds += total("device_s", (3,))
        joules += total("device_j", (3,))
    return seconds / len(ok) * 1e6, joules / len(ok) * 1e9


def render_tables(workload, spans, metrics, passes) -> str:
    """One text table per layer: calls, host self time, modeled device."""
    jobs = sum(len(p.answers) for p in passes)
    ok = [a for a in passes[0].answers if a.answered]
    lines = [
        f"per-layer profile: {workload.name}, {len(passes)} traced pass(es), "
        f"{jobs} requests; self time excludes child layers' spans"
    ]
    for title, layers, prefixes in TABLES:
        lines.append("")
        lines.append(f"== {title} ==")
        rows: dict[str, list[Span]] = {}
        for span in spans:
            if span.layer in layers:
                rows.setdefault(span.name, []).append(span)
        if layers:
            lines.append(
                f"  {'entry point':<44}{'calls':>9}{'self ms':>11}"
                f"{'self us/call':>14}{'incl ms':>11}"
            )
            if not rows:
                lines.append("  (not on this workload's path)")
            for name, group in rows.items():
                self_s = sum(s.self_s for s in group)
                lines.append(
                    f"  {name:<44}{len(group):>9}{self_s * 1e3:>11.1f}"
                    f"{_median([s.self_s for s in group]) * 1e6:>14.1f}"
                    f"{sum(s.duration for s in group) * 1e3:>11.1f}"
                )
        share = device_share(workload, title, ok)
        if share is not None:
            lines.append(
                f"  modeled device per solve: {share[0]:.4g} us, "
                f"{share[1]:.4g} nJ"
            )
        for name, (value, unit) in metrics.items():
            if name.startswith(prefixes):
                extra = ""
                if name == "batch.active_frac":
                    stack = [s for s in spans if s.name == "AnalogOperatorStack.multiply"]
                    extra = (
                        f"  (base: {sum(s.info['k'] for s in stack)} "
                        f"member-rounds, {sum(s.info['active'] for s in stack)} active)"
                    )
                lines.append(f"  {name:<34}{value:>14.6g} {unit}{extra}")
    return "\n".join(lines)
