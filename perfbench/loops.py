"""The four benchmark workloads: closed loops over public entry points.

Every workload derives its inputs from the benchmark seed in ``setup``
and then runs *passes*: ``prepare`` rebuilds whatever state a pass
consumes (a fresh service, fresh generators) outside the timed phase,
and ``run`` times one pass over the same inputs.  A pass therefore does
identical work every time for a seed — statuses, iterations, cells
written and modeled device cost repeat exactly, which ``run.py`` checks.

Modeled device cost (the paper's Fig. 6/7 cost model) is priced per
answered LP and kept apart from host wall-clock.  For served jobs the
structural program a placement causes is charged to the job in *both*
device metrics: :class:`AttemptLedger` records the operator's
``write_report`` delta across every ``CrossbarPool.acquire``, because
``SolverResult.crossbar`` baselines that program out while
``JobRecord.energy_j`` keeps it.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import time

import numpy as np

from repro.analysis.metrics import relative_error
from repro.baselines.scipy_linprog import solve_scipy
from repro.core import batch_solver, scalable_solver
from repro.core.crossbar_solver import CrossbarPDIPSolver
from repro.core.problem import LinearProgram
from repro.core.result import SolveStatus
from repro.costmodel.energy import estimate_energy
from repro.costmodel.latency import estimate_latency
from repro.crossbar.programming import WriteReport
from repro.experiments.runner import settings_for
from repro.service import (
    CrossbarPool,
    FrontDoor,
    JobSpec,
    ResolveSpec,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    build_problem,
    synthesize_jobs,
)
from repro.workloads.random_lp import random_feasible_lp
from repro.workloads.streaming import parameter_stream

_NO_WRITES = WriteReport(0, 0, 0.0, 0.0)


@dataclasses.dataclass(frozen=True)
class Answer:
    """One request's outcome in one pass.

    ``latency_s`` is host wall-clock; everything else is deterministic
    for a seed.  ``device_s`` / ``device_j`` are the cost model's
    (write, analog, conversion, digital) seconds and joules, and
    ``placement`` the share of the writes the job's pool placement
    caused (cells, seconds, joules).
    """

    request: str
    latency_s: float
    status: str
    objective: float
    iterations: int
    cells_written: int
    device_s: tuple = (0.0, 0.0, 0.0, 0.0)
    device_j: tuple = (0.0, 0.0, 0.0, 0.0)
    placement: tuple = (0, 0.0, 0.0)

    @property
    def answered(self) -> bool:
        return self.status in ("optimal", "infeasible")

    def deterministic(self) -> tuple:
        """The columns that must repeat exactly from pass to pass."""
        return (
            self.request,
            self.status,
            self.objective,
            self.iterations,
            self.cells_written,
            self.device_s,
            self.device_j,
            self.placement,
        )


@dataclasses.dataclass
class Pass:
    """One timed pass: host seconds of the timed phase and its answers."""

    seconds: float
    answers: list


class AttemptLedger:
    """Every served analog attempt: its placement writes and its result.

    Wraps ``CrossbarPool.acquire`` (the operator's ``write_report``
    delta across the call) and ``CrossbarPDIPSolver.solve_on`` (the
    attempt's result) for the whole process, traced or not, so both
    runs do the same work.  Holding the pre-call operator keeps its
    identity stable while the delta is taken.
    """

    def __init__(self) -> None:
        #: ``[placement WriteReport, SolverResult or None]`` per attempt.
        self.attempts: list[list] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        acquire = CrossbarPool.acquire
        solve_on = CrossbarPDIPSolver.solve_on
        ledger = self

        def ledger_acquire(pool, *args, **kwargs):
            before = {
                member.member_id: (member.operator, member.operator.write_report)
                for member in pool.members
                if member.operator is not None
            }
            member, warm = acquire(pool, *args, **kwargs)
            if member is not None:
                after = member.operator.write_report
                operator, report = before.get(member.member_id, (None, None))
                delta = after - report if operator is member.operator else after
                ledger.attempts.append([delta, None])
            return member, warm

        def ledger_solve_on(solver, *args, **kwargs):
            result = solve_on(solver, *args, **kwargs)
            ledger.attempts[-1][1] = result
            return result

        self._originals = [
            (CrossbarPool, "acquire", acquire),
            (CrossbarPDIPSolver, "solve_on", solve_on),
        ]
        CrossbarPool.acquire = ledger_acquire
        CrossbarPDIPSolver.solve_on = ledger_solve_on

    def uninstall(self) -> None:
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)
        self._originals = []


def device_cost(result, device, placement=_NO_WRITES) -> tuple[tuple, tuple]:
    """Modeled (write, analog, conversion, digital) seconds and joules.

    ``placement`` is added to the result's own write counters before
    pricing, so latency and energy charge the same programming.  An
    attempt with no counters (it crashed, or never reached the array)
    is charged its placement writes only.
    """
    counters = result.crossbar if result is not None else None
    if counters is None:
        return (placement.latency_s, 0.0, 0.0, 0.0), (placement.energy_j, 0.0, 0.0, 0.0)
    counters = dataclasses.replace(
        counters,
        cells_written=counters.cells_written + placement.cells_written,
        write_pulses=counters.write_pulses + placement.pulses,
        write_latency_s=counters.write_latency_s + placement.latency_s,
        write_energy_j=counters.write_energy_j + placement.energy_j,
    )
    priced = dataclasses.replace(result, crossbar=counters)
    lat = estimate_latency(priced, device)
    energy = estimate_energy(priced, device)
    return (
        (lat.write_s, lat.analog_s, lat.conversion_s, lat.digital_s),
        (energy.write_j, energy.analog_j, energy.conversion_j, energy.digital_j),
    )


def library_answer(request, latency_s, result, device) -> Answer:
    """A library call's answer; its counters include every write."""
    device_s, device_j = device_cost(result, device)
    return Answer(
        request=request,
        latency_s=latency_s,
        status=result.status.value,
        objective=float(result.objective),
        iterations=result.iterations,
        cells_written=result.crossbar.cells_written,
        device_s=device_s,
        device_j=device_j,
    )


def _add(left, right) -> tuple:
    return tuple(a + b for a, b in zip(left, right))


def served_answers(records, latencies, attempts, device, prefix="") -> list[Answer]:
    """Price served job records from the ledger's attempts.

    Records arrive in completion order and, with one dispatcher worker,
    each analog attempt consumed the next ledger entry.  The ledger must
    agree with the service's own ``JobAttempt.program_cells`` and each
    priced attempt's energy with ``JobAttempt.energy_j``; a disagreement
    means the two device metrics no longer charge the same writes, so it
    raises.
    """
    entries = iter(attempts)
    answers = []
    for record in records:
        device_s = device_j = (0.0, 0.0, 0.0, 0.0)
        placement = (0, 0.0, 0.0)
        for attempt in record.attempts:
            if attempt.member is None:
                continue
            delta, result = next(entries)
            if delta.cells_written != attempt.program_cells:
                raise RuntimeError(
                    f"{record.spec.job_id}: ledger saw {delta.cells_written} "
                    f"placement cells, the service {attempt.program_cells}"
                )
            seconds, joules = device_cost(result, device, delta)
            if attempt.energy_j and not np.isclose(
                sum(joules), attempt.energy_j, rtol=1e-9
            ):
                raise RuntimeError(
                    f"{record.spec.job_id}: priced energy {sum(joules)} != "
                    f"attempt energy {attempt.energy_j}"
                )
            device_s, device_j = _add(device_s, seconds), _add(device_j, joules)
            placement = _add(
                placement, (delta.cells_written, delta.latency_s, delta.energy_j)
            )
        answers.append(
            Answer(
                request=prefix + record.spec.job_id,
                latency_s=latencies[record.spec.job_id],
                status=record.result.status.value,
                objective=float(record.result.objective),
                iterations=record.result.iterations,
                cells_written=sum(a.cells_written for a in record.attempts),
                device_s=device_s,
                device_j=device_j,
                placement=placement,
            )
        )
    return answers


def check_answers(answers, references, tolerance) -> tuple[list, list]:
    """Compare answers with HiGHS; returns (wrong request ids, errors).

    ``references`` maps request id to ``(problem, planted_infeasible)``.
    A planted-infeasible LP must come back INFEASIBLE; any other must
    come back OPTIMAL within ``tolerance`` scaled relative error (the
    Fig. 5 measure).  Refused or failed requests are not answers and
    are counted by the caller, not here.
    """
    wrong, errors = [], []
    for answer in answers:
        if not answer.answered:
            continue
        problem, infeasible = references[answer.request]
        truth = solve_scipy(problem)
        if infeasible:
            if answer.status != "infeasible" or (
                truth.status is not SolveStatus.INFEASIBLE
            ):
                wrong.append(answer.request)
            continue
        if truth.status is not SolveStatus.OPTIMAL or answer.status != "optimal":
            wrong.append(answer.request)
            continue
        error = relative_error(answer.objective, truth.objective)
        errors.append(error)
        if error > tolerance:
            wrong.append(answer.request)
    return wrong, errors


class BatchMixed:
    """``SolverService.batch`` (the ``repro batch`` path), serial scheduler.

    Solver-1 LPs at m=24 and 5% variation over ten structure groups per
    pool member, every 7th job planted infeasible, all offered at once
    so the admission queue is the loop's window.  A pass runs three such
    batches, each on a fresh service (an empty programming cache) with
    its own base seed derived from the benchmark seed: one batch's 120
    latencies left the 90th percentile hostage to a few slow jobs.
    """

    name = "batch-mixed"
    solver = "s1"
    tolerance = 0.30
    jobs = 120
    pool_size = 4
    batches = 3

    def __init__(self, seed: int, ledger: AttemptLedger) -> None:
        self.base_seeds = [
            int(s) for s in np.random.SeedSequence(seed).generate_state(self.batches)
        ]
        self.ledger = ledger

    def _service(self, base_seed: int, pool_size: int) -> SolverService:
        return SolverService(
            ServiceConfig(pool_size=pool_size, base_seed=base_seed),
            telemetry=ServiceTelemetry(),
        )

    def setup(self) -> None:
        self.specs = synthesize_jobs(
            self.jobs,
            groups=10 * self.pool_size,
            constraints=24,
            variation=5.0,
            infeasible_every=7,
        )
        # Warm-up: lazy imports and first-call costs of the solve path.
        warmup = synthesize_jobs(2, constraints=24, variation=5.0, prefix="warm")
        self._service(self.base_seeds[0] + 1, 1).batch(warmup)
        self.prepare()

    def prepare(self) -> None:
        self.services = [
            self._service(base_seed, self.pool_size) for base_seed in self.base_seeds
        ]

    def run(self) -> Pass:
        seconds, answers = 0.0, []
        for batch, service in enumerate(self.services):
            self.ledger.attempts.clear()
            start = time.perf_counter()
            records, _ = service.batch(self.specs)
            seconds += time.perf_counter() - start
            answers += served_answers(
                records,
                {r.spec.job_id: r.elapsed_seconds for r in records},
                self.ledger.attempts,
                service.config.settings.device,
                prefix=f"b{batch}:",
            )
        return Pass(seconds, answers)

    def references(self) -> dict:
        return {
            f"b{batch}:{spec.job_id}": (
                build_problem(spec, base_seed),
                spec.kind == "infeasible",
            )
            for batch, base_seed in enumerate(self.base_seeds)
            for spec in self.specs
        }

    def close(self) -> None:
        pass


class HttpClient:
    """One client on one connection at a time (the server speaks HTTP/1.0,
    so each request opens and closes its own connection)."""

    def __init__(self, address) -> None:
        self.connection = http.client.HTTPConnection(*address, timeout=60)

    def _request(self, method: str, path: str, body: str | None = None) -> str:
        self.connection.request(method, path, body=body)
        response = self.connection.getresponse()
        payload = response.read().decode("utf-8")
        if response.status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}")
        return payload

    def submit(self, spec) -> dict:
        """``POST /submit`` one job; returns its ack."""
        return json.loads(self._request("POST", "/submit", json.dumps(spec.to_dict())))

    def resolve(self, spec) -> dict:
        """``POST /resolve`` one re-solve; returns its ack."""
        return json.loads(self._request("POST", "/resolve", json.dumps(spec.to_dict())))

    def stream(self, since: int) -> list:
        """``GET /stream`` long-poll for records from ``since`` on."""
        payload = self._request("GET", f"/stream?since={since}&timeout=10")
        return [json.loads(line) for line in payload.splitlines() if line]

    def next_record(self, since: int) -> dict:
        for _ in range(6):
            lines = self.stream(since)
            if lines:
                return lines[0]
        raise RuntimeError(f"no record {since} within 60 s")

    def close(self) -> None:
        self.connection.close()


def horizon_chain(chain: int, steps: int, walk_seed: int):
    """One rolling-horizon chain: a base job and ``steps`` chained re-solves.

    The spec vocabulary of :func:`repro.workloads.streaming.
    rolling_horizon_stream`, with the structure and the parameter walk
    seeded apart: the base LP is ``build_problem`` of the chain's group
    under :data:`HttpResolve.structure_seed`, and the benchmark seed
    drives the :func:`~repro.workloads.streaming.parameter_stream` walk
    of its ``b`` and ``c``.  Returns ``(base_spec, base_problem, specs)``.
    """
    base_spec = JobSpec(job_id=f"chain{chain}-base", constraints=24, group=chain)
    base = build_problem(base_spec, HttpResolve.structure_seed)
    rng = np.random.default_rng(np.random.SeedSequence([walk_seed, chain]))
    specs, parent = [], base_spec.job_id
    for item in parameter_stream(base, steps, rng=rng):
        job_id = f"chain{chain}-r{item.step:04d}"
        specs.append(
            ResolveSpec(
                job_id=job_id,
                base_job_id=parent,
                b=tuple(float(v) for v in item.problem.b),
                c=tuple(float(v) for v in item.problem.c),
            )
        )
        parent = job_id
    return base_spec, base, specs


class HttpResolve:
    """Chained rolling-horizon re-solves through ``service.FrontDoor``.

    One client thread POSTs ``/resolve`` and long-polls ``/stream``
    until that step's record arrives before sending the next step.  The
    steps interleave six chains (m=24) over a fixed plant: the six
    structures are drawn once with ``structure_seed`` and the benchmark
    seed drives the demand/price walk.  Structures drawn per seed made
    each run hostage to whether it drew one whose warm starts hit a
    singular first solve (then retries, cold programs on other members,
    and failed requests).  The pool holds one member per chain plus a
    spare, and the bases' cold programs happen in ``prepare``.
    """

    name = "http-resolve"
    solver = "s1"
    tolerance = 0.15
    chains = 6
    steps = 25
    structure_seed = 3

    def __init__(self, seed: int, ledger: AttemptLedger) -> None:
        self.seed = seed
        self.ledger = ledger
        self.door = None

    def setup(self) -> None:
        self.bases, self.base_specs, chains = {}, [], []
        for chain in range(self.chains):
            base_spec, base, specs = horizon_chain(chain, self.steps, self.seed)
            self.base_specs.append(base_spec)
            chains.append(specs)
            for spec in specs:
                self.bases[spec.job_id] = base
        self.step_specs = [spec for step in zip(*chains) for spec in step]
        self.prepare()

    def prepare(self) -> None:
        self.service = SolverService(
            ServiceConfig(
                pool_size=self.chains + 1,
                workers=1,
                base_seed=self.structure_seed,
            ),
            telemetry=ServiceTelemetry(),
        )
        self.door = FrontDoor(self.service)
        self.door.start()
        self.client = HttpClient(self.door.address)
        for seq, spec in enumerate(self.base_specs):
            if not self.client.submit(spec).get("accepted"):
                raise RuntimeError(f"base job {spec.job_id} refused")
            self.client.next_record(seq)
        self.seq = len(self.base_specs)

    def run(self) -> Pass:
        self.ledger.attempts.clear()
        latencies, refused = {}, []
        start = time.perf_counter()
        for spec in self.step_specs:
            sent = time.perf_counter()
            if not self.client.resolve(spec).get("accepted"):
                refused.append(spec.job_id)
                continue
            line = self.client.next_record(self.seq)
            if line["job_id"] != spec.job_id:
                raise RuntimeError(f"got {line['job_id']}, expected {spec.job_id}")
            latencies[spec.job_id] = time.perf_counter() - sent
            self.seq += 1
        seconds = time.perf_counter() - start
        self.close()
        records = self.service_records[len(self.base_specs):]
        answers = served_answers(
            records,
            latencies,
            self.ledger.attempts,
            self.service.config.settings.device,
        )
        answers += [Answer(r, 0.0, "refused", 0.0, 0, 0) for r in refused]
        return Pass(seconds, answers)

    def references(self) -> dict:
        return {
            spec.job_id: (
                LinearProgram(
                    c=np.asarray(spec.c),
                    A=self.bases[spec.job_id].A,
                    b=np.asarray(spec.b),
                ),
                False,
            )
            for spec in self.step_specs
        }

    def close(self) -> None:
        if self.door is not None:
            self.client.close()
            self.service_records = self.door.stop()
            self.door = None


class _LibraryWorkload:
    """Random feasible LPs solved by direct library calls."""

    solver = "s1"

    def __init__(self, seed: int, ledger: AttemptLedger) -> None:
        self.seed = seed

    def _draw(self, count: int, m: int) -> None:
        rng = np.random.default_rng(self.seed)
        self.problems = [random_feasible_lp(m, rng=rng) for _ in range(count)]
        self.member_seeds = [int(s) for s in rng.integers(0, 2**63, size=count)]

    def prepare(self) -> None:
        self.rngs = [np.random.default_rng(s) for s in self.member_seeds]

    def references(self) -> dict:
        return {f"lp{i:03d}": (p, False) for i, p in enumerate(self.problems)}

    def close(self) -> None:
        pass


class FleetBatch(_LibraryWorkload):
    """``solve_crossbar_batch`` on groups of 16 same-shape LPs (m=32,
    10% variation, numpy backend), one call at a time; each LP's
    latency is its call's duration."""

    name = "fleet-batch"
    tolerance = 0.30
    calls = 12
    group = 16

    def setup(self) -> None:
        self._draw(self.calls * self.group, 32)
        self.settings = settings_for("crossbar", 10)
        warmup = [random_feasible_lp(8, rng=np.random.default_rng(s)) for s in (1, 2)]
        batch_solver.solve_crossbar_batch(
            warmup,
            self.settings,
            rngs=[np.random.default_rng(s) for s in (1, 2)],
            backend="numpy",
        )
        self.prepare()

    def run(self) -> Pass:
        timed = []
        start = time.perf_counter()
        for first in range(0, len(self.problems), self.group):
            sent = time.perf_counter()
            results = batch_solver.solve_crossbar_batch(
                self.problems[first : first + self.group],
                self.settings,
                rngs=self.rngs[first : first + self.group],
                backend="numpy",
            )
            timed.append((first, time.perf_counter() - sent, results))
        seconds = time.perf_counter() - start
        device = self.settings.device
        answers = [
            library_answer(f"lp{first + k:03d}", duration, result, device)
            for first, duration, results in timed
            for k, result in enumerate(results)
        ]
        return Pass(seconds, answers)


class LargeS2(_LibraryWorkload):
    """``solve_crossbar_large_scale`` (Solver 2, four arrays) on one
    random feasible LP per request at m=64 and 5% variation."""

    name = "large-s2"
    solver = "s2"
    tolerance = 0.10
    lps = 160

    def setup(self) -> None:
        self._draw(self.lps, 64)
        self.settings = settings_for("large_scale", 5)
        scalable_solver.solve_crossbar_large_scale(
            random_feasible_lp(8, rng=np.random.default_rng(1)),
            self.settings,
            rng=np.random.default_rng(2),
        )
        self.prepare()

    def run(self) -> Pass:
        timed = []
        start = time.perf_counter()
        for problem, rng in zip(self.problems, self.rngs):
            sent = time.perf_counter()
            result = scalable_solver.solve_crossbar_large_scale(
                problem, self.settings, rng=rng
            )
            timed.append((time.perf_counter() - sent, result))
        seconds = time.perf_counter() - start
        device = self.settings.device
        answers = [
            library_answer(f"lp{i:03d}", duration, result, device)
            for i, (duration, result) in enumerate(timed)
        ]
        return Pass(seconds, answers)


WORKLOADS = {
    workload.name: workload
    for workload in (BatchMixed, HttpResolve, FleetBatch, LargeS2)
}
