"""Parallel, resumable sweep execution engine.

The paper's whole evaluation (Section 4.2) is an embarrassingly
parallel grid — constraint counts x variation levels x independent
random trials — and every cell's randomness comes from the
deterministic :func:`~repro.experiments.runner.cell_seed` derivation,
never from shared RNG state.  This module exploits that: it fans
``(size, variation, trial)`` cells out to a process pool and
guarantees **bit-identical experiment rows at any worker count**
(including ``workers=1`` vs. N), because

- each cell re-derives its seeds from the
  :class:`~repro.experiments.runner.SweepConfig` alone;
- per-trial payloads are plain JSON scalars, merged back in grid
  order, so floating-point accumulation order never depends on
  scheduling;
- aggregation into row dataclasses happens once, in the parent.

Each worker process pins numpy's and scipy's OpenBLAS to one thread
(:func:`~repro.backend.blas.pin_blas_threads`), so N workers use N
cores instead of oversubscribing them.

Three further production features:

- **failure isolation** — a cell that raises records a
  :class:`CellFailure` (a ``FailureReason``-style entry in the PR 1
  reliability vocabulary) instead of killing the sweep;
- **resume** — with ``cache_path`` set, every finished cell is
  appended to a JSONL cache keyed by a config/grid/seed fingerprint;
  re-running the same sweep skips completed cells, so an interrupted
  paper-scale run picks up where it left off;
- **trace merge** — workers run each cell under a local
  :class:`~repro.obs.tracer.RecordingTracer` inside a ``sweep_cell``
  span (attributes: solver, size, variation, trial, ``worker`` pid);
  the parent absorbs the streams via
  :func:`~repro.obs.merge.absorb_events`, so PR 2 sinks and replay
  keep working on parallel sweeps.

Experiments register a :class:`SweepSpec` (per-trial function +
row aggregator + renderer); the paper's two sweeps live in
:mod:`repro.experiments.feasible` (Figs. 5-7 from one solve per cell)
and :mod:`repro.experiments.infeasibility`.  See DESIGN.md §10.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import importlib
import json
import os
import pathlib
from typing import Callable, Iterable

from repro.backend.blas import pin_blas_threads
from repro.experiments.runner import SweepConfig
from repro.obs.clock import monotonic
from repro.obs.merge import absorb_events
from repro.obs.tracer import NOOP, RecordingTracer, Tracer

#: Bumped whenever the cell payload schema or seed derivation changes;
#: part of the cache fingerprint, so stale caches are rejected.
ENGINE_VERSION = 1

#: Cache file format tag (mirrors obs.sinks.TRACE_FORMAT).
CACHE_FORMAT = "repro-sweep-cache"

#: ``FailureReason``-style token for a cell whose trial function
#: raised (the sweep-level analogue of the solver enum's values).
CELL_CRASHED = "cell_crashed"

#: Registry: experiment name -> "module:attr" of its SweepSpec.
SPEC_REFS = {
    "feasible": "repro.experiments.feasible:SPEC",
    "infeasibility": "repro.experiments.infeasibility:SPEC",
}


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One experiment's pluggable pieces.

    Attributes
    ----------
    name:
        Experiment identifier (``"feasible"`` ...), part of the cache
        fingerprint.
    trial:
        ``trial(solver, size, variation, trial, config, tracer) ->
        dict`` — runs ONE random trial and returns a JSON-serializable
        payload of scalars.  Must derive all randomness from
        :func:`~repro.experiments.runner.cell_seed`.
    aggregate:
        ``aggregate(solver, size, variation, config, payloads) ->
        row`` — folds the cell's per-trial payloads (in trial order;
        ``None`` where a trial crashed) into one row dataclass.
    render:
        ``render(rows) -> str`` — the experiment's text table.
    trial_batch:
        Optional ``trial_batch(solver, keys, config, tracer) ->
        list[dict]`` — runs a same-``(size, variation)`` group of
        trials together (e.g. on one batched crossbar stack) and
        returns the payloads in key order.  MUST be bit-identical to
        calling ``trial`` per key: same seed derivation, same payload
        scalars — the engine's determinism contract (and the cell
        cache) does not distinguish the two paths.  Used only when the
        run opts in via ``batch_trials`` and tracing is off; a raising
        batch falls back to the per-trial path.
    """

    name: str
    trial: Callable
    aggregate: Callable
    render: Callable
    trial_batch: Callable | None = None


@dataclasses.dataclass(frozen=True)
class CellKey:
    """Coordinates of one sweep cell: a single random trial."""

    size: int
    variation: int
    trial: int


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """Structured record of a crashed cell (reliability vocabulary).

    Mirrors :class:`~repro.core.result.FailureReason` +
    :class:`~repro.reliability.telemetry.AttemptRecord` in spirit: a
    machine-readable reason token plus enough detail to reproduce
    (the cell key pins the exact seeds via ``cell_seed``).
    """

    failure_reason: str
    error_type: str
    message: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CellFailure":
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-restored) cell.

    ``payload`` is the trial function's return value (``None`` when
    the cell crashed — then ``failure`` is set).  ``events`` is the
    worker tracer's serialized stream (empty when tracing was off).
    """

    key: CellKey
    payload: dict | None
    failure: CellFailure | None
    worker: int
    from_cache: bool = False
    events: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kind": "cell",
            "size": self.key.size,
            "variation": self.key.variation,
            "trial": self.key.trial,
            "worker": self.worker,
            "payload": self.payload,
            "failure": (
                None if self.failure is None else self.failure.to_dict()
            ),
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellOutcome":
        return cls(
            key=CellKey(
                size=data["size"],
                variation=data["variation"],
                trial=data["trial"],
            ),
            payload=data["payload"],
            failure=(
                None
                if data["failure"] is None
                else CellFailure.from_dict(data["failure"])
            ),
            worker=data["worker"],
            from_cache=True,
            events=tuple(data.get("events") or ()),
        )


@dataclasses.dataclass(frozen=True)
class SweepRunResult:
    """Everything a sweep run produced.

    Attributes
    ----------
    rows:
        Aggregated experiment rows in grid order — identical for any
        worker count (the determinism contract).
    outcomes:
        Every cell in grid order (executed and cache-restored).
    failures:
        The crashed subset of ``outcomes``.
    executed / skipped:
        Cells run this invocation vs. restored from the cache.
    fingerprint:
        The config/grid/seed hash keying the cache.
    workers:
        Worker count actually used.
    elapsed_seconds:
        Wall clock of the whole run on the shared monotonic clock.
    """

    rows: list
    outcomes: tuple
    failures: tuple
    executed: int
    skipped: int
    fingerprint: str
    workers: int
    elapsed_seconds: float


def resolve_spec(experiment: str) -> SweepSpec:
    """Look up a :class:`SweepSpec` by registry name or ``module:attr``."""
    ref = SPEC_REFS.get(experiment, experiment)
    if ":" not in ref:
        raise ValueError(
            f"unknown experiment {experiment!r}; expected one of "
            f"{sorted(SPEC_REFS)} or a 'module:attr' spec reference"
        )
    module_name, attr = ref.split(":", 1)
    spec = getattr(importlib.import_module(module_name), attr)
    if not isinstance(spec, SweepSpec):
        raise TypeError(f"{ref} is not a SweepSpec")
    return spec


def sweep_fingerprint(
    experiment: str, solver: str, config: SweepConfig
) -> str:
    """Hash keying a cell cache: engine + experiment + solver + grid.

    Any change to the grid, seed, solver, or payload schema (via
    :data:`ENGINE_VERSION`) produces a different fingerprint, so a
    cache can never silently feed rows into the wrong sweep.
    """
    identity = {
        "engine": ENGINE_VERSION,
        "experiment": experiment,
        "solver": solver,
        "sizes": list(config.sizes),
        "variations": list(config.variations),
        "trials": config.trials,
        "seed": config.seed,
    }
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode()
    )
    return digest.hexdigest()[:16]


def grid_keys(config: SweepConfig) -> list[CellKey]:
    """All cell keys in canonical grid order (the aggregation order)."""
    return [
        CellKey(size=m, variation=v, trial=t)
        for m in config.sizes
        for v in config.variations
        for t in range(config.trials)
    ]


class SweepCache:
    """Append-only JSONL cell cache with a fingerprint header.

    Line 1 is a header carrying the sweep fingerprint; every following
    line is one :class:`CellOutcome`.  Opening an existing cache with
    a different fingerprint raises ``ValueError`` (a cache is bound to
    exactly one sweep identity).  Crashed cells are recorded too —
    for post-mortems — but are *not* treated as completed, so a
    resumed run retries them.  A last line cut short by a killed run
    is dropped from the file on load, so its cell re-runs too.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        fingerprint: str,
        meta: dict | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = fingerprint
        self.completed: dict[CellKey, CellOutcome] = {}
        if self.path.exists() and self.path.stat().st_size > 0:
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = {
                "kind": "header",
                "format": CACHE_FORMAT,
                "version": ENGINE_VERSION,
                "fingerprint": fingerprint,
                **(meta or {}),
            }
            self.path.write_text(json.dumps(header) + "\n")

    def _load(self) -> None:
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        tail = lines.pop()  # empty when the file ends in a newline
        header = json.loads(lines[0]) if lines else {}
        if header.get("format") != CACHE_FORMAT:
            raise ValueError(
                f"{self.path} is not a {CACHE_FORMAT} file"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"cache {self.path} was produced by a different sweep "
                f"(fingerprint {header.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); pass a fresh cache path or "
                "re-run with the original grid/solver/seed"
            )
        if tail:
            # A run killed mid-append leaves its last line without a
            # newline.  Cut it off: its cell re-runs, and the next
            # append gets a line of its own.  A malformed line anywhere
            # else still raises below.
            with self.path.open("r+b") as handle:
                handle.truncate(len(data) - len(tail))
        for line in lines[1:]:
            if not line.strip():
                continue
            outcome = CellOutcome.from_dict(json.loads(line))
            if outcome.failure is None:
                self.completed[outcome.key] = outcome
            else:
                # A later success may follow an earlier failure; only
                # drop the key if this failure is the latest word.
                self.completed.pop(outcome.key, None)

    def append(self, outcome: CellOutcome) -> None:
        with self.path.open("a") as handle:
            handle.write(
                json.dumps(outcome.to_dict(), sort_keys=True) + "\n"
            )
        if outcome.failure is None:
            self.completed[outcome.key] = outcome


def _run_cell_group(
    spec: SweepSpec,
    solver: str,
    config: SweepConfig,
    keys: list[CellKey],
    worker: int,
) -> list[dict] | None:
    """Run one same-``(size, variation)`` group through ``trial_batch``.

    Returns the outcome dicts in key order, or ``None`` if the batch
    path declined (raised) — the caller then retries per trial, so a
    batching bug degrades to the serial path instead of crashing the
    cells.
    """
    try:
        payloads = spec.trial_batch(solver, keys, config, NOOP)
    except Exception:  # noqa: BLE001 - fall back to per-trial isolation
        return None
    if len(payloads) != len(keys):
        return None
    return [
        CellOutcome(
            key=key, payload=payload, failure=None, worker=worker
        ).to_dict()
        for key, payload in zip(keys, payloads)
    ]


def _run_cells(
    spec_ref: str,
    solver: str,
    config: SweepConfig,
    keys: list[CellKey],
    record: bool,
    batch: bool = False,
) -> list[dict]:
    """Worker entry point: run a chunk of cells, isolate failures.

    Module-level (picklable) so a :class:`~concurrent.futures.
    ProcessPoolExecutor` can ship it; also the ``workers=1`` inline
    path, so serial and parallel runs share one code path.

    With ``batch`` set (and tracing off), same-``(size, variation)``
    runs of the chunk go through the spec's ``trial_batch`` — one
    batched solve for the whole group — with per-trial execution as
    the fallback.  Payloads are bit-identical either way.
    """
    spec = resolve_spec(spec_ref)
    worker = os.getpid()
    if batch and spec.trial_batch is not None and not record:
        outcomes = []
        groups: list[list[CellKey]] = []
        for key in keys:
            if groups and (
                groups[-1][0].size == key.size
                and groups[-1][0].variation == key.variation
            ):
                groups[-1].append(key)
            else:
                groups.append([key])
        for group in groups:
            batched = (
                _run_cell_group(spec, solver, config, group, worker)
                if len(group) > 1
                else None
            )
            if batched is not None:
                outcomes.extend(batched)
            else:
                outcomes.extend(
                    _run_cells(spec_ref, solver, config, group, record)
                )
        return outcomes
    outcomes = []
    for key in keys:
        tracer: Tracer = RecordingTracer() if record else NOOP
        try:
            with tracer.span(
                "sweep_cell",
                solver=solver,
                size=key.size,
                variation=key.variation,
                trial=key.trial,
                worker=worker,
            ):
                payload = spec.trial(
                    solver,
                    key.size,
                    key.variation,
                    key.trial,
                    config,
                    tracer,
                )
            failure = None
        except Exception as exc:  # noqa: BLE001 - isolation by design
            payload = None
            failure = CellFailure(
                failure_reason=CELL_CRASHED,
                error_type=type(exc).__name__,
                message=str(exc),
            )
        events = (
            tuple(tracer.event_dicts())
            if isinstance(tracer, RecordingTracer)
            else ()
        )
        outcomes.append(
            CellOutcome(
                key=key,
                payload=payload,
                failure=failure,
                worker=worker,
                events=events,
            ).to_dict()
        )
    return outcomes


def _chunk(items: list, chunks: int) -> list[list]:
    """Split ``items`` into at most ``chunks`` contiguous batches."""
    if not items:
        return []
    size = max(1, -(-len(items) // chunks))
    return [items[i : i + size] for i in range(0, len(items), size)]


def run_sweep(
    experiment: str,
    solver: str = "crossbar",
    config: SweepConfig | None = None,
    *,
    workers: int = 1,
    tracer: Tracer | None = None,
    cache_path: str | pathlib.Path | None = None,
    progress: Callable[[CellOutcome], None] | None = None,
    batch_trials: bool = False,
) -> SweepRunResult:
    """Execute a sweep over the full grid; the engine's entry point.

    Parameters
    ----------
    experiment:
        Registry name (``"feasible"``, ``"infeasibility"``) or a
        ``"module:attr"`` spec reference.
    solver:
        Solver registry name forwarded to the trial function.
    config:
        The sweep grid (default: the scaled-down
        :class:`~repro.experiments.runner.SweepConfig`).
    workers:
        Process count.  ``1`` runs inline (no pool); any value
        produces bit-identical rows.
    tracer:
        Parent tracer.  When recording, each cell runs under a worker-
        local tracer whose stream is merged back here (``sweep_cell``
        spans carry a ``worker`` attribute).
    cache_path:
        JSONL cell cache.  Created if missing; if present, completed
        cells are restored instead of re-run (crashed cells retry).
    progress:
        Optional callback invoked with every fresh
        :class:`CellOutcome` as it lands (cache hits excluded).
    batch_trials:
        Opt into the spec's ``trial_batch`` fast path: same-cell runs
        of trials execute as one batched solve (stacked crossbars)
        instead of a python loop.  Payloads — and therefore rows and
        the cell cache — are bit-identical to the per-trial path;
        specs without a ``trial_batch``, recording tracers, and batch
        failures all degrade to per-trial execution transparently.

    Returns
    -------
    SweepRunResult
        Rows in grid order plus execution/caching/failure metadata.
    """
    spec = resolve_spec(experiment)
    config = config if config is not None else SweepConfig()
    tracer = tracer if tracer is not None else NOOP
    record = tracer.enabled
    started = monotonic()

    fingerprint = sweep_fingerprint(spec.name, solver, config)
    cache = None
    if cache_path is not None:
        cache = SweepCache(
            cache_path,
            fingerprint,
            meta={
                "experiment": spec.name,
                "solver": solver,
                "sizes": list(config.sizes),
                "variations": list(config.variations),
                "trials": config.trials,
                "seed": config.seed,
            },
        )

    keys = grid_keys(config)
    done: dict[CellKey, CellOutcome] = (
        dict(cache.completed) if cache else {}
    )
    pending = [key for key in keys if key not in done]
    skipped = len(keys) - len(pending)

    spec_ref = SPEC_REFS.get(experiment, experiment)
    if workers <= 1 or len(pending) <= 1:
        if batch_trials and pending:
            # One inline chunk so same-cell trial runs can group.
            batches: Iterable[list[dict]] = (
                _run_cells(spec_ref, solver, config, chunk, record, True)
                for chunk in [pending]
            )
        else:
            batches = (
                _run_cells(spec_ref, solver, config, [key], record)
                for key in pending
            )
        used_workers = 1
    else:
        chunks = _chunk(pending, workers * 4)
        used_workers = min(workers, len(chunks))
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=used_workers, initializer=pin_blas_threads
        )
        batches = executor.map(
            _run_cells,
            [spec_ref] * len(chunks),
            [solver] * len(chunks),
            [config] * len(chunks),
            chunks,
            [record] * len(chunks),
            [batch_trials] * len(chunks),
        )

    executed = 0
    try:
        for batch in batches:
            for data in batch:
                outcome = CellOutcome.from_dict(data)
                outcome = dataclasses.replace(outcome, from_cache=False)
                done[outcome.key] = outcome
                executed += 1
                if cache is not None:
                    cache.append(outcome)
                if progress is not None:
                    progress(outcome)
    finally:
        if workers > 1 and len(pending) > 1:
            executor.shutdown()

    # Merge traces and aggregate rows in canonical grid order, so the
    # result is independent of completion order and worker count.  An
    # untraced run restoring cells a traced run cached drops their
    # events.
    outcomes = tuple(done[key] for key in keys)
    for outcome in outcomes:
        if record and outcome.events:
            absorb_events(tracer, outcome.events)
    rows = []
    for m in config.sizes:
        for v in config.variations:
            payloads = [
                done[CellKey(size=m, variation=v, trial=t)].payload
                for t in range(config.trials)
            ]
            rows.append(spec.aggregate(solver, m, v, config, payloads))
    failures = tuple(o for o in outcomes if o.failure is not None)
    return SweepRunResult(
        rows=rows,
        outcomes=outcomes,
        failures=failures,
        executed=executed,
        skipped=skipped,
        fingerprint=fingerprint,
        workers=used_workers,
        elapsed_seconds=monotonic() - started,
    )
