"""Lockstep batched execution of Algorithm 1 across a fleet of LPs.

:func:`solve_crossbar_batch` evaluates many independent crossbar PDIP
solves together: problems whose augmented Newton systems share a
structural signature (size + diagonal-update cell positions) are
mapped onto one :class:`~repro.crossbar.opstack.AnalogOperatorStack`
and iterated in lockstep — per iteration, ONE batched diagonal
rewrite, ONE batched analog multiply and ONE batched analog solve
replace K python-level operator round-trips.  This is the sweep
engine's trial fan-out fast path.

Reproducibility is the design constraint, not a best effort:

- each member draws its attempt seed from its own generator exactly
  as the serial recovery ladder does, and all variation lands on
  per-member generators, so with the numpy backend **every member's
  result is bitwise what the serial solver returns** for the same
  problem/settings/generator — iterates, statuses, messages, write
  counters, attempt records;
- only the *first* ladder attempt runs in lockstep.  Members whose
  attempt concludes (OPTIMAL / INFEASIBLE — in practice almost all of
  them) take their result straight from the batch; a member that needs
  the recovery ladder has its generator rewound to the pre-attempt
  state and re-runs the full serial ladder, reproducing attempt 1
  bitwise before escalating;
- each member keeps one :class:`~repro.core.attempt.AttemptState`, the
  object a serial attempt uses, so convergence, stalls, failed solves,
  divergence and the final ``A x <= alpha b`` check are classified by
  the same code — only the analog tensor ops are batched.

Workloads that need the serial path fall back transparently: health
probes and per-iteration tracing run the plain solver per problem, and
so does a structural singleton (a group of one).  Row-scaled policies
iterate in lockstep like global ones: row scales live on the stack.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.backend import Backend
from repro.core.attempt import AttemptState
from repro.core.crossbar_solver import CrossbarPDIPSolver, augmented_readout
from repro.core.newton import AugmentedNewtonSystem
from repro.core.problem import LinearProgram
from repro.core.residuals import centering_mu
from repro.core.result import SolverResult, SolveStatus, with_attempts
from repro.core.settings import CrossbarSolverSettings
from repro.crossbar.opstack import AnalogOperatorStack
from repro.obs.clock import Stopwatch
from repro.reliability.policy import RecoveryPolicy
from repro.reliability.recovery import _record_for
from repro.reliability.telemetry import RecoveryAction

_CONCLUSIVE = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


def _group_key(system: AugmentedNewtonSystem) -> tuple:
    """Structural signature two systems must share to iterate in lockstep.

    The batched diagonal rewrite needs identical cell positions across
    the stack; those positions are fixed by the layout (n, m and the
    sign-pattern compensation counts), so the signature is the system
    size plus the exact diagonal-update coordinates.
    """
    rows, cols, _ = system.diagonal_update(
        np.zeros(system.n), np.zeros(system.m),
        np.zeros(system.m), np.zeros(system.n),
    )
    return (system.size, rows.tobytes(), cols.tobytes())


def _lockstep_attempt(
    members: list[tuple[AugmentedNewtonSystem, AttemptState]],
    settings: CrossbarSolverSettings,
    seeds: list[int],
    backend: Backend | str | None,
) -> list[SolverResult]:
    """One cold recovery-ladder attempt for the whole group, batched.

    ``members`` pairs each problem's Newton system with its attempt
    state.  The construction, diagonal rewrites, multiplies and solves
    run as single stacked tensor ops; every exit is the state's own.
    """
    opstack = AnalogOperatorStack(
        np.stack(
            [system.build_matrix(*state.iterate) for system, state in members]
        ),
        params=settings.device,
        variation=settings.variation,
        rngs=[np.random.default_rng(seed) for seed in seeds],
        dac_bits=settings.dac_bits,
        adc_bits=settings.adc_bits,
        scale_headroom=settings.scale_headroom,
        row_scaling=settings.row_scaling,
        off_state=settings.off_state,
        write_verify=settings.write_verify,
        backend=backend,
    )
    system0, state0 = members[0]
    diag_rows, diag_cols, _ = system0.diagonal_update(*state0.iterate)

    for iteration in range(settings.max_iterations):
        # Compact tensors over the still-active members only: stragglers
        # near the iteration cap no longer drag the whole stack through
        # the analog ops (each member's row is computed independently,
        # so the subset results stay bitwise identical).
        active = [k for k, (_, state) in enumerate(members) if not state.done]
        if not active:
            break
        live = [members[k] for k in active]
        if iteration:
            opstack.update_coefficients(
                diag_rows,
                diag_cols,
                np.stack(
                    [
                        system.diagonal_update(*state.iterate)[2]
                        for system, state in live
                    ]
                ),
                floor_to_representable=True,
                members=np.array(active),
            )
        products = opstack.multiply(
            np.stack(
                [system.state_vector(*state.iterate) for system, state in live]
            ),
            members=np.array(active),
        )

        solving = []
        residuals = []
        for product, k, (system, state) in zip(products, active, live):
            state.multiplies += 1
            mu = centering_mu(*state.iterate, settings.delta)
            residual, *norms = augmented_readout(system, product, mu)
            if state.check(*norms):
                residuals.append(residual)
                solving.append(k)

        if not solving:
            continue
        deltas, errors = opstack.try_solve(
            np.stack(residuals), members=np.array(solving)
        )
        for delta, error, k in zip(deltas, errors, solving):
            system, state = members[k]
            if error is not None:
                state.solve_failed(error)
                continue
            state.solves += 1
            steps = system.extract_steps(delta)
            state.step(iteration, state.ratio_test(steps), steps)

    reports = opstack.write_reports
    return [
        state.result(reports[k], system.size)
        for k, (system, state) in enumerate(members)
    ]


def solve_crossbar_batch(
    problems: list[LinearProgram],
    settings: CrossbarSolverSettings | None = None,
    *,
    rngs: list[np.random.Generator] | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: bool = False,
    backend: Backend | str | None = None,
) -> list[SolverResult]:
    """Solve many LPs on batched crossbar fleets, bitwise == serial.

    Parameters
    ----------
    problems:
        The LPs to solve; arbitrary shapes (grouped internally).
    settings:
        One configuration shared by every solve.
    rngs:
        One generator per problem (defaults to fresh independent
        generators).  Each is consumed exactly as a serial
        ``solve_crossbar(problem, settings, rng=rng)`` call would —
        callers can mix batched and serial execution freely without
        perturbing downstream draws.
    recovery:
        Recovery policy (default: the paper's retry scheme).  Policies
        with a health probe fall back to serial execution.
    trace:
        Per-iteration tracing forces the serial path (trace records
        are inherently per-member).
    backend:
        Tensor backend for the batched analog ops (name, instance, or
        ``None`` for the config/env default).

    Problems whose structural signature no other problem shares run
    serially: a one-member stack saves nothing.

    Returns the per-problem :class:`SolverResult` list, index-aligned
    with ``problems``.
    """
    settings = settings if settings is not None else CrossbarSolverSettings()
    if rngs is None:
        rngs = [np.random.default_rng() for _ in problems]
    if len(rngs) != len(problems):
        raise ValueError(
            f"need one generator per problem: {len(problems)} problems, "
            f"{len(rngs)} generators"
        )
    recovery = (
        recovery
        if recovery is not None
        else RecoveryPolicy.from_settings(settings)
    )

    def serial(index: int) -> SolverResult:
        solver = CrossbarPDIPSolver(
            problems[index], settings, rng=rngs[index], recovery=recovery
        )
        return solver.solve(trace=trace)

    results: list[SolverResult | None] = [None] * len(problems)
    if trace or recovery.probe is not None:
        return [serial(index) for index in range(len(problems))]

    systems = [AugmentedNewtonSystem(problem) for problem in problems]
    groups: dict[tuple, list[int]] = {}
    for index, system in enumerate(systems):
        groups.setdefault(_group_key(system), []).append(index)

    for indices in groups.values():
        if len(indices) < 2:
            for index in indices:
                results[index] = serial(index)
            continue
        # Mirror the serial ladder's attempt bookkeeping: snapshot each
        # generator, then draw the attempt seed from it exactly as
        # solve_with_recovery does.
        snapshots = [rngs[index].bit_generator.state for index in indices]
        seeds = [int(rngs[index].integers(0, 2**63)) for index in indices]
        members = [
            (systems[index], AttemptState(problems[index], settings))
            for index in indices
        ]
        with Stopwatch() as clock:
            attempt_results = _lockstep_attempt(
                members, settings, seeds, backend
            )
        for pos, index in enumerate(indices):
            result = attempt_results[pos]
            if result.status in _CONCLUSIVE:
                record = _record_for(
                    0, RecoveryAction.INITIAL, result, seeds[pos], None
                )
                results[index] = dataclasses.replace(
                    with_attempts(result, [record]),
                    elapsed_seconds=clock.elapsed_seconds,
                )
            else:
                # Inconclusive first attempt: rewind this member's
                # generator to before the seed draw and run the full
                # serial recovery ladder — it reproduces attempt 1
                # bitwise, then escalates.
                rngs[index].bit_generator.state = snapshots[pos]
                results[index] = serial(index)
    return results
