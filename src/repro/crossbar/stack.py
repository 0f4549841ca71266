"""A batched fleet of same-shape crossbar arrays as one 3-D tensor.

:class:`CrossbarStack` holds K same-shape crossbars as ``(K, n_rows,
n_cols)`` nominal/actual conductance tensors and evaluates the analog
primitives over the whole fleet in single batched tensor calls: the
Eqn. 5 read-out is one batched matmul, the current-balance solve one
batched ``linalg.solve`` — dispatched through the pluggable backend
layer (:mod:`repro.backend`; numpy default, optional torch).

Correctness contract (gated by ``tests/property``):

- with the numpy backend, every member is **bitwise identical** to a
  serial :class:`~repro.crossbar.array.CrossbarArray` driven through
  the same sequence of operations with the same generator — outputs
  *and* write counters;
- variation draws follow the per-member stream rule
  (:meth:`~repro.devices.variation.VariationModel.perturb_stack`):
  member ``k`` consumes exactly the variates its serial twin would,
  from its own generator, so cross-member batching never reorders any
  member's stream;
- write costs are planned per member in one vectorized pass
  (:func:`~repro.crossbar.programming.plan_write_stack`), including
  the per-member half-select energy factors of differential writes,
  and each member's cells are written by the serial cell-write kernel
  (:func:`~repro.crossbar.array.write_cells`) with its own generator;
- column-sum denominators use the canonical per-column reduction of
  :func:`~repro.crossbar.array.canonical_colsums`, so the stack's
  dirty-column cache refresh matches the serial cache bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.backend import Backend, get_backend
from repro.crossbar.array import (
    run_write_verify,
    validate_targets,
    write_cells,
)
from repro.crossbar.programming import WriteReport, plan_write_stack
from repro.devices.models import HP_TIO2, DeviceParameters
from repro.devices.variation import NoVariation, VariationModel
from repro.exceptions import CrossbarSolveError, MappingError
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.verify import WriteVerifyPolicy


class CrossbarStack:
    """K same-shape memristor crossbars evaluated as one tensor.

    Parameters
    ----------
    n_members:
        Number of arrays in the stack (K).
    n_rows, n_cols:
        Per-member array dimensions.
    params, variation, g_sense, write_verify, tracer:
        As for :class:`~repro.crossbar.array.CrossbarArray`, shared by
        every member.
    rngs:
        One generator *per member* (the determinism anchor: member
        ``k``'s variation stream is ``rngs[k]``'s).  Defaults to fresh
        independent ``default_rng()`` instances.
    backend:
        A :class:`~repro.backend.Backend`, a backend name, or ``None``
        for the config/env default (see :func:`repro.backend.get_backend`).
    """

    def __init__(
        self,
        n_members: int,
        n_rows: int,
        n_cols: int,
        *,
        params: DeviceParameters = HP_TIO2,
        variation: VariationModel | None = None,
        g_sense: float | None = None,
        rngs: list[np.random.Generator] | None = None,
        write_verify: WriteVerifyPolicy | None = None,
        tracer: Tracer | None = None,
        backend: Backend | str | None = None,
    ) -> None:
        if n_members < 1:
            raise ValueError("stack needs at least one member")
        if n_rows < 1 or n_cols < 1:
            raise ValueError("array dimensions must be positive")
        self.n_members = int(n_members)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.params = params
        self.variation = variation if variation is not None else NoVariation()
        self.g_sense = float(g_sense) if g_sense is not None else params.g_on
        if self.g_sense <= 0:
            raise ValueError("g_sense must be positive")
        if rngs is None:
            rngs = [np.random.default_rng() for _ in range(self.n_members)]
        if len(rngs) != self.n_members:
            raise ValueError(
                f"need one generator per member: {self.n_members} members, "
                f"{len(rngs)} generators"
            )
        self.rngs = list(rngs)
        self.write_verify = write_verify
        self.tracer = tracer if tracer is not None else NOOP
        self.backend = (
            backend if isinstance(backend, Backend) else get_backend(backend)
        )

        shape = (self.n_members, self.n_rows, self.n_cols)
        self._nominal = np.zeros(shape)
        self._actual = self.variation.perturb_stack(self._nominal, self.rngs)
        self._total_reports = [
            WriteReport(0, 0, 0.0, 0.0) for _ in range(self.n_members)
        ]
        # Canonical per-column sums (see array.canonical_colsums); the
        # dirty mask is the union over members — a clean member's
        # column recomputes to the identical value, so one mask keeps
        # the refresh a single batched reduction.
        self._colsum_nominal = self._batched_colsums(self._nominal)
        self._colsum_actual = self._batched_colsums(self._actual)
        self._dirty_cols = np.zeros(self.n_cols, dtype=bool)

    # -- column-sum caches -------------------------------------------------

    @staticmethod
    def _batched_colsums(stack: np.ndarray) -> np.ndarray:
        """Canonical column sums for every member: ``(K, n_cols)``."""
        return np.ascontiguousarray(stack.transpose(0, 2, 1)).sum(axis=2)

    def _mark_dirty(self, cols: np.ndarray | None = None) -> None:
        if cols is None:
            self._dirty_cols[:] = True
        else:
            self._dirty_cols[cols] = True

    def _refresh_colsums(self) -> None:
        if not self._dirty_cols.any():
            return
        if self._dirty_cols.all():
            self._colsum_nominal = self._batched_colsums(self._nominal)
            self._colsum_actual = self._batched_colsums(self._actual)
        else:
            cols = np.flatnonzero(self._dirty_cols)
            self._colsum_nominal[:, cols] = self._nominal.transpose(0, 2, 1)[
                :, cols
            ].sum(axis=2)
            self._colsum_actual[:, cols] = self._actual.transpose(0, 2, 1)[
                :, cols
            ].sum(axis=2)
        self._dirty_cols[:] = False

    # -- member bookkeeping -------------------------------------------------

    def _member_indices(self, members) -> np.ndarray:
        """Normalize a member selector to sorted integer indices."""
        if members is None:
            return np.arange(self.n_members)
        members = np.asarray(members)
        if members.dtype == bool:
            if members.shape != (self.n_members,):
                raise ValueError(
                    f"member mask must have shape ({self.n_members},), "
                    f"got {members.shape}"
                )
            return np.flatnonzero(members)
        members = members.astype(int, copy=False).ravel()
        if members.size and (
            members.min() < 0 or members.max() >= self.n_members
        ):
            raise IndexError("member index out of range")
        return np.unique(members)

    def _log_write(self, member: int, report: WriteReport) -> None:
        self._total_reports[member] = self._total_reports[member] + report
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.count("crossbar.writes")
        tracer.count("crossbar.cells_written", report.cells_written)
        tracer.count("crossbar.write_pulses", report.pulses)
        tracer.count("crossbar.write_latency_s", report.latency_s)
        tracer.count("crossbar.write_energy_j", report.energy_j)
        tracer.count("crossbar.verify_reads", report.verify_reads)
        tracer.count("crossbar.verify_repulsed", report.repulsed_cells)
        tracer.count("crossbar.verify_unverified", report.unverified_cells)

    def _verify_member(
        self,
        member: int,
        rows: np.ndarray,
        cols: np.ndarray,
        report: WriteReport,
    ) -> WriteReport:
        policy = self.write_verify
        if policy is None or rows.size == 0:
            return report
        return run_write_verify(
            self._nominal[member],
            self._actual[member],
            rows,
            cols,
            report,
            policy=policy,
            params=self.params,
            variation=self.variation,
            rng=self.rngs[member],
        )

    # -- programming -------------------------------------------------------

    def program(self, conductances: np.ndarray) -> list[WriteReport]:
        """Program every member to its full-grid targets.

        ``conductances`` is ``(K, n_rows, n_cols)`` or a single
        ``(n_rows, n_cols)`` grid broadcast to every member.  The write
        plan is one vectorized pass; variation redraws per member, in
        member order, from each member's own generator.
        """
        conductances = np.asarray(conductances, dtype=float)
        if conductances.shape == (self.n_rows, self.n_cols):
            conductances = np.broadcast_to(
                conductances,
                (self.n_members, self.n_rows, self.n_cols),
            ).copy()
        if conductances.shape != (
            self.n_members,
            self.n_rows,
            self.n_cols,
        ):
            raise MappingError(
                f"conductance shape {conductances.shape} does not match "
                f"stack ({self.n_members}, {self.n_rows}, {self.n_cols})"
            )
        for member in range(self.n_members):
            validate_targets(
                conductances[member], self.params.g_on, f"member {member}: "
            )
        reports = plan_write_stack(self._nominal, conductances, self.params)
        self._nominal = conductances.copy()
        self._actual = self.variation.perturb_stack(self._nominal, self.rngs)
        self._mark_dirty()
        rows, cols = np.indices((self.n_rows, self.n_cols)).reshape(2, -1)
        for member in range(self.n_members):
            reports[member] = self._verify_member(
                member, rows, cols, reports[member]
            )
            self._log_write(member, reports[member])
        return reports

    def program_cells(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        conductances: np.ndarray,
        *,
        skip_unchanged: bool = False,
        members=None,
    ) -> list[WriteReport | None]:
        """Differential cell writes across the fleet.

        ``rows``/``cols`` name the same cells on every selected
        member; ``conductances`` is ``(c,)`` (shared targets) or
        ``(K, c)`` (per-member targets; rows of unselected members are
        ignored).  One gather reads every selected member's programmed
        values; with ``skip_unchanged`` each member then drops the
        cells already holding their target.  Every target is validated
        before any member is written, the members' ``(1, k)`` write
        costs are planned in one vectorized pass, and each member's
        moved cells go through the serial cell-write kernel
        (:func:`~repro.crossbar.array.write_cells`) with that member's
        generator — the same cells, draws and report a serial array
        would produce.

        Returns a K-long list: a :class:`WriteReport` per selected
        member, ``None`` for members the mask excluded (no event,
        exactly like an untouched serial array).
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        conductances = np.asarray(conductances, dtype=float)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be matching 1-D arrays")
        selected = self._member_indices(members)
        results: list[WriteReport | None] = [None] * self.n_members
        if conductances.ndim == 1:
            if conductances.shape != rows.shape:
                raise ValueError("rows, cols, conductances must align")
            targets = np.broadcast_to(
                conductances, (selected.size, rows.size)
            )
        elif conductances.shape == (self.n_members, rows.size):
            targets = conductances[selected]
        elif conductances.shape == (selected.size, rows.size):
            # One row per *selected* member (mask-aligned callers).
            targets = conductances
        else:
            raise ValueError(
                f"conductances must be ({rows.size},), "
                f"({self.n_members}, {rows.size}) or "
                f"({selected.size}, {rows.size}), got {conductances.shape}"
            )
        if rows.size == 0:
            for member in selected:
                results[member] = WriteReport(0, 0, 0.0, 0.0)
            return results
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise IndexError("row index out of range")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise IndexError("column index out of range")

        current = self._nominal[selected[:, None], rows[None, :], cols[None, :]]
        if skip_unchanged:
            changed = targets != current
        else:
            changed = np.ones_like(current, dtype=bool)
        changed_counts = changed.sum(axis=1)
        active = np.flatnonzero(changed_counts)
        for pos in np.flatnonzero(changed_counts == 0):
            results[selected[pos]] = WriteReport(0, 0, 0.0, 0.0)
        for pos in active:
            validate_targets(
                targets[pos][changed[pos]],
                self.params.g_on,
                f"member {selected[pos]}: ",
            )
        if active.size == 0:
            return results

        # Vectorized per-member write plan.  Unchanged cells keep their
        # old value (zero swing), which plans exactly like the serial
        # path's changed-subset write; the half-select factor is the
        # per-member changed count (the serial (1, c_k) reshape).
        planned_new = np.where(changed[active], targets[active], current[active])
        reports = plan_write_stack(
            current[active][:, None, :],
            planned_new[:, None, :],
            self.params,
            half_select_counts=changed_counts[active] - 1,
        )
        for report, pos in zip(reports, active):
            member = int(selected[pos])
            mask = changed[pos]
            m_cols = cols[mask]
            report = write_cells(
                self._nominal[member],
                self._actual[member],
                rows[mask],
                m_cols,
                targets[pos][mask],
                report,
                params=self.params,
                variation=self.variation,
                rng=self.rngs[member],
                write_verify=self.write_verify,
            )
            self._mark_dirty(m_cols)
            self._log_write(member, report)
            results[member] = report
        return results

    def redraw(self, members=None) -> list[WriteReport | None]:
        """Reprogram every active cell of the selected members.

        The recovery ladder's *reprogram* rung, fleet-wide: nominal
        targets are unchanged; each selected member redraws fresh
        variation for its nonzero cells from its own generator.
        """
        selected = self._member_indices(members)
        results: list[WriteReport | None] = [None] * self.n_members
        touched_cols: list[np.ndarray] = []
        for member in selected:
            member = int(member)
            m_rows, m_cols = np.nonzero(self._nominal[member])
            report = WriteReport(0, 0, 0.0, 0.0)
            if m_rows.size:
                targets = self._nominal[member, m_rows, m_cols]
                self._actual[member, m_rows, m_cols] = self.variation.perturb(
                    targets.reshape(1, -1), self.rngs[member]
                ).ravel()
                report = self._verify_member(member, m_rows, m_cols, report)
                touched_cols.append(m_cols)
            self._log_write(member, report)
            results[member] = report
        if touched_cols:
            self._mark_dirty(np.concatenate(touched_cols))
        return results

    # -- analog primitives ---------------------------------------------------

    def multiply(
        self, v_in: np.ndarray, *, members=None
    ) -> np.ndarray:
        """Batched Eqn. 5 read-out: ``(K, n_cols)`` bit-line voltages.

        ``v_in`` is ``(K, n_rows)`` (per-member drives) or ``(n_rows,)``
        broadcast to the fleet.  One backend matvec evaluates every
        member; with the numpy backend each row is bitwise what the
        serial array returns.  With ``members`` set, ``v_in`` is
        ``(len(selected), n_rows)`` and only those members' arrays are
        driven (each selected row still bitwise-serial) — the lockstep
        solver's straggler path.
        """
        selected = self._member_indices(members)
        v_in = np.asarray(v_in, dtype=float)
        if v_in.shape == (self.n_rows,):
            v_in = np.ascontiguousarray(
                np.broadcast_to(v_in, (selected.size, self.n_rows))
            )
        if v_in.shape != (selected.size, self.n_rows):
            raise ValueError(
                f"expected input of shape ({selected.size}, "
                f"{self.n_rows},), got {v_in.shape}"
            )
        stack = (
            self._actual
            if selected.size == self.n_members
            else self._actual[selected]
        )
        currents = self.backend.matvec_t(stack, v_in)
        self._refresh_colsums()
        denominators = self.g_sense + self._colsum_actual[selected]
        return currents / denominators

    def nominal_denominators(self, members=None) -> np.ndarray:
        """``g_s + column sums`` of programmed conductances, ``(K, n_cols)``.

        With ``members`` set, only the selected members' rows, in
        index order.
        """
        self._refresh_colsums()
        if members is None:
            return self.g_sense + self._colsum_nominal
        selected = self._member_indices(members)
        return self.g_sense + self._colsum_nominal[selected]

    def try_solve(
        self, v_out: np.ndarray, *, members=None
    ) -> tuple[np.ndarray, list[CrossbarSolveError | None]]:
        """Batched analog solve with per-member failure isolation.

        Solves every member's ``G^T V_I = g_s V_O`` in one backend
        call.  When the batched kernel rejects the stack (any singular
        member), the members are re-solved individually so one bad
        draw cannot poison the fleet: the returned error list carries
        a :class:`CrossbarSolveError` per failed member and ``None``
        per healthy one; failed members' solution rows are zeros.
        With ``members`` set, ``v_out`` is ``(len(selected), n)`` and
        both returns are selected-length, in index order.
        """
        if self.n_rows != self.n_cols:
            raise CrossbarSolveError(
                f"solving requires square arrays, got "
                f"{self.n_rows}x{self.n_cols}"
            )
        selected = self._member_indices(members)
        v_out = np.asarray(v_out, dtype=float)
        if v_out.shape == (self.n_cols,):
            v_out = np.ascontiguousarray(
                np.broadcast_to(v_out, (selected.size, self.n_cols))
            )
        if v_out.shape != (selected.size, self.n_cols):
            raise ValueError(
                f"expected target of shape ({selected.size}, "
                f"{self.n_cols},), got {v_out.shape}"
            )
        stack = (
            self._actual
            if selected.size == self.n_members
            else self._actual[selected]
        )
        rhs = self.g_sense * v_out
        errors: list[CrossbarSolveError | None] = [None] * selected.size
        try:
            solutions = self.backend.solve_t(stack, rhs)
        except np.linalg.LinAlgError:
            # Per-member fallback: a 2-D solve is bitwise what the
            # batched gufunc computes for that slice, so isolation
            # costs nothing in reproducibility.
            solutions = np.zeros((selected.size, self.n_rows))
            for index, member in enumerate(selected):
                try:
                    solutions[index] = np.linalg.solve(
                        self._actual[member].T, rhs[index]
                    )
                except np.linalg.LinAlgError as exc:
                    errors[index] = CrossbarSolveError(
                        "perturbed conductance matrix is singular"
                    )
                    errors[index].__cause__ = exc
        finite = np.all(np.isfinite(solutions), axis=1)
        for index in range(selected.size):
            if errors[index] is None and not finite[index]:
                errors[index] = CrossbarSolveError(
                    "analog solve produced non-finite rails"
                )
                solutions[index] = 0.0
        return solutions, errors

    def solve(self, v_out: np.ndarray) -> np.ndarray:
        """Batched analog solve; raises if *any* member fails.

        The fleet-wide strict variant of :meth:`try_solve` — use that
        for per-member isolation.
        """
        solutions, errors = self.try_solve(v_out)
        for error in errors:
            if error is not None:
                raise error
        return solutions

    # -- bookkeeping -----------------------------------------------------------

    @property
    def nominal_stack(self) -> np.ndarray:
        """Programmed targets ``(K, n_rows, n_cols)``; copy."""
        return self._nominal.copy()

    @property
    def actual_stack(self) -> np.ndarray:
        """Variation-perturbed conductances ``(K, n_rows, n_cols)``; copy."""
        return self._actual.copy()

    @property
    def total_write_reports(self) -> list[WriteReport]:
        """Per-member lifetime write costs (running totals)."""
        return list(self._total_reports)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CrossbarStack({self.n_members}x{self.n_rows}x{self.n_cols}, "
            f"device={self.params.name!r}, backend={self.backend.name!r})"
        )
