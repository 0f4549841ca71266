"""The analog engine: K same-shape crossbar arrays as one 3-D tensor.

:class:`CrossbarStack` holds K same-shape crossbars as ``(K, n_rows,
n_cols)`` nominal/actual conductance tensors and evaluates the analog
primitives of Section 2.3 over the whole fleet in single batched
tensor calls: the Eqn. 5 read-out is one batched matmul, the
current-balance solve one batched ``linalg.solve`` — dispatched
through the pluggable backend layer (:mod:`repro.backend`; numpy
default, optional torch).  It is the only crossbar implementation:
:class:`~repro.crossbar.array.CrossbarArray` is a one-member view of
a stack pinned to the numpy backend.

**Multiplication** (Eqn. 5) — input voltages on the word-lines, output
voltages sensed across the ``R_s`` resistors on the bit-lines:

.. math::

   V_{O,j} = \\frac{\\sum_i g_{i,j} V_{I,i}}{g_s + \\sum_k g_{k,j}}
   \\qquad\\Longleftrightarrow\\qquad
   V_O = D \\, G^T \\, V_I

**Solving** — output voltages forced on the bit-line sense nodes; the
current balance :math:`\\sum_i V_{I,i}\\, g_{i,j} = g_s V_{O,j}` on
every bit-line pins the word-line voltages to the solution of
:math:`G^T V_I = g_s V_O`.

Both primitives are evaluated with the *actual* conductances — the
programmed values perturbed by the process-variation model (Eqn. 18),
freshly drawn at every (re)programming, exactly as the paper notes that
"process variation differs from each time of writing".

Determinism contract (gated by ``tests/property``):

- with the numpy backend, member ``k`` of a K-member stack is
  **bitwise identical** to a one-member stack driven through the same
  operations with the same generator — outputs *and* write counters;
- variation draws follow the per-member stream rule
  (:meth:`~repro.devices.variation.VariationModel.perturb_stack`):
  member ``k`` consumes exactly what a one-member stack seeded with
  ``rngs[k]`` would, so cross-member batching never reorders any
  member's stream;
- writes are planned and performed per member on 2-D views: each
  member's moved cells go through the cell-write kernel
  (:func:`write_cells`) with that member's generator;
- column-sum denominators use the canonical per-column reduction of
  :func:`canonical_colsums`, so a dirty-column cache refresh matches a
  full recompute bitwise;
- a *diagonal* member (square, no nonzero off-diagonal cell in either
  grid; re-read from the grids by every bulk operation, ended by a
  differential write that leaves such a cell) is solved by division,
  ``g_s V_O / diag``: bitwise what LAPACK's ``gesv`` returns for a
  diagonal matrix, except that its substitution may flip the sign of a
  zero, so a right-hand side holding a zero goes to LAPACK.  When every
  member is diagonal the multiply denominators read ``g_s + diagonal``,
  bitwise the canonical sum of a column whose other cells are zero.
  Every other member keeps LAPACK and the canonical sums.
"""

from __future__ import annotations

import numpy as np

from repro.backend import Backend, get_backend
from repro.crossbar.programming import WriteReport, plan_cells, plan_write
from repro.devices.models import HP_TIO2, DeviceParameters
from repro.devices.variation import NoVariation, VariationModel
from repro.exceptions import CrossbarSolveError, MappingError
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.verify import WriteVerifyPolicy


def canonical_colsums(matrix: np.ndarray) -> np.ndarray:
    """Column sums in the engine's canonical reduction order.

    Each column is reduced as one *contiguous* length-``n_rows``
    vector (a row of the transposed copy).  NumPy's pairwise summation
    then blocks per column independently of every other column, which
    gives the property the plain ``sum(axis=0)`` lacks: recomputing a
    *subset* of columns yields bitwise the same values as the full
    reduction.  That is what makes the stack's dirty-column cache
    refresh exactly reproducible.
    """
    return np.ascontiguousarray(matrix.T).sum(axis=1)


def diagonal_grids(grids: np.ndarray) -> np.ndarray:
    """Which square ``(K, n, n)`` grids have no nonzero off-diagonal cell.

    A grid is diagonal when its nonzero cells are exactly its nonzero
    diagonal cells.
    """
    return np.count_nonzero(grids, axis=(1, 2)) == np.count_nonzero(
        np.diagonal(grids, axis1=1, axis2=2), axis=1
    )


def run_write_verify(
    nominal: np.ndarray,
    actual: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    report: WriteReport,
    *,
    policy: WriteVerifyPolicy,
    params: DeviceParameters,
    variation: VariationModel,
    rng: np.random.Generator,
) -> WriteReport:
    """Closed-loop write–verify over the cells just written.

    Runs on one member's 2-D grids with that member's generator.
    Reads back the realized conductances in ``actual``, re-pulses
    cells whose deviation from the ``nominal`` targets exceeds the
    policy tolerance (``g_off`` is the reference for off-state
    targets), and folds the extra pulses/latency/energy plus the
    verify counters into the returned :class:`WriteReport`.
    Re-pulsing redraws soft variation but cannot move persistent
    deviations (see :meth:`VariationModel.reperturb`); cells still out
    of tolerance when the round budget runs out are counted as
    ``unverified_cells``.  ``actual`` is updated in place.
    """
    targets = nominal[rows, cols]
    reference = np.maximum(np.abs(targets), params.g_off)
    reads = 0
    repulsed = np.zeros(rows.size, dtype=bool)
    bad = np.zeros(rows.size, dtype=bool)
    for _ in range(policy.max_rounds):
        realized = actual[rows, cols]
        reads += rows.size
        bad = np.abs(realized - targets) > policy.tolerance * reference
        if not bad.any():
            break
        repulsed |= bad
        bad_rows = rows[bad]
        bad_cols = cols[bad]
        pulse_cost = plan_cells(realized[bad], targets[bad], params)
        report = report + WriteReport(
            cells_written=0,
            pulses=pulse_cost.pulses,
            latency_s=pulse_cost.latency_s,
            energy_j=pulse_cost.energy_j,
        )
        actual[bad_rows, bad_cols] = variation.reperturb(
            targets[bad].reshape(1, -1),
            actual[bad_rows, bad_cols].reshape(1, -1),
            rng,
        ).ravel()
    else:
        # Budget exhausted: take a final read to count survivors.
        realized = actual[rows, cols]
        reads += rows.size
        bad = np.abs(realized - targets) > policy.tolerance * reference
    return report + WriteReport(
        cells_written=0,
        pulses=0,
        latency_s=0.0,
        energy_j=0.0,
        verify_reads=reads,
        repulsed_cells=int(np.count_nonzero(repulsed)),
        unverified_cells=int(np.count_nonzero(bad)),
    )


def validate_targets(
    conductances: np.ndarray, g_on: float, where: str = ""
) -> None:
    """Reject conductance targets outside ``[0, g_on]``.

    Mapped targets are either exactly 0 (cell isolated, 1T1R off
    state) or inside the device window ``[g_off, g_on]``.  The
    accepting path is two reductions — NaN propagates through both, so
    a non-finite target always reaches the diagnosis, which names the
    first failed rule (finite, non-negative, at most ``g_on``).
    ``where`` prefixes the message (multi-member stacks name the
    member).
    """
    if conductances.size == 0:
        return
    low = conductances.min()
    high = conductances.max()
    if low >= 0.0 and high <= g_on * (1 + 1e-12):
        return
    if not np.all(np.isfinite(conductances)):
        raise MappingError(f"{where}conductance targets must be finite")
    if low < 0.0:
        raise MappingError(
            f"{where}target {low:.3e} is negative; "
            "memristance cannot be negative"
        )
    raise MappingError(
        f"{where}target {high:.3e} above device g_on {g_on:.3e}"
    )


def write_cells(
    nominal: np.ndarray,
    actual: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    targets: np.ndarray,
    report: WriteReport,
    *,
    params: DeviceParameters,
    variation: VariationModel,
    rng: np.random.Generator,
    write_verify: WriteVerifyPolicy | None,
) -> WriteReport:
    """The cell-write kernel: program k cells that are known to move.

    The caller has diffed, validated and planned the write:
    ``rows``/``cols``/``targets`` are the cells whose target differs
    from the programmed value, and ``report`` is their cost, planned
    from the one gather of old values the diff needed.  A differential
    write is planned as one ``(1, k)`` row, so each pulse charges
    ``k - 1`` half-selected devices (see
    :mod:`repro.crossbar.programming`).  The kernel writes the nominal
    targets, draws variation for the k cells as one ``(1, k)`` draw
    from ``rng`` and, under a write-verify policy, reads back exactly
    these cells and adds the verify cost to the report.  Host cost is
    O(k); ``nominal`` and ``actual`` (one member's 2-D grids) are
    updated in place.
    """
    nominal[rows, cols] = targets
    actual[rows, cols] = variation.perturb(
        targets.reshape(1, -1), rng
    ).ravel()
    if write_verify is None:
        return report
    return run_write_verify(
        nominal,
        actual,
        rows,
        cols,
        report,
        policy=write_verify,
        params=params,
        variation=variation,
        rng=rng,
    )


class CrossbarStack:
    """K same-shape memristor crossbars evaluated as one tensor.

    Parameters
    ----------
    n_members:
        Number of arrays in the stack (K).
    n_rows, n_cols:
        Per-member array dimensions (word-lines x bit-lines).
    params:
        Device preset; defaults to the HP TiO2 device.
    variation:
        Process-variation model applied at every programming event.
    g_sense:
        Conductance ``g_s`` of the bit-line sense resistors.  Defaults
        to the device's ``g_on``.
    rngs:
        One generator *per member* (the determinism anchor: member
        ``k``'s variation stream is ``rngs[k]``'s).  Defaults to fresh
        independent ``default_rng()`` instances.
    write_verify:
        Closed-loop programming policy: after every programming event
        the written cells are read back and out-of-tolerance cells are
        re-pulsed up to the policy's round budget.  ``None`` (default)
        keeps the paper's open-loop programming.
    tracer:
        Observability hook (:mod:`repro.obs`): every programming event
        bumps the ``crossbar.*`` counters (cells written, pulses,
        verify outcomes, physical write cost).  Defaults to the
        zero-overhead no-op tracer.
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

        # Nominal (programmed) and actual (variation-perturbed) states.
        # A blank array has every cell isolated (1T1R off state).
        shape = (self.n_members, self.n_rows, self.n_cols)
        self._nominal = np.zeros(shape)
        self._actual = self.variation.perturb_stack(self._nominal, self.rngs)
        self._total_reports = [
            WriteReport(0, 0, 0.0, 0.0) for _ in range(self.n_members)
        ]
        # Diagonal members (see the module notes); a blank array can
        # already hold stuck-ON cells, so even this is read.
        self._diagonal = np.zeros(self.n_members, dtype=bool)
        self._derive_diagonal()
        # Multiply denominators ``g_s + column sums``, cached with the
        # sums in the canonical reduction order (see canonical_colsums).
        # A write marks exactly its columns dirty and the next read
        # recomputes only those — O(dirty columns), not O(n·m), between
        # the O(N) differential writes of the iteration hot path.  The
        # dirty mask is the union over members: a clean member's column
        # recomputes to the identical value, so one mask keeps the
        # refresh a single batched reduction.
        self._denom_nominal = self._denominators(self._nominal)
        self._denom_actual = self._denominators(self._actual)
        self._dirty_cols = np.zeros(self.n_cols, dtype=bool)
        self._stale = False

    # -- structure ---------------------------------------------------------

    def _derive_diagonal(self, members=None) -> None:
        """Re-read which of the given members have both grids diagonal."""
        if self.n_rows != self.n_cols:
            return
        members = slice(None) if members is None else members
        self._diagonal[members] = diagonal_grids(
            self._nominal[members]
        ) & diagonal_grids(self._actual[members])

    # -- column-sum caches -------------------------------------------------

    def _denominators(self, stack: np.ndarray, cols=None) -> np.ndarray:
        """``g_s`` plus canonical column sums of all or selected columns.

        Both forms reduce each column as one contiguous vector: the full
        form through a contiguous copy of the transpose, the subset form
        through the fresh block its fancy index gathers.  When every
        member is diagonal a column's sum is its diagonal cell (the
        reduction adds only zeros to it), read in O(columns).
        """
        if self._diagonal.all():
            diagonal = np.diagonal(stack, axis1=1, axis2=2)
            return self.g_sense + (diagonal if cols is None else diagonal[:, cols])
        columns = stack.transpose(0, 2, 1)
        if cols is None:
            columns = np.ascontiguousarray(columns)
        else:
            columns = columns[:, cols]
        return self.g_sense + columns.sum(axis=2)

    def _mark_dirty(self, cols=None) -> None:
        """Invalidate the denominators of the columns a write touched."""
        self._dirty_cols[slice(None) if cols is None else cols] = True
        self._stale = True

    def _refresh_colsums(self) -> None:
        if not self._stale:
            return
        if self._dirty_cols.all():
            self._denom_nominal = self._denominators(self._nominal)
            self._denom_actual = self._denominators(self._actual)
        else:
            cols = np.flatnonzero(self._dirty_cols)
            self._denom_nominal[:, cols] = self._denominators(self._nominal, cols)
            self._denom_actual[:, cols] = self._denominators(self._actual, cols)
        self._dirty_cols[:] = False
        self._stale = False

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

    def _select(
        self, values, width: int, members
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """A member selector and its ``(count, width)`` rows.

        The selector comes back as ``None`` when it keeps every member,
        so callers skip the gather copies.  ``values`` is ``(width,)``
        (shared by every selected member), ``(K, width)`` (rows of
        unselected members are ignored) or one row per selected member.
        """
        selected = None if members is None else self._member_indices(members)
        if selected is not None and selected.size == self.n_members:
            selected = None
        count = self.n_members if selected is None else selected.size
        values = np.asarray(values, dtype=float)
        if values.shape == (width,):
            if count == 1:
                return selected, values[None]
            return selected, np.broadcast_to(values, (count, width))
        if selected is not None and values.shape == (self.n_members, width):
            return selected, values[selected]
        if values.shape != (count, width):
            raise ValueError(
                f"expected input of shape ({width},), ({self.n_members}, "
                f"{width}) or ({count}, {width}), got {values.shape}"
            )
        return selected, values

    def _where(self, member: int) -> str:
        """Error-message prefix naming the member of a fleet."""
        return f"member {member}: " if self.n_members > 1 else ""

    def _log_write(self, member: int, report: WriteReport) -> None:
        """Fold one programming event into the member's running total
        and emit its counters; the tracer check keeps the open-loop hot
        path at one attribute read when tracing is off."""
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

    def _write(
        self,
        member: int,
        rows: np.ndarray,
        cols: np.ndarray,
        targets: np.ndarray,
        old: np.ndarray,
    ) -> WriteReport:
        """Plan and write one member's validated, moving cells."""
        nominal = self._nominal[member]
        actual = self._actual[member]
        report = write_cells(
            nominal,
            actual,
            rows,
            cols,
            targets,
            plan_cells(old, targets, self.params),
            params=self.params,
            variation=self.variation,
            rng=self.rngs[member],
            write_verify=self.write_verify,
        )
        self._mark_dirty(cols)
        if self._diagonal[member]:
            off = rows != cols
            if off.any():
                rows, cols = rows[off], cols[off]
                if nominal[rows, cols].any() or actual[rows, cols].any():
                    self._diagonal[member] = False
        self._log_write(member, report)
        return report

    def _write_cells(
        self,
        member: int,
        rows: np.ndarray,
        cols: np.ndarray,
        conductances: np.ndarray,
        *,
        skip_unchanged: bool = False,
        old: np.ndarray | None = None,
    ) -> WriteReport:
        """:meth:`program_member_cells` for trusted index arrays.

        The operator stack builds in-range, aligned 1-D index arrays
        itself.  A caller that diffed the cells passes only moving ones
        with their programmed values as ``old``.
        """
        if rows.size == 0:
            return WriteReport(0, 0, 0.0, 0.0)
        if old is None:
            old = self._nominal[member][rows, cols]
            if skip_unchanged:
                moved = conductances != old
                count = np.count_nonzero(moved)
                if count == 0:
                    return WriteReport(0, 0, 0.0, 0.0)
                if count < moved.size:
                    rows, cols = rows[moved], cols[moved]
                    conductances, old = conductances[moved], old[moved]
        validate_targets(conductances, self.params.g_on, self._where(member))
        return self._write(member, rows, cols, conductances, old)

    # -- programming -------------------------------------------------------

    def program(self, conductances: np.ndarray) -> list[WriteReport]:
        """Program every member to its full-grid targets.

        ``conductances`` is ``(K, n_rows, n_cols)`` or a single
        ``(n_rows, n_cols)`` grid broadcast to every member.  Each
        member's write is planned on its grid; a fresh variation draw
        perturbs the entire array (every written cell re-rolls its
        deviation), per member, in member order, from each member's own
        generator.  Returns the per-member write-cost reports.
        """
        conductances = np.asarray(conductances, dtype=float)
        shape = (self.n_members, self.n_rows, self.n_cols)
        if conductances.shape == shape[1:]:
            conductances = np.broadcast_to(conductances, shape)
        if conductances.shape != shape:
            raise MappingError(
                f"conductance shape {conductances.shape} does not match "
                f"stack {shape}"
            )
        for member in range(self.n_members):
            validate_targets(
                conductances[member], self.params.g_on, self._where(member)
            )
        reports = [
            plan_write(self._nominal[member], conductances[member], self.params)
            for member in range(self.n_members)
        ]
        self._nominal[...] = conductances
        self._actual[...] = self.variation.perturb_stack(
            self._nominal, self.rngs
        )
        self._mark_dirty()
        rows, cols = np.indices(shape[1:]).reshape(2, -1)
        for member in range(self.n_members):
            reports[member] = self._verify_member(
                member, rows, cols, reports[member]
            )
            self._log_write(member, reports[member])
        self._derive_diagonal()
        return reports

    def program_member_cells(
        self,
        member: int,
        rows: np.ndarray,
        cols: np.ndarray,
        conductances: np.ndarray,
        *,
        skip_unchanged: bool = False,
    ) -> WriteReport:
        """Selectively reprogram cells of one member (O(#cells) write).

        This is the primitive behind the paper's O(N) iteration cost:
        only the changed diagonal blocks are rewritten.  Variation is
        re-drawn for the written cells only; untouched cells keep their
        previous physical deviation.  The cells' programmed values are
        gathered once; they feed the diff and the ``(1, k)`` write plan,
        and :func:`write_cells` performs the write.

        With ``skip_unchanged=True`` cells whose target already equals
        the programmed value are dropped before any physical modeling
        — no variation redraw, no write–verify read-back, and range
        validation covers only the cells that move.  A skipped cell
        keeps its existing deviation (no write event happened to it).
        Callers that diffed the write themselves pass only moving
        cells and leave it off.  An empty write is no event.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        conductances = np.asarray(conductances, dtype=float)
        if not (rows.shape == cols.shape == conductances.shape):
            raise ValueError("rows, cols, conductances must align")
        if rows.size == 0:
            return WriteReport(0, 0, 0.0, 0.0)
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise IndexError("row index out of range")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise IndexError("column index out of range")
        return self._write_cells(
            member, rows, cols, conductances, skip_unchanged=skip_unchanged
        )

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
        ignored) or ``(len(members), c)``.  One gather reads every
        selected member's programmed values; with ``skip_unchanged``
        each member then drops the cells already holding their target.
        Every target is validated before any member is written; then
        each member's moved cells are planned and written on its own
        grid exactly as :meth:`program_member_cells` would.

        Returns a K-long list: a :class:`WriteReport` per selected
        member, ``None`` for members the mask excluded (no event).
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be matching 1-D arrays")
        selected, targets = self._select(conductances, rows.size, members)
        if selected is None:
            selected = np.arange(self.n_members)
        results: list[WriteReport | None] = [None] * self.n_members
        if rows.size == 0:
            for member in selected:
                results[member] = WriteReport(0, 0, 0.0, 0.0)
            return results
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise IndexError("row index out of range")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise IndexError("column index out of range")

        current = self._nominal[selected[:, None], rows[None, :], cols[None, :]]
        changed = (
            targets != current
            if skip_unchanged
            else np.ones(current.shape, dtype=bool)
        )
        writes = []
        for pos, member in enumerate(selected):
            mask = changed[pos]
            if not mask.any():
                results[member] = WriteReport(0, 0, 0.0, 0.0)
                continue
            validate_targets(
                targets[pos][mask], self.params.g_on, self._where(member)
            )
            writes.append((pos, int(member), mask))
        for pos, member, mask in writes:
            results[member] = self._write(
                member,
                rows[mask],
                cols[mask],
                targets[pos][mask],
                current[pos][mask],
            )
        return results

    def redraw(self, members=None) -> list[WriteReport | None]:
        """Reprogram every active cell of the selected members.

        The recovery ladder's *reprogram* rung: the nominal targets are
        unchanged, but every cell holding a nonzero conductance is
        rewritten so process variation is freshly drawn (the paper's
        Section 4.5 "double checking scheme" retries under a new
        physical realization), from each member's own generator.  Cost
        scales with the number of active cells, not the grid — on the
        sparse augmented Newton matrices that is O(nnz).
        """
        results: list[WriteReport | None] = [None] * self.n_members
        selected = self._member_indices(members)
        for member in selected:
            member = int(member)
            nominal = self._nominal[member]
            rows, cols = np.nonzero(nominal)
            report = WriteReport(0, 0, 0.0, 0.0)
            if rows.size:
                self._actual[member][rows, cols] = self.variation.perturb(
                    nominal[rows, cols].reshape(1, -1), self.rngs[member]
                ).ravel()
                report = self._verify_member(member, rows, cols, report)
                self._mark_dirty(cols)
            self._log_write(member, report)
            results[member] = report
        self._derive_diagonal(selected)
        return results

    # -- fault injection -------------------------------------------------------

    def inject_stuck_off(
        self,
        row_fraction: float = 1.0,
        *,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Chaos hook: force a fraction of word-lines to the OFF state.

        Zeroes the *actual* conductances of the chosen rows of every
        member while leaving the nominal (programmed) targets
        untouched — the model of a failed row driver or a block of
        cells stuck open.  Because the nominal state still claims the
        old values, the digital decode keeps using stale denominators
        and a health probe (:mod:`repro.reliability.probe`) sees an
        unbounded mismatch and rejects the array.  Rows are drawn from
        ``rng`` if given, else from each member's own generator.
        Returns the number of cells forced off.
        """
        if not 0.0 < row_fraction <= 1.0:
            raise ValueError(
                f"row_fraction must lie in (0, 1], got {row_fraction}"
            )
        count = max(1, int(round(self.n_rows * row_fraction)))
        forced = 0
        for member in range(self.n_members):
            if count >= self.n_rows:
                rows = np.arange(self.n_rows)
            else:
                source = rng if rng is not None else self.rngs[member]
                rows = source.choice(self.n_rows, size=count, replace=False)
            self._actual[member, rows, :] = 0.0
            forced += rows.size * self.n_cols
        self._mark_dirty()
        self._derive_diagonal()
        return int(forced)

    def apply_drift(
        self,
        magnitude: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Chaos hook: multiplicative conductance drift on every cell.

        Scales each *actual* conductance of every member by
        ``1 + U(-magnitude, +magnitude)`` (clipped to ``[0, g_on]``)
        while leaving the nominal targets untouched — the model of an
        aged array or a temperature step between calibrations.  Unlike
        :meth:`inject_stuck_off` the perturbation is proportional, so
        small magnitudes degrade accuracy without tripping the health
        probe outright: the brownout-degradation path's natural test
        load.  The next (re)program overwrites the drift.
        """
        if magnitude <= 0:
            raise ValueError(f"magnitude must be positive, got {magnitude}")
        for member in range(self.n_members):
            source = rng if rng is not None else self.rngs[member]
            actual = self._actual[member]
            factors = 1.0 + source.uniform(
                -magnitude, magnitude, size=actual.shape
            )
            np.clip(actual * factors, 0.0, self.params.g_on, out=actual)
        self._mark_dirty()
        self._derive_diagonal()

    # -- analog primitives ---------------------------------------------------

    def multiply(
        self, v_in: np.ndarray, *, members=None
    ) -> np.ndarray:
        """Batched Eqn. 5 read-out: ``(K, n_cols)`` bit-line voltages.

        ``V_O = D G^T V_I`` with ``d_j = 1/(g_s + sum_k g_{k,j})`` and
        the actual (perturbed) conductances.  ``v_in`` is ``(K,
        n_rows)`` (per-member drives) or ``(n_rows,)`` broadcast to the
        fleet; one backend matvec evaluates every member.  With
        ``members`` set, ``v_in`` is ``(len(selected), n_rows)`` and
        only those members' arrays are driven (each selected row still
        bitwise what the full fleet computes) — the lockstep solver's
        straggler path.
        """
        selected, v_in = self._select(v_in, self.n_rows, members)
        stack = self._actual if selected is None else self._actual[selected]
        currents = self.backend.matvec_t(stack, np.ascontiguousarray(v_in))
        self._refresh_colsums()
        if selected is None:
            return currents / self._denom_actual
        return currents / self._denom_actual[selected]

    def nominal_denominators(self, members=None) -> np.ndarray:
        """``g_s + column sums`` of programmed conductances, ``(K, n_cols)``.

        The digital controller knows the values it programmed, so the
        decode stage divides by these nominal denominators; deviation
        of the actual denominators is part of the variation error.
        With ``members`` set, only the selected members' rows, in
        index order.
        """
        self._refresh_colsums()
        if members is None:
            return self._denom_nominal.copy()
        return self._denom_nominal[self._member_indices(members)]

    def try_solve(
        self, v_out: np.ndarray, *, members=None
    ) -> tuple[np.ndarray, list[CrossbarSolveError | None]]:
        """Batched analog solve with per-member failure isolation.

        Solves every member's ``G^T V_I = g_s V_O``: diagonal members
        by division, the others in one backend call.  When the batched
        kernel rejects the stack (any singular member — the failure
        mode of Section 4.3), the members are re-solved individually so
        one bad draw cannot poison the fleet: the returned error list
        carries a :class:`CrossbarSolveError` per failed member and
        ``None`` per healthy one; failed members' solution rows are
        zeros.  With ``members`` set, ``v_out`` is ``(len(selected),
        n)`` and both returns are selected-length, in index order.
        """
        if self.n_rows != self.n_cols:
            raise CrossbarSolveError(
                f"solving requires a square array, got "
                f"{self.n_rows}x{self.n_cols}"
            )
        selected, v_out = self._select(v_out, self.n_cols, members)
        which = slice(None) if selected is None else selected
        rhs = self.g_sense * v_out
        by_division = self._diagonal[which]
        if by_division.any():
            # Substitution may flip the sign of a zero on the right-hand
            # side, so such a member goes through LAPACK like a dense one.
            by_division = by_division & (rhs != 0.0).all(axis=1)
        if not by_division.any():
            solutions, errors = self._solve_dense(which, rhs)
        elif by_division.all():
            solutions, errors = self._solve_diagonal(which, rhs)
        else:
            index = np.arange(self.n_members)[which]
            solutions = np.empty_like(rhs)
            errors = [None] * len(rhs)
            for part, solver in (
                (np.flatnonzero(by_division), self._solve_diagonal),
                (np.flatnonzero(~by_division), self._solve_dense),
            ):
                solutions[part], part_errors = solver(index[part], rhs[part])
                for pos, error in zip(part, part_errors):
                    errors[pos] = error
        if not np.isfinite(solutions).all():
            finite = np.isfinite(solutions).all(axis=1)
            for index in np.flatnonzero(~finite):
                if errors[index] is None:
                    errors[index] = CrossbarSolveError(
                        "analog solve produced non-finite rails"
                    )
                solutions[index] = 0.0
        return solutions, errors

    def _solve_diagonal(
        self, which, rhs: np.ndarray
    ) -> tuple[np.ndarray, list[CrossbarSolveError | None]]:
        """``rhs / diag`` for diagonal members: O(n), bitwise ``gesv``."""
        diagonal = np.diagonal(self._actual, axis1=1, axis2=2)[which]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            solutions = rhs / diagonal
        errors: list[CrossbarSolveError | None] = [None] * len(rhs)
        for index in np.flatnonzero((diagonal == 0.0).any(axis=1)):
            errors[index] = CrossbarSolveError(
                "perturbed conductance matrix is singular"
            )
            solutions[index] = 0.0
        return solutions, errors

    def _solve_dense(
        self, which, rhs: np.ndarray
    ) -> tuple[np.ndarray, list[CrossbarSolveError | None]]:
        """One backend solve over the members, isolating singular ones."""
        stack = self._actual[which]
        count = len(rhs)
        errors: list[CrossbarSolveError | None] = [None] * count
        try:
            return self.backend.solve_t(stack, rhs), errors
        except np.linalg.LinAlgError:
            # Per-member fallback: a 2-D solve is bitwise what the
            # batched gufunc computes for that slice, so isolation
            # costs nothing in reproducibility.
            solutions = np.zeros((count, self.n_rows))
            for index in range(count):
                try:
                    solutions[index] = np.linalg.solve(
                        stack[index].T, rhs[index]
                    )
                except np.linalg.LinAlgError as exc:
                    errors[index] = CrossbarSolveError(
                        "perturbed conductance matrix is singular"
                    )
                    errors[index].__cause__ = exc
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
        """Per-member lifetime write costs.

        Maintained as running totals at each write, so frequent
        baselining (the serving layer snapshots them around every job)
        is O(1) and the stack keeps no per-event history.
        """
        return list(self._total_reports)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CrossbarStack({self.n_members}x{self.n_rows}x{self.n_cols}, "
            f"device={self.params.name!r}, backend={self.backend.name!r})"
        )
