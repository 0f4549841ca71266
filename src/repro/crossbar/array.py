"""The memristor crossbar array simulator.

A :class:`CrossbarArray` holds a grid of programmed conductances and
evaluates the two analog primitives of Section 2.3 of the paper:

**Multiplication** (Eqn. 5) — input voltages on the word-lines, output
voltages sensed across the ``R_s`` resistors on the bit-lines:

.. math::

   V_{O,j} = \\frac{\\sum_i g_{i,j} V_{I,i}}{g_s + \\sum_k g_{k,j}}
   \\qquad\\Longleftrightarrow\\qquad
   V_O = D \\, G^T \\, V_I

**Solving** — output voltages forced on the bit-line sense nodes; the
current balance :math:`\\sum_i V_{I,i}\\, g_{i,j} = g_s V_{O,j}` on
every bit-line pins the word-line voltages to the solution of

.. math::

   G^T V_I = g_s V_O .

Both primitives are evaluated with the *actual* conductances — the
programmed values perturbed by the process-variation model (Eqn. 18),
freshly drawn at every (re)programming, exactly as the paper notes that
"process variation differs from each time of writing".
"""

from __future__ import annotations

import numpy as np

from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.programming import WriteReport, plan_write
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
    gives the property the serial ``sum(axis=0)`` lacks: recomputing a
    *subset* of columns yields bitwise the same values as the full
    reduction.  That is what makes dirty-column cache refresh and the
    batched stack's member-wise denominators exactly reproducible.
    """
    return np.ascontiguousarray(matrix.T).sum(axis=1)


def canonical_colsums_subset(
    matrix: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Canonical column sums for selected columns only.

    ``matrix.T[cols]`` fancy-indexes the transposed view into a fresh
    C-contiguous ``(len(cols), n_rows)`` block, so each selected
    column reduces exactly as it does in :func:`canonical_colsums`.
    """
    return matrix.T[cols].sum(axis=1)


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

    Shared by the serial array and the batched stack (which runs it
    per member with that member's generator, preserving the
    per-member draw-order contract).  Reads back the realized
    conductances in ``actual``, re-pulses cells whose deviation from
    the ``nominal`` targets exceeds the policy tolerance (``g_off`` is
    the reference for off-state targets), and folds the extra
    pulses/latency/energy plus the verify counters into the returned
    :class:`WriteReport`.  ``actual`` is updated in place.
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
        pulse_cost = plan_write(
            realized[bad].reshape(1, -1),
            targets[bad].reshape(1, -1),
            params,
        )
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
    ``where`` prefixes the message (the stack names the member).
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
    O(k); ``nominal`` and ``actual`` are updated in place.  The serial
    array calls it once per write and the stack once per member, which
    keeps the two bitwise identical.
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


class CrossbarArray:
    """An N_rows x N_cols memristor crossbar.

    Parameters
    ----------
    n_rows, n_cols:
        Physical array dimensions (word-lines x bit-lines).
    params:
        Device preset; defaults to the HP TiO2 device.
    variation:
        Process-variation model applied at every programming event.
    g_sense:
        Conductance ``g_s`` of the bit-line sense resistors.  Defaults
        to the device's ``g_on``.
    rng:
        Random generator for variation draws.  Defaults to a fresh
        ``default_rng()``; pass an explicit generator in experiments.
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
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        *,
        params: DeviceParameters = HP_TIO2,
        variation: VariationModel | None = None,
        g_sense: float | None = None,
        rng: np.random.Generator | None = None,
        write_verify: WriteVerifyPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if n_rows < 1 or n_cols < 1:
            raise ValueError("array dimensions must be positive")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.params = params
        self.variation = variation if variation is not None else NoVariation()
        self.g_sense = float(g_sense) if g_sense is not None else params.g_on
        if self.g_sense <= 0:
            raise ValueError("g_sense must be positive")
        self.rng = rng if rng is not None else np.random.default_rng()
        self.write_verify = write_verify
        self.tracer = tracer if tracer is not None else NOOP

        # Nominal (programmed) and actual (variation-perturbed) states.
        # A blank array has every cell isolated (1T1R off state).
        self._nominal = np.zeros((n_rows, n_cols))
        self._actual = self.variation.perturb(self._nominal, self.rng)
        self._total_report = WriteReport(0, 0, 0.0, 0.0)
        # Column-sum caches for the multiply denominators, kept in the
        # *canonical* reduction order (see :func:`canonical_colsums`):
        # each column reduces as one contiguous vector, so refreshing
        # only the columns a write touched is bitwise identical to a
        # full recompute.  A write marks exactly its columns dirty and
        # the next read recomputes only those — O(dirty columns), not
        # O(n·m), between the O(N) differential writes of the
        # iteration hot path.
        self._colsum_nominal = canonical_colsums(self._nominal)
        self._colsum_actual = canonical_colsums(self._actual)
        self._dirty_cols = np.zeros(n_cols, dtype=bool)

    # -- column-sum caches -------------------------------------------------

    def _mark_dirty(self, cols: np.ndarray | None = None) -> None:
        """Invalidate column-sum cache entries after a write.

        ``cols`` limits the invalidation to the columns the write
        touched; ``None`` (full-grid events) marks every column.
        """
        if cols is None:
            self._dirty_cols[:] = True
        else:
            self._dirty_cols[cols] = True

    def _refresh_colsums(self) -> None:
        if not self._dirty_cols.any():
            return
        if self._dirty_cols.all():
            self._colsum_nominal = canonical_colsums(self._nominal)
            self._colsum_actual = canonical_colsums(self._actual)
        else:
            cols = np.flatnonzero(self._dirty_cols)
            self._colsum_nominal[cols] = canonical_colsums_subset(
                self._nominal, cols
            )
            self._colsum_actual[cols] = canonical_colsums_subset(
                self._actual, cols
            )
        self._dirty_cols[:] = False

    # -- programming -------------------------------------------------------

    @property
    def nominal_conductances(self) -> np.ndarray:
        """Programmed (target) conductances; copy."""
        return self._nominal.copy()

    @property
    def actual_conductances(self) -> np.ndarray:
        """Variation-perturbed conductances the analog circuit sees; copy."""
        return self._actual.copy()

    def program(self, conductances: np.ndarray) -> WriteReport:
        """Program the full array to the given conductance targets.

        A fresh process-variation draw perturbs the entire array (every
        written cell re-rolls its deviation).  Returns the write-cost
        report for the cells that actually changed.
        """
        conductances = np.asarray(conductances, dtype=float)
        if conductances.shape != (self.n_rows, self.n_cols):
            raise MappingError(
                f"conductance shape {conductances.shape} does not match "
                f"array ({self.n_rows}, {self.n_cols})"
            )
        validate_targets(conductances, self.params.g_on)
        report = plan_write(self._nominal, conductances, self.params)
        self._nominal = conductances.copy()
        self._actual = self.variation.perturb(self._nominal, self.rng)
        self._mark_dirty()
        if self.write_verify is not None:
            rows, cols = np.indices(conductances.shape).reshape(2, -1)
            report = self._verify_written(rows, cols, report)
        self._log_write(report)
        return report

    def program_mapping(self, mapping: ConductanceMapping) -> WriteReport:
        """Program from a :class:`ConductanceMapping` (see mapping.py)."""
        return self.program(mapping.conductances)

    def program_cells(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        conductances: np.ndarray,
        *,
        skip_unchanged: bool = False,
    ) -> WriteReport:
        """Selectively reprogram individual cells (O(#cells) write).

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
        cells and leave it off.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        conductances = np.asarray(conductances, dtype=float)
        if not (rows.shape == cols.shape == conductances.shape):
            raise ValueError("rows, cols, conductances must align")
        if rows.size == 0:
            return WriteReport(0, 0, 0.0, 0.0)  # nothing written: no event
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise IndexError("row index out of range")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise IndexError("column index out of range")
        old = self._nominal[rows, cols]
        if skip_unchanged:
            moved = conductances != old
            count = np.count_nonzero(moved)
            if count == 0:
                return WriteReport(0, 0, 0.0, 0.0)  # all already programmed
            if count < moved.size:
                rows, cols = rows[moved], cols[moved]
                conductances, old = conductances[moved], old[moved]
        validate_targets(conductances, self.params.g_on)
        report = plan_write(
            old.reshape(1, -1), conductances.reshape(1, -1), self.params
        )
        report = write_cells(
            self._nominal,
            self._actual,
            rows,
            cols,
            conductances,
            report,
            params=self.params,
            variation=self.variation,
            rng=self.rng,
            write_verify=self.write_verify,
        )
        self._mark_dirty(cols)
        self._log_write(report)
        return report

    def redraw(self) -> WriteReport:
        """Reprogram every active cell to its current target.

        The recovery ladder's *reprogram* rung: the nominal targets are
        unchanged, but every cell holding a nonzero conductance is
        rewritten so process variation is freshly drawn (the paper's
        Section 4.5 "double checking scheme" retries under a new
        physical realization).  Cost scales with the number of active
        cells, not the grid — on the sparse augmented Newton matrices
        that is O(nnz), and the solver re-enters the differential
        update path immediately afterwards.
        """
        rows, cols = np.nonzero(self._nominal)
        report = WriteReport(0, 0, 0.0, 0.0)
        if rows.size:
            targets = self._nominal[rows, cols]
            self._actual[rows, cols] = self.variation.perturb(
                targets.reshape(1, -1), self.rng
            ).ravel()
            report = self._verify_written(rows, cols, report)
            self._mark_dirty(cols)
        self._log_write(report)
        return report

    def _log_write(self, report: WriteReport) -> None:
        self._total_report = self._total_report + report
        self._record_write(report)

    def _record_write(self, report: WriteReport) -> None:
        """Emit one programming event's totals to the tracer.

        Guarded on ``tracer.enabled`` so the open-loop hot path (an
        O(N) cell rewrite per PDIP iteration) pays one attribute check
        when tracing is off.
        """
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

    def _verify_written(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        report: WriteReport,
    ) -> WriteReport:
        """Write–verify loop over the cells just written.

        Reads back the realized conductances, re-pulses cells whose
        deviation from target exceeds the policy tolerance (relative
        to the target, with ``g_off`` as the reference for off-state
        targets), and folds the extra pulses/latency/energy plus the
        verify counters into the returned :class:`WriteReport`.
        Re-pulsing redraws soft variation but cannot move persistent
        deviations (see :meth:`VariationModel.reperturb`); cells still
        out of tolerance when the round budget runs out are counted as
        ``unverified_cells``.
        """
        policy = self.write_verify
        if policy is None or rows.size == 0:
            return report
        return run_write_verify(
            self._nominal,
            self._actual,
            rows,
            cols,
            report,
            policy=policy,
            params=self.params,
            variation=self.variation,
            rng=self.rng,
        )

    # -- fault injection -------------------------------------------------------

    def inject_stuck_off(
        self,
        row_fraction: float = 1.0,
        *,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Chaos hook: force a fraction of word-lines to the OFF state.

        Zeroes the *actual* conductances of the chosen rows while
        leaving the nominal (programmed) targets untouched — the model
        of a failed row driver or a block of cells stuck open.  Because
        the nominal state still claims the old values, the digital
        decode keeps using stale denominators and a health probe
        (:mod:`repro.reliability.probe`) sees an unbounded mismatch and
        rejects the array.  The serving layer uses this to exercise its
        drain/reschedule path.  Returns the number of cells forced off.
        """
        if not 0.0 < row_fraction <= 1.0:
            raise ValueError(
                f"row_fraction must lie in (0, 1], got {row_fraction}"
            )
        count = max(1, int(round(self.n_rows * row_fraction)))
        if count >= self.n_rows:
            rows = np.arange(self.n_rows)
        else:
            rng = rng if rng is not None else self.rng
            rows = rng.choice(self.n_rows, size=count, replace=False)
        self._actual[rows, :] = 0.0
        self._mark_dirty()
        return int(rows.size * self.n_cols)

    def apply_drift(
        self,
        magnitude: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Chaos hook: multiplicative conductance drift on every cell.

        Scales each *actual* conductance by ``1 + U(-magnitude,
        +magnitude)`` (clipped to ``[0, g_on]``) while leaving the
        nominal targets untouched — the model of an aged array or a
        temperature step between calibrations.  Unlike
        :meth:`inject_stuck_off` the perturbation is proportional, so
        small magnitudes degrade accuracy without tripping the health
        probe outright: the brownout-degradation path's natural test
        load.  The next (re)program overwrites the drift.
        """
        if magnitude <= 0:
            raise ValueError(f"magnitude must be positive, got {magnitude}")
        rng = rng if rng is not None else self.rng
        factors = 1.0 + rng.uniform(
            -magnitude, magnitude, size=self._actual.shape
        )
        np.clip(
            self._actual * factors, 0.0, self.params.g_on, out=self._actual
        )
        self._mark_dirty()

    # -- analog primitives ---------------------------------------------------

    def multiply(self, v_in: np.ndarray) -> np.ndarray:
        """Analog multiply: bit-line voltages for word-line inputs.

        Implements Eqn. 5 with the actual (perturbed) conductances:
        ``V_O = D G^T V_I`` with ``d_j = 1/(g_s + sum_k g_{k,j})``.
        """
        v_in = np.asarray(v_in, dtype=float)
        if v_in.shape != (self.n_rows,):
            raise ValueError(
                f"expected input of shape ({self.n_rows},), got {v_in.shape}"
            )
        currents = self._actual.T @ v_in
        self._refresh_colsums()
        denominators = self.g_sense + self._colsum_actual
        return currents / denominators

    def nominal_denominators(self) -> np.ndarray:
        """``g_s + column sums`` of the *programmed* conductances.

        The digital controller knows the values it programmed, so the
        decode stage divides by these nominal denominators; deviation
        of the actual denominators is part of the variation error.
        """
        self._refresh_colsums()
        return self.g_sense + self._colsum_nominal

    def solve(self, v_out: np.ndarray) -> np.ndarray:
        """Analog solve: word-line voltages realizing bit-line targets.

        Solves ``G^T V_I = g_s V_O`` with the actual conductances.  The
        array must be square.

        Raises
        ------
        CrossbarSolveError
            If the array is not square or the perturbed conductance
            matrix is singular (the failure mode of Section 4.3).
        """
        if self.n_rows != self.n_cols:
            raise CrossbarSolveError(
                f"solving requires a square array, got "
                f"{self.n_rows}x{self.n_cols}"
            )
        v_out = np.asarray(v_out, dtype=float)
        if v_out.shape != (self.n_cols,):
            raise ValueError(
                f"expected target of shape ({self.n_cols},), got "
                f"{v_out.shape}"
            )
        system = self._actual.T
        try:
            v_in = np.linalg.solve(system, self.g_sense * v_out)
        except np.linalg.LinAlgError as exc:
            raise CrossbarSolveError(
                "perturbed conductance matrix is singular"
            ) from exc
        if not np.all(np.isfinite(v_in)):
            raise CrossbarSolveError("analog solve produced non-finite rails")
        return v_in

    # -- bookkeeping -----------------------------------------------------------

    @property
    def total_write_report(self) -> WriteReport:
        """Accumulated write costs over the array's lifetime.

        Maintained as a running total at each write, so frequent
        baselining (the serving layer snapshots it around every job)
        is O(1) and the array keeps no per-event history.
        """
        return self._total_report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CrossbarArray({self.n_rows}x{self.n_cols}, "
            f"device={self.params.name!r}, variation={self.variation!r})"
        )
