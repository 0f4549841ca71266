"""The memristor crossbar array: a one-member view of the analog engine.

A :class:`CrossbarArray` holds a grid of programmed conductances and
evaluates the two analog primitives of Section 2.3 of the paper —
the Eqn. 5 multiply and the current-balance solve.  The state and
every primitive live in :class:`~repro.crossbar.stack.CrossbarStack`;
this class is a thin facade over a one-member stack pinned to the
numpy backend, so the serial path and a batched fleet run the same
code and ``REPRO_BACKEND`` cannot change a serial result.

The cell-write kernel and its helpers are defined with the engine and
re-exported here.
"""

from __future__ import annotations

import numpy as np

from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.programming import WriteReport
from repro.crossbar.stack import (
    CrossbarStack,
    canonical_colsums,
    run_write_verify,
    validate_targets,
    write_cells,
)
from repro.devices.models import HP_TIO2, DeviceParameters
from repro.devices.variation import VariationModel
from repro.obs.tracer import Tracer
from repro.reliability.verify import WriteVerifyPolicy

__all__ = [
    "CrossbarArray",
    "canonical_colsums",
    "run_write_verify",
    "validate_targets",
    "write_cells",
]


def _forward(name: str) -> property:
    """A read-only attribute of a facade's underlying ``_stack``."""
    return property(lambda self: getattr(self._stack, name))


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
        Closed-loop programming policy (see
        :class:`~repro.crossbar.stack.CrossbarStack`); ``None``
        (default) keeps the paper's open-loop programming.
    tracer:
        Observability hook (:mod:`repro.obs`) for the ``crossbar.*``
        write counters.  Defaults to the zero-overhead no-op tracer.
    """

    n_rows = _forward("n_rows")
    n_cols = _forward("n_cols")
    params = _forward("params")
    variation = _forward("variation")
    g_sense = _forward("g_sense")
    write_verify = _forward("write_verify")

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
        self._stack = CrossbarStack(
            1,
            n_rows,
            n_cols,
            params=params,
            variation=variation,
            g_sense=g_sense,
            rngs=[rng if rng is not None else np.random.default_rng()],
            write_verify=write_verify,
            tracer=tracer,
            backend="numpy",
        )

    @classmethod
    def view(cls, stack: CrossbarStack) -> "CrossbarArray":
        """The facade over an existing one-member stack (shared state)."""
        array = cls.__new__(cls)
        array._stack = stack
        return array

    @property
    def rng(self) -> np.random.Generator:
        """The variation generator (the stack's only member's)."""
        return self._stack.rngs[0]

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        self._stack.rngs[0] = rng

    @property
    def tracer(self) -> Tracer:
        """The stack's tracer."""
        return self._stack.tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self._stack.tracer = tracer

    # -- programming -------------------------------------------------------

    @property
    def nominal_conductances(self) -> np.ndarray:
        """Programmed (target) conductances; copy."""
        return self._stack.nominal_stack[0]

    @property
    def actual_conductances(self) -> np.ndarray:
        """Variation-perturbed conductances the analog circuit sees; copy."""
        return self._stack.actual_stack[0]

    def program(self, conductances: np.ndarray) -> WriteReport:
        """Program the full array to the given conductance targets.

        See :meth:`CrossbarStack.program`.
        """
        return self._stack.program(conductances)[0]

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

        See :meth:`CrossbarStack.program_member_cells`.
        """
        return self._stack.program_member_cells(
            0, rows, cols, conductances, skip_unchanged=skip_unchanged
        )

    def redraw(self) -> WriteReport:
        """Reprogram every active cell to its current target.

        See :meth:`CrossbarStack.redraw`.
        """
        return self._stack.redraw()[0]

    # -- fault injection -------------------------------------------------------

    def inject_stuck_off(
        self,
        row_fraction: float = 1.0,
        *,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Chaos hook; see :meth:`CrossbarStack.inject_stuck_off`."""
        return self._stack.inject_stuck_off(row_fraction, rng=rng)

    def apply_drift(
        self,
        magnitude: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Chaos hook; see :meth:`CrossbarStack.apply_drift`."""
        self._stack.apply_drift(magnitude, rng=rng)

    # -- analog primitives ---------------------------------------------------

    def multiply(self, v_in: np.ndarray) -> np.ndarray:
        """Analog multiply: bit-line voltages for word-line inputs."""
        return self._stack.multiply(v_in)[0]

    def nominal_denominators(self) -> np.ndarray:
        """``g_s + column sums`` of the *programmed* conductances."""
        return self._stack.nominal_denominators()[0]

    def solve(self, v_out: np.ndarray) -> np.ndarray:
        """Analog solve: word-line voltages realizing bit-line targets.

        Raises :class:`~repro.exceptions.CrossbarSolveError` if the
        array is not square or the perturbed conductance matrix is
        singular (the failure mode of Section 4.3).
        """
        return self._stack.solve(v_out)[0]

    # -- bookkeeping -----------------------------------------------------------

    @property
    def total_write_report(self) -> WriteReport:
        """Accumulated write costs over the array's lifetime."""
        return self._stack.total_write_reports[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CrossbarArray({self.n_rows}x{self.n_cols}, "
            f"device={self.params.name!r}, variation={self.variation!r})"
        )
