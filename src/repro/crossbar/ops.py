"""High-level analog matrix operations in problem units.

:class:`AnalogMatrixOperator` wraps a non-negative coefficient matrix
``A`` realized on a simulated crossbar and exposes the two primitives
the PDIP solvers use:

- ``multiply(x)``  — returns ``y ≈ A x``      (Eqn. 5 read-out)
- ``solve(b)``     — returns ``x ≈ A^{-1} b`` (current-balance mode)

It is a thin facade over a one-member
:class:`~repro.crossbar.opstack.AnalogOperatorStack` pinned to the
numpy backend: the mapping policies (global or row-scaled), the
DAC/ADC encode–decode pipeline, scale management and the O(N)
coefficient updates (:meth:`AnalogMatrixOperator.update_coefficients`)
all live on the stack, so a serial operator and member ``k`` of a
fleet run the same code.
"""

from __future__ import annotations

import numpy as np

from repro.crossbar.array import CrossbarArray, _forward
from repro.crossbar.opstack import AnalogOperatorStack
from repro.crossbar.programming import WriteReport
from repro.devices.models import HP_TIO2, DeviceParameters
from repro.devices.variation import VariationModel
from repro.exceptions import MappingError
from repro.obs.tracer import Tracer
from repro.reliability.verify import WriteVerifyPolicy


class AnalogMatrixOperator:
    """A coefficient matrix realized on a simulated memristor crossbar.

    Parameters
    ----------
    matrix:
        Non-negative coefficient matrix ``A`` of shape
        ``(n_out, n_in)``.
    rng:
        Random generator used for variation draws.
    params, variation, dac_bits, adc_bits, quantization,
    scale_headroom, row_scaling, off_state, compensate_leak, g_sense,
    write_verify, tracer:
        As for :class:`~repro.crossbar.opstack.AnalogOperatorStack`.
        The tracer is shared with the crossbar (``array``).
    """

    params = _forward("params")
    variation = _forward("variation")
    dac_bits = _forward("dac_bits")
    adc_bits = _forward("adc_bits")
    quantization = _forward("quantization")
    scale_headroom = _forward("scale_headroom")
    row_scaling = _forward("row_scaling")
    off_state = _forward("off_state")
    compensate_leak = _forward("compensate_leak")
    n_out = _forward("n_out")
    n_in = _forward("n_in")

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        params: DeviceParameters = HP_TIO2,
        variation: VariationModel | None = None,
        rng: np.random.Generator | None = None,
        dac_bits: int | None = 8,
        adc_bits: int | None = 8,
        quantization: str = "entry",
        scale_headroom: float = 1.0,
        row_scaling: bool = False,
        off_state: str = "zero",
        compensate_leak: bool = True,
        g_sense: float | None = None,
        write_verify: WriteVerifyPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise MappingError("expected a 2-D coefficient matrix")
        self._stack = AnalogOperatorStack(
            matrix[None],
            params=params,
            variation=variation,
            rngs=[rng if rng is not None else np.random.default_rng()],
            dac_bits=dac_bits,
            adc_bits=adc_bits,
            quantization=quantization,
            scale_headroom=scale_headroom,
            row_scaling=row_scaling,
            off_state=off_state,
            compensate_leak=compensate_leak,
            g_sense=g_sense,
            write_verify=write_verify,
            tracer=tracer,
            backend="numpy",
        )
        #: The crossbar, as a view sharing the operator's stack.
        self.array = CrossbarArray.view(self._stack.stack)

    @property
    def rng(self) -> np.random.Generator:
        """The variation generator (shared with ``array``)."""
        return self._stack.stack.rngs[0]

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        self._stack.stack.rngs[0] = rng

    @property
    def tracer(self) -> Tracer:
        """The tracer (shared with ``array``)."""
        return self._stack.tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self._stack.tracer = tracer

    # -- public accessors --------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """The nominal coefficient matrix currently programmed; copy."""
        return self._stack.coefficients[0]

    @property
    def scale(self) -> float:
        """Global coefficient-to-conductance scale ``s``.

        Only meaningful without row scaling; raises otherwise.
        """
        if self.row_scaling:
            raise MappingError(
                "row-scaled operator has no single scale; use scale_vector"
            )
        return float(self._stack.scales[0, 0])

    @property
    def scale_vector(self) -> np.ndarray:
        """Per-output-row coefficient-to-conductance scales; copy."""
        return self._stack.scales[0]

    @property
    def min_coefficient(self) -> float:
        """Smallest strictly-positive coefficient every row can store."""
        return float(self._stack.min_coefficients[0])

    @property
    def full_reprograms(self) -> int:
        """Number of whole-array programming events (incl. the first)."""
        return int(self._stack.full_reprograms[0])

    # -- coefficient updates -------------------------------------------------

    def update_coefficients(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        *,
        floor_to_representable: bool = False,
    ) -> WriteReport:
        """Rewrite selected coefficients ``A[rows, cols] = values``.

        See :meth:`AnalogOperatorStack.update_member`.  Returns the
        :class:`WriteReport` for the write that happened.
        """
        return self._stack.update_member(
            0, rows, cols, values,
            floor_to_representable=floor_to_representable,
        )

    def renormalize(self) -> WriteReport:
        """Restore the no-hysteresis scales for the current coefficients.

        See :meth:`AnalogOperatorStack.renormalize`; writes nothing
        when no scale drifted.
        """
        return self._stack.renormalize()[0]

    def redraw_variation(
        self, rng: np.random.Generator | None = None
    ) -> WriteReport:
        """Rewrite every active cell, drawing fresh process variation.

        The recovery ladder's *reprogram* rung (see
        :meth:`AnalogOperatorStack.redraw_variation`).  Optionally
        re-seats the RNG so the redraw is attributable to an attempt
        seed.
        """
        return self._stack.redraw_variation(
            None if rng is None else [rng]
        )[0]

    # -- analog primitives ------------------------------------------------

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Analog matrix–vector product ``y ≈ A x`` in problem units."""
        return self._stack.multiply(x)[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Analog linear-system solve ``x ≈ A^{-1} b`` in problem units.

        Raises
        ------
        CrossbarSolveError
            If the array is not square or the perturbed system is
            singular.
        """
        solutions, errors = self._stack.try_solve(b)
        if errors[0] is not None:
            raise errors[0]
        return solutions[0]

    # -- bookkeeping --------------------------------------------------------

    @property
    def write_report(self) -> WriteReport:
        """Accumulated programming cost over this operator's lifetime."""
        return self._stack.write_reports[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AnalogMatrixOperator({self.n_out}x{self.n_in}, "
            f"device={self.params.name!r}, row_scaling={self.row_scaling})"
        )
