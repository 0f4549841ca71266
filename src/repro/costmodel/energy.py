"""Energy estimation for crossbar solver runs (Fig. 7 methodology).

Mirrors :mod:`repro.costmodel.latency`: measured counters priced with
the device and periphery models.

- **writes** — programming pulses including half-select disturbance,
  accumulated physically by the array simulator;
- **analog evaluations** — every populated cell conducts during a
  multiply/solve settle window;
- **conversions** — one DAC and one ADC conversion per active channel
  per evaluation;
- **digital** — controller coefficient computations and the summing
  amplifiers.
"""

from __future__ import annotations

import dataclasses

from repro.core.result import SolverResult
from repro.costmodel.parameters import DEFAULT_COST_MODEL, CostModelParameters
from repro.devices.models import DeviceParameters


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """Per-phase energy of one crossbar solve, joules."""

    write_j: float
    analog_j: float
    conversion_j: float
    digital_j: float

    @property
    def total_j(self) -> float:
        """End-to-end estimated energy, joules."""
        return self.write_j + self.analog_j + self.conversion_j + (
            self.digital_j
        )


def estimate_energy(
    result: SolverResult,
    device: DeviceParameters,
    model: CostModelParameters = DEFAULT_COST_MODEL,
    *,
    cell_density: float = 0.25,
) -> EnergyBreakdown:
    """Price a crossbar solve's counters with the device/periphery model.

    Parameters
    ----------
    result:
        A :class:`SolverResult` from one of the crossbar solvers; must
        carry :class:`~repro.core.result.CrossbarCounters`.
    device:
        The memristor preset the solve ran with.
    model:
        Periphery and controller constants.
    cell_density:
        Fraction of crosspoints conducting during an evaluation.  The
        augmented PDIP matrices are block-sparse (A blocks, identity
        links, diagonals), so a dense-array estimate would
        overcharge; ~25% is typical for the Eqn. 14a structure.

    Raises
    ------
    ValueError
        If the result has no crossbar counters (software solver).
    """
    counters = result.crossbar
    if counters is None:
        raise ValueError("result carries no crossbar counters")
    if not 0.0 < cell_density <= 1.0:
        raise ValueError("cell_density must lie in (0, 1]")
    peri = model.peripherals
    size = counters.array_size
    evaluations = counters.multiplies + counters.solves
    active_cells = cell_density * size**2
    analog = evaluations * active_cells * device.read_energy_per_cell
    conversion = evaluations * size * (peri.dac_energy_j + peri.adc_energy_j)
    digital = (
        counters.cells_written * peri.digital_op_energy_j
        + result.iterations * size * peri.summing_amp_energy_j
    )
    return EnergyBreakdown(
        write_j=counters.write_energy_j,
        analog_j=analog,
        conversion_j=conversion,
        digital_j=digital,
    )
