"""Latency and energy estimation (the Figs. 6–7 methodology)."""

from repro.costmodel.cpu import (
    calibrate_local,
    cpu_energy,
    linprog_latency,
    software_pdip_latency,
)
from repro.costmodel.energy import EnergyBreakdown, estimate_energy
from repro.costmodel.latency import LatencyBreakdown, estimate_latency
from repro.costmodel.parameters import (
    DEFAULT_COST_MODEL,
    CostModelParameters,
    CpuModelParameters,
    PeripheralParameters,
)

__all__ = [
    "CostModelParameters",
    "CpuModelParameters",
    "PeripheralParameters",
    "DEFAULT_COST_MODEL",
    "LatencyBreakdown",
    "estimate_latency",
    "EnergyBreakdown",
    "estimate_energy",
    "linprog_latency",
    "software_pdip_latency",
    "cpu_energy",
    "calibrate_local",
]
