"""Write–verify programming policy.

The paper programs a device open-loop: issue the pulse train that the
nominal device model says realizes the target conductance, and accept
whatever process variation delivers (Eqn. 18).  Real programming
controllers close the loop instead — *write–verify*: after writing,
read each cell back, and re-pulse the cells whose realized conductance
is outside a relative tolerance of the target, up to a pulse budget.

:class:`WriteVerifyPolicy` configures that loop; the loop itself is
:func:`repro.crossbar.stack.run_write_verify`, which the crossbar
stack runs per member on every programming event (full programs and
the O(N) per-iteration cell updates).  Costs are folded into the
:class:`~repro.crossbar.programming.WriteReport`: extra pulses, their
latency/energy, plus the verify-specific counters (read-backs,
re-pulsed cells, and cells still out of tolerance when the budget ran
out — persistent deviations such as stuck-at faults, which re-pulsing
cannot heal; see :meth:`repro.devices.faults.StuckAtFaults.reperturb`).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class WriteVerifyPolicy:
    """Closed-loop programming configuration.

    Parameters
    ----------
    tolerance:
        Maximum accepted relative deviation of a cell's realized
        conductance from its target.  Targets at the off state use
        ``g_off`` as the reference magnitude, so a stuck-ON cell in an
        isolated position is always flagged.
    max_rounds:
        Read-back / re-pulse rounds per programming event (the pulse
        budget).  Cells still out of tolerance afterwards are counted
        as ``unverified_cells`` in the write report.
    """

    tolerance: float = 0.05
    max_rounds: int = 3

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError(
                f"tolerance must be positive, got {self.tolerance}"
            )
        if self.max_rounds < 1:
            raise ValueError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
