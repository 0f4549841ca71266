"""Reliability layer: write–verify, health probes, recovery ladder.

The paper's only answer to analog failure is Section 4.5's "reprogram
and hope".  This subpackage wraps both crossbar solvers in a
closed-loop reliability stack:

- :class:`~repro.reliability.verify.WriteVerifyPolicy` — closed-loop
  programming: read back realized conductances, re-pulse
  out-of-tolerance cells up to a budget (configured on
  :class:`~repro.core.settings.CrossbarSolverSettings`).
- :class:`~repro.reliability.probe.ProbePolicy` /
  :func:`~repro.reliability.probe.probe_operator` — post-programming
  array health checks that catch stuck-at-corrupted mappings before
  the PDIP loop burns its iteration budget.
- :class:`~repro.reliability.policy.RecoveryPolicy` /
  :func:`~repro.reliability.recovery.solve_with_recovery` — the
  escalation ladder: reprogram → remap → digital fallback, with
  per-attempt budgets.
- :class:`~repro.reliability.telemetry.AttemptRecord` — structured
  per-attempt history (status, typed failure reason, recovery action,
  probe/verify stats, reproduction seed) attached to every
  :class:`~repro.core.result.SolverResult`.
"""

from repro.reliability.policy import FALLBACK_SOLVERS, RecoveryPolicy
from repro.reliability.probe import (
    ProbePolicy,
    ProbeReport,
    probe_operator,
    probe_operators,
    probe_tolerance,
)
from repro.reliability.recovery import (
    run_digital_fallback,
    solve_with_recovery,
)
from repro.reliability.telemetry import (
    AttemptRecord,
    RecoveryAction,
    describe_attempts,
)
from repro.reliability.verify import WriteVerifyPolicy

__all__ = [
    "WriteVerifyPolicy",
    "ProbePolicy",
    "ProbeReport",
    "probe_operator",
    "probe_operators",
    "probe_tolerance",
    "RecoveryPolicy",
    "FALLBACK_SOLVERS",
    "AttemptRecord",
    "RecoveryAction",
    "describe_attempts",
    "solve_with_recovery",
    "run_digital_fallback",
]
