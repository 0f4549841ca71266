"""Array health probes.

Sun et al.'s in-memory linear-system analysis (PAPERS.md) shows that
accuracy collapses *silently* when the conductance mapping degrades:
the PDIP loop happily burns hundreds of iterations on an array whose
realized matrix no longer resembles the programmed one.  A health
probe catches that before the loop starts: drive known vectors through
:meth:`~repro.crossbar.ops.AnalogMatrixOperator.multiply` and compare
the read-out against the digitally computed nominal product.  The
digital controller already holds the nominal coefficients (it
programmed them), so the comparison is free of extra hardware.

The acceptance threshold is derived from the *specified* error
sources — process-variation magnitude plus converter quantization —
times a safety margin, so a healthy noisy array passes while an array
with stuck cells (whose error is not bounded by any spec) fails.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class ProbePolicy:
    """Health-probe configuration.

    Parameters
    ----------
    vectors:
        Probe vectors per array: the all-ones vector (every cell
        contributes) plus ``vectors - 1`` random strictly-positive
        vectors drawn from the attempt RNG.
    margin:
        Safety factor over the specified error budget
        (variation ``relative_magnitude`` + converter resolution).
    min_tolerance:
        Absolute floor of the acceptance threshold, so ideal-hardware
        configurations are not held to a zero-error standard.
    tolerance:
        Explicit threshold override; ``None`` derives it from the
        operator's variation model and converter bits.
    """

    vectors: int = 2
    margin: float = 4.0
    min_tolerance: float = 0.05
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.vectors < 1:
            raise ValueError(f"vectors must be >= 1, got {self.vectors}")
        if self.margin <= 0.0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.min_tolerance < 0.0:
            raise ValueError("min_tolerance must be non-negative")
        if self.tolerance is not None and self.tolerance <= 0.0:
            raise ValueError("tolerance override must be positive")


@dataclasses.dataclass(frozen=True)
class ProbeReport:
    """Outcome of probing one (or several) arrays.

    Attributes
    ----------
    max_rel_error:
        Worst deviation of the analog product from the nominal one,
        relative to the nominal product's peak magnitude.
    tolerance:
        Threshold the error was compared against.
    vectors:
        Total probe multiplies performed.
    healthy:
        ``max_rel_error <= tolerance``.
    label:
        Name of the probed array (the worst one, when combined).
    """

    max_rel_error: float
    tolerance: float
    vectors: int
    healthy: bool
    label: str = ""


def probe_tolerance(operator, policy: ProbePolicy) -> float:
    """Acceptance threshold for ``operator`` under ``policy``."""
    if policy.tolerance is not None:
        return policy.tolerance
    bits = [
        b for b in (operator.dac_bits, operator.adc_bits) if b is not None
    ]
    quant_rel = 3.0 * 2.0 ** -min(bits) if bits else 0.0
    spec = operator.variation.relative_magnitude + quant_rel
    return max(policy.min_tolerance, policy.margin * spec)


def probe_operator(
    operator,
    policy: ProbePolicy,
    rng: np.random.Generator,
    *,
    label: str = "",
) -> ProbeReport:
    """Probe one analog operator against its nominal coefficients.

    Drives the all-ones vector plus ``policy.vectors - 1`` random
    positive vectors through the analog multiply and compares each
    read-out with the digital product of the nominal matrix.  Errors
    are normalized by the nominal product's peak: components near zero
    are converter-noise dominated and must not trigger false alarms.
    """
    nominal = operator.coefficients
    tolerance = probe_tolerance(operator, policy)
    worst = 0.0
    for index in range(policy.vectors):
        if index == 0:
            v = np.ones(operator.n_in)
        else:
            v = rng.uniform(0.5, 1.5, size=operator.n_in)
        expected = nominal @ v
        analog = operator.multiply(v)
        peak = float(np.max(np.abs(expected), initial=0.0))
        scale = max(peak, 1e-300)
        worst = max(
            worst, float(np.max(np.abs(analog - expected))) / scale
        )
    return ProbeReport(
        max_rel_error=worst,
        tolerance=tolerance,
        vectors=policy.vectors,
        healthy=worst <= tolerance,
        label=label,
    )


def probe_operators(
    named_operators,
    policy: ProbePolicy,
    rng: np.random.Generator,
) -> ProbeReport:
    """Probe several arrays; return the worst report.

    ``named_operators`` is an iterable of ``(label, operator)`` pairs
    (Solver 2 splits the Newton step across four arrays — any one of
    them being corrupted poisons the iteration).  The combined report
    carries the label of the worst array and the total probe count;
    it is unhealthy if *any* array is.
    """
    worst: ProbeReport | None = None
    total_vectors = 0
    any_unhealthy = False
    for label, operator in named_operators:
        report = probe_operator(operator, policy, rng, label=label)
        total_vectors += report.vectors
        any_unhealthy = any_unhealthy or not report.healthy
        if worst is None or (
            report.max_rel_error / report.tolerance
            > worst.max_rel_error / worst.tolerance
        ):
            worst = report
    if worst is None:
        raise ValueError("no operators to probe")
    return dataclasses.replace(
        worst, vectors=total_vectors, healthy=not any_unhealthy
    )


def probe_operators_batched(
    named_operators,
    policy: ProbePolicy,
    rng: np.random.Generator,
) -> list[ProbeReport]:
    """Probe a fleet of arrays; one :class:`ProbeReport` per array.

    Returns one report per ``(label, operator)`` pair, in order: a
    member-order loop of :func:`probe_operator` over ``rng``, so the
    probe vectors follow the serial draw sequence exactly.
    """
    named = list(named_operators)
    if not named:
        raise ValueError("no operators to probe")
    return [
        probe_operator(operator, policy, rng, label=label)
        for label, operator in named
    ]
