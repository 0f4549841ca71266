"""Process-variation models for memristor crossbars.

Section 4.1 of the paper models process variation as a uniform
perturbation applied elementwise to the programmed matrix:

.. math::

   M' = M + M \\circ (var \\cdot R_d)   \\qquad   (Eqn. 18)

where ``var`` is the maximum variation percentage (typically 5–20%)
and ``R_d`` has i.i.d. entries uniform in (-1, 1).

The paper notes that "process variation differs from each time of
writing" (Section 4.3) — a fresh perturbation must be drawn on every
reprogramming of the array.  All models therefore take the RNG at
*sample time*, not construction time, and every sample is independent.

A lognormal alternative is provided because device literature (e.g.
Hu et al., ASPDAC 2011, cited as [22]) often reports multiplicative,
skewed resistance variation; it is used in ablation studies only.
"""

from __future__ import annotations

import abc

import numpy as np


class VariationModel(abc.ABC):
    """Interface: perturb a programmed conductance/coefficient matrix."""

    @abc.abstractmethod
    def perturb(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a perturbed copy of ``matrix``.

        Implementations must not mutate the input and must return an
        array of the same shape.  Conductances are physical quantities,
        so implementations must keep non-negative entries non-negative.
        """

    @property
    @abc.abstractmethod
    def relative_magnitude(self) -> float:
        """Worst-case relative per-cell deviation this model can cause.

        Controllers use this *specification* value to budget their
        acceptance tests: a solution computed on hardware with x%
        variation can violate the nominal constraints by the
        corresponding propagated amount without being wrong.
        """

    def reperturb(
        self,
        matrix: np.ndarray,
        previous: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Redraw after a corrective re-pulse (write–verify loop).

        ``previous`` is the realized conductance the read-back found
        out of tolerance.  The default is a fresh independent draw —
        soft variation is re-rolled by every pulse train.  Models with
        *persistent* deviations (e.g. stuck-at faults) override this:
        re-pulsing a hard-faulted cell cannot move it.
        """
        return self.perturb(matrix, rng)

    def perturb_stack(
        self,
        stack: np.ndarray,
        rngs: "list[np.random.Generator]",
    ) -> np.ndarray:
        """Perturb a ``(K, ...)`` stack, one member per generator.

        The batched engine's determinism rule: member ``k``'s draws
        come from ``rngs[k]`` alone, in member order, consuming exactly
        the variates ``perturb(stack[k], rngs[k])`` would — so a stack
        member stays bitwise-identical to a one-member stack driven by the
        same generator.  Cross-member order is irrelevant (each member
        owns its stream), which is what lets callers batch the
        surrounding tensor math freely.

        Models whose draw is elementwise can override this with a
        vectorized implementation *only if* it preserves the
        per-member stream contract; the default loop is the reference
        semantics.
        """
        stack = np.asarray(stack, dtype=float)
        if stack.ndim < 1 or stack.shape[0] != len(rngs):
            raise ValueError(
                f"stack of {stack.shape[0] if stack.ndim else 0} members "
                f"needs as many generators, got {len(rngs)}"
            )
        return np.stack(
            [self.perturb(stack[k], rngs[k]) for k in range(len(rngs))]
        )

    def __call__(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return self.perturb(matrix, rng)


class NoVariation(VariationModel):
    """Ideal hardware: the programmed matrix is realized exactly."""

    def perturb(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.array(matrix, dtype=float, copy=True)

    @property
    def relative_magnitude(self) -> float:
        return 0.0

    def perturb_stack(
        self,
        stack: np.ndarray,
        rngs: "list[np.random.Generator]",
    ) -> np.ndarray:
        """One copy, no draws — ideal hardware consumes no variates."""
        stack = np.asarray(stack, dtype=float)
        if stack.ndim < 1 or stack.shape[0] != len(rngs):
            raise ValueError(
                f"stack of {stack.shape[0] if stack.ndim else 0} members "
                f"needs as many generators, got {len(rngs)}"
            )
        return np.array(stack, dtype=float, copy=True)

    def __repr__(self) -> str:
        return "NoVariation()"


class UniformVariation(VariationModel):
    """The paper's Eqn. 18: ``M' = M + M ∘ (var · Rd)``, Rd ~ U(-1, 1).

    Parameters
    ----------
    max_fraction:
        Maximum relative deviation ``var`` (e.g. ``0.10`` for "up to
        10% process variation").  Must lie in [0, 1): a variation of
        100% or more could flip the sign of a conductance, which is
        physically impossible.
    """

    def __init__(self, max_fraction: float) -> None:
        if not 0.0 <= max_fraction < 1.0:
            raise ValueError(
                f"max_fraction must lie in [0, 1), got {max_fraction}"
            )
        self.max_fraction = float(max_fraction)

    def perturb(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=float)
        if self.max_fraction == 0.0:
            return matrix.copy()
        rd = rng.uniform(-1.0, 1.0, size=matrix.shape)
        return matrix * (1.0 + self.max_fraction * rd)

    @property
    def relative_magnitude(self) -> float:
        return self.max_fraction

    def __repr__(self) -> str:
        return f"UniformVariation(max_fraction={self.max_fraction})"


class LognormalVariation(VariationModel):
    """Multiplicative lognormal variation: ``M' = M · exp(sigma · N)``.

    A skewed, strictly-positive multiplicative model closer to measured
    TiO2 geometry variation [22].  Used for ablations; the headline
    experiments use :class:`UniformVariation` to match the paper.

    Parameters
    ----------
    sigma:
        Standard deviation of the underlying normal in log space.
    """

    def __init__(self, sigma: float) -> None:
        if sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)

    def perturb(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=float)
        if self.sigma == 0.0:
            return matrix.copy()
        factors = np.exp(rng.normal(0.0, self.sigma, size=matrix.shape))
        return matrix * factors

    @property
    def relative_magnitude(self) -> float:
        # Two-sigma multiplicative deviation as the spec value.
        return float(np.expm1(2.0 * self.sigma))

    def __repr__(self) -> str:
        return f"LognormalVariation(sigma={self.sigma})"


def variation_from_percent(percent: float) -> VariationModel:
    """Convenience: build the paper's model from a percent figure.

    ``variation_from_percent(10)`` is the paper's "up to 10% process
    variation"; ``variation_from_percent(0)`` is ideal hardware.
    """
    if percent < 0:
        raise ValueError(f"percent must be non-negative, got {percent}")
    if percent == 0:
        return NoVariation()
    return UniformVariation(percent / 100.0)
