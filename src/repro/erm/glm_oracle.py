"""Dimension-independent oracle for generalized linear models (JT14 stand-in).

Jain–Thakurta (Theorem 4.3) achieve excess risk independent of the ambient
dimension ``d`` for unconstrained GLMs. Their key structural insight is
that GLM losses depend on data only through inner products, so a random
projection preserves the objective. We implement exactly that recipe:

1. Draw a Johnson–Lindenstrauss matrix ``Phi in R^{m x d}`` with
   ``m = ceil(projection_scale / alpha_target^2)`` rows (data-independent,
   hence free of privacy cost).
2. Form the projected GLM with features ``Phi x`` (still a GLM), and run
   the noisy-GD oracle in ``R^m`` — so the noise norm scales with
   ``sqrt(m)``, not ``sqrt(d)``.
3. Lift ``theta = Phi^T theta_m`` back to ``R^d`` and project onto the
   original domain.

The privacy of the call is exactly the privacy of the inner noisy-GD run
(post-processing through the fixed ``Phi`` is free). The
dimension-independence of the excess risk is verified empirically in the
Table 1 row-3 benchmark.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.erm.noisy_sgd import NoisyGradientDescentOracle
from repro.erm.oracle import SingleQueryOracle
from repro.exceptions import LossSpecificationError
from repro.losses.glm import GeneralizedLinearLoss
from repro.optimize.projections import L2Ball
from repro.utils.rng import as_generator


class GLMProjectionOracle(SingleQueryOracle):
    """JL-project, solve privately in low dimension, lift back.

    Parameters
    ----------
    epsilon, delta:
        Privacy budget (spent entirely by the inner noisy-GD run).
    projection_dim:
        Target dimension ``m``. The theory sets ``m ~ 1/alpha^2``;
        experiments fix a moderate constant and verify ``d``-independence.
    steps:
        Gradient steps of the inner solver.
    """

    def __init__(self, epsilon: float, delta: float, projection_dim: int = 16,
                 steps: int = 60) -> None:
        super().__init__(epsilon, delta)
        if projection_dim < 1:
            raise LossSpecificationError(
                f"projection_dim must be >= 1, got {projection_dim}"
            )
        self.projection_dim = int(projection_dim)
        self.steps = int(steps)

    def answer(self, loss, dataset: Dataset, rng=None) -> np.ndarray:
        if not isinstance(loss, GeneralizedLinearLoss):
            raise LossSpecificationError(
                f"GLM oracle requires a GeneralizedLinearLoss; got "
                f"{type(loss).__name__}"
            )
        generator = as_generator(rng)
        d = loss.domain.dim
        m = min(self.projection_dim, d)

        # JL matrix with unit-variance columns scaled by 1/sqrt(m) so that
        # ||Phi x|| ~ ||x|| in expectation; margin scales are preserved.
        phi = generator.standard_normal((m, d)) / math.sqrt(m)

        projected = _ProjectedGLM(loss, phi)
        inner = NoisyGradientDescentOracle(self.epsilon, self.delta,
                                           steps=self.steps)
        theta_m = inner.answer(projected, dataset, rng=generator)
        lifted = phi.T @ theta_m
        return loss.domain.project(lifted)


class _ProjectedGLM(GeneralizedLinearLoss):
    """The base GLM with features replaced by ``Phi (R x)``.

    Composes the original loss's rotation (if any) with the JL matrix so
    the projected problem is *the same* GLM over ``R^m``. Margins can grow
    by the JL distortion factor, so the Lipschitz bound carries a modest
    safety factor that the noise calibration uses.
    """

    pointwise = True

    def __init__(self, base: GeneralizedLinearLoss, phi: np.ndarray) -> None:
        m, d = phi.shape
        if base.rotation is not None:
            rotation = phi @ base.rotation
        else:
            rotation = phi
        # Domain: ball of radius matching the base domain scale. theta_m in
        # a radius-r ball lifts to ||Phi^T theta_m|| <~ r, then projected.
        radius = base.domain.diameter() / 2.0
        super().__init__(L2Ball(m, radius=radius), rotation=rotation,
                         name=f"{base.name}@jl{m}")
        self._base = base
        self.link_derivative_bound = base.link_derivative_bound
        self.requires_labels = base.requires_labels
        # JL can inflate feature norms by ~(1 + distortion); use a 2x
        # safety factor on the declared Lipschitz constant.
        base_lipschitz = base.lipschitz_bound or base.link_derivative_bound
        self.lipschitz_bound = 2.0 * base_lipschitz
        self.strong_convexity = base.strong_convexity

    def link(self, margins, labels):
        return self._base.link(margins, labels)

    def link_derivative(self, margins, labels):
        return self._base.link_derivative(margins, labels)

    def _features(self, universe):
        return universe.points @ self.rotation.T
