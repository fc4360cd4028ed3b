"""Strongly convex losses: pure quadratics and ridge regularization.

Section 4.2.3 of the paper treats ``sigma``-strongly-convex losses. Two
implementations:

- :class:`QuadraticLoss` — ``l(theta; x) = (1/2)||theta - P x||^2``: exactly
  1-strongly convex, with a *closed-form* dataset minimizer (the projected
  mean of ``P x``), making it the library's primary correctness probe.
- :class:`RidgeRegularized` — wraps any loss with ``+ (lam/2)||theta||^2``,
  raising its strong convexity by ``lam``; when the base loss is
  :class:`~repro.losses.squared.SquaredLoss` over a ball the minimizer stays
  in closed form, read from the base's memoized moments.
"""

from __future__ import annotations

import numpy as np

from repro.data.histogram import Histogram
from repro.data.universe import Universe
from repro.losses.base import LossFunction
from repro.losses.squared import SquaredLoss
from repro.optimize.exact import minimize_quadratic_over_ball
from repro.optimize.projections import Domain, L2Ball
from repro.utils.validation import check_finite_array, check_positive


class QuadraticLoss(LossFunction):
    """``l(theta; x) = (1/2) ||theta - P x||_2^2`` (``P`` optional transform).

    Strong convexity ``sigma = 1``; on a unit ball domain with ``||P x|| <=
    1`` the gradient ``theta - P x`` has norm at most 2, so the loss is
    2-Lipschitz there.
    """

    pointwise = True
    strong_convexity = 1.0

    def __init__(self, domain: Domain, transform: np.ndarray | None = None,
                 name: str = "quadratic") -> None:
        super().__init__(domain, name=name)
        if transform is not None:
            transform = check_finite_array(transform, "transform", ndim=2)
        self.transform = transform
        # Gradient norm <= ||theta|| + max||P x||; both are ~1 in the
        # standard setup; declare 2 and let tests confirm empirically.
        self.lipschitz_bound = 2.0

    def targets(self, universe: Universe) -> np.ndarray:
        """The per-element targets ``P x`` of shape ``(|X|, dim)``."""
        points = universe.points
        if self.transform is None:
            return points
        return points @ self.transform.T

    def values(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        theta = self._check_theta(theta)
        residuals = theta[None, :] - self.targets(universe)
        return 0.5 * np.einsum("ij,ij->i", residuals, residuals)

    def gradients(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        theta = self._check_theta(theta)
        return theta[None, :] - self.targets(universe)

    def exact_minimizer(self, histogram: Histogram) -> np.ndarray | None:
        """The dataset minimizer is the domain projection of ``E[P x]``."""
        histogram = self.support_of(histogram)
        mean_target = self.targets(histogram.universe).T @ histogram.weights
        return self.domain.project(mean_target)


class RidgeRegularized(LossFunction):
    """``base(theta; x) + (lam/2) ||theta||^2`` — adds ``lam`` strong convexity.

    The regularizer is data-independent, so privacy properties of any
    mechanism run on the wrapped loss are unchanged; only the geometry
    improves (Section 4.2.3's ``sigma``).
    """

    def __init__(self, base: LossFunction, lam: float,
                 name: str | None = None) -> None:
        super().__init__(base.domain, name=name or f"ridge({base.name})")
        self.base = base
        self.lam = check_positive(lam, "lam")
        self.strong_convexity = base.strong_convexity + self.lam
        self.is_glm = False  # the regularizer breaks the pure GLM form
        if base.lipschitz_bound is not None:
            # ||grad|| <= base L + lam * max||theta||; bound the latter by
            # half the domain diameter from any center.
            radius = base.domain.diameter() / 2.0
            self.lipschitz_bound = base.lipschitz_bound + self.lam * radius

    @property
    def pointwise(self) -> bool:
        """The regularizer is data-independent: pointwise iff the base is."""
        return self.base.pointwise

    def values(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        theta = self._check_theta(theta)
        penalty = 0.5 * self.lam * float(theta @ theta)
        return self.base.values(theta, universe) + penalty

    def gradients(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        theta = self._check_theta(theta)
        return self.base.gradients(theta, universe) + self.lam * theta[None, :]

    def loss_on(self, theta: np.ndarray, histogram: Histogram) -> float:
        """The base's dataset loss plus the data-independent penalty."""
        theta = self._check_theta(theta)
        return (self.base.loss_on(theta, histogram)
                + 0.5 * self.lam * float(theta @ theta))

    def exact_minimizer(self, histogram: Histogram) -> np.ndarray | None:
        """Closed form when the base is :class:`SquaredLoss` over a ball."""
        if not isinstance(self.base, SquaredLoss):
            return None
        if not isinstance(self.domain, L2Ball):
            return None
        moments = self.base.moments(histogram)
        if moments is None:
            return None
        second, cross = moments
        c = self.base.normalization
        quadratic = 2.0 * c * second + self.lam * np.eye(self.domain.dim)
        return minimize_quadratic_over_ball(quadratic, -2.0 * c * cross,
                                            self.domain)
