"""Squared loss (linear regression), the paper's opening example.

``l(theta; (x, y)) = c * (<theta, x> - y)^2`` with ``c = 1/4`` by default so
that on the unit ball with ``|y| <= 1`` the loss is 1-Lipschitz
(``|phi'| = 2c|z - y| <= 4c``). The loss is a GLM, and its dataset loss
is a quadratic in ``theta`` whose coefficients are the histogram's
sufficient statistics (:meth:`Histogram.sufficient_statistics
<repro.data.histogram.Histogram.sufficient_statistics>`), memoized per
histogram. :meth:`SquaredLoss.loss_on` reads them in ``O(d²)``, and over
an L2-ball domain :meth:`SquaredLoss.exact_minimizer` solves the
trust-region subproblem on them in ``O(d³)``.
"""

from __future__ import annotations

import numpy as np

from repro.data.histogram import Histogram, SufficientStatistics
from repro.losses.glm import GeneralizedLinearLoss
from repro.optimize.exact import minimize_quadratic_over_ball
from repro.optimize.projections import Domain, L2Ball
from repro.utils.validation import check_positive


class SquaredLoss(GeneralizedLinearLoss):
    """Scaled squared loss ``c (<theta, R x> - y)^2`` over a labeled universe."""

    pointwise = True
    #: Whether dataset losses are read from the histogram's sufficient
    #: statistics. Holds for the link defined here only: a subclass that
    #: overrides :meth:`link` or :meth:`values` in its body is reset to
    #: the per-element path (and the iterative solver).
    moment_form = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "link" in cls.__dict__ or "values" in cls.__dict__:
            cls.moment_form = False

    def __init__(self, domain: Domain, rotation: np.ndarray | None = None,
                 normalization: float = 0.25, name: str = "squared") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.normalization = check_positive(normalization, "normalization")
        # |phi'| = 2c|z - y| <= 2c * (max|z| + max|y|); with unit-ball theta,
        # unit-norm rotated features and |y| <= 1 this is 4c.
        self.link_derivative_bound = 4.0 * self.normalization
        self.lipschitz_bound = self.link_derivative_bound

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        residuals = margins - labels
        return self.normalization * residuals * residuals

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        return 2.0 * self.normalization * (margins - labels)

    def _statistics(self, histogram: Histogram) -> SufficientStatistics | None:
        """The unrotated statistics of the histogram this loss evaluates on.

        The memoized :meth:`Histogram.sufficient_statistics
        <repro.data.histogram.Histogram.sufficient_statistics>` of
        :meth:`support_of`, after the same universe-dimension check as
        the per-element path. ``None`` when the moment form does not
        apply: an unlabeled universe, or a subclass without
        :attr:`moment_form`.
        """
        if not self.moment_form:
            return None
        histogram = self.support_of(histogram)
        self.check_universe_dim(histogram.universe)
        return histogram.sufficient_statistics()

    def moments(self, histogram: Histogram):
        """``(M, v) = (E[(Rx)(Rx)ᵀ], E[y Rx])`` under ``histogram``, or
        ``None`` (see :meth:`_statistics`); rotated in ``O(d³)``."""
        statistics = self._statistics(histogram)
        if statistics is None:
            return None
        second, cross, _ = statistics
        rotation = self.rotation
        if rotation is None:
            return second, cross
        return rotation @ second @ rotation.T, rotation @ cross

    def loss_on(self, theta: np.ndarray, histogram: Histogram) -> float:
        """``l_D(theta) = c (u' M u - 2 v' u + E[y²])`` with ``u = Rᵀ theta``
        on the unrotated statistics: ``O(d²)``."""
        theta = self._check_theta(theta)
        statistics = self._statistics(histogram)
        if statistics is None:  # the per-element path raises for no labels
            return super().loss_on(theta, histogram)
        second, cross, label_second = statistics
        point = theta if self.rotation is None else self.rotation.T @ theta
        value = point @ second @ point - 2.0 * (cross @ point) + label_second
        return self.normalization * max(float(value), 0.0)

    def exact_minimizer(self, histogram: Histogram) -> np.ndarray | None:
        """Closed-form ridge-free least squares over an L2-ball domain.

        The objective is ``c * (theta' M theta - 2 v' theta + E[y²])``
        (see :meth:`moments`), a PSD quadratic solvable exactly over the
        ball.
        """
        if not isinstance(self.domain, L2Ball):
            return None
        moments = self.moments(histogram)
        if moments is None:
            return None
        second, cross = moments
        return minimize_quadratic_over_ball(
            2.0 * self.normalization * second,
            -2.0 * self.normalization * cross, self.domain)
