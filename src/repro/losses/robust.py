"""Additional convex losses: quantile (pinball), smoothed hinge, exponential.

These extend the loss library beyond the paper's named examples while
staying inside its assumptions (convex, Lipschitz GLMs over bounded
domains), demonstrating that the mechanism is loss-agnostic:

- :class:`PinballLoss` — quantile regression, the canonical asymmetric
  non-smooth convex loss;
- :class:`SmoothedHingeLoss` — the quadratically smoothed SVM hinge
  (differentiable everywhere, so it exercises the smooth-GLM code path
  with a margin-shaped landscape);
- :class:`ExponentialLoss` — boosting's loss, convex with an
  exponentially growing link; the implementation clamps the margin range
  to keep the declared Lipschitz bound honest and documents the clamp.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LossSpecificationError
from repro.losses.glm import GeneralizedLinearLoss
from repro.optimize.projections import Domain
from repro.utils.validation import check_positive, check_unit_interval


class PinballLoss(GeneralizedLinearLoss):
    """Quantile-regression (pinball) loss on the residual ``r = <theta,x> - y``.

    Underprediction (``r < 0``) costs ``tau`` per unit and overprediction
    costs ``1 - tau``, so the minimizer estimates the ``tau``-quantile of
    ``y | x``. Convex, ``max(tau, 1-tau)``-Lipschitz in the margin; at the
    kink we select the right-side subgradient ``1 - tau`` (valid, as the
    paper's subgradient remark allows).
    """

    pointwise = True

    def __init__(self, domain: Domain, tau: float = 0.5,
                 rotation: np.ndarray | None = None,
                 name: str = "pinball") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.tau = check_unit_interval(tau, "tau")
        if self.tau >= 1.0:
            raise LossSpecificationError("tau must lie strictly below 1")
        self.link_derivative_bound = max(self.tau, 1.0 - self.tau)
        self.lipschitz_bound = self.link_derivative_bound

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        if labels is None:
            raise LossSpecificationError("pinball loss requires labels")
        residuals = margins - labels
        return np.where(residuals >= 0.0, (1.0 - self.tau) * residuals,
                        -self.tau * residuals)

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        if labels is None:
            raise LossSpecificationError("pinball loss requires labels")
        residuals = margins - labels
        return np.where(residuals >= 0.0, 1.0 - self.tau, -self.tau)


class SmoothedHingeLoss(GeneralizedLinearLoss):
    """Quadratically smoothed hinge with smoothing half-width ``gamma``.

    ``phi(m) = 0`` for ``m >= 1``, ``(1 - m)^2 / (2 gamma)`` for
    ``1 - gamma <= m < 1``, and ``1 - m - gamma/2`` below — continuous with
    continuous derivative, 1-Lipschitz, convex (labels in ``{-1, +1}``,
    ``m = y <theta, x>``).
    """

    pointwise = True
    link_derivative_bound = 1.0

    def __init__(self, domain: Domain, gamma: float = 0.5,
                 rotation: np.ndarray | None = None,
                 name: str = "smoothed-hinge") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.gamma = check_positive(gamma, "gamma")
        self.lipschitz_bound = 1.0

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        m = labels * margins
        flat = np.zeros_like(m)
        quadratic = (1.0 - m) ** 2 / (2.0 * self.gamma)
        linear = 1.0 - m - self.gamma / 2.0
        return np.where(m >= 1.0, flat,
                        np.where(m >= 1.0 - self.gamma, quadratic, linear))

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        m = labels * margins
        slope = np.where(
            m >= 1.0, 0.0,
            np.where(m >= 1.0 - self.gamma, -(1.0 - m) / self.gamma, -1.0),
        )
        return labels * slope

    @staticmethod
    def _check_labels(labels: np.ndarray | None) -> None:
        if labels is None or not np.all(np.isin(labels, (-1.0, 1.0))):
            raise LossSpecificationError(
                "smoothed hinge requires labels in {-1, +1}"
            )


class ExponentialLoss(GeneralizedLinearLoss):
    """Boosting's exponential loss ``exp(-y <theta, x>)`` with margin clamp.

    Convex and smooth, but its derivative grows like ``e^{|m|}``, so a raw
    declaration would break the scaling condition. The implementation
    clamps margins to ``[-clamp, clamp]`` (linear continuation beyond —
    still convex) and declares the honest Lipschitz bound ``e^{clamp}``.
    With the standard unit-ball setup margins never exceed 1, so the
    default clamp is inactive on-domain and only guards against misuse.
    """

    pointwise = True

    def __init__(self, domain: Domain, clamp: float = 1.0,
                 rotation: np.ndarray | None = None,
                 name: str = "exponential") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.clamp = check_positive(clamp, "clamp")
        self.link_derivative_bound = float(np.exp(self.clamp))
        self.lipschitz_bound = self.link_derivative_bound

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        m = labels * margins
        clipped = np.clip(m, -self.clamp, self.clamp)
        base = np.exp(-clipped)
        # Linear continuation below -clamp keeps convexity and the bound.
        overshoot = np.clip(-self.clamp - m, 0.0, None)
        return base + np.exp(self.clamp) * overshoot

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        m = labels * margins
        slope = np.where(
            m < -self.clamp, -np.exp(self.clamp),
            -np.exp(-np.clip(m, -self.clamp, self.clamp)),
        )
        # Zero-slope continuation above +clamp would break convexity; the
        # true derivative there is -e^{-m}, bounded by e^{-clamp}: keep it.
        above = m > self.clamp
        slope = np.where(above, -np.exp(-m), slope)
        return labels * slope

    @staticmethod
    def _check_labels(labels: np.ndarray | None) -> None:
        if labels is None or not np.all(np.isin(labels, (-1.0, 1.0))):
            raise LossSpecificationError(
                "exponential loss requires labels in {-1, +1}"
            )
