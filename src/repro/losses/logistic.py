"""Logistic loss (binary classification), the paper's second example.

``l(theta; (x, y)) = log(1 + exp(-y <theta, R x>))`` for labels in
``{-1, +1}``. A GLM with ``|phi'| <= 1``, hence 1-Lipschitz whenever the
(rotated) features lie in the unit ball — the canonical member of the
Theorem 4.3 UGLM family.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LossSpecificationError
from repro.losses.glm import GeneralizedLinearLoss
from repro.optimize.projections import Domain


class LogisticLoss(GeneralizedLinearLoss):
    """Numerically stable logistic loss over a ``{-1, +1}``-labeled universe."""

    pointwise = True
    link_derivative_bound = 1.0

    def __init__(self, domain: Domain, rotation: np.ndarray | None = None,
                 name: str = "logistic") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.lipschitz_bound = 1.0

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        # log(1 + exp(-t)) computed as logaddexp(0, -t): stable for |t| large.
        return np.logaddexp(0.0, -labels * margins)

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        t = labels * margins
        # d/dz log(1+e^{-yz}) = -y * sigmoid(-yz); sigmoid via stable expit.
        return -labels / (1.0 + np.exp(t))

    @staticmethod
    def _check_labels(labels: np.ndarray | None) -> None:
        if labels is None:
            raise LossSpecificationError("logistic loss requires labels")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise LossSpecificationError(
                "logistic loss requires labels in {-1, +1}"
            )
