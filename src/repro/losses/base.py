"""The convex-minimization query abstraction.

A CM query (Section 2.2) is a convex loss ``l : Theta × X -> R``; its answer
on a dataset is ``argmin_theta E_{x~D}[l(theta; x)]``. :class:`LossFunction`
is the library-wide contract: a loss evaluates its value and gradient
*vectorized over a universe*, so dataset losses are histogram dot
products — exactly the representation the paper's algorithm works in.
A :attr:`~LossFunction.pointwise` loss evaluates them over the cells of
the histogram that carry mass (:meth:`Histogram.support_view
<repro.data.histogram.Histogram.support_view>`) — for a dataset of ``n``
rows at most ``n`` elements, however large ``X`` is; every other loss,
and every histogram with mass on more than half of ``X`` (a hypothesis),
evaluates over the whole universe.

Traits a loss declares (used by Figure 3's parameter schedule and by the
Section 4 applications):

- ``lipschitz_bound`` — ``L`` with ``||grad l_x(theta)||_2 <= L``;
- ``strong_convexity`` — ``sigma`` (0 for merely convex losses);
- ``is_glm`` — whether ``l(theta; (x, y)) = phi(<theta, x>, y)``
  (the UGLM family of Theorem 4.3);
- ``scale_bound()`` — the paper's scaling parameter
  ``S >= max |<theta - theta', grad l_x(theta)>|``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.data.histogram import Histogram
from repro.data.universe import Universe
from repro.exceptions import LossSpecificationError, ValidationError
from repro.optimize.projections import Domain
from repro.utils.rng import as_generator


class LossFunction(ABC):
    """A convex loss ``l(theta; x)`` over a parameter domain ``Theta``.

    Subclasses implement :meth:`values` and :meth:`gradients`; everything
    else (dataset losses, scale bounds, empirical trait checks) is derived.
    """

    #: Declared gradient-norm bound ``L`` (``None`` if unknown/unbounded).
    lipschitz_bound: float | None = None
    #: Declared strong-convexity modulus ``sigma`` (0 if merely convex).
    strong_convexity: float = 0.0
    #: Whether the loss is a generalized linear model in ``<theta, x>``.
    is_glm: bool = False
    #: Whether ``l(theta; x)`` depends on nothing but element ``x``'s own
    #: point and label (never its position in the universe). Dataset
    #: evaluations of a pointwise loss run on the histogram's compact
    #: support (:meth:`support_of`); the default keeps the universe-wide
    #: path, which is correct for any loss. Each class makes the promise
    #: in its own body — a subclass that does not is reset to ``False``
    #: (it may override :meth:`values` positionally).
    pointwise: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "pointwise" not in cls.__dict__:
            cls.pointwise = False

    def __init__(self, domain: Domain, name: str = "loss") -> None:
        self.domain = domain
        self.name = name

    # -- the contract -------------------------------------------------------

    @abstractmethod
    def values(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        """Per-element losses ``[l(theta; x) for x in universe]``, shape ``(|X|,)``."""

    @abstractmethod
    def gradients(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        """Per-element gradients ``grad_theta l(theta; x)``, shape ``(|X|, dim)``.

        For non-differentiable losses any subgradient selection is valid
        (the paper notes this suffices throughout).
        """

    def exact_minimizer(self, histogram: Histogram) -> np.ndarray | None:
        """Closed-form ``argmin_theta l(theta; D)`` if one exists, else ``None``.

        Hook consumed by :func:`repro.optimize.minimize.minimize_loss`.
        """
        return None

    def support_of(self, histogram: Histogram) -> Histogram:
        """The histogram this loss evaluates ``histogram``'s quantities on.

        The compact support view for a :attr:`pointwise` loss when
        ``histogram`` offers one, else ``histogram`` itself. Either gives
        the same sums up to floating-point reassociation: the view drops
        only zero-weight terms.
        """
        if self.pointwise:
            view = histogram.support_view()
            if view is not None:
                return view.histogram
        return histogram

    def fingerprint(self) -> str:
        """Stable digest of the mathematical query this loss represents.

        Equal-parameter losses fingerprint identically across objects and
        processes; display names are ignored. Used as the cache and ledger
        key throughout :mod:`repro.serve` and by the mechanism's data-side
        minimization cache. See :mod:`repro.losses.fingerprint`.

        The digest is memoized on first call (hashing walks every
        parameter array, and serving paths fingerprint each query more
        than once); losses are treated as immutable values — mutating a
        loss after fingerprinting it is unsupported.
        """
        from repro.losses.fingerprint import memoized_fingerprint

        return memoized_fingerprint(self)

    # -- derived dataset-level evaluations ------------------------------------

    def loss_on(self, theta: np.ndarray, histogram: Histogram) -> float:
        """``l(theta; D) = sum_x D(x) l(theta; x)`` (the paper's ``l_D``)."""
        histogram = self.support_of(histogram)
        return histogram.dot(self.values(theta, histogram.universe))

    def gradient_on(self, theta: np.ndarray, histogram: Histogram) -> np.ndarray:
        """``grad l_D(theta) = sum_x D(x) grad l_x(theta)`` (gradient linearity)."""
        histogram = self.support_of(histogram)
        gradients = self.gradients(theta, histogram.universe)
        if gradients.ndim != 2 or gradients.shape[0] != histogram.universe.size:
            raise LossSpecificationError(
                f"{self.name}: gradients returned shape {gradients.shape}, "
                f"expected ({histogram.universe.size}, {self.domain.dim})"
            )
        return gradients.T @ histogram.weights

    # -- the scaling parameter S (Section 3.2) ---------------------------------

    def scale_bound(self) -> float:
        """An upper bound on ``S = max |<theta - theta', grad l_x(theta)>|``.

        By Cauchy–Schwarz, ``S <= diameter(Theta) * L``. Losses without a
        declared Lipschitz bound must override this or use
        :meth:`estimate_scale`.
        """
        if self.lipschitz_bound is None:
            raise LossSpecificationError(
                f"{self.name}: no Lipschitz bound declared; use "
                f"estimate_scale() or override scale_bound()"
            )
        diameter = self.domain.diameter()
        if not np.isfinite(diameter):
            raise LossSpecificationError(
                f"{self.name}: domain has infinite diameter; scale bound "
                f"requires a bounded domain"
            )
        return float(diameter * self.lipschitz_bound)

    def estimate_scale(self, universe: Universe, samples: int = 256,
                       rng=None) -> float:
        """Monte-Carlo lower estimate of the scale parameter ``S``.

        Samples parameter pairs and maximizes ``|<theta - theta',
        grad l_x(theta)>|`` over the whole universe. Useful to check that a
        declared :meth:`scale_bound` is not vacuously loose.
        """
        generator = as_generator(rng)
        best = 0.0
        for _ in range(samples):
            theta = self.domain.random_point(generator)
            theta_prime = self.domain.random_point(generator)
            gradients = self.gradients(theta, universe)
            inner = gradients @ (theta - theta_prime)
            best = max(best, float(np.max(np.abs(inner))))
        return best

    # -- empirical trait verification (used by tests & guards) -----------------

    def max_gradient_norm(self, universe: Universe, samples: int = 64,
                          rng=None) -> float:
        """Largest observed ``||grad l_x(theta)||_2`` over sampled ``theta``."""
        generator = as_generator(rng)
        worst = 0.0
        for _ in range(samples):
            theta = self.domain.random_point(generator)
            gradients = self.gradients(theta, universe)
            worst = max(worst, float(np.max(np.linalg.norm(gradients, axis=1))))
        return worst

    def check_convexity(self, universe: Universe, samples: int = 64,
                        rng=None, tol: float = 1e-7) -> bool:
        """Spot-check the first-order convexity inequality on random pairs.

        Verifies ``l(theta'; x) >= l(theta; x) + <grad l_x(theta),
        theta' - theta> + (sigma/2)||theta' - theta||^2`` for the declared
        ``sigma`` on sampled ``(theta, theta', x)`` triples.
        """
        generator = as_generator(rng)
        for _ in range(samples):
            theta = self.domain.random_point(generator)
            theta_prime = self.domain.random_point(generator)
            values = self.values(theta, universe)
            values_prime = self.values(theta_prime, universe)
            gradients = self.gradients(theta, universe)
            linear = gradients @ (theta_prime - theta)
            quadratic = 0.5 * self.strong_convexity * float(
                np.dot(theta_prime - theta, theta_prime - theta)
            )
            if np.any(values_prime + tol < values + linear + quadratic):
                return False
        return True

    # -- misc -------------------------------------------------------------------

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.domain.dim,):
            raise ValidationError(
                f"{self.name}: theta has shape {theta.shape}, expected "
                f"({self.domain.dim},)"
            )
        return theta

    @staticmethod
    def _require_labels(universe: Universe, name: str) -> np.ndarray:
        if universe.labels is None:
            raise LossSpecificationError(
                f"{name} requires a labeled universe (elements are (x, y) pairs)"
            )
        return universe.labels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, dim={self.domain.dim})"
