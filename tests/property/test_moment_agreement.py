"""Property tests: memoized squared-loss moments agree with the dense path.

``SquaredLoss.loss_on`` and its closed-form minimizer read the
histogram's memoized ``E[x xᵀ]``, ``E[y x]`` and ``E[y²]`` and rotate
them (``R M Rᵀ``, ``R v``); the dense references below evaluate the same
quantities per element in the rotated features. The two differ only by
reassociated float64 sums, so the tolerance is fixed from that alone:
``rtol=1e-12, atol=1e-14``. Supports are drawn at the edges of the
compact-view rule (one cell, exactly half, just over half, dense), and
rotations are absent, square, or JL-shaped (fewer rows than the
universe's dimension).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.histogram import Histogram
from repro.data.synthetic import make_classification_dataset
from repro.losses.quadratic import RidgeRegularized
from repro.losses.squared import SquaredLoss
from repro.optimize.exact import minimize_quadratic_over_ball
from repro.optimize.minimize import minimize_loss
from repro.optimize.projections import L2Ball

RTOL, ATOL = 1e-12, 1e-14

UNIVERSE = make_classification_dataset(n=500, d=4, universe_size=40,
                                       rng=3).universe
SIZE, DIM = UNIVERSE.size, UNIVERSE.dim
JL_DIM = 2

SUPPORTS = {"one": 1, "half": SIZE // 2, "over-half": SIZE // 2 + 1,
            "dense": SIZE}

seeds = st.integers(min_value=0, max_value=2**20)
support_kinds = st.sampled_from(sorted(SUPPORTS))


def make_losses(seed):
    """Each rotation shape, each normalization path, and the ridge."""
    rng = np.random.default_rng(seed)
    square, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    jl = rng.standard_normal((JL_DIM, DIM)) / np.sqrt(DIM)
    ridge_rotation, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    return [
        SquaredLoss(L2Ball(DIM)),
        SquaredLoss(L2Ball(DIM), rotation=square, normalization=0.5),
        SquaredLoss(L2Ball(JL_DIM), rotation=jl),
        RidgeRegularized(SquaredLoss(L2Ball(DIM), rotation=ridge_rotation),
                         lam=0.3),
    ]


def make_histogram(kind, seed):
    rng = np.random.default_rng(seed)
    weights = np.zeros(SIZE)
    cells = rng.choice(SIZE, size=SUPPORTS[kind], replace=False)
    weights[cells] = rng.uniform(0.1, 5.0, size=cells.size)
    return Histogram(UNIVERSE, weights)


def split(loss):
    """``(squared part, ridge lam)``."""
    if isinstance(loss, RidgeRegularized):
        return loss.base, loss.lam
    return loss, 0.0


def features(squared):
    if squared.rotation is None:
        return UNIVERSE.points
    return UNIVERSE.points @ squared.rotation.T


def dense_loss_on(loss, theta, histogram):
    squared, lam = split(loss)
    residuals = features(squared) @ theta - UNIVERSE.labels
    value = histogram.weights @ (squared.normalization
                                 * residuals * residuals)
    return float(value) + 0.5 * lam * float(theta @ theta)


def dense_minimizer(loss, histogram):
    squared, lam = split(loss)
    rotated, weights = features(squared), histogram.weights
    second = (rotated * weights[:, None]).T @ rotated
    cross = rotated.T @ (weights * UNIVERSE.labels)
    c = squared.normalization
    quadratic = 2.0 * c * second + lam * np.eye(loss.domain.dim)
    theta = minimize_quadratic_over_ball(quadratic, -2.0 * c * cross,
                                         loss.domain)
    return theta, dense_loss_on(loss, theta, histogram)


def unique_minimizer(loss, kind):
    """A squared loss on fewer support points than dimensions has a flat
    valley of minimizers; only the value is pinned there."""
    _, lam = split(loss)
    return lam > 0.0 or SUPPORTS[kind] >= loss.domain.dim


class TestMomentForm:
    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_loss_on_matches_dense_sum(self, kind, seed):
        histogram = make_histogram(kind, seed)
        rng = np.random.default_rng(seed + 1)
        for loss in make_losses(seed):
            for _ in range(3):
                theta = loss.domain.project(
                    rng.standard_normal(loss.domain.dim))
                np.testing.assert_allclose(
                    loss.loss_on(theta, histogram),
                    dense_loss_on(loss, theta, histogram),
                    rtol=RTOL, atol=ATOL)

    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_minimize_loss_matches_dense_closed_form(self, kind, seed):
        histogram = make_histogram(kind, seed)
        for loss in make_losses(seed):
            result = minimize_loss(loss, histogram)
            theta, value = dense_minimizer(loss, histogram)
            assert result.exact
            np.testing.assert_allclose(result.value, value,
                                       rtol=RTOL, atol=ATOL)
            if unique_minimizer(loss, kind):
                np.testing.assert_allclose(result.theta, theta,
                                           rtol=RTOL, atol=ATOL)
