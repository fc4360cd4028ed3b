"""Property tests: the compact-support path agrees with the dense path.

Pointwise losses evaluate dataset quantities on the cells of the
histogram that carry mass (``Histogram.support_view``). Dropping the
zero-weight terms only reassociates the float64 sums, so the tolerance
is fixed from that alone: ``rtol=1e-12, atol=1e-14``. Supports are drawn
at the boundaries of the rule "compact view iff at most half of the
universe carries mass": one element, exactly half, just over half, and
dense.

The dense references live here. ``loss_on`` and ``gradient_on`` are
checked against the universe-wide sums written out below; solvers are
checked against a *dense twin* of the loss — a subclass that does not
declare ``pointwise``, which therefore keeps the universe-wide path
(the rule every user subclass gets).
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.histogram import Histogram
from repro.data.synthetic import make_classification_dataset
from repro.engine import batch_data_minima
from repro.losses.families import random_linear_queries
from repro.losses.hinge import HingeLoss, HuberLoss
from repro.losses.linear import LinearQueryAsCM
from repro.losses.logistic import LogisticLoss
from repro.losses.quadratic import QuadraticLoss, RidgeRegularized
from repro.losses.squared import SquaredLoss
from repro.optimize.minimize import minimize_loss
from repro.optimize.projections import L2Ball

RTOL, ATOL = 1e-12, 1e-14

TASK = make_classification_dataset(n=500, d=3, universe_size=40, rng=3)
UNIVERSE = TASK.universe
SIZE, DIM = UNIVERSE.size, UNIVERSE.dim

#: Support sizes at the edges of the compact-view rule.
SUPPORTS = {"one": 1, "half": SIZE // 2, "over-half": SIZE // 2 + 1,
            "dense": SIZE}

seeds = st.integers(min_value=0, max_value=2**20)
support_kinds = st.sampled_from(sorted(SUPPORTS))


def _rotation(rng):
    q_matrix, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    return q_matrix


def make_losses(seed):
    """One loss of every pointwise family, with random parameters."""
    rng = np.random.default_rng(seed)
    domain = L2Ball(DIM)
    return [
        SquaredLoss(domain, rotation=_rotation(rng)),
        LogisticLoss(domain, rotation=_rotation(rng)),
        HingeLoss(domain, rotation=_rotation(rng)),
        HuberLoss(domain, delta=0.5, rotation=_rotation(rng)),
        QuadraticLoss(domain, transform=_rotation(rng)),
        RidgeRegularized(SquaredLoss(domain, rotation=_rotation(rng)),
                         lam=0.3),
    ]


def make_histogram(kind, seed):
    rng = np.random.default_rng(seed)
    weights = np.zeros(SIZE)
    cells = rng.choice(SIZE, size=SUPPORTS[kind], replace=False)
    weights[cells] = rng.uniform(0.1, 5.0, size=cells.size)
    return Histogram(UNIVERSE, weights)


def dense_loss_on(loss, theta, histogram):
    return float(np.dot(loss.values(theta, histogram.universe),
                        histogram.weights))


def dense_gradient_on(loss, theta, histogram):
    return loss.gradients(theta, histogram.universe).T @ histogram.weights


def dense_twin(loss):
    """The same loss as an instance of an undeclared subclass."""
    twin = copy.copy(loss)
    twin.__class__ = type(f"Dense{type(loss).__name__}", (type(loss),), {})
    assert not twin.pointwise
    return twin


def unique_minimizer(loss, kind):
    """Whether ``argmin l_D`` is a single point. A squared loss on fewer
    support points than dimensions has a flat valley of minimizers; the
    closed form may return any of them, so only the value is pinned."""
    return not (isinstance(loss, SquaredLoss) and SUPPORTS[kind] < DIM)


def assert_same_minimum(result, reference, loss, kind):
    np.testing.assert_allclose(result.value, reference.value,
                               rtol=RTOL, atol=ATOL)
    if unique_minimizer(loss, kind):
        np.testing.assert_allclose(result.theta, reference.theta,
                                   rtol=RTOL, atol=ATOL)
    assert result.exact == reference.exact


class TestSupportRule:
    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_view_exactly_when_at_most_half_carries_mass(self, kind, seed):
        histogram = make_histogram(kind, seed)
        view = histogram.support_view()
        if 2 * SUPPORTS[kind] > SIZE:
            assert view is None
            return
        positive = np.flatnonzero(histogram.weights > 0.0)
        np.testing.assert_array_equal(view.indices, positive)
        np.testing.assert_array_equal(view.histogram.weights,
                                      histogram.weights[positive])
        np.testing.assert_array_equal(view.histogram.universe.points,
                                      UNIVERSE.points[positive])
        np.testing.assert_array_equal(view.histogram.universe.labels,
                                      UNIVERSE.labels[positive])


class TestPointwiseLosses:
    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_loss_and_gradient_match_dense_sums(self, kind, seed):
        histogram = make_histogram(kind, seed)
        rng = np.random.default_rng(seed + 1)
        for loss in make_losses(seed):
            theta = loss.domain.project(rng.standard_normal(DIM))
            np.testing.assert_allclose(
                loss.loss_on(theta, histogram),
                dense_loss_on(loss, theta, histogram), rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(
                loss.gradient_on(theta, histogram),
                dense_gradient_on(loss, theta, histogram),
                rtol=RTOL, atol=ATOL)

    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_minimize_loss_matches_dense_twin(self, kind, seed):
        histogram = make_histogram(kind, seed)
        for loss in make_losses(seed):
            # Closed forms (squared, quadratic, ridge) and the iterative
            # solver (logistic, hinge, Huber) alike.
            result = minimize_loss(loss, histogram, steps=150)
            reference = minimize_loss(dense_twin(loss), histogram, steps=150)
            assert_same_minimum(result, reference, loss, kind)

    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_batch_data_minima_match_dense_twin(self, kind, seed):
        histogram = make_histogram(kind, seed)
        rng = np.random.default_rng(seed)
        losses = make_losses(seed) + [
            SquaredLoss(L2Ball(DIM), rotation=_rotation(rng),
                        normalization=0.5) for _ in range(3)]
        results = batch_data_minima(losses, histogram, solver_steps=150)
        for loss, result in zip(losses, results):
            reference = minimize_loss(dense_twin(loss), histogram,
                                      steps=150)
            assert_same_minimum(result, reference, loss, kind)


class TestDensePathKept:
    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_linear_query_as_cm_is_bitwise_the_dense_formula(self, kind,
                                                              seed):
        histogram = make_histogram(kind, seed)
        loss = LinearQueryAsCM(random_linear_queries(UNIVERSE, 1,
                                                     rng=seed)[0])
        assert not loss.pointwise
        theta = np.array([np.random.default_rng(seed).random()])
        table, weights = loss.query.table, histogram.weights
        assert loss.loss_on(theta, histogram) == histogram.dot(
            0.25 * (theta[0] - table) ** 2)
        np.testing.assert_array_equal(
            loss.gradient_on(theta, histogram),
            (0.5 * (theta[0] - table)[:, None]).T @ weights)
        result = minimize_loss(loss, histogram)
        assert result.theta[0] == float(np.clip(histogram.dot(table),
                                                0.0, 1.0))

    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_undeclared_subclass_is_bitwise_the_dense_formula(self, kind,
                                                               seed):
        histogram = make_histogram(kind, seed)
        loss = dense_twin(make_losses(seed)[1])
        theta = np.full(DIM, 0.3)
        assert loss.loss_on(theta, histogram) == histogram.dot(
            loss.values(theta, UNIVERSE))
        np.testing.assert_array_equal(
            loss.gradient_on(theta, histogram),
            loss.gradients(theta, UNIVERSE).T @ histogram.weights)
