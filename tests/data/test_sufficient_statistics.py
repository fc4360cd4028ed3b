"""The squared-loss sufficient statistics a histogram memoizes.

Value agreement with the dense formulas over random supports and
rotations is the property suite's job
(``tests/property/test_moment_agreement.py``); here we pin the memo's
contract: computed once and read-only, absent without labels, never
seen half-built by racing threads, and invisible in which errors a loss
raises — including for subclasses, which must not inherit the moment
form for a link or values of their own.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.data.builders import labeled_universe, random_ball_net
from repro.data.histogram import Histogram
from repro.exceptions import LossSpecificationError
from repro.losses.quadratic import RidgeRegularized
from repro.losses.squared import SquaredLoss
from repro.optimize.exact import minimize_quadratic_over_ball
from repro.optimize.minimize import minimize_loss
from repro.optimize.projections import L2Ball

RTOL, ATOL = 1e-12, 1e-14


@pytest.fixture(scope="module")
def universe():
    return labeled_universe(random_ball_net(4, 1500, rng=3), (-1.0, 1.0))


@pytest.fixture(scope="module")
def unlabeled():
    return random_ball_net(4, 60, rng=4)


def random_weights(size, seed=0):
    return np.random.default_rng(seed).uniform(0.5, 2.0, size=size)


def dense_loss_on(loss, theta, histogram):
    """``sum_x D(x) c (<theta, R x> - y)^2``, written out."""
    universe = histogram.universe
    features = universe.points @ loss.rotation.T
    residuals = features @ theta - universe.labels
    return float(histogram.weights
                 @ (loss.normalization * residuals * residuals))


def dense_minimizer(loss, histogram):
    universe = histogram.universe
    features = universe.points @ loss.rotation.T
    weights = histogram.weights
    second = (features * weights[:, None]).T @ features
    cross = features.T @ (weights * universe.labels)
    c = loss.normalization
    return minimize_quadratic_over_ball(2.0 * c * second, -2.0 * c * cross,
                                        loss.domain)


class TestMemo:
    def test_computed_once_and_read_only(self, universe):
        histogram = Histogram(universe, random_weights(universe.size))
        statistics = histogram.sufficient_statistics()
        assert histogram.sufficient_statistics() is statistics
        assert statistics.second.shape == (4, 4)
        assert statistics.cross.shape == (4,)
        for array in (statistics.second, statistics.cross):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_unlabeled_universe_has_none(self, unlabeled):
        histogram = Histogram.uniform(unlabeled)
        assert histogram.sufficient_statistics() is None
        assert histogram.sufficient_statistics() is None  # remembered

    def test_support_view_keeps_its_own(self, universe):
        weights = np.zeros(universe.size)
        weights[:40] = 1.0
        histogram = Histogram(universe, weights)
        view = histogram.support_view().histogram
        assert view.sufficient_statistics() is not \
            histogram.sufficient_statistics()
        for ours, theirs in zip(view.sufficient_statistics(),
                                histogram.sufficient_statistics()):
            np.testing.assert_allclose(ours, theirs, rtol=RTOL, atol=ATOL)


class TestConcurrentBuild:
    def test_racing_threads_all_get_the_dense_reference(self, universe):
        """More threads than cores, the GIL switching every microsecond,
        all evaluating and minimizing on one fresh histogram per round:
        the memo may be computed more than once, but every thread's
        result must equal the dense formulas."""
        threads = 2 * (os.cpu_count() or 1) + 2
        rng = np.random.default_rng(2)
        rotation, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        loss = SquaredLoss(L2Ball(4), rotation=rotation)
        theta = np.full(4, 0.25)
        weights = random_weights(universe.size, seed=1)
        dense = Histogram(universe, weights)
        reference = (dense_loss_on(loss, theta, dense),
                     dense_minimizer(loss, dense))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.5
            rounds = 0
            while rounds < 3 or (time.monotonic() < deadline
                                 and rounds < 100):
                histogram = Histogram(universe, weights)
                barrier = threading.Barrier(threads)
                results: list = [None] * threads

                def evaluate(slot, histogram=histogram, barrier=barrier,
                             results=results):
                    # Repeated calls overlap other threads' first builds.
                    barrier.wait()
                    try:
                        results[slot] = [
                            (loss.loss_on(theta, histogram),
                             loss.exact_minimizer(histogram))
                            for _ in range(4)]
                    except BaseException as exc:  # noqa: BLE001
                        results[slot] = exc

                workers = [threading.Thread(target=evaluate, args=(slot,))
                           for slot in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                    assert not worker.is_alive()
                for result in results:
                    assert isinstance(result, list), result
                    for value, minimizer in result:
                        np.testing.assert_allclose(value, reference[0],
                                                   rtol=RTOL, atol=ATOL)
                        np.testing.assert_allclose(minimizer, reference[1],
                                                   rtol=RTOL, atol=ATOL)
                rounds += 1
        finally:
            sys.setswitchinterval(interval)


class TestErrorParity:
    """The moment form raises exactly what the per-element path did."""

    def test_unlabeled_universe(self, unlabeled):
        histogram = Histogram.uniform(unlabeled)
        for loss in (SquaredLoss(L2Ball(4)),
                     RidgeRegularized(SquaredLoss(L2Ball(4)), lam=0.5)):
            assert loss.exact_minimizer(histogram) is None
            with pytest.raises(LossSpecificationError, match="label"):
                loss.loss_on(np.zeros(4), histogram)

    def test_wrong_dimension(self, universe):
        histogram = Histogram(universe, random_weights(universe.size))
        for loss in (SquaredLoss(L2Ball(3)),
                     SquaredLoss(L2Ball(2), rotation=np.ones((2, 3))),
                     RidgeRegularized(SquaredLoss(L2Ball(3)), lam=0.5)):
            dim = loss.domain.dim
            with pytest.raises(LossSpecificationError,
                               match="incompatible"):
                loss.loss_on(np.zeros(dim), histogram)
            with pytest.raises(LossSpecificationError,
                               match="incompatible"):
                loss.exact_minimizer(histogram)

    def test_subclass_with_own_link_or_values_keeps_its_math(self,
                                                             universe):
        class AbsoluteLink(SquaredLoss):
            def link(self, margins, labels):
                return self.normalization * np.abs(margins - labels)

        class ShiftedValues(SquaredLoss):
            def values(self, theta, universe):
                return super().values(theta, universe) + 1.0

        class Renamed(SquaredLoss):
            pass

        assert SquaredLoss.moment_form and Renamed.moment_form
        histogram = Histogram(universe, random_weights(universe.size))
        theta = np.full(4, 0.2)
        for cls in (AbsoluteLink, ShiftedValues):
            loss = cls(L2Ball(4))
            assert not loss.moment_form
            assert loss.moments(histogram) is None
            assert loss.exact_minimizer(histogram) is None
            assert loss.loss_on(theta, histogram) == histogram.dot(
                loss.values(theta, universe))
            # the iterative solver, on the subclass's own objective
            assert not minimize_loss(loss, histogram, steps=20).exact
        renamed = Renamed(L2Ball(4))
        assert minimize_loss(renamed, histogram).exact
        np.testing.assert_allclose(
            renamed.loss_on(theta, histogram),
            histogram.dot(renamed.values(theta, universe)),
            rtol=RTOL, atol=ATOL)
