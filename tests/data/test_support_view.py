"""The compact support view of a histogram, and its use by losses.

Value agreement with the dense path over random supports is the
property suite's job (``tests/property/test_support_agreement.py``);
here we pin the view's contract: when it exists, that it is built once
and read-only, that dense histograms never get one, and that threads
racing to build it never see half of one.
"""

import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.data.builders import labeled_universe, random_ball_net
from repro.data.histogram import Histogram
from repro.losses.squared import SquaredLoss
from repro.optimize.projections import L2Ball

RTOL, ATOL = 1e-12, 1e-14


@pytest.fixture(scope="module")
def universe():
    return labeled_universe(random_ball_net(4, 1500, rng=3), (-1.0, 1.0))


def sparse_weights(size, cells, seed=0):
    rng = np.random.default_rng(seed)
    weights = np.zeros(size)
    weights[rng.choice(size, size=cells, replace=False)] = rng.uniform(
        0.5, 2.0, size=cells)
    return weights


class TestView:
    def test_built_once_and_read_only(self, universe):
        histogram = Histogram(universe, sparse_weights(universe.size, 40))
        view = histogram.support_view()
        assert histogram.support_view() is view
        assert view.indices.size == 40
        for array in (view.indices, view.histogram.weights,
                      view.histogram.universe.points):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_view_has_no_view_of_its_own(self, universe):
        histogram = Histogram(universe, sparse_weights(universe.size, 40))
        assert histogram.support_view().histogram.support_view() is None

    def test_dense_histograms_get_none(self, universe):
        assert Histogram.uniform(universe).support_view() is None
        over_half = sparse_weights(universe.size, universe.size // 2 + 1)
        histogram = Histogram(universe, over_half)
        assert histogram.support_view() is None
        assert histogram.support_view() is None  # the scan is remembered

    def test_survives_pickling(self, universe):
        histogram = Histogram(universe, sparse_weights(universe.size, 40))
        for built in (False, True):
            if built:
                histogram.support_view()
            restored = pickle.loads(pickle.dumps(histogram))
            np.testing.assert_array_equal(restored.support_view().indices,
                                          histogram.support_view().indices)
        dense = pickle.loads(pickle.dumps(Histogram.uniform(universe)))
        assert dense.support_view() is None


class TestConcurrentBuild:
    def test_racing_threads_all_get_the_dense_reference(self, universe):
        """More threads than cores, the GIL switching every microsecond,
        all evaluating a gradient on one fresh histogram per round: the
        view may be built more than once, but every thread's result must
        equal the universe-wide sum."""
        threads = 2 * (os.cpu_count() or 1) + 2
        loss = SquaredLoss(L2Ball(universe.dim))
        theta = np.full(universe.dim, 0.25)
        weights = sparse_weights(universe.size, universe.size // 3, seed=1)
        reference = (loss.gradients(theta, universe).T
                     @ Histogram(universe, weights).weights)
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
                        results[slot] = [loss.gradient_on(theta, histogram)
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
                    for gradient in result:
                        np.testing.assert_allclose(gradient, reference,
                                                   rtol=RTOL, atol=ATOL)
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
