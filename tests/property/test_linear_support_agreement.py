"""Property tests: linear answers on a data histogram's support agree with
the dense path.

``Histogram.dot``, the engine's linear kernels and ``PrivateMWLinear``'s
true side read only the cells of a histogram's support view; the dense
references below read every cell. The two differ only by reassociated
float64 sums, so the tolerance is fixed from that alone: ``rtol=1e-12,
atol=1e-14``. Supports are drawn at the edges of the compact-view rule:
one cell, exactly half of the universe, and half plus one, where no view
is offered and the dot must stay bitwise the dense one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pmw_linear import PrivateMWLinear
from repro.data.builders import interval_grid
from repro.data.dataset import Dataset
from repro.data.histogram import Histogram
from repro.engine import batch_answers, batch_data_minima, batch_loss_on
from repro.losses.families import linear_queries_as_cm, random_linear_queries

RTOL, ATOL = 1e-12, 1e-14

SIZE = 64
UNIVERSE = interval_grid(SIZE)
SUPPORTS = {"one": 1, "half": SIZE // 2, "over-half": SIZE // 2 + 1}

seeds = st.integers(min_value=0, max_value=2**20)
support_kinds = st.sampled_from(sorted(SUPPORTS))


def support_cells(kind, rng):
    return rng.choice(SIZE, size=SUPPORTS[kind], replace=False)


def make_histogram(kind, seed):
    rng = np.random.default_rng(seed)
    weights = np.zeros(SIZE)
    cells = support_cells(kind, rng)
    weights[cells] = rng.uniform(0.1, 5.0, size=cells.size)
    return Histogram(UNIVERSE, weights)


def make_dataset(kind, seed):
    rng = np.random.default_rng(seed)
    cells = support_cells(kind, rng)
    counts = rng.integers(1, 40, size=cells.size)
    return Dataset(UNIVERSE, np.repeat(cells, counts))


def dense_answers(queries, histogram):
    return np.array([np.dot(query.table, histogram.weights)
                     for query in queries])


class TestHistogramDot:
    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, kind, seed):
        histogram = make_histogram(kind, seed)
        values = np.random.default_rng(seed + 1).uniform(-3.0, 3.0, SIZE)
        dense = float(np.dot(values, histogram.weights))
        ours = histogram.dot(values)
        if histogram.support_view() is None:
            assert kind == "over-half"
            assert ours == dense  # the dense path, bit for bit
        else:
            np.testing.assert_allclose(ours, dense, rtol=RTOL, atol=ATOL)

    @given(kind=st.sampled_from(["one", "half"]), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_zero_weight_cells_are_not_read(self, kind, seed):
        histogram = make_histogram(kind, seed)
        values = np.random.default_rng(seed + 2).uniform(0.0, 1.0, SIZE)
        poisoned = values.copy()
        poisoned[histogram.weights == 0.0] = np.nan
        assert histogram.dot(poisoned) == histogram.dot(values)


class TestEngineLinearKernels:
    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_batch_answers_match_dense_reference(self, kind, seed):
        histogram = make_histogram(kind, seed)
        queries = random_linear_queries(UNIVERSE, 8, rng=seed)
        np.testing.assert_allclose(batch_answers(queries, histogram),
                                   dense_answers(queries, histogram),
                                   rtol=RTOL, atol=ATOL)

    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_linear_cm_moments_match_dense_reference(self, kind, seed):
        histogram = make_histogram(kind, seed)
        queries = random_linear_queries(UNIVERSE, 5, rng=seed)
        losses = linear_queries_as_cm(queries)
        thetas = np.random.default_rng(seed + 3).uniform(0.0, 1.0, 5)
        weights = histogram.weights
        dense_values = [0.25 * np.dot((theta - query.table) ** 2, weights)
                        for theta, query in zip(thetas, queries)]
        np.testing.assert_allclose(
            batch_loss_on(losses, [np.array([t]) for t in thetas],
                          histogram),
            dense_values, rtol=RTOL, atol=ATOL)
        minima = batch_data_minima(losses, histogram)
        np.testing.assert_allclose(
            [result.theta[0] for result in minima],
            np.clip(dense_answers(queries, histogram), 0.0, 1.0),
            rtol=RTOL, atol=ATOL)


class TestMechanismTrueSides:
    """Scalar rounds, prewarmed rounds and ``answer_all`` read the true
    answers through three different paths; they must agree."""

    PARAMS = dict(alpha=0.2, epsilon=1.5, delta=1e-6, max_updates=12,
                  noise_multiplier=0.0)

    @given(kind=support_kinds, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_scalar_prewarmed_and_batched_answers_agree(self, kind, seed):
        dataset = make_dataset(kind, seed)
        data = dataset.histogram()
        queries = random_linear_queries(UNIVERSE, 10, rng=seed)
        twins = [PrivateMWLinear(dataset, rng=seed, **self.PARAMS)
                 for _ in range(3)]
        scalar, prewarmed, batched = twins

        assert prewarmed.prewarm(queries) == len(queries)
        for query, truth in zip(queries, dense_answers(queries, data)):
            np.testing.assert_allclose(
                prewarmed._true_answers[query.fingerprint()], truth,
                rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(scalar._true_answer(query), truth,
                                       rtol=RTOL, atol=ATOL)

        streams = [[scalar.answer(query) for query in queries],
                   [prewarmed.answer(query) for query in queries],
                   batched.answer_all(queries)]
        for stream in streams[1:]:
            assert ([a.from_update for a in stream]
                    == [a.from_update for a in streams[0]])
            np.testing.assert_allclose([a.value for a in stream],
                                       [a.value for a in streams[0]],
                                       rtol=RTOL, atol=ATOL)
