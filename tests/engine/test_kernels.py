"""Unit tests for the engine's per-family kernels."""

import numpy as np
import pytest

from repro.data import make_classification_dataset
from repro.engine import kernels
from repro.exceptions import ValidationError
from repro.losses.families import (
    random_linear_queries,
    random_logistic_family,
)
from repro.losses.linear import LinearQuery


@pytest.fixture(scope="module")
def task():
    return make_classification_dataset(n=1_000, d=3, universe_size=80, rng=0)


@pytest.fixture(scope="module")
def histogram(task):
    return task.dataset.histogram()


class TestStackTables:
    def test_stacks_rows_in_order(self, task):
        queries = random_linear_queries(task.universe, 5, rng=1)
        stacked = kernels.stack_tables(queries)
        assert stacked.shape == (5, task.universe.size)
        for row, query in zip(stacked, queries):
            np.testing.assert_array_equal(row, query.table)

    def test_empty_batch(self):
        assert kernels.stack_tables([]).shape == (0, 0)

    def test_size_mismatch_rejected(self, task):
        short = LinearQuery(np.ones(3))
        full = LinearQuery(np.ones(task.universe.size))
        with pytest.raises(ValidationError, match="universe size"):
            kernels.stack_tables([full, short])

    def test_zero_copy_for_shared_readonly_matrix_rows(self):
        matrix = np.random.default_rng(2).random((6, 40))
        matrix.setflags(write=False)  # frozen: queries may alias rows
        queries = [LinearQuery(matrix[j]) for j in range(6)]
        stacked = kernels.stack_tables(queries)
        # same memory, not a copy
        assert (stacked.__array_interface__["data"][0]
                == matrix.__array_interface__["data"][0])
        np.testing.assert_array_equal(stacked, matrix)

    def test_writable_matrix_rows_are_copied(self):
        # Regression: aliasing a *writable* buffer would let callers
        # mutate a validated query (and stale its memoized fingerprint).
        matrix = np.full((3, 40), 0.5)
        queries = [LinearQuery(matrix[j]) for j in range(3)]
        fingerprints = [query.fingerprint() for query in queries]
        matrix[:] = 1.0
        for query, fingerprint in zip(queries, fingerprints):
            np.testing.assert_array_equal(query.table, 0.5)
            assert query.fingerprint() == fingerprint
        stacked = kernels.stack_tables(queries)
        assert (stacked.__array_interface__["data"][0]
                != matrix.__array_interface__["data"][0])

    def test_frozen_view_of_writable_base_is_copied(self):
        # Regression: a read-only *view* is not enough — the base that
        # owns the memory must be frozen, or the caller can still mutate
        # the table through it.
        matrix = np.full((2, 40), 0.5)
        row = matrix[0]
        row.setflags(write=False)
        query = LinearQuery(row)
        matrix[0] = 1.0
        np.testing.assert_array_equal(query.table, 0.5)

    def test_copies_when_rows_reordered(self):
        matrix = np.random.default_rng(3).random((4, 40))
        matrix.setflags(write=False)
        queries = [LinearQuery(matrix[j]) for j in (1, 0, 2, 3)]
        stacked = kernels.stack_tables(queries)
        assert (stacked.__array_interface__["data"][0]
                != matrix.__array_interface__["data"][0])
        np.testing.assert_array_equal(stacked[0], matrix[1])

    def test_copies_for_independent_tables(self, task):
        queries = random_linear_queries(task.universe, 3, rng=4)
        stacked = kernels.stack_tables(queries)
        assert stacked.base is None or stacked.base.ndim != 2


class TestLinearAnswers:
    def test_matches_per_query_dots(self, task, histogram):
        queries = random_linear_queries(task.universe, 7, rng=5)
        stacked = kernels.stack_tables(queries)
        batched = kernels.linear_answers(stacked, histogram)
        scalar = [histogram.dot(query.table) for query in queries]
        np.testing.assert_allclose(batched, scalar, atol=1e-12)

    def test_shape_mismatch_rejected(self, histogram):
        with pytest.raises(ValidationError, match="columns"):
            kernels.linear_answers(np.ones((2, 3)), histogram)


class TestGLMKernels:
    def test_parameter_matrix_applies_rotations(self, task):
        losses = random_logistic_family(task.universe, 4, rng=6)
        thetas = [np.full(task.universe.dim, 0.1 * (j + 1))
                  for j in range(4)]
        parameters = kernels.glm_parameter_matrix(losses, thetas)
        assert parameters.shape == (task.universe.dim, 4)
        for j, (loss, theta) in enumerate(zip(losses, thetas)):
            np.testing.assert_allclose(parameters[:, j],
                                       loss.rotation.T @ theta)

    def test_margin_matrix_matches_per_loss_margins(self, task):
        losses = random_logistic_family(task.universe, 3, rng=7)
        thetas = [np.full(task.universe.dim, 0.2)] * 3
        parameters = kernels.glm_parameter_matrix(losses, thetas)
        margins = kernels.glm_margin_matrix(task.universe.points, parameters)
        for j, loss in enumerate(losses):
            features = task.universe.points @ loss.rotation.T
            np.testing.assert_allclose(margins[:, j], features @ thetas[j],
                                       atol=1e-12)

    def test_margin_matrix_dim_mismatch(self, task):
        with pytest.raises(ValidationError, match="dim"):
            kernels.glm_margin_matrix(task.universe.points,
                                      np.ones((task.universe.dim + 1, 2)))


class TestMoments:
    """The squared-family moments, memoized per histogram
    (``Histogram.sufficient_statistics``) through its backend's kernels."""

    def test_second_moment(self, task, histogram):
        moment = histogram.sufficient_statistics().second
        expected = np.einsum("i,ij,ik->jk", histogram.weights,
                             task.universe.points, task.universe.points)
        np.testing.assert_allclose(moment, expected, atol=1e-12)

    def test_cross_moment(self, task, histogram):
        labels = task.universe.labels
        moment = histogram.sufficient_statistics().cross
        expected = np.einsum("i,i,ij->j", histogram.weights, labels,
                             task.universe.points)
        np.testing.assert_allclose(moment, expected, atol=1e-12)
