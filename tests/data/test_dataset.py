"""Tests for Dataset and the adjacency relation."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.universe import Universe
from repro.exceptions import UniverseError, ValidationError


@pytest.fixture
def universe():
    return Universe(np.arange(4, dtype=float)[:, None])


class TestConstruction:
    def test_basic(self, universe):
        dataset = Dataset(universe, np.array([0, 1, 2, 3, 0]))
        assert dataset.n == 5
        assert len(dataset) == 5

    def test_from_indices_iterable(self, universe):
        dataset = Dataset.from_indices(universe, [0, 0, 1])
        assert dataset.n == 3

    def test_rejects_out_of_range(self, universe):
        with pytest.raises(UniverseError, match="indices must lie"):
            Dataset(universe, np.array([0, 4]))

    def test_rejects_negative(self, universe):
        with pytest.raises(UniverseError):
            Dataset(universe, np.array([-1, 0]))

    def test_rejects_empty(self, universe):
        with pytest.raises(ValidationError, match="at least one row"):
            Dataset(universe, np.array([], dtype=int))

    def test_rejects_non_integral(self, universe):
        with pytest.raises(ValidationError, match="integers"):
            Dataset(universe, np.array([0.5, 1.0]))

    def test_accepts_integral_floats(self, universe):
        dataset = Dataset(universe, np.array([0.0, 1.0]))
        assert dataset.indices.dtype == np.int64

    def test_indices_read_only(self, universe):
        dataset = Dataset(universe, np.array([0, 1]))
        with pytest.raises(ValueError):
            dataset.indices[0] = 2

    def test_uniform_random(self, universe):
        dataset = Dataset.uniform_random(universe, 100, rng=0)
        assert dataset.n == 100


class TestViews:
    def test_points_view(self, universe):
        dataset = Dataset(universe, np.array([2, 0]))
        np.testing.assert_array_equal(dataset.points, [[2.0], [0.0]])

    def test_labels_none_when_unlabeled(self, universe):
        assert Dataset(universe, np.array([0])).labels is None

    def test_labels_when_labeled(self):
        universe = Universe(np.zeros((3, 1)), labels=np.array([5.0, 6.0, 7.0]))
        dataset = Dataset(universe, np.array([2, 0, 2]))
        np.testing.assert_array_equal(dataset.labels, [7.0, 5.0, 7.0])


class TestHistogram:
    def test_histogram_counts(self, universe):
        dataset = Dataset(universe, np.array([0, 0, 1, 3]))
        hist = dataset.histogram()
        np.testing.assert_allclose(hist.weights, [0.5, 0.25, 0.0, 0.25])

    def test_histogram_sums_to_one(self, universe):
        dataset = Dataset.uniform_random(universe, 57, rng=1)
        assert dataset.histogram().weights.sum() == pytest.approx(1.0)

    def test_histogram_is_one_read_only_object(self, universe):
        dataset = Dataset(universe, np.array([0, 0, 1, 3]))
        histogram = dataset.histogram()
        assert dataset.histogram() is histogram
        with pytest.raises(ValueError):
            histogram.weights[0] = 1.0
        # An adjacent dataset is a new dataset with its own histogram.
        neighbor = dataset.replace_row(0, 2)
        assert neighbor.histogram() is not histogram
        np.testing.assert_allclose(neighbor.histogram().weights,
                                   [0.25, 0.25, 0.25, 0.25])


class TestDigest:
    def test_memoized_and_order_free(self, universe):
        dataset = Dataset(universe, np.array([3, 0, 1, 0]))
        digest = dataset.digest()
        assert dataset.digest() is digest
        assert Dataset(universe, np.array([0, 0, 1, 3])).digest() == digest
        assert Dataset(universe, np.array([0, 1, 1, 3])).digest() != digest


class TestAdjacency:
    def test_replace_row(self, universe):
        dataset = Dataset(universe, np.array([0, 1, 2]))
        neighbor = dataset.replace_row(1, 3)
        assert neighbor.indices[1] == 3
        assert dataset.indices[1] == 1  # original untouched

    def test_replace_row_is_adjacent(self, universe):
        dataset = Dataset(universe, np.array([0, 1, 2]))
        assert dataset.is_adjacent(dataset.replace_row(0, 3))

    def test_self_adjacent(self, universe):
        dataset = Dataset(universe, np.array([0, 1]))
        assert dataset.is_adjacent(dataset)

    def test_two_changes_not_adjacent(self, universe):
        dataset = Dataset(universe, np.array([0, 1, 2]))
        other = dataset.replace_row(0, 3).replace_row(1, 3)
        assert not dataset.is_adjacent(other)

    def test_different_sizes_not_adjacent(self, universe):
        a = Dataset(universe, np.array([0, 1]))
        b = Dataset(universe, np.array([0, 1, 2]))
        assert not a.is_adjacent(b)

    def test_histogram_l1_bound(self, universe):
        # D ~ D' implies ||hist(D) - hist(D')||_1 <= 2/n.
        dataset = Dataset(universe, np.array([0, 1, 2, 3, 0, 1]))
        neighbor = dataset.replace_row(2, 0)
        l1 = dataset.histogram().l1_distance(neighbor.histogram())
        assert l1 <= 2.0 / dataset.n + 1e-12

    def test_random_neighbor_adjacent(self, universe):
        dataset = Dataset(universe, np.array([0, 1, 2, 3]))
        for seed in range(5):
            assert dataset.is_adjacent(dataset.random_neighbor(rng=seed))

    def test_replace_row_bounds(self, universe):
        dataset = Dataset(universe, np.array([0, 1]))
        with pytest.raises(ValidationError):
            dataset.replace_row(5, 0)
