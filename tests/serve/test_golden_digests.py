"""Golden values of the durable digests.

Query fingerprints and dataset digests are keys in ledgers, checkpoints
and snapshots written by earlier builds, so their values must never
change by accident. Each digest below was computed once and committed;
a change to the hashing that alters any of them breaks every stored
journal and must be a deliberate, versioned format change instead.
"""

import numpy as np

from repro.data.dataset import Dataset
from repro.data.universe import Universe
from repro.losses.fingerprint import fingerprint_of
from repro.losses.linear import LinearQuery, LinearQueryAsCM
from repro.losses.logistic import LogisticLoss
from repro.losses.quadratic import QuadraticLoss, RidgeRegularized
from repro.losses.squared import SquaredLoss
from repro.optimize.projections import L2Ball

ROTATION = np.array([[0.0, 1.0, 0.0], [0.6, 0.0, -0.8], [0.8, 0.0, 0.6]])
TABLE = np.array([0.0, 0.25, 0.5, 1.0, 0.75])


def squared():
    return SquaredLoss(L2Ball(3), rotation=ROTATION, normalization=0.5)


def small_dataset():
    universe = Universe(points=np.array([[0.0, 1.0], [0.5, -0.5],
                                         [-1.0, 0.25], [0.125, 0.0],
                                         [1.0, 1.0]]),
                        labels=np.array([1.0, -1.0, 0.5, 0.0, -0.25]))
    return Dataset(universe, np.array([4, 0, 2, 2, 1, 0, 4]))


class TestQueryFingerprints:
    def test_rotated_squared_loss(self):
        assert squared().fingerprint() == (
            "1d9c5f45b608ff25b29008ee71e4fb219d4e3041fb068983eef8275a1341d00f")

    def test_linear_query(self):
        assert LinearQuery(TABLE).fingerprint() == (
            "19cb54b80104afe67d8cc1fb00671565f701100e5f9a6fa4d0e1be4bdb2ce930")

    def test_linear_query_as_cm(self):
        assert LinearQueryAsCM(LinearQuery(TABLE)).fingerprint() == (
            "10763741869a930be32b8a39ad7b7e6a4ac0cf1ab86f6337406591b88228dd40")

    def test_ridge_quadratic_and_logistic(self):
        assert RidgeRegularized(squared(), lam=0.5).fingerprint() == (
            "1992b3a5f225675f32738090df5dd82a41a315682d9dbae4f60d68e1253416f9")
        assert QuadraticLoss(L2Ball(3), transform=ROTATION).fingerprint() == (
            "2e42f18978d90fb5c9393e3118b2e76049d8c09bc2e4790f1d8e388fd224e2ce")
        assert LogisticLoss(L2Ball(3), rotation=ROTATION).fingerprint() == (
            "2f8ef9b91afe0fb467aa7c2b2dfd87c55d3d42f34101771aed45d16d81c4cfc2")

    def test_zero_d_and_non_contiguous_arrays(self):
        assert fingerprint_of(np.array(1.5)) == (
            "4244878f149b5290cd2cb8af1f060ca906ba51c7a1d93fb4ed83975aeef75b5b")
        assert fingerprint_of(np.arange(12.0).reshape(3, 4)[:, ::2]) == (
            "b003d924a475c016fa2ea0fa49f7588e8ec540cf48d06f894c9759e6c9c7e279")
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        assert fingerprint_of(fortran) == (
            "5a1b26fabea2e941ef3d0d5c15cb494c01c545f64c57cb45f972679574b312a7")


class TestDatasetDigest:
    def test_small_labeled_dataset(self):
        assert small_dataset().digest() == (
            "bc6ff58fc37817dbdc059e9dfb092044d7a5813db3d5dd7143d4fd9bf4263b27")

    def test_unlabeled_dataset_over_strided_points(self):
        universe = Universe(points=np.arange(12.0).reshape(6, 2)[::2])
        dataset = Dataset(universe, np.array([2, 0, 1, 1]))
        assert dataset.digest() == (
            "73a2b51e46df1897ec99121961c09ed1a0f65057f67beebe5e4cc2a4d52bb7c3")
