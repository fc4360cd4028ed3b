"""Unit tests for the shared-memory dataset export/attach pair.

Ownership-under-crash behavior lives in ``tests/chaos/test_shm_leaks``;
here we pin the value contract: an attached dataset is *bitwise* the
exported one (same digest, same frozen histogram, zero-copy read-only
views), close is idempotent, stale segment names are reclaimed, and the
manifest format is versioned.
"""

import os

import numpy as np
import pytest

from repro.data.builders import signed_cube
from repro.data.dataset import Dataset
from repro.data.shm import (
    SHM_FORMAT,
    SharedDatasetExport,
    attach_datasets,
    segment_name,
)
from repro.core.pmw_linear import PrivateMWLinear
from repro.data.synthetic import make_classification_dataset
from repro.engine import batch_answers, batch_data_minima
from repro.exceptions import ValidationError
from repro.losses.families import (
    random_linear_queries,
    random_logistic_family,
    random_squared_family,
)
from repro.losses.quadratic import RidgeRegularized
from repro.optimize.minimize import minimize_loss


@pytest.fixture
def dataset():
    universe = signed_cube(3)
    rng = np.random.default_rng(7)
    indices = rng.integers(0, universe.size, size=120)
    return Dataset(universe, indices)


@pytest.fixture
def export(dataset):
    handle = SharedDatasetExport(dataset, owner_pid=os.getpid(),
                                 tag="test_shm")
    yield handle
    handle.close()


class TestRoundTrip:
    def test_attached_dataset_is_bitwise_the_original(self, dataset,
                                                      export):
        attached = attach_datasets(export.manifest)["default"]
        assert np.array_equal(attached.indices, dataset.indices)
        assert np.array_equal(attached.universe.points,
                              dataset.universe.points)
        # The ledger/checkpoint compatibility check sees no difference.
        assert attached.digest() == dataset.digest()

    def test_frozen_histogram_is_preattached_and_equal(self, dataset,
                                                       export):
        attached = attach_datasets(export.manifest)["default"]
        assert np.array_equal(attached.histogram().weights,
                              dataset.histogram().weights)
        # Same object on repeated calls: no bincount on the worker.
        assert attached.histogram() is attached.histogram()

    def test_views_are_read_only(self, export):
        attached = attach_datasets(export.manifest)["default"]
        with pytest.raises((ValueError, RuntimeError)):
            attached.indices[0] = 0
        with pytest.raises((ValueError, RuntimeError)):
            attached.histogram().weights[0] = 1.0

    def test_labeled_universe_round_trips(self):
        universe = signed_cube(2)
        labeled = type(universe)(points=universe.points,
                                 labels=np.arange(universe.size) % 2,
                                 name=universe.name)
        dataset = Dataset(labeled, np.array([0, 1, 2, 3]))
        handle = SharedDatasetExport(dataset, owner_pid=os.getpid(),
                                     tag="test_shm_labels")
        try:
            attached = attach_datasets(handle.manifest)["default"]
            assert np.array_equal(attached.universe.labels,
                                  labeled.labels)
        finally:
            handle.close()

    def test_multiple_datasets_share_one_segment(self, dataset):
        other = Dataset(dataset.universe, dataset.indices[:50])
        handle = SharedDatasetExport({"a": dataset, "b": other},
                                     owner_pid=os.getpid(),
                                     tag="test_shm_multi")
        try:
            attached = attach_datasets(handle.manifest)
            assert set(attached) == {"a", "b"}
            assert attached["a"].digest() == dataset.digest()
            assert attached["b"].digest() == other.digest()
        finally:
            handle.close()


class TestSupportTwin:
    """Shard workers evaluate on the attached histogram's support view;
    it must be built from the same ``weights > 0`` as the in-process
    one, so every data-side quantity is bitwise its twin's."""

    @pytest.fixture
    def sparse(self):
        universe = make_classification_dataset(
            n=100, d=3, universe_size=60, rng=5).universe
        rng = np.random.default_rng(11)
        return Dataset(universe, rng.choice(12, size=500))

    def test_data_side_quantities_are_bitwise_equal(self, sparse):
        handle = SharedDatasetExport(sparse, owner_pid=os.getpid(),
                                     tag="test_shm_support")
        try:
            attached = attach_datasets(handle.manifest)["default"]
            local, shared = sparse.histogram(), attached.histogram()
            assert shared.support_view() is not None
            assert np.array_equal(shared.support_view().indices,
                                  local.support_view().indices)
            losses = (random_squared_family(sparse.universe, 3, rng=1)
                      + random_logistic_family(sparse.universe, 2, rng=2))
            theta = np.array([0.3, -0.2, 0.1])
            for loss in losses:
                assert np.array_equal(loss.gradient_on(theta, shared),
                                      loss.gradient_on(theta, local))
                assert loss.loss_on(theta, shared) == \
                    loss.loss_on(theta, local)
                ours = minimize_loss(loss, shared, steps=60)
                theirs = minimize_loss(loss, local, steps=60)
                assert np.array_equal(ours.theta, theirs.theta)
                assert ours.value == theirs.value
            for ours, theirs in zip(
                    batch_data_minima(losses, shared, solver_steps=60),
                    batch_data_minima(losses, local, solver_steps=60)):
                assert np.array_equal(ours.theta, theirs.theta)
                assert ours.value == theirs.value
        finally:
            handle.close()

    def test_moment_memo_and_minimizers_are_bitwise_equal(self, sparse):
        """Squared losses read the support view's memoized moments; the
        attached histogram computes them with the same code, so they and
        every closed-form answer are bitwise the in-process twin's."""
        handle = SharedDatasetExport(sparse, owner_pid=os.getpid(),
                                     tag="test_shm_moments")
        try:
            attached = attach_datasets(handle.manifest)["default"]
            local, shared = sparse.histogram(), attached.histogram()
            for ours, theirs in zip(
                    shared.support_view().histogram.sufficient_statistics(),
                    local.support_view().histogram.sufficient_statistics()):
                assert np.array_equal(ours, theirs)
            squared = random_squared_family(sparse.universe, 3, rng=4)
            losses = squared + [RidgeRegularized(squared[0], lam=0.2)]
            theta = np.array([0.3, -0.2, 0.1])
            for loss in losses:
                assert loss.loss_on(theta, shared) == \
                    loss.loss_on(theta, local)
                ours = minimize_loss(loss, shared)
                theirs = minimize_loss(loss, local)
                assert ours.exact and theirs.exact
                assert np.array_equal(ours.theta, theirs.theta)
                assert ours.value == theirs.value
            for ours, theirs in zip(batch_data_minima(losses, shared),
                                    batch_data_minima(losses, local)):
                assert np.array_equal(ours.theta, theirs.theta)
                assert ours.value == theirs.value
        finally:
            handle.close()


    def test_linear_answers_are_bitwise_equal(self, sparse):
        """Linear answers read the support view too, so the attached
        histogram answers every linear query, batched or scalar, and
        drives PMW-linear exactly as its in-process twin."""
        handle = SharedDatasetExport(sparse, owner_pid=os.getpid(),
                                     tag="test_shm_linear")
        try:
            attached = attach_datasets(handle.manifest)["default"]
            local, shared = sparse.histogram(), attached.histogram()
            queries = random_linear_queries(sparse.universe, 6, rng=3)
            for query in queries:
                assert query.answer(shared) == query.answer(local)
            assert np.array_equal(batch_answers(queries, shared),
                                  batch_answers(queries, local))
            params = dict(alpha=0.2, epsilon=1.5, delta=1e-6,
                          max_updates=6, noise_multiplier=0.0)
            streams = []
            for dataset in (attached, sparse):
                scalar = PrivateMWLinear(dataset, rng=9, **params)
                scalar.prewarm(queries[:3])
                answers = [scalar.answer(query) for query in queries]
                batched = PrivateMWLinear(dataset, rng=9, **params)
                answers += batched.answer_all(queries)
                streams.append([(answer.value, answer.from_update)
                                for answer in answers])
            assert streams[0] == streams[1]
            assert any(update for _, update in streams[0])
        finally:
            handle.close()


class TestLifecycle:
    def test_close_is_idempotent_and_unlinks(self, dataset):
        handle = SharedDatasetExport(dataset, owner_pid=os.getpid(),
                                     tag="test_shm_close")
        assert os.path.exists(f"/dev/shm/{handle.name}")
        handle.close()
        assert not os.path.exists(f"/dev/shm/{handle.name}")
        handle.close()  # second close must be a silent no-op

    def test_stale_segment_name_is_reclaimed(self, dataset):
        # A predecessor that died without close leaves its name behind;
        # a new export under the same pid+tag must reclaim, not fail.
        first = SharedDatasetExport(dataset, owner_pid=os.getpid(),
                                    tag="test_shm_stale")
        try:
            second = SharedDatasetExport(dataset, owner_pid=os.getpid(),
                                         tag="test_shm_stale")
            try:
                attached = attach_datasets(second.manifest)["default"]
                assert attached.digest() == dataset.digest()
            finally:
                second.close()
        finally:
            first.close()

    def test_segment_names_are_attributable(self, dataset, export):
        assert export.name == segment_name(os.getpid(), "test_shm")
        assert str(os.getpid()) in export.name


class TestValidation:
    def test_empty_dataset_map_is_refused(self):
        with pytest.raises(ValidationError):
            SharedDatasetExport({}, owner_pid=os.getpid(), tag="empty")

    def test_foreign_manifest_format_is_refused(self, export):
        manifest = dict(export.manifest)
        manifest["format"] = SHM_FORMAT + "-from-the-future"
        with pytest.raises(ValidationError):
            attach_datasets(manifest)
