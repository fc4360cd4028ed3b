"""Batch compilation, grouping, and scalar-path agreement."""

import numpy as np
import pytest

from repro.data import make_classification_dataset
from repro.engine import (
    batch_answers,
    batch_data_minima,
    batch_loss_on,
    compile_batch,
)
from repro.exceptions import ValidationError
from repro.losses.base import LossFunction
from repro.losses.families import (
    linear_queries_as_cm,
    random_hinge_family,
    random_linear_queries,
    random_logistic_family,
    random_quadratic_family,
    random_squared_family,
)
from repro.losses.hinge import HuberLoss
from repro.losses.squared import SquaredLoss
from repro.optimize.minimize import minimize_loss
from repro.optimize.projections import L2Ball


@pytest.fixture(scope="module")
def task():
    return make_classification_dataset(n=2_000, d=4, universe_size=150,
                                       rng=0)


@pytest.fixture(scope="module")
def histogram(task):
    return task.dataset.histogram()


def _thetas(losses, rng_seed=1):
    rng = np.random.default_rng(rng_seed)
    return [rng.standard_normal(loss.domain.dim) * 0.3 for loss in losses]


class TestGrouping:
    def test_families_grouped_separately(self, task):
        queries = random_linear_queries(task.universe, 2, rng=1)
        losses = (linear_queries_as_cm(queries)
                  + random_logistic_family(task.universe, 2, rng=2)
                  + random_squared_family(task.universe, 2, rng=3)
                  + random_quadratic_family(task.universe, 1, rng=4))
        batch = compile_batch(losses)
        kinds = sorted(batch.group_kinds)
        # squared losses read memoized moments per query: no margin kernel
        assert kinds == ["fallback", "glm", "linear-cm"]
        assert len(batch) == len(losses)

    def test_squared_normalizations_do_not_mix(self, task):
        a = random_squared_family(task.universe, 2, rng=5,
                                  normalization=0.25)
        b = random_squared_family(task.universe, 2, rng=6,
                                  normalization=0.125)
        # each squared loss evaluates on its own, whatever its scale
        assert compile_batch(a + b).group_kinds == ["fallback"]
        # a link parameter still splits margin-kernel groups
        domain = L2Ball(task.universe.dim)
        huber = [HuberLoss(domain, delta=0.5), HuberLoss(domain, delta=1.0)]
        assert compile_batch(huber).group_kinds == ["glm", "glm"]

    def test_subclass_takes_fallback(self, task):
        class TweakedLogistic(random_logistic_family(task.universe, 1,
                                                     rng=7)[0].__class__):
            pass

        loss = TweakedLogistic(L2Ball(task.universe.dim))
        assert compile_batch([loss]).group_kinds == ["fallback"]


class TestLossValues:
    @pytest.mark.parametrize("family,seed", [
        (random_logistic_family, 10),
        (random_squared_family, 11),
        (random_hinge_family, 12),
        (random_quadratic_family, 13),
    ])
    def test_matches_scalar_loss_on(self, task, histogram, family, seed):
        losses = family(task.universe, 6, rng=seed)
        thetas = _thetas(losses, seed)
        batched = batch_loss_on(losses, thetas, histogram)
        scalar = [loss.loss_on(theta, histogram)
                  for loss, theta in zip(losses, thetas)]
        np.testing.assert_allclose(batched, scalar, atol=1e-10)

    def test_mixed_batch_preserves_order(self, task, histogram):
        losses = (random_logistic_family(task.universe, 3, rng=14)
                  + linear_queries_as_cm(
                      random_linear_queries(task.universe, 3, rng=15))
                  + random_squared_family(task.universe, 3, rng=16))
        thetas = _thetas(losses, 17)
        batched = batch_loss_on(losses, thetas, histogram)
        scalar = [loss.loss_on(theta, histogram)
                  for loss, theta in zip(losses, thetas)]
        np.testing.assert_allclose(batched, scalar, atol=1e-10)

    def test_theta_count_mismatch(self, task, histogram):
        losses = random_logistic_family(task.universe, 2, rng=18)
        with pytest.raises(ValidationError, match="thetas"):
            batch_loss_on(losses, _thetas(losses)[:1], histogram)

    def test_linear_queries_rejected(self, task, histogram):
        queries = random_linear_queries(task.universe, 2, rng=19)
        with pytest.raises(ValidationError, match="linear_answers"):
            batch_loss_on(queries, [np.zeros(1)] * 2, histogram)


class TestGlmSupportView:
    """The margin kernel runs on the histogram's compact support, as each
    member's scalar ``loss_on`` does, not on the whole universe."""

    def test_margin_kernel_sees_only_support_rows(self, monkeypatch):
        from repro.data.histogram import Histogram
        from repro.engine import kernels

        universe = make_classification_dataset(n=100, d=4,
                                               universe_size=400,
                                               rng=8).universe
        rng = np.random.default_rng(9)
        weights = np.zeros(universe.size)
        cells = rng.choice(universe.size, size=30, replace=False)
        weights[cells] = rng.uniform(0.5, 2.0, size=cells.size)
        histogram = Histogram(universe, weights)
        losses = (random_logistic_family(universe, 5, rng=10)
                  + random_hinge_family(universe, 4, rng=11))
        thetas = _thetas(losses, 12)
        rows = []
        margin_matrix = kernels.glm_margin_matrix

        def spy(points, parameters, backend=None):
            rows.append(points.shape[0])
            return margin_matrix(points, parameters, backend=backend)

        monkeypatch.setattr(kernels, "glm_margin_matrix", spy)
        batched = batch_loss_on(losses, thetas, histogram)
        scalar = [loss.loss_on(theta, histogram)
                  for loss, theta in zip(losses, thetas)]
        np.testing.assert_allclose(batched, scalar, rtol=0, atol=1e-10)
        # one block per family, each over the 30 support rows
        assert rows == [cells.size, cells.size]


class TestLinearAnswers:
    def test_matches_scalar(self, task, histogram):
        queries = random_linear_queries(task.universe, 9, rng=20)
        batched = batch_answers(queries, histogram)
        scalar = [histogram.dot(query.table) for query in queries]
        np.testing.assert_allclose(batched, scalar, atol=1e-12)

    def test_cm_losses_rejected(self, task, histogram):
        losses = random_logistic_family(task.universe, 2, rng=21)
        with pytest.raises(ValidationError, match="LinearQuery"):
            batch_answers(losses, histogram)


class TestLinearLayouts:
    """Linear tables are stacked only for a dense histogram, once per
    compiled batch; a sparse histogram gathers its support columns."""

    @staticmethod
    def _sparse(universe, cells):
        from repro.data.histogram import Histogram

        weights = np.zeros(universe.size)
        weights[cells] = np.arange(1, len(cells) + 1, dtype=float)
        return Histogram(universe, weights)

    def test_stacks_only_for_a_dense_histogram(self, task, histogram,
                                               monkeypatch):
        from repro.engine import kernels

        assert histogram.support_view() is None
        sparse = self._sparse(task.universe, [3, 17, 40])
        queries = random_linear_queries(task.universe, 5, rng=31)
        calls = []
        stack_tables = kernels.stack_tables
        monkeypatch.setattr(kernels, "stack_tables",
                            lambda batch: calls.append(len(batch))
                            or stack_tables(batch))
        batch = compile_batch(queries)
        assert calls == []
        on_support = batch.linear_answers(sparse)
        assert calls == []
        dense = batch.linear_answers(histogram)
        batch.linear_answers(histogram)
        assert calls == [5]  # stacked once, then reused
        np.testing.assert_allclose(
            on_support, [q.table @ sparse.weights for q in queries],
            rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            dense, [q.table @ histogram.weights for q in queries],
            rtol=1e-12, atol=1e-14)

    def test_shared_matrix_stays_zero_copy(self, task, histogram):
        from repro.losses.linear import LinearQuery

        matrix = (np.random.default_rng(32).random((4, task.universe.size))
                  < 0.5).astype(float)
        matrix.setflags(write=False)
        queries = [LinearQuery(row) for row in matrix]
        batch = compile_batch(queries)
        batch.linear_answers(histogram)
        assert batch._groups[0].tables is matrix

    def test_mismatched_universes_fail_at_compile(self, task):
        from repro.losses.linear import LinearQuery

        with pytest.raises(ValidationError, match="universe size"):
            compile_batch([LinearQuery(np.zeros(5)), LinearQuery(np.zeros(6))])


class TestDataMinima:
    def test_linear_cm_closed_form(self, task, histogram):
        losses = linear_queries_as_cm(
            random_linear_queries(task.universe, 5, rng=22))
        batched = batch_data_minima(losses, histogram)
        for loss, result in zip(losses, batched):
            scalar = minimize_loss(loss, histogram)
            np.testing.assert_allclose(result.theta, scalar.theta,
                                       atol=1e-10)
            assert result.value == pytest.approx(scalar.value, abs=1e-10)
            assert result.exact

    def test_squared_shared_moments(self, task, histogram):
        losses = random_squared_family(task.universe, 5, rng=23)
        batched = batch_data_minima(losses, histogram)
        for loss, result in zip(losses, batched):
            scalar = minimize_loss(loss, histogram)
            np.testing.assert_allclose(result.theta, scalar.theta,
                                       atol=1e-10)
            assert result.value == pytest.approx(scalar.value, abs=1e-10)

    def test_fallback_families_use_solver(self, task, histogram):
        losses = random_logistic_family(task.universe, 3, rng=24)
        batched = batch_data_minima(losses, histogram, solver_steps=80)
        for loss, result in zip(losses, batched):
            scalar = minimize_loss(loss, histogram, steps=80)
            np.testing.assert_allclose(result.theta, scalar.theta,
                                       atol=1e-10)

    def test_value_is_loss_at_theta(self, task, histogram):
        losses = random_squared_family(task.universe, 4, rng=25)
        for loss, result in zip(losses, batch_data_minima(losses,
                                                          histogram)):
            direct = loss.loss_on(result.theta, histogram)
            assert result.value == pytest.approx(direct, abs=1e-10)


class TestFallbackContract:
    def test_unknown_loss_still_evaluates(self, task, histogram):
        class OddLoss(LossFunction):
            def values(self, theta, universe):
                return np.abs(universe.points @ theta)

            def gradients(self, theta, universe):
                signs = np.sign(universe.points @ theta)
                return signs[:, None] * universe.points

        loss = OddLoss(L2Ball(task.universe.dim), name="odd")
        theta = np.full(task.universe.dim, 0.1)
        batched = batch_loss_on([loss], [theta], histogram)
        assert batched[0] == pytest.approx(loss.loss_on(theta, histogram))


class TestErrorContractParity:
    def test_unlabeled_universe_raises_loss_specification_error(self):
        from repro.data.builders import random_ball_net
        from repro.data.dataset import Dataset
        from repro.exceptions import LossSpecificationError
        from repro.losses.squared import SquaredLoss

        universe = random_ball_net(3, 50, rng=0)  # no labels
        histogram = Dataset.uniform_random(universe, 100, rng=1).histogram()
        loss = SquaredLoss(L2Ball(3))
        theta = np.zeros(3)
        with pytest.raises(LossSpecificationError, match="label"):
            loss.loss_on(theta, histogram)  # the scalar contract
        with pytest.raises(LossSpecificationError, match="label"):
            batch_loss_on([loss], [theta], histogram)  # batching keeps it


class TestCompiledBatchReuse:
    def test_squared_tables_computed_once(self, task, histogram):
        losses = linear_queries_as_cm(
            random_linear_queries(task.universe, 4, rng=30))
        batch = compile_batch(losses)
        thetas = [np.array([0.3])] * 4
        batch.loss_values(thetas, histogram)
        group = batch._groups[0]
        cached = group.squared_tables()
        batch.loss_values(thetas, histogram)
        batch.data_minima(histogram)
        assert group.squared_tables() is cached  # reused, not rebuilt


class TestPrewarmedLanes:
    """A mechanism that prewarms a lane through the engine answers it
    exactly as a cold twin that solves every round lazily."""

    @staticmethod
    def _twins(dataset, losses):
        from repro.core.pmw_cm import PrivateMWConvex
        from repro.erm.oracle import NonPrivateOracle

        params = dict(scale=max(loss.scale_bound() for loss in losses),
                      alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
                      max_updates=5, solver_steps=60, noise_multiplier=0.0)
        return [PrivateMWConvex(dataset, NonPrivateOracle(60), rng=13,
                                **params) for _ in range(2)]

    def test_mixed_lane_matches_cold_twin(self, task):
        lane = (random_squared_family(task.universe, 3, rng=40)
                + random_logistic_family(task.universe, 2, rng=41)
                + random_quadratic_family(task.universe, 2, rng=42)
                + linear_queries_as_cm(
                    random_linear_queries(task.universe, 2, rng=43)))
        warm, cold = self._twins(task.dataset, lane)
        warm_answers = warm.answer_all(lane, on_halt="hypothesis",
                                       prewarm=True)
        cold_answers = cold.answer_all(lane, on_halt="hypothesis",
                                       prewarm=False)
        assert warm.updates_performed == cold.updates_performed
        for a, b in zip(warm_answers, cold_answers):
            assert a.from_update == b.from_update
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)

    def test_unlabeled_universe_raises_like_cold_twin(self):
        from repro.data.builders import random_ball_net
        from repro.data.dataset import Dataset
        from repro.exceptions import LossSpecificationError

        universe = random_ball_net(3, 50, rng=0)  # no labels
        dataset = Dataset.uniform_random(universe, 100, rng=1)
        squared = [SquaredLoss(L2Ball(3)) for _ in range(2)]
        warm, cold = self._twins(dataset, squared)
        with pytest.raises(LossSpecificationError, match="label"):
            warm.answer_all(squared, prewarm=True)
        with pytest.raises(LossSpecificationError, match="label"):
            cold.answer_all(squared, prewarm=False)
