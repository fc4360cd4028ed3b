"""Serving-layer engine integration: batch lanes are engine-prewarmed."""

import numpy as np
import pytest

from repro.data import make_classification_dataset
from repro.losses.families import random_squared_family
from repro.serve.planner import plan_batch
from repro.serve.service import PMWService

PARAMS = dict(scale=2.0, alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
              max_updates=5, solver_steps=60, oracle="non-private")


@pytest.fixture
def task():
    return make_classification_dataset(n=2_000, d=3, universe_size=80,
                                       rng=0)


@pytest.fixture
def losses(task):
    return random_squared_family(task.universe, 8, rng=1)


def test_batch_serving_prewarms_mechanism_cache(task, losses):
    service = PMWService(task.dataset, rng=2)
    sid = service.open_session("pmw-convex", **PARAMS)
    service.answer_batch((sid, losses))
    mechanism = service.session(sid).mechanism
    # every distinct loss in the lane hit the batched data-minima pass
    for loss in losses:
        assert loss.fingerprint() in mechanism._data_minima


def test_batch_serving_matches_sequential_submits(task, losses):
    batched = PMWService(task.dataset, rng=3)
    sid_b = batched.open_session("pmw-convex", **PARAMS)
    batch_results = batched.answer_batch((sid_b, losses))

    sequential = PMWService(task.dataset, rng=3)
    sid_s = sequential.open_session("pmw-convex", **PARAMS)
    seq_results = [sequential.submit(sid_s, loss, on_halt="hypothesis")
                   for loss in losses]

    for a, b in zip(batch_results, seq_results):
        assert a.source == b.source
        np.testing.assert_allclose(np.asarray(a.value),
                                   np.asarray(b.value), atol=1e-10)


def test_prewarmed_squared_lane_matches_cold_twin(task):
    """A prewarmed squared lane answers exactly as a cold twin solving
    every round lazily: both read the same memoized moments."""
    from repro.erm.oracle import NonPrivateOracle
    from repro.core.pmw_cm import PrivateMWConvex

    losses = random_squared_family(task.universe, 6, rng=11)
    kwargs = dict(scale=2.0 * max(loss.scale_bound() for loss in losses),
                  alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
                  max_updates=5, solver_steps=60, noise_multiplier=0.0)
    warm = PrivateMWConvex(task.dataset, NonPrivateOracle(60), rng=13,
                           **kwargs)
    cold = PrivateMWConvex(task.dataset, NonPrivateOracle(60), rng=13,
                           **kwargs)
    assert warm.prewarm(losses) == len(losses)
    for loss in losses:
        a = warm.answer(loss)
        b = cold.answer(loss)
        assert a.from_update == b.from_update
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)
    assert warm.updates_performed == cold.updates_performed


def test_linear_prewarm_matches_scalar_rounds(task):
    """A prewarmed PMW-linear twin answers identically to a cold one."""
    from repro.core.pmw_linear import PrivateMWLinear
    from repro.losses.families import random_linear_queries

    queries = random_linear_queries(task.universe, 12, rng=5)
    kwargs = dict(alpha=0.2, epsilon=1.5, delta=1e-6, max_updates=6,
                  noise_multiplier=0.0)
    warm = PrivateMWLinear(task.dataset, rng=7, **kwargs)
    cold = PrivateMWLinear(task.dataset, rng=7, **kwargs)
    added = warm.prewarm(queries + queries)  # duplicates dedupe
    assert added == len(queries)
    assert warm.prewarm(queries) == 0  # already warm
    for query in queries:
        got = warm.answer(query)
        want = cold.answer(query)
        assert got.from_update == want.from_update
        assert got.value == pytest.approx(want.value, abs=1e-12)


def test_linear_batch_serving_prewarms_true_answers(task):
    from repro.losses.families import random_linear_queries

    service = PMWService(task.dataset, rng=6)
    sid = service.open_session("pmw-linear", alpha=0.2, epsilon=1.5,
                               delta=1e-6, max_updates=6)
    queries = random_linear_queries(task.universe, 6, rng=7)
    service.answer_batch((sid, queries))
    mechanism = service.session(sid).mechanism
    for query in queries:
        assert query.fingerprint() in mechanism._true_answers


def test_plan_mechanism_lane_preserves_order(task, losses):
    service = PMWService(task.dataset, rng=4)
    sid = service.open_session("pmw-convex", **PARAMS)
    session = service.session(sid)
    stream = [losses[0], losses[1], losses[0], losses[2]]
    plan = plan_batch(session, stream)
    lane = plan.mechanism_lane(stream)
    assert lane == [losses[0], losses[1], losses[2]]


def test_session_prewarm_linear_counts_distinct(task):
    """PMW-linear sessions batch their true-answer side on prewarm
    (one loss-matrix matvec per lane) — added in the gateway PR."""
    from repro.losses.families import random_linear_queries

    service = PMWService(task.dataset, rng=5)
    sid = service.open_session("pmw-linear", alpha=0.2, epsilon=2.0,
                               max_updates=10)
    queries = random_linear_queries(task.universe, 4, rng=6)
    assert service.session(sid).prewarm(queries) == 4
    results = service.answer_batch((sid, queries))
    assert len(results) == 4


def test_session_prewarm_noop_without_hook(task):
    """Mechanisms without a prewarm hook stay a no-op (plug-in path)."""
    from repro.serve.session import Session

    class Hookless:
        halted = False

    session = Session("bare", Hookless())
    assert session.prewarm(["anything"]) == 0


def test_sparse_data_linear_batch_never_stacks_universe_tables(monkeypatch):
    """The true side of a served linear batch gathers each table at the
    data's support; no ``|X|``-long table is stacked on the way."""
    from repro.data.builders import interval_grid
    from repro.data.dataset import Dataset
    from repro.engine import kernels
    from repro.losses.families import random_linear_queries

    universe = interval_grid(4096)
    rng = np.random.default_rng(8)
    dataset = Dataset(universe, rng.choice(40, size=300) * 100)
    assert dataset.histogram().support_view() is not None
    queries = random_linear_queries(universe, 8, rng=9)  # unshared tables

    stacked = []
    stack_tables, vstack = kernels.stack_tables, np.vstack

    def spy_stack_tables(batch):
        stacked.append(("stack_tables", len(batch)))
        return stack_tables(batch)

    def spy_vstack(arrays, *args, **kwargs):
        if any(np.shape(a)[-1] >= universe.size for a in arrays):
            stacked.append(("vstack", len(arrays)))
        return vstack(arrays, *args, **kwargs)

    monkeypatch.setattr(kernels, "stack_tables", spy_stack_tables)
    monkeypatch.setattr(np, "vstack", spy_vstack)
    service = PMWService(dataset, rng=6)
    sid = service.open_session("pmw-linear", alpha=0.2, epsilon=1.5,
                               delta=1e-6, max_updates=6)
    results = service.answer_batch((sid, queries))
    mechanism = service.session(sid).mechanism
    assert len(results) == len(queries)
    assert len(mechanism._true_answers) == len(queries)  # prewarm ran
    assert stacked == []
