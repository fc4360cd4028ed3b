"""Squared queries pay one moment pass per histogram, however served.

A squared loss reads the sufficient statistics its histogram memoizes
(``Histogram.sufficient_statistics``). So a stream of K squared queries
costs one moment pass on the dataset's histogram and one on each
hypothesis version it is evaluated at, and an MW update costs exactly
one more, whether the queries arrive one by one, through
``answer_all(prewarm=True)``, as one ``serve_session_batch`` or as a
backlog the gateway coalesces into one batch.
"""

import threading

import numpy as np
import pytest

from repro.core.pmw_cm import PrivateMWConvex
from repro.data.dataset import Dataset
from repro.data.histogram import Histogram
from repro.data.synthetic import make_classification_dataset
from repro.erm.oracle import NonPrivateOracle
from repro.losses.families import random_squared_family
from repro.serve.registry import default_registry
from repro.serve.service import PMWService

K = 8


@pytest.fixture
def dataset():
    """Most rows on one cell, the rest on 11 more: with these parameters
    the first query forces an MW update and the other seven run on the
    updated hypothesis."""
    universe = make_classification_dataset(n=300, d=3, universe_size=60,
                                           rng=5).universe
    indices = np.concatenate([np.full(200, 7), np.arange(12).repeat(9)[:100]])
    return Dataset(universe, indices)


@pytest.fixture
def losses(dataset):
    return random_squared_family(dataset.universe, K, rng=3)


@pytest.fixture
def params(losses):
    return dict(scale=max(loss.scale_bound() for loss in losses),
                alpha=0.1, beta=0.1, epsilon=2.0, delta=1e-6, max_updates=4,
                solver_steps=60, noise_multiplier=0.0)


@pytest.fixture
def passes(monkeypatch):
    """Every histogram a moment pass ran on, in order."""
    seen = []
    build = Histogram._build_statistics

    def spy(self):
        seen.append(self)
        return build(self)

    monkeypatch.setattr(Histogram, "_build_statistics", spy)
    return seen


def versions_evaluated(mechanism):
    """The hypothesis version each of the K queries was evaluated at."""
    updated_at = [record["query_index"] for record in mechanism.history]
    return [sum(query < index for query in updated_at)
            for index in range(K)]


def assert_one_pass_per_histogram(passes, dataset, mechanism):
    assert len({id(histogram) for histogram in passes}) == len(passes)
    data = dataset.histogram()
    data_views = {id(data)}
    if data.support_view() is not None:
        data_views.add(id(data.support_view().histogram))
    data_passes = [h for h in passes if id(h) in data_views]
    hypothesis_passes = [h for h in passes if id(h) not in data_views]
    assert len(data_passes) == 1
    versions = versions_evaluated(mechanism)
    # the stream must exercise both rules: queries sharing a version,
    # and an update moving the hypothesis on
    assert mechanism.updates_performed >= 1
    assert 2 <= len(set(versions)) < K
    assert len(hypothesis_passes) == len(set(versions))


def open_session(service, params):
    return service.open_session("pmw-convex", oracle="non-private",
                                **params)


def test_one_by_one(dataset, losses, params, passes):
    service = PMWService(dataset, rng=2)
    sid = open_session(service, params)
    for loss in losses:
        service.submit(sid, loss, on_halt="hypothesis")
    assert_one_pass_per_histogram(passes, dataset,
                                  service.session(sid).mechanism)


def test_answer_all_prewarmed(dataset, losses, params, passes):
    mechanism = PrivateMWConvex(dataset, NonPrivateOracle(60), rng=2,
                                **params)
    mechanism.answer_all(losses, on_halt="hypothesis", prewarm=True)
    assert_one_pass_per_histogram(passes, dataset, mechanism)


def test_serve_session_batch(dataset, losses, params, passes):
    service = PMWService(dataset, rng=2)
    sid = open_session(service, params)
    results = service.serve_session_batch(sid, losses)
    assert len(results) == K
    assert_one_pass_per_histogram(passes, dataset,
                                  service.session(sid).mechanism)


def test_gateway_coalesced_backlog(dataset, losses, params, passes):
    """Hold the only worker on a stub session, queue the K queries,
    release: they run as one coalesced batch."""
    gate, started = threading.Event(), threading.Event()

    class Held:
        halted = False

        def __init__(self):
            from repro.dp.accountant import PrivacyAccountant

            self.accountant = PrivacyAccountant()

        def answer(self, query):
            started.set()
            assert gate.wait(10.0)
            return type("Answer", (), {"value": 0.0, "from_update": False,
                                       "query_index": 0})()

    class Hold:
        def fingerprint(self):
            return "hold"

    registry = default_registry()
    registry.register("held")(lambda dataset, *, rng=None, **kw: Held())
    service = PMWService(dataset, registry=registry, rng=2)
    held = service.open_session("held")
    sid = open_session(service, params)
    with service.gateway(workers=1, max_coalesce=K) as gateway:
        head = gateway.submit_async(held, Hold())
        assert started.wait(5.0)
        futures = [gateway.submit_async(sid, loss) for loss in losses]
        gate.set()
        head.result(timeout=10)
        for future in futures:
            future.result(timeout=60)
    snapshot = gateway.metrics.snapshot()
    assert snapshot["coalesced_batches"] == 1
    assert snapshot["coalesced_requests"] == K
    assert_one_pass_per_histogram(passes, dataset,
                                  service.session(sid).mechanism)
