"""Write the budget-ledger fixtures this directory holds.

Run from a checkout that still has the retired hypothesis knobs (commit
8a73739 or earlier)::

    PYTHONPATH=src python tests/fixtures/ledgers/generate.py \
        tests/fixtures/ledgers

Each ledger journals one ``pmw-linear`` and one ``pmw-convex`` session
whose params name a retired knob — ``shards=3``; ``shards=3`` with
``histogram_workers=2``; or ``versioned_core=False`` — and the spends of
a short query stream on each. The dataset is rebuilt by
``tests/serve/test_retired_knob_ledgers.py``, which must match it.
"""

import sys
from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset
from repro.data.universe import Universe
from repro.losses.families import random_quadratic_family
from repro.losses.linear import LinearQuery
from repro.serve.service import PMWService

OUT = Path(sys.argv[1])
KNOBS = {
    "shards": {"shards": 3},
    "sharded_threads": {"shards": 3, "histogram_workers": 2},
    "legacy": {"versioned_core": False},
}
LINEAR = dict(alpha=0.05, beta=0.05, epsilon=4.0, delta=1e-6,
              schedule="calibrated", max_updates=4)
CONVEX = dict(oracle="non-private", scale=4.0, alpha=0.25, beta=0.1,
              epsilon=4.0, delta=1e-6, schedule="calibrated",
              max_updates=4, solver_steps=120)


def dataset():
    gen = np.random.default_rng(60)
    points = gen.standard_normal((48, 2))
    points /= np.linalg.norm(points, axis=1).max()
    universe = Universe(points, name="fixture-ledger")
    indices = np.concatenate([np.full(200, 5), gen.integers(0, 48, 60)])
    return Dataset(universe, indices)


def linear_queries(size):
    return [LinearQuery((np.arange(size) < cut).astype(float),
                        name=f"prefix-{cut}") for cut in (4, 8, 30, 6)]


def main():
    data = dataset()
    OUT.mkdir(parents=True, exist_ok=True)
    for name, knobs in KNOBS.items():
        path = OUT / f"{name}.jsonl"
        path.unlink(missing_ok=True)
        with PMWService(data, ledger_path=path, rng=0) as service:
            linear = service.open_session("pmw-linear", rng=1, **LINEAR,
                                          **knobs)
            convex = service.open_session("pmw-convex", rng=2, **CONVEX,
                                          **knobs)
            service.serve_session_batch(linear,
                                        linear_queries(data.universe.size))
            service.serve_session_batch(
                convex, random_quadratic_family(data.universe, 3, rng=61))


if __name__ == "__main__":
    main()
