"""Write the PMW snapshot fixtures this directory holds.

Run from a checkout that still has every hypothesis path (commit
8a73739 or earlier)::

    PYTHONPATH=src python tests/fixtures/snapshots/generate.py \
        tests/fixtures/snapshots

For each mechanism it writes four snapshots taken after the same query
prefix: the dense log-domain core, a sharded core (``shards=3``,
``histogram_workers=2``), the legacy immutable path
(``versioned_core=False``), and that legacy snapshot reshaped as v1
(no v2+ keys, plain accountant records). ``expected`` records the
writer's hypothesis at the snapshot and its answers on the rest of the
stream. The sharded core held the dense core's log-weights, but its
scalar ``<q, Dhat>`` summed three partial dots; its ``continued``
answers are therefore the dense path's continuation from the same
state (``reference`` says which), while its ``final_weights`` are its
own.
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.core.pmw_cm import PrivateMWConvex
from repro.core.pmw_linear import PrivateMWLinear
from repro.data.dataset import Dataset
from repro.data.universe import Universe
from repro.erm.oracle import NonPrivateOracle
from repro.losses.families import random_quadratic_family
from repro.losses.linear import LinearQuery

OUT = Path(sys.argv[1])
PATHS = {
    "dense": {},
    "sharded": {"shards": 3, "histogram_workers": 2},
    "legacy": {"versioned_core": False},
    "v1": {"versioned_core": False},
}
V1_DROPPED = ("versioned_core", "warm_start", "backend", "hypothesis_core",
              "warm_starts", "round_cache")


def cm_setup():
    gen = np.random.default_rng(20)
    points = gen.standard_normal((40, 3))
    points /= np.linalg.norm(points, axis=1).max()
    universe = Universe(points, name="fixture-cm")
    indices = np.concatenate([np.full(200, 3), np.full(60, 17),
                              gen.integers(0, 40, 40)])
    losses = random_quadratic_family(universe, 6, rng=21)
    stream = losses + losses[:3] + losses[::-1]
    params = dict(scale=4.0, alpha=0.25, beta=0.1, epsilon=4.0,
                  delta=1e-6, schedule="calibrated", max_updates=10,
                  solver_steps=120)
    return universe, indices, stream, params


def linear_setup():
    gen = np.random.default_rng(30)
    universe = Universe(np.linspace(0.0, 1.0, 256)[:, None],
                        name="fixture-linear")
    indices = np.concatenate([gen.integers(10, 40, 250),
                              gen.integers(0, 256, 50)])
    queries = []
    for j in range(12):
        low = int(gen.integers(0, 200))
        width = int(gen.integers(20, 120))
        table = np.zeros(256)
        table[low:low + width] = 1.0
        queries.append(LinearQuery(table, name=f"interval-{j}"))
    params = dict(alpha=0.08, beta=0.05, epsilon=4.0, delta=1e-6,
                  schedule="calibrated", max_updates=8)
    return universe, indices, queries, params


def encode_cm(answer):
    return {"theta": answer.theta.tolist(), "from_update": answer.from_update}


def encode_linear(answer):
    return {"value": answer.value, "from_update": answer.from_update}


def v1_shape(state, fmt):
    state = dict(state)
    for key in V1_DROPPED:
        state.pop(key, None)
    records = []
    for record in state["accountant"]["records"]:
        count = record.get("count", 1)
        plain = {k: v for k, v in record.items() if k != "count"}
        records.extend(dict(plain) for _ in range(count))
    state["accountant"] = dict(state["accountant"], records=records)
    state["format"] = fmt
    return state


def dense_state(state):
    return dict(state, shards=None, histogram_workers=None,
                hypothesis_core=dict(state["hypothesis_core"],
                                     num_shards=None, workers=None))


def write(name, payload):
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(payload, indent=None) + "\n")


def main():
    universe, indices, stream, params = cm_setup()
    dataset = Dataset(universe, indices)
    split = 9
    for path, knobs in PATHS.items():
        mechanism = PrivateMWConvex(dataset, NonPrivateOracle(120),
                                    rng=41, **params, **knobs)
        for loss in stream[:split]:
            mechanism.answer(loss)
        state = json.loads(json.dumps(mechanism.snapshot()))
        if path == "v1":
            state = v1_shape(state, "repro.pmw_cm/v1")
        weights = mechanism.hypothesis.weights.tolist()
        version = mechanism.hypothesis_version
        continued = [mechanism.answer(loss) for loss in stream[split:]]
        reference = "writer"
        if path == "sharded":
            dense = PrivateMWConvex.restore(dense_state(state), dataset,
                                            NonPrivateOracle(120))
            continued = [dense.answer(loss) for loss in stream[split:]]
            reference = "dense restore of this snapshot"
        write(f"pmw_cm_{path}", {
            "mechanism": "pmw_cm", "path": path,
            "universe": {"points": universe.points.tolist()},
            "indices": indices.tolist(),
            "queries": [{"transform": loss.transform.tolist(),
                         "name": loss.name} for loss in stream],
            "split": split,
            "snapshot": state,
            "reference": reference,
            "expected": {
                "updates_at_snapshot": state["updates"],
                "version_at_snapshot": version,
                "weights_at_snapshot": weights,
                "continued": [encode_cm(a) for a in continued],
                "final_weights": mechanism.hypothesis.weights.tolist(),
            },
        })

    universe, indices, queries, params = linear_setup()
    dataset = Dataset(universe, indices)
    stream = queries + queries[::2]
    split = 10
    for path, knobs in PATHS.items():
        mechanism = PrivateMWLinear(dataset, rng=51, **params, **knobs)
        for query in stream[:split]:
            mechanism.answer(query)
        state = json.loads(json.dumps(mechanism.snapshot()))
        if path == "v1":
            state = v1_shape(state, "repro.pmw_linear/v1")
        weights = mechanism.hypothesis.weights.tolist()
        version = mechanism.hypothesis_version
        continued = [mechanism.answer(q) for q in stream[split:]]
        reference = "writer"
        if path == "sharded":
            dense = PrivateMWLinear.restore(dense_state(state), dataset)
            continued = [dense.answer(q) for q in stream[split:]]
            reference = "dense restore of this snapshot"
        write(f"pmw_linear_{path}", {
            "mechanism": "pmw_linear", "path": path,
            "universe": {"points": universe.points.tolist()},
            "indices": indices.tolist(),
            "queries": [{"support": np.flatnonzero(q.table).tolist(),
                         "name": q.name} for q in stream],
            "split": split,
            "snapshot": state,
            "reference": reference,
            "expected": {
                "updates_at_snapshot": state["updates"],
                "version_at_snapshot": version,
                "weights_at_snapshot": weights,
                "continued": [encode_linear(a) for a in continued],
                "final_weights": mechanism.hypothesis.weights.tolist(),
            },
        })


if __name__ == "__main__":
    main()
