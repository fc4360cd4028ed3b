"""Snapshots written by every retired hypothesis path still restore.

The fixtures in ``tests/fixtures/snapshots/`` were written by both
mechanisms at a commit that still had the sharded core (``shards=3,
histogram_workers=2``) and the legacy immutable path
(``versioned_core=False``); ``generate.py`` there shows how. Each holds
the snapshot, the writer's hypothesis at that point, and the answers
that followed on the rest of the stream.

- Dense and sharded snapshots restore with bitwise weights and continue
  with bitwise answers and identical decisions.
- Legacy and v1 snapshots migrate through ``log(weights)``: they restore
  at ``hypothesis_version == updates`` (the version the legacy path
  reported, so version-keyed caches never see it move backwards), with
  weights within ``1e-12`` and continued answers within ``1e-10``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.pmw_cm import PrivateMWConvex
from repro.core.pmw_linear import PrivateMWLinear
from repro.data.dataset import Dataset
from repro.data.universe import Universe
from repro.erm.oracle import NonPrivateOracle
from repro.losses.linear import LinearQuery
from repro.losses.quadratic import QuadraticLoss
from repro.optimize.projections import L2Ball

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "snapshots"
PATHS = ["dense", "sharded", "legacy", "v1"]
EXACT = {"dense", "sharded"}
REMOVED_KEYS = {"shards", "histogram_workers", "versioned_core",
                "hypothesis_weights"}


def load(mechanism, path):
    fixture = json.loads((FIXTURES / f"{mechanism}_{path}.json").read_text())
    universe = Universe(np.asarray(fixture["universe"]["points"]))
    dataset = Dataset(universe, np.asarray(fixture["indices"]))
    return fixture, universe, dataset


def cm_queries(fixture, universe):
    domain = L2Ball(universe.dim)
    return [QuadraticLoss(domain, transform=np.asarray(q["transform"]),
                          name=q["name"]) for q in fixture["queries"]]


def linear_queries(fixture, universe):
    queries = []
    for q in fixture["queries"]:
        table = np.zeros(universe.size)
        table[q["support"]] = 1.0
        queries.append(LinearQuery(table, name=q["name"]))
    return queries


def restore(mechanism, fixture, dataset):
    if mechanism == "pmw_cm":
        return PrivateMWConvex.restore(fixture["snapshot"], dataset,
                                       NonPrivateOracle(120))
    return PrivateMWLinear.restore(fixture["snapshot"], dataset)


def released(mechanism, answer):
    if mechanism == "pmw_cm":
        return np.asarray(answer.theta)
    return np.asarray([answer.value])


@pytest.mark.parametrize("mechanism", ["pmw_cm", "pmw_linear"])
@pytest.mark.parametrize("path", PATHS)
class TestParentSnapshots:
    def test_restores_at_the_written_version(self, mechanism, path):
        fixture, _, dataset = load(mechanism, path)
        expected = fixture["expected"]
        restored = restore(mechanism, fixture, dataset)
        assert restored.updates_performed == expected["updates_at_snapshot"]
        assert restored.hypothesis_version == expected["version_at_snapshot"]
        assert restored.hypothesis_version == restored.updates_performed
        weights = np.asarray(expected["weights_at_snapshot"])
        if path in EXACT:
            assert restored.hypothesis.weights.tobytes() == weights.tobytes()
        else:
            assert np.max(np.abs(restored.hypothesis.weights
                                 - weights)) <= 1e-12

    def test_continues_like_the_writer(self, mechanism, path):
        fixture, universe, dataset = load(mechanism, path)
        expected = fixture["expected"]
        build = cm_queries if mechanism == "pmw_cm" else linear_queries
        rest = build(fixture, universe)[fixture["split"]:]
        restored = restore(mechanism, fixture, dataset)
        answers = [restored.answer(query) for query in rest]
        assert ([a.from_update for a in answers]
                == [a["from_update"] for a in expected["continued"]])
        key = "theta" if mechanism == "pmw_cm" else "value"
        for answer, written in zip(answers, expected["continued"]):
            ours = released(mechanism, answer)
            theirs = np.atleast_1d(np.asarray(written[key], dtype=float))
            if path in EXACT:
                assert ours.tobytes() == theirs.tobytes()
            else:
                assert np.max(np.abs(ours - theirs)) <= 1e-10
        final = np.asarray(expected["final_weights"])
        if path in EXACT:
            assert restored.hypothesis.weights.tobytes() == final.tobytes()
        else:
            assert np.max(np.abs(restored.hypothesis.weights
                                 - final)) <= 1e-10

    def test_rewritten_snapshot_drops_removed_keys(self, mechanism, path):
        fixture, _, dataset = load(mechanism, path)
        snapshot = restore(mechanism, fixture, dataset).snapshot()
        assert snapshot["format"] == f"repro.{mechanism}/v3"
        assert not REMOVED_KEYS & set(snapshot)
        assert set(snapshot["hypothesis_core"]) == {"version", "log_weights"}
