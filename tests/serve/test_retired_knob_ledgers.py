"""Ledgers that journal a retired hypothesis knob resume only by override.

The fixtures in ``tests/fixtures/ledgers/`` were journaled at a commit
that still had the sharded core and the legacy immutable path; each
holds a ``pmw-linear`` and a ``pmw-convex`` session whose params name
``shards``, ``shards`` with ``histogram_workers``, or ``versioned_core``
(``generate.py`` there shows how). There is no compatibility shim for
such params:

- a ledger-only cold resume rebuilds each session from its journaled
  params and fails with the mechanism constructor's ``TypeError``;
- ``PMWService.restore(params_override=...)`` is the way through: with
  the knob left out, every session resumes at exactly its journaled
  budget totals and answers again.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.universe import Universe
from repro.losses.linear import LinearQuery
from repro.serve.service import PMWService

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "ledgers"
LEDGERS = ["shards", "sharded_threads", "legacy"]
RETIRED = ("shards", "histogram_workers", "versioned_core")


def fixture_dataset():
    """The dataset ``generate.py`` journaled against."""
    gen = np.random.default_rng(60)
    points = gen.standard_normal((48, 2))
    points /= np.linalg.norm(points, axis=1).max()
    universe = Universe(points, name="fixture-ledger")
    indices = np.concatenate([np.full(200, 5), gen.integers(0, 48, 60)])
    return Dataset(universe, indices)


def journal(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def copy_of(name, tmp_path):
    """A private copy: restore appends to the ledger it resumes."""
    target = tmp_path / f"{name}.jsonl"
    shutil.copyfile(FIXTURES / f"{name}.jsonl", target)
    return target


@pytest.mark.parametrize("name", LEDGERS)
class TestRetiredKnobLedgers:
    def test_every_session_names_a_retired_knob(self, name):
        opens = [r for r in journal(FIXTURES / f"{name}.jsonl")
                 if r["kind"] == "open"]
        assert {r["mechanism"] for r in opens} == {"pmw-linear",
                                                   "pmw-convex"}
        for record in opens:
            assert set(RETIRED) & set(record["params"])

    def test_cold_resume_fails_with_the_constructors_type_error(
            self, name, tmp_path):
        path = copy_of(name, tmp_path)
        with pytest.raises(TypeError,
                           match="unexpected keyword argument '(shards|"
                                 "histogram_workers|versioned_core)'"):
            PMWService.restore(fixture_dataset(), ledger_path=path)

    def test_params_override_resumes_at_the_journaled_totals(
            self, name, tmp_path):
        path = copy_of(name, tmp_path)
        records = journal(path)
        override = {r["session"]: {k: v for k, v in r["params"].items()
                                   if k not in RETIRED}
                    for r in records if r["kind"] == "open"}
        data = fixture_dataset()
        with PMWService.restore(data, ledger_path=path,
                                params_override=override) as service:
            assert set(service.session_ids) == set(override)
            for sid in override:
                spends = [r for r in records
                          if r["kind"] == "spend" and r["session"] == sid]
                total = service.session(sid).accountant.total_basic()
                assert total.epsilon == sum(r["epsilon"] for r in spends)
                assert total.delta == min(1.0, sum(r["delta"]
                                                   for r in spends))
            linear = next(sid for sid in override
                          if sid.startswith("pmw-linear"))
            query = LinearQuery(
                (np.arange(data.universe.size) < 12).astype(float),
                name="after-resume")
            [answer] = service.serve_session_batch(linear, [query])
            assert np.isfinite(answer.value)
