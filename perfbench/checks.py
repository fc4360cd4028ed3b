"""Correctness checks run on every pass, and the accuracy metric.

A pass is compared with the reference pass: an in-process run of the
same sessions, seeds and streams, made before timing starts. Checks:

- every request succeeded and made the reference's serving decision
  (for ``cm_sharded`` this is the in-process/sharded twin property);
- every request was served as the class its stream item is designed
  for, so per-class counts are a fixed function of the streams and
  repeat exactly from run to run and seed to seed;
- every answer is finite and inside its loss domain;
- every session's accountant records equal, bitwise, the records
  ``replay_ledger`` rebuilds from its journal;
- every session's composed spend stays within its mechanism's
  guarantee (Theorem 3.9 for CM; the same schedule for linear).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro import PrivacyAccountant
from repro.core.accuracy import answer_error
from repro.dp.composition import advanced_composition, per_round_budget
from repro.optimize.minimize import minimize_loss

from loop import CLASSES, PassResult, request_class

SV_LABEL = "sparse-vector"
#: The class each kind of stream item must be served as (see workloads).
EXPECTED_CLASS = {"hard": "paid", "easy": "free", "repeat": "read",
                  "batch": "batch"}
#: Sources a batch member may have: batches hold easy queries only.
FREE_SOURCES = ("no-update", "hypothesis")


def guarantees(reference: PassResult) -> dict[str, dict]:
    """Per-session privacy guarantee, from the in-process mechanisms."""
    out = {}
    for sid, mechanism in reference.mechanisms.items():
        config = mechanism.config
        if hasattr(mechanism, "privacy_guarantee"):
            bound = mechanism.privacy_guarantee()
            out[sid] = {"guarantee": (bound.epsilon, bound.delta),
                        "delta_prime": config.delta / 4.0}
        else:
            # PMW-linear: SV at (eps/2, delta/2) plus T Laplace
            # measurements at per_round_budget(eps/2, delta/2, T),
            # composed with delta' = delta/4.
            measure = per_round_budget(config.sv_epsilon, config.sv_delta,
                                       config.max_updates)
            total = advanced_composition(measure.epsilon, 0.0,
                                         config.max_updates,
                                         config.sv_delta / 2.0)
            out[sid] = {"guarantee": (config.sv_epsilon + total.epsilon,
                                      config.sv_delta + total.delta),
                        "delta_prime": config.sv_delta / 2.0}
    return out


def _answer_ok(value) -> bool:
    if isinstance(value, float):
        return bool(np.isfinite(value)) and 0.0 <= value <= 1.0
    theta = np.asarray(value, dtype=float)
    return bool(np.all(np.isfinite(theta)))


def _class_problem(kind: str, decision) -> str | None:
    """Why a request was not served as its item kind is designed to be."""
    served = request_class(kind, decision)
    if served != EXPECTED_CLASS[kind]:
        return f"a {kind} item served as {served!r}"
    if kind == "batch" and any(s not in FREE_SOURCES for s in decision):
        return f"a batch of easy queries served as {decision!r}"
    return None


def check_pass(result: PassResult, reference: PassResult,
               bounds: dict) -> tuple[list[str], set]:
    """Problems found, and the ``(session, item)`` keys of failed requests."""
    problems: list[str] = []
    failed: set = set()
    sessions = result.inputs.sessions
    expected = reference.decisions()

    def fail(key, text):
        failed.add(key)
        problems.append(f"{sessions[key[0]].session_id}#{key[1]} {text}")

    for request in result.requests:
        plan = sessions[request.session]
        key = (request.session, request.item)
        if request.error is not None:
            fail(key, f"raised {type(request.error).__name__}: "
                      f"{request.error}")
            continue
        wanted = expected[plan.session_id][request.item]
        if request.decision != wanted:
            fail(key, f"decided {request.decision!r}, reference {wanted!r}")
        mismatch = _class_problem(request.kind, request.decision)
        if mismatch is not None:
            fail(key, mismatch)
        item = plan.items[request.item]
        results = request.result if request.kind == "batch" else [request.result]
        queries = item.queries if request.kind == "batch" else [item.query]
        for query, served in zip(queries, results):
            domain = getattr(query, "domain", None)
            if not (_answer_ok(served.value)
                    and (domain is None
                         or domain.contains(np.asarray(served.value)))):
                fail(key, f"answer outside its domain: {served.value!r}")
    for index, plan in enumerate(sessions):
        sid = plan.session_id
        journal = result.journal.get(sid)
        if journal is None or result.accountant.get(sid) != journal:
            text = "accountant records != replay_ledger"
        else:
            bound = bounds[sid]
            sv = [r for r in journal if r["label"] == SV_LABEL]
            paid = [r for r in journal if r["label"] != SV_LABEL]
            basic = PrivacyAccountant.from_records(sv).total_basic()
            advanced = PrivacyAccountant.from_records(paid).total_advanced(
                bound["delta_prime"])
            spent = (basic.epsilon + advanced.epsilon,
                     basic.delta + advanced.delta)
            if (spent[0] <= bound["guarantee"][0]
                    and spent[1] <= bound["guarantee"][1]):
                continue
            text = f"composed spend {spent} exceeds {bound['guarantee']}"
        for item in range(len(plan.items)):
            failed.add((index, item))
        problems.append(f"{sid}: {text}")
    return problems, failed


def expected_counts(sessions) -> dict[str, int]:
    """Requests per class in one pass, as the streams are designed."""
    counts = Counter(EXPECTED_CLASS[item.kind]
                     for plan in sessions for item in plan.items)
    return {name: counts.get(name, 0) for name in CLASSES}


def max_answer_error(result: PassResult) -> float:
    """The paper's accuracy measure over every answer of one pass: excess
    risk for CM, absolute error for linear queries."""
    inputs = result.inputs
    data = inputs.dataset.histogram()
    optimum: dict[int, float] = {}
    worst = 0.0
    for request in result.requests:
        item = inputs.sessions[request.session].items[request.item]
        queries = item.queries if request.kind == "batch" else [item.query]
        results = request.result if request.kind == "batch" else [request.result]
        for query, served in zip(queries, results):
            if hasattr(query, "table"):
                error = abs(float(served.value) - data.dot(query.table))
            else:
                key = id(query)
                if key not in optimum:
                    optimum[key] = minimize_loss(query, data).value
                error = answer_error(query, data, served.value,
                                     data_optimum=optimum[key])
            worst = max(worst, error)
    return worst
