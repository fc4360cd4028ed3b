"""The closed-loop generator and one benchmark pass.

A pass builds a fresh deployment (timed: ``setup_s``), drives every
session's stream to its end from one generator thread, then tears the
deployment down and gathers what the correctness checks need. The
caller hands each pass newly built query objects (``Inputs.fresh``).
Requests enter only through public entry points:
``ServiceGateway.submit_async`` for single queries and
``serve_session_batch`` for dashboard batches. One request is
outstanding at a time, and the sessions are driven one after another.

Sessions do not alternate request by request: on ``cm_sharded`` every
request would then switch shard workers, and the worker that just
replied keeps its OpenBLAS threads spinning while the other one works.
That halved throughput and spread one pass's free latencies from 2 to
66 ms, more noise than a gate can hold. With one OpenBLAS thread per
process the alternating order ran as fast and as steady as this one.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field

import procs
from workloads import Deployment, Inputs, replayed_records

#: Request class by ``ServeResult.source``; a batch is its own class.
CLASS_OF_SOURCE = {"cache": "read", "no-update": "free",
                   "hypothesis": "free", "update": "paid"}
CLASSES = ("read", "free", "paid", "batch")


@dataclass
class Request:
    session: int
    item: int
    kind: str
    t_submit: float = 0.0
    t_done: float | None = None
    service_times: tuple | None = None
    result: object = None
    error: BaseException | None = None

    @property
    def via_gateway(self) -> bool:
        return self.kind != "batch"

    @property
    def decision(self):
        """The serving decision: a source, or a tuple of them for a batch."""
        if self.error is not None:
            return f"error:{type(self.error).__name__}"
        if self.kind == "batch":
            return tuple(result.source for result in self.result)
        return self.result.source

    @property
    def latency(self) -> float:
        return self.t_done - self.t_submit


def request_class(kind: str, decision) -> str:
    if kind == "batch":
        return "batch"
    return CLASS_OF_SOURCE.get(decision, "error")


@dataclass
class PassResult:
    inputs: Inputs
    setup_s: float
    drive_s: float
    requests: list
    traced: bool
    rss_growth_mib: float = 0.0
    cpu_s: float = 0.0
    worker_serve_s: float = 0.0
    cache_hit_ratio: float = 0.0
    worker_pids: list = field(default_factory=list)
    accountant: dict = field(default_factory=dict)
    journal: dict = field(default_factory=dict)
    mechanisms: dict = field(default_factory=dict)
    layer_totals: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return len(self.requests) / self.drive_s

    def decisions(self) -> dict[str, list]:
        sessions = self.inputs.sessions
        out = {plan.session_id: [] for plan in sessions}
        for request in sorted(self.requests,
                              key=lambda r: (r.session, r.item)):
            out[sessions[request.session].session_id].append(
                request.decision)
        return out


def drive(deployment: Deployment, inputs: Inputs,
          tracer=None) -> list[Request]:
    """Run every session's stream to its end; returns the requests.

    A request's latency runs from the call into the public entry point
    until the generator holds the answer.
    """
    requests: list[Request] = []
    for index, plan in enumerate(inputs.sessions):
        for position, item in enumerate(plan.items):
            request = Request(index, position, item.kind)
            requests.append(request)
            request.t_submit = time.perf_counter()
            try:
                if item.kind == "batch":
                    request.result = deployment.service.serve_session_batch(
                        plan.session_id, list(item.queries))
                else:
                    request.result = deployment.gateway.submit_async(
                        plan.session_id, item.query).result()
            except Exception as error:  # a shed, or a failed round
                request.error = error
            request.t_done = time.perf_counter()
            if tracer is not None:
                request.service_times = tracer.service_times.get(
                    plan.session_id)
    return requests


def run_pass(inputs: Inputs, workdir: str, *, sharded: bool,
             tracer=None) -> PassResult:
    """Set up, drive and tear down one deployment."""
    os.makedirs(workdir)
    started = time.perf_counter()
    deployment = Deployment(inputs, workdir, sharded=sharded)
    setup_s = time.perf_counter() - started
    try:
        pids = deployment.worker_pids()
        serve_before = deployment.worker_serve_seconds()
        # Collect the previous pass's garbage now, not during this drive.
        gc.collect()
        rss_start = procs.reset_peak_rss([os.getpid(), *pids])
        cpu_before = procs.cpu_seconds(pids)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            started = time.perf_counter()
            requests = drive(deployment, inputs, tracer)
            drive_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        result = PassResult(inputs, setup_s, drive_s, requests,
                            tracer is not None)
        result.cpu_s = procs.cpu_seconds(pids) - cpu_before
        result.rss_growth_mib = procs.peak_rss_growth_mib(rss_start)
        if tracer is not None:
            result.layer_totals = tracer.totals()
        result.worker_pids = pids
        result.worker_serve_s = (deployment.worker_serve_seconds()
                                 - serve_before)
        result.cache_hit_ratio = deployment.cache_hit_ratio()
        result.accountant = deployment.accountant_records()
        result.mechanisms = deployment.mechanisms()
        ledgers = deployment.ledger_paths()
    finally:
        deployment.close()
    result.journal = replayed_records(ledgers)
    return result


def setup_only(inputs: Inputs, workdir: str, *, sharded: bool) -> float:
    """Bring a deployment up and down; returns the bring-up time."""
    os.makedirs(workdir)
    started = time.perf_counter()
    deployment = Deployment(inputs, workdir, sharded=sharded)
    elapsed = time.perf_counter() - started
    deployment.close()
    return elapsed
