"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of each ``repro`` layer for
the duration of a traced pass and restores the originals afterwards. No
file under ``src/`` changes. Each wrapped call records wall time
(``perf_counter_ns``) and thread CPU time (``thread_time_ns``). A
thread-local span stack turns those into *self* times: a span's time
minus the time of the wrapped spans it called. Wall minus CPU is time
spent waiting (locks, fsync, pipes, the GIL) rather than working.

Only the supervisor process is traced. Inside a shard worker, time stays
one ``shard.worker_serve_ms`` row (from ``ShardedService.ping``).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from repro.backend.numpy_backend import NumpyBackend
from repro.core.pmw_cm import PrivateMWConvex
from repro.core.pmw_linear import PrivateMWLinear
from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.dp.sparse_vector import SparseVector
from repro.erm.noisy_sgd import NoisyGradientDescentOracle
from repro.losses.base import LossFunction
from repro.serve.cache import AnswerCache
from repro.serve.gateway import ServiceGateway
from repro.serve.ledger import BudgetLedger
from repro.serve.service import PMWService
from repro.serve.session import Session
from repro.serve.shard import ShardedService
from repro.serve.shard.interning import InternMirror

#: Backend kernels grouped into the steps the MW hot path runs. The
#: default float64 backend is not fused: its update step is
#: ``accumulate`` and its normalize step is max/exp/sum/divide; a fused
#: backend runs ``fused_update``/``fused_normalize`` instead.
BACKEND_STEPS = {
    "accumulate": "accumulate", "fused_update": "accumulate",
    "max_finite": "normalize", "exp_shifted": "normalize",
    "total_mass": "normalize", "normalize": "normalize",
    "fused_normalize": "normalize",
    "dot": "dot", "matvec": "matvec",
    "second_moment": "second_moment", "cross_moment": "cross_moment",
}
#: The call that counts one step (the others belong to the same step).
STEP_COUNTERS = {"accumulate", "fused_update", "total_mass",
                 "fused_normalize", "dot", "matvec", "second_moment",
                 "cross_moment"}

CALLS, WALL, SELF_WALL, CPU, SELF_CPU, EXTRA = range(6)


def _array_bytes(args) -> int:
    """Bytes an array kernel touches, computed from its operands' sizes:
    every ndarray argument once, restricted to a ``slice`` argument's
    span when the kernel takes one."""
    shard = next((a for a in args if isinstance(a, slice)), None)
    total = 0
    for arg in args:
        if isinstance(arg, np.ndarray):
            if shard is not None and arg.ndim == 1:
                total += arg[shard].nbytes
            else:
                total += arg.nbytes
    return total


class LayerTracer:
    """Installable span recorder over the ``repro`` serving stack."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        #: session id -> (service entry, service exit), perf_counter s.
        self.service_times: dict[str, tuple[float, float]] = {}

    # -- recording -----------------------------------------------------------

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = defaultdict(lambda: [0, 0, 0, 0, 0, 0])
            self._local.table = table
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()
        self.service_times.clear()

    def totals(self) -> dict[str, list[int]]:
        """Merged ``[calls, wall, self_wall, cpu, self_cpu, extra]`` per
        span name; times in nanoseconds."""
        merged: dict[str, list[int]] = defaultdict(lambda: [0] * 6)
        with self._lock:
            for table in self._tables:
                for name, row in list(table.items()):
                    target = merged[name]
                    for index, value in enumerate(row):
                        target[index] += value
        return dict(merged)

    def _wrapper(self, func, name, extra, root):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            table = tracer._table()
            stack = tracer._local.stack
            children = [0, 0]
            stack.append(children)
            entered = time.perf_counter()
            wall0 = time.perf_counter_ns()
            cpu0 = time.thread_time_ns()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter_ns() - wall0
                cpu = time.thread_time_ns() - cpu0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                row = table[name]
                row[CALLS] += 1
                row[WALL] += wall
                row[SELF_WALL] += wall - children[0]
                row[CPU] += cpu
                row[SELF_CPU] += cpu - children[1]
                if extra is not None:
                    row[EXTRA] += extra(args, kwargs, result)
                if root:
                    tracer.service_times[args[1]] = (entered,
                                                     time.perf_counter())

        return traced

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, *, extra=None,
               root: bool = False) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrapper(original, name, extra, root))
        self._patches.append((owner, attr, original))

    def _patch_everywhere(self, module, attr: str, name: str, *,
                          extra=None) -> None:
        """Wrap a module-level function in every ``repro`` module that
        bound it by name (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name, extra, False)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, traced)
                self._patches.append((mod, attr, original))

    def install(self) -> None:
        import repro.engine
        import repro.optimize.minimize
        import repro.serve.planner
        import repro.serve.shard.frames

        if self._patches:
            raise RuntimeError("tracer already installed")
        patch = self._patch
        patch(ServiceGateway, "submit_async", "gateway.submit")
        patch(PMWService, "serve_session_batch", "service", root=True)
        self._patch_everywhere(repro.serve.planner, "plan_batch", "planner")
        for attr in ("get", "put", "contains"):
            patch(AnswerCache, attr, "cache")
        for attr in ("answer", "answer_from_hypothesis"):
            patch(Session, attr, "session")
        patch(BudgetLedger, "append_spends", "ledger.append",
              extra=lambda args, kwargs, result: len(args[2]))
        for mechanism in (PrivateMWConvex, PrivateMWLinear):
            patch(mechanism, "answer", "mechanism")
            patch(mechanism, "prewarm", "engine.prewarm",
                  extra=lambda args, kwargs, result: len(list(args[1])))
        patch(PrivateMWConvex, "answer_from_hypothesis", "mechanism")
        patch(SparseVector, "process", "svt")
        patch(NoisyGradientDescentOracle, "answer", "oracle")
        self._patch_everywhere(repro.optimize.minimize, "minimize_loss",
                               "solve")
        patch(LossFunction, "gradient_on", "losses.gradient")
        for attr in ("batch_data_minima", "batch_answers"):
            self._patch_everywhere(repro.engine, attr, "engine.kernel")
        for attr in BACKEND_STEPS:
            if attr in NumpyBackend.__dict__:
                patch(NumpyBackend, attr, f"backend.{attr}",
                      extra=lambda args, kwargs, result: _array_bytes(args))
        patch(LogHistogram, "apply_update", "hypothesis.update")
        patch(LogHistogram, "freeze", "hypothesis.freeze")
        patch(LogHistogram, "dot", "histogram.dot")
        patch(Histogram, "dot", "histogram.dot")
        patch(ShardedService, "serve_session_batch", "shard.rpc", root=True)
        frames = repro.serve.shard.frames
        self._patch_everywhere(frames, "encode_frame", "frames.encode",
                               extra=lambda args, kwargs, result: len(result))
        self._patch_everywhere(frames, "decode_frame", "frames.decode",
                               extra=lambda args, kwargs, result: len(args[0]))
        # ``note`` returns True when a full definition must be sent.
        patch(InternMirror, "note", "intern",
              extra=lambda args, kwargs, result: 0 if result else 1)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(totals: dict, *, requests: int, gateway_wait_s: float,
                  gateway_requests: int, latency_total_s: float,
                  worker_serve_s: float, cache_hit_ratio: float,
                  updates: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are self times in milliseconds per request, so they add up
    (with ``gateway.wait_ms`` and ``unattributed_ms``) to the mean
    end-to-end latency. Counts are per pass and repeat exactly.
    """
    def row(name):
        return totals.get(name, [0] * 6)

    def self_ms(*names):
        return sum(row(n)[SELF_WALL] for n in names) / 1e6 / requests

    def calls(name):
        return row(name)[CALLS]

    submit_ms = self_ms("gateway.submit")
    metrics = {
        "gateway.wait_ms": (gateway_wait_s * 1e3 / requests - submit_ms
                            if gateway_requests else 0.0),
        "gateway.self_ms": submit_ms,
        "service.self_ms": self_ms("service", "planner", "cache", "session"),
        "cache.hit_ratio": cache_hit_ratio,
        "ledger.appends": row("ledger.append")[EXTRA],
        "ledger.append_ms": self_ms("ledger.append"),
        "ledger.wait_ms": (row("ledger.append")[SELF_WALL]
                           - row("ledger.append")[SELF_CPU]) / 1e6 / requests,
        "mechanism.self_ms": self_ms("mechanism"),
        "svt.ms": self_ms("svt"),
        "mechanism.updates": updates,
        "oracle.calls": calls("oracle"),
        "oracle.ms": self_ms("oracle"),
        "solve.calls": calls("solve"),
        "solve.ms": self_ms("solve"),
        "losses.gradient_calls": calls("losses.gradient"),
        "losses.gradient_ms": self_ms("losses.gradient"),
        "engine.prewarm_ms": self_ms("engine.prewarm", "engine.kernel"),
        "engine.batch_queries": row("engine.prewarm")[EXTRA],
        "hypothesis.updates": calls("hypothesis.update"),
        "hypothesis.freeze_ms": self_ms("hypothesis.freeze"),
    }
    for step in sorted(set(BACKEND_STEPS.values())):
        ops = [f"backend.{op}" for op, s in BACKEND_STEPS.items() if s == step]
        metrics[f"backend.{step}.calls"] = sum(
            calls(op) for op in ops if op.split(".", 1)[1] in STEP_COUNTERS)
        metrics[f"backend.{step}.ms"] = self_ms(*ops)
        metrics[f"backend.{step}.mb"] = sum(row(op)[EXTRA]
                                            for op in ops) / 2**20
    rpc_ms = row("shard.rpc")[WALL] / 1e6 / requests
    worker_ms = worker_serve_s * 1e3 / requests
    notes = calls("intern")
    metrics.update({
        "shard.rpc_ms": rpc_ms,
        "shard.worker_serve_ms": worker_ms,
        "shard.boundary_ms": rpc_ms - worker_ms,
        "frames.encode_ms": self_ms("frames.encode"),
        "frames.decode_ms": self_ms("frames.decode"),
        "frames.bytes": (row("frames.encode")[EXTRA]
                         + row("frames.decode")[EXTRA]) / requests,
        "intern.hit_ratio": row("intern")[EXTRA] / notes if notes else 0.0,
    })
    attributed = sum(r[SELF_WALL] for r in totals.values()) / 1e6 / requests
    metrics["unattributed_ms"] = (latency_total_s * 1e3 / requests
                                  - attributed - metrics["gateway.wait_ms"])
    return metrics


def layer_table(totals: dict, requests: int) -> str:
    """Human-readable span table: self wall, self CPU and wait per request."""
    lines = [f"{'span':<24}{'calls':>9}{'self ms/req':>13}"
             f"{'cpu ms/req':>12}{'wait ms/req':>13}"]
    for name, row in sorted(totals.items(),
                            key=lambda item: -item[1][SELF_WALL]):
        self_wall = row[SELF_WALL] / 1e6 / requests
        self_cpu = row[SELF_CPU] / 1e6 / requests
        lines.append(f"{name:<24}{row[CALLS]:>9}{self_wall:>13.4f}"
                     f"{self_cpu:>12.4f}{self_wall - self_cpu:>13.4f}")
    return "\n".join(lines)
