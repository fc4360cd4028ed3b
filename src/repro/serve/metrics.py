"""Gateway observability: counters, gauges, and latency histograms.

A production front door is only operable if its pressure is visible:
how deep the per-session queues run, how long requests wait before a
worker claims them, how much of the load the coalescer converts into
batched-kernel work, and how often admission control sheds. The
:class:`GatewayMetrics` registry collects exactly that, thread-safely,
and snapshots to a plain-JSON document (``repro-experiments e14`` prints
one; dashboards can poll :meth:`GatewayMetrics.snapshot`).

Since PR 6, :class:`GatewayMetrics` is a thin façade over a
:class:`repro.obs.MetricsRegistry`: every counter, gauge, and histogram
lives on the registry (names under ``gateway.*``), so gateway pressure
shares one namespace — and one Prometheus exposition — with mechanism
spans and privacy-budget telemetry. Pass your own ``registry=`` to get
that unified view; the default constructs a private one. The public
surface (attributes, :meth:`snapshot` schema, :meth:`describe`,
:meth:`to_json`) is unchanged, so existing dashboards keep working.

:class:`LatencyHistogram` is now a log-scale histogram
(:class:`repro.obs.LogScaleHistogram`): 100 ns–10 000 s range at 20
buckets/decade, an explicit overflow counter in :meth:`snapshot`, and
*interpolated* quantiles whose relative error is bounded by the bucket
edge ratio (≤ 12.2 %) — replacing the fixed doubling buckets that
saturated at 3276.8 ms and returned raw upper edges.
"""

from __future__ import annotations

import json
import threading

from repro.exceptions import ValidationError
from repro.obs.registry import LogScaleHistogram, MetricsRegistry

#: The shed kinds admission control distinguishes — the same vocabulary
#: as :attr:`repro.exceptions.Shed.reason`, and the values of the
#: ``gateway.shed{reason=...}`` counter labels, so Prometheus queries
#: can slice sheds by cause. ``cancelled`` counts pending futures the
#: client cancelled before a worker claimed them; ``deadline`` counts
#: requests refused at enqueue by deadline-aware admission.
SHED_KINDS = ("overload", "timeout", "shutdown", "cancelled", "deadline")

#: The gateway's priority lanes: ``"fast"`` for cheap cache-hit/replay
#: reads, ``"bulk"`` for everything that may run a mechanism round.
LANES = ("fast", "bulk")

#: Latency histogram resolution: 100 ns to 10 000 s at 20 buckets per
#: decade (edge ratio 10**(1/20) ≈ 1.122 → ≤ 12.2 % quantile error).
LATENCY_LOW = 1e-7
LATENCY_HIGH = 1e4
LATENCY_BUCKETS_PER_DECADE = 20


class LatencyHistogram(LogScaleHistogram):
    """Constant-memory latency distribution over log-scale buckets.

    Thread-safe (each observation takes the histogram lock; when
    registered on a :class:`~repro.obs.MetricsRegistry`, that is the
    registry lock). :meth:`snapshot` keeps the legacy schema — bucket
    entries as ``{"le_seconds", "count"}`` with a trailing
    ``le_seconds: None`` entry for overflow — and adds the explicit
    ``overflow`` count and ``top_edge_seconds``.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(low=LATENCY_LOW, high=LATENCY_HIGH,
                         buckets_per_decade=LATENCY_BUCKETS_PER_DECADE)

    @property
    def mean(self) -> float:
        """Mean latency in seconds (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-serializable summary (non-empty buckets only).

        ``p50/p90/p99_seconds`` are interpolated inside the winning
        bucket (relative error ≤ the 12.2 % edge ratio); ``overflow``
        counts samples past ``top_edge_seconds`` — 0 whenever the tail
        is actually being measured.
        """
        base = super().snapshot()
        count = base["count"]
        buckets = [
            {"le_seconds": self.edge(index), "count": bucket}
            for index, bucket in base["counts"]
        ]
        if base["overflow"]:
            buckets.append({"le_seconds": None, "count": base["overflow"]})
        return {
            "count": count,
            "total_seconds": base["total"],
            "mean_seconds": base["total"] / count if count else 0.0,
            "max_seconds": base["max"],
            "p50_seconds": self.quantile(0.50),
            "p90_seconds": self.quantile(0.90),
            "p99_seconds": self.quantile(0.99),
            "overflow": base["overflow"],
            "top_edge_seconds": self.top_edge,
            "buckets": buckets,
        }


#: Legacy alias: the default latency bucket upper edges, in seconds.
#: Since PR 6 these are the log-scale edges (220 buckets, 100 ns–10 ks),
#: not the old 21 doubling buckets that topped out at ~104.86 s.
_EDGE_TEMPLATE = LatencyHistogram()
BUCKET_EDGES: tuple[float, ...] = tuple(
    _EDGE_TEMPLATE.edge(index) for index in range(_EDGE_TEMPLATE._n)
)
del _EDGE_TEMPLATE


class GatewayMetrics:
    """Thread-safe registry of one gateway's operational counters.

    Tracked:

    - **admission** — submitted, shed (per kind: ``overload`` at a queue
      or in-flight bound, ``timeout`` for requests whose deadline passed
      unclaimed, ``shutdown`` for requests dropped by a non-draining
      close);
    - **coalescing** — executed batches, how many merged more than one
      request (and how many requests rode a merged batch), so the
      "queue pressure becomes batched-kernel work" conversion rate is a
      first-class number;
    - **serving** — completed/failed requests, answers by provenance
      (``cache`` / ``hypothesis`` / ``no-update`` / ``update``);
    - **latency** — queue-wait (enqueue to worker claim) and end-to-end
      (enqueue to answer) histograms;
    - **per-session** — submitted/completed counts and the high-water
      queue depth.

    Parameters
    ----------
    registry:
        Optional :class:`repro.obs.MetricsRegistry` to publish onto
        (``gateway.*`` metric names; per-session series labelled
        ``{session=...}``). Default builds a private registry. Sharing
        one registry between two gateways merges their counters — give
        each gateway its own unless aggregation is what you want.

    Thread-safety: every ``record_*`` method holds the façade lock for
    its full multi-metric update, and :meth:`snapshot` takes the same
    lock, so concurrent recording from worker threads loses nothing and
    snapshots never observe a half-recorded batch.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._submitted = reg.counter("gateway.submitted")
        self._completed = reg.counter("gateway.completed")
        self._failed = reg.counter("gateway.failed")
        self._batches = reg.counter("gateway.batches")
        self._coalesced_batches = reg.counter("gateway.coalesced_batches")
        self._coalesced_requests = reg.counter("gateway.coalesced_requests")
        self._sheds = {
            kind: reg.counter("gateway.shed", {"reason": kind})
            for kind in SHED_KINDS
        }
        self.queue_wait = reg.register_histogram(
            "gateway.queue_wait", histogram=LatencyHistogram())
        self.queue_wait_lanes = {
            lane: reg.register_histogram(
                "gateway.queue_wait", {"lane": lane},
                histogram=LatencyHistogram())
            for lane in LANES
        }
        self.end_to_end = reg.register_histogram(
            "gateway.end_to_end", histogram=LatencyHistogram())
        self._session_metrics: dict[str, dict] = {}

    # -- recording (called by the gateway) --------------------------------

    def record_submit(self, session_id: str, depth: int) -> None:
        """One admitted request; ``depth`` is the queue depth after it."""
        with self._lock:
            self._submitted.inc()
            entry = self._session(session_id)
            entry["submitted"].inc()
            entry["queue_depth"].set(depth)
            if depth > entry["max_queue_depth"].value:
                entry["max_queue_depth"].set(depth)

    def record_shed(self, kind: str, session_id: str | None = None) -> None:
        """One request refused (``overload``/``timeout``/``shutdown``)."""
        if kind not in self._sheds:
            raise ValidationError(
                f"unknown shed kind {kind!r}; known: {SHED_KINDS}"
            )
        with self._lock:
            self._sheds[kind].inc()
            if session_id is not None:
                self._session(session_id)["shed"].inc()

    def record_claim(self, session_id: str, waits: list[float],
                     depth: int, lane: str | None = None) -> None:
        """A worker claimed a batch; ``waits`` are per-request queue
        waits, ``depth`` the queue depth left behind, ``lane`` the
        priority lane the batch was claimed from (observed into the
        lane's own histogram as well as the all-lanes one)."""
        lane_histogram = self.queue_wait_lanes.get(lane) \
            if lane is not None else None
        with self._lock:
            for wait in waits:
                self.queue_wait.observe(wait)
                if lane_histogram is not None:
                    lane_histogram.observe(wait)
            self._session(session_id)["queue_depth"].set(depth)

    def estimated_queue_wait(self, lane: str, *, quantile: float = 0.9,
                             min_samples: int = 32) -> float | None:
        """The lane's observed queue-wait quantile, in seconds — the
        input to deadline-aware admission. ``None`` until the lane has
        ``min_samples`` observations (no shedding on folklore)."""
        histogram = self.queue_wait_lanes.get(lane)
        if histogram is None or histogram.count < min_samples:
            return None
        return histogram.quantile(quantile)

    def record_batch(self, session_id: str, *, size: int, sources,
                     latencies) -> None:
        """One executed batch: provenance tally + end-to-end latencies."""
        with self._lock:
            self._batches.inc()
            if size > 1:
                self._coalesced_batches.inc()
                self._coalesced_requests.inc(size)
            self._completed.inc(size)
            self._session(session_id)["completed"].inc(size)
            for source in sources:
                self.registry.counter(
                    "gateway.answers", {"source": source}).inc()
            for latency in latencies:
                self.end_to_end.observe(latency)

    def record_failure(self, session_id: str, count: int) -> None:
        """A batch execution raised; all its requests failed."""
        with self._lock:
            self._failed.inc(count)
            self._session(session_id)["failed"].inc(count)

    # -- reading ----------------------------------------------------------

    @property
    def submitted(self) -> int:
        """Requests admitted past admission control."""
        return self._submitted.value

    @property
    def completed(self) -> int:
        """Requests answered successfully."""
        return self._completed.value

    @property
    def failed(self) -> int:
        """Requests whose batch execution raised."""
        return self._failed.value

    @property
    def batches(self) -> int:
        """Batches executed."""
        return self._batches.value

    @property
    def coalesced_batches(self) -> int:
        """Batches that merged more than one request."""
        return self._coalesced_batches.value

    @property
    def coalesced_requests(self) -> int:
        """Requests that rode a merged batch."""
        return self._coalesced_requests.value

    @property
    def sheds(self) -> dict[str, int]:
        """Shed counts per kind (a fresh plain dict)."""
        return {kind: counter.value
                for kind, counter in self._sheds.items()}

    @property
    def sources(self) -> dict[str, int]:
        """Answer counts by provenance (``cache``/``hypothesis``/...)."""
        return {
            labels[0][1]: counter.value
            for (name, labels), counter
            in self.registry.collect("counter").items()
            if name == "gateway.answers"
        }

    @property
    def shed_total(self) -> int:
        """Requests refused across all shed kinds."""
        return sum(counter.value for counter in self._sheds.values())

    @property
    def cache_hits(self) -> int:
        """Answers served by zero-cost replay."""
        counter = self.registry.get("gateway.answers", {"source": "cache"})
        return counter.value if counter is not None else 0

    def snapshot(self) -> dict:
        """Full JSON-serializable state of the registry."""
        with self._lock:
            completed = self._completed.value
            coalesced_requests = self._coalesced_requests.value
            sheds = self.sheds
            return {
                "submitted": self._submitted.value,
                "completed": completed,
                "failed": self._failed.value,
                "shed": sheds,
                "shed_total": sum(sheds.values()),
                "batches": self._batches.value,
                "coalesced_batches": self._coalesced_batches.value,
                "coalesced_requests": coalesced_requests,
                "coalesce_rate": (coalesced_requests / completed
                                  if completed else 0.0),
                "sources": self.sources,
                "queue_wait": self.queue_wait.snapshot(),
                "queue_wait_lanes": {
                    lane: histogram.snapshot()
                    for lane, histogram in self.queue_wait_lanes.items()
                },
                "end_to_end": self.end_to_end.snapshot(),
                "sessions": {
                    sid: {
                        "submitted": entry["submitted"].value,
                        "completed": entry["completed"].value,
                        "failed": entry["failed"].value,
                        "shed": entry["shed"].value,
                        "queue_depth": entry["queue_depth"].value,
                        "max_queue_depth": entry["max_queue_depth"].value,
                    }
                    for sid, entry in self._session_metrics.items()
                },
            }

    def to_json(self, path=None, *, indent: int = 2) -> str:
        """The snapshot as a JSON document, optionally written to disk."""
        text = json.dumps(self.snapshot(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the backing registry (includes
        anything else published onto a shared registry)."""
        return self.registry.render_prometheus()

    def describe(self) -> str:
        """One-paragraph operator summary."""
        snap = self.snapshot()
        return (
            f"gateway: {snap['submitted']} submitted, "
            f"{snap['completed']} completed, {snap['failed']} failed, "
            f"{snap['shed_total']} shed {snap['shed']}; "
            f"{snap['batches']} batches "
            f"({snap['coalesced_batches']} coalesced covering "
            f"{snap['coalesced_requests']} requests); "
            f"sources {snap['sources']}; "
            f"queue wait p50 {snap['queue_wait']['p50_seconds'] * 1e3:.2f}ms, "
            f"end-to-end p99 {snap['end_to_end']['p99_seconds'] * 1e3:.2f}ms"
        )

    # -- internals --------------------------------------------------------

    def _session(self, session_id: str) -> dict:
        entry = self._session_metrics.get(session_id)
        if entry is None:
            labels = {"session": session_id}
            reg = self.registry
            entry = {
                "submitted": reg.counter("gateway.session.submitted",
                                         labels),
                "completed": reg.counter("gateway.session.completed",
                                         labels),
                "failed": reg.counter("gateway.session.failed", labels),
                "shed": reg.counter("gateway.session.shed", labels),
                "queue_depth": reg.gauge("gateway.queue_depth", labels),
                "max_queue_depth": reg.gauge("gateway.max_queue_depth",
                                             labels),
            }
            self._session_metrics[session_id] = entry
        return entry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GatewayMetrics(submitted={self.submitted}, "
            f"completed={self.completed}, shed={self.shed_total})"
        )


__all__ = ["GatewayMetrics", "LatencyHistogram", "BUCKET_EDGES",
           "SHED_KINDS", "LANES"]
