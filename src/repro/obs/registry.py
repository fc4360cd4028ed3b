"""Metrics registry: named counters, gauges, and log-scale histograms.

The serving stack needs three things its original ``GatewayMetrics``
could not provide: a *wide-dynamic-range* latency histogram (the old
fixed geometric buckets saturated at 3276.8 ms, so a sustained-load
p99 was literally the overflow bucket), a *shared namespace* so gateway,
mechanism, and budget telemetry land in one scrape-able place, and a
*text exposition* format an operator can point Prometheus at. This
module is dependency-free (stdlib only) and thread-safe.

Design notes
------------

**Log-scale histograms.** :class:`LogScaleHistogram` covers ``low`` to
``high`` seconds (defaults 100 ns to 10 000 s ≈ 2.8 h) with
``buckets_per_decade`` geometric buckets per power of ten. The default
20 buckets/decade gives a bucket-edge ratio of ``10**(1/20) ≈ 1.122``,
so any interpolated quantile is off from the true order statistic by at
most one bucket width — a **relative error bound of ≤ 12.2 %** at any
scale, versus the old histogram's 100 % (doubling buckets, edge-only
quantiles). Samples above ``high`` land in an explicit overflow
counter (surfaced in :meth:`LogScaleHistogram.snapshot`), never in a
phantom top bucket; quantiles that fall in the overflow region return
the observed maximum, which is finite and exact.

**Identity.** A metric is identified by ``(name, labels)`` where labels
are an optional ``{str: str}`` mapping; :meth:`MetricsRegistry.counter`
and friends are get-or-create, so instrument sites never coordinate.
Metric kinds are namespaced separately per name: asking for a counter
under a name already registered as a gauge raises.

**Snapshots.** :meth:`MetricsRegistry.snapshot` returns a pure-JSON
document; :meth:`MetricsRegistry.from_snapshot` rebuilds a registry
whose own snapshot is equal — the round-trip is exact (counters and
histogram bucket counts are integers-or-floats carried verbatim).

Usage::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("requests", {"lane": "cached"}).inc()
    registry.histogram("latency.end_to_end").observe(0.0031)
    print(registry.render_prometheus())
"""

from __future__ import annotations

import json
import math
import re
import threading

from repro.exceptions import ValidationError

#: Default histogram range: 100 ns .. 10 000 s (≈ 2.8 h) at 20
#: buckets/decade → 220 buckets, edge ratio 10**(1/20) ≈ 1.122.
DEFAULT_LOW = 1e-7
DEFAULT_HIGH = 1e4
DEFAULT_BUCKETS_PER_DECADE = 20

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.:-]*$")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(
            f"metric name must match {_NAME_RE.pattern}, got {name!r}"
        )
    return name


def _check_labels(labels) -> tuple[tuple[str, str], ...]:
    """Normalize a labels mapping to a canonical, hashable key."""
    if labels is None:
        return ()
    items = []
    for key in sorted(labels):
        value = labels[key]
        if not isinstance(key, str) or not key:
            raise ValidationError(f"label names must be non-empty str, "
                                  f"got {key!r}")
        items.append((key, str(value)))
    return tuple(items)


class Counter:
    """Monotone counter. Mutations are serialized by the registry lock."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: tuple, lock) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = lock

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, {dict(self.labels)}, {self.value})"


class Gauge:
    """Point-in-time value (set/inc/dec)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: tuple, lock) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = lock

    def set(self, value) -> None:
        """Overwrite the gauge (bitwise: the stored float IS ``value``)."""
        with self._lock:
            self.value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, {dict(self.labels)}, {self.value})"


class LogScaleHistogram:
    """Geometric-bucket histogram with interpolated quantiles.

    Buckets span ``[low, high)`` seconds with ``buckets_per_decade``
    buckets per power of ten; samples below ``low`` (including 0) count
    in the first bucket, samples at or above ``high`` count in the
    explicit ``overflow`` counter. Quantiles interpolate *inside* the
    winning bucket (log-linear), so the reported value and the true
    order statistic always share a bucket: relative error is bounded by
    the edge ratio ``10**(1/buckets_per_decade) - 1`` (≈ 12.2 % at the
    default 20/decade). Quantiles landing in the overflow region return
    the observed maximum.
    """

    __slots__ = ("low", "high", "buckets_per_decade", "_n", "_scale",
                 "counts", "overflow", "count", "total", "max", "_lock")

    def __init__(self, *, low: float = DEFAULT_LOW,
                 high: float = DEFAULT_HIGH,
                 buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
                 lock=None) -> None:
        if not (0.0 < low < high):
            raise ValidationError(
                f"need 0 < low < high, got low={low} high={high}"
            )
        if buckets_per_decade < 1:
            raise ValidationError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.low = float(low)
        self.high = float(high)
        self.buckets_per_decade = int(buckets_per_decade)
        # ceil so the top edge is >= high; the edge ratio is exact in
        # log10 space: edge(i) = low * 10**(i / buckets_per_decade).
        self._n = math.ceil(
            round(math.log10(high / low) * buckets_per_decade, 9))
        self._scale = buckets_per_decade / math.log(10.0)
        self.counts = [0] * self._n
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    # -- recording -----------------------------------------------------------

    def observe(self, seconds: float) -> None:
        """Record one sample (negative values clamp to 0)."""
        value = float(seconds)
        if value < 0.0:
            value = 0.0
        with self._lock:
            self.count += 1
            self.total += value
            if value > self.max:
                self.max = value
            if value >= self.high:
                self.overflow += 1
                return
            if value <= self.low:
                index = 0
            else:
                index = int(math.log(value / self.low) * self._scale)
                if index < 0:
                    index = 0
                elif index >= self._n:
                    index = self._n - 1
            self.counts[index] += 1

    # -- reading -------------------------------------------------------------

    def edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` in seconds."""
        return self.low * 10.0 ** ((index + 1) / self.buckets_per_decade)

    @property
    def top_edge(self) -> float:
        """Upper edge of the last regular bucket (overflow starts here)."""
        return self.edge(self._n - 1)

    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile in seconds (0.0 when empty).

        The returned value lies in the same bucket as the true order
        statistic, so its relative error is at most the bucket-edge
        ratio minus one (≤ 12.2 % at the default resolution); quantiles
        in the overflow region return the observed maximum (exact).
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            if rank <= 0.0:
                rank = 1.0
            seen = 0
            for index, bucket in enumerate(self.counts):
                if bucket == 0:
                    continue
                if seen + bucket >= rank:
                    lower = (self.low if index == 0
                             else self.edge(index - 1))
                    upper = self.edge(index)
                    fraction = (rank - seen) / bucket
                    # log-linear interpolation inside the bucket; the
                    # first bucket also holds sub-``low`` samples, so it
                    # interpolates down to 0 linearly instead.
                    if index == 0:
                        return upper * fraction
                    return lower * (upper / lower) ** fraction
                seen += bucket
            return self.max

    def state(self) -> dict:
        """Canonical JSON-ready state: config, totals, explicit
        ``overflow``, and sparse nonzero bucket counts as
        ``[index, count]`` pairs. This is the schema the registry
        snapshots and :meth:`from_snapshot` consumes — subclasses may
        override :meth:`snapshot` with their own presentation, but
        ``state`` stays canonical."""
        with self._lock:
            return {
                "low": self.low,
                "high": self.high,
                "buckets_per_decade": self.buckets_per_decade,
                "count": self.count,
                "total": self.total,
                "max": self.max,
                "overflow": self.overflow,
                "counts": [[i, c] for i, c in enumerate(self.counts) if c],
            }

    def snapshot(self) -> dict:
        """Alias for :meth:`state` (presentation hook for subclasses)."""
        return self.state()

    def merge_state(self, state: dict) -> None:
        """Add another histogram's :meth:`state` into this one, exactly.

        Bucket counts, the overflow counter, ``count``, and ``total``
        add; ``max`` takes the larger observed maximum. The two
        histograms must share a bucket layout (``low``/``high``/
        ``buckets_per_decade``) — merging across layouts would smear
        counts into different edges, so it raises instead. This is the
        primitive cross-process aggregation builds on: merging N shard
        registries preserves every bucket count bit-for-bit, so
        sum-of-shards equals the aggregate.
        """
        if (state["low"] != self.low or state["high"] != self.high
                or state["buckets_per_decade"] != self.buckets_per_decade):
            raise ValidationError(
                f"cannot merge histograms with different bucket layouts: "
                f"have (low={self.low}, high={self.high}, "
                f"per_decade={self.buckets_per_decade}), got "
                f"(low={state['low']}, high={state['high']}, "
                f"per_decade={state['buckets_per_decade']})"
            )
        with self._lock:
            for index, count in state.get("counts", []):
                self.counts[int(index)] += count
            self.overflow += state.get("overflow", 0)
            self.count += state.get("count", 0)
            self.total += state.get("total", 0.0)
            self.max = max(self.max, state.get("max", 0.0))

    @classmethod
    def from_snapshot(cls, state: dict, *, lock=None) -> "LogScaleHistogram":
        """Rebuild a histogram whose :meth:`state` equals ``state``."""
        histogram = cls(low=state["low"], high=state["high"],
                        buckets_per_decade=state["buckets_per_decade"],
                        lock=lock)
        for index, count in state.get("counts", []):
            histogram.counts[int(index)] = count
        histogram.overflow = state.get("overflow", 0)
        histogram.count = state.get("count", 0)
        histogram.total = state.get("total", 0.0)
        histogram.max = state.get("max", 0.0)
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LogScaleHistogram(count={self.count}, "
                f"p99={self.quantile(0.99):.6f}s, "
                f"overflow={self.overflow})")


#: Metric kinds, in snapshot/expostion order.
_KINDS = ("counter", "gauge", "histogram")


class MetricsRegistry:
    """Thread-safe, get-or-create home for named metrics.

    One registry per process (or per service) is the intended shape:
    every instrument site calls ``registry.counter(name, labels)`` and
    mutates whatever comes back — creation races, increments, and
    snapshots are all serialized on a single internal lock, so
    concurrent recording from gateway worker threads loses nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # kind -> {(name, labels): metric}
        self._metrics: dict[str, dict] = {kind: {} for kind in _KINDS}
        # name -> kind, to refuse cross-kind reuse of a name
        self._kinds: dict[str, str] = {}

    # -- get-or-create -------------------------------------------------------

    def counter(self, name: str, labels=None) -> Counter:
        """Get or create a counter."""
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, labels=None) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(self, name: str, labels=None, *,
                  low: float = DEFAULT_LOW, high: float = DEFAULT_HIGH,
                  buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
                  ) -> LogScaleHistogram:
        """Get or create a log-scale histogram (config applies on first
        creation only; later calls return the existing instance)."""
        key = (_check_name(name), _check_labels(labels))
        with self._lock:
            self._check_kind(name, "histogram")
            table = self._metrics["histogram"]
            metric = table.get(key)
            if metric is None:
                metric = LogScaleHistogram(
                    low=low, high=high,
                    buckets_per_decade=buckets_per_decade, lock=self._lock)
                table[key] = metric
            return metric

    def register_histogram(self, name: str, labels=None, *,
                           histogram: LogScaleHistogram) -> LogScaleHistogram:
        """Adopt a caller-constructed histogram (subclasses welcome —
        :class:`repro.serve.metrics.LatencyHistogram` registers itself
        this way). Get-or-create like :meth:`histogram`: if the name is
        already registered, the existing instance wins and ``histogram``
        is discarded. The adopted instance is re-locked onto the
        registry lock."""
        key = (_check_name(name), _check_labels(labels))
        with self._lock:
            self._check_kind(name, "histogram")
            table = self._metrics["histogram"]
            existing = table.get(key)
            if existing is not None:
                return existing
            histogram._lock = self._lock
            table[key] = histogram
            return histogram

    def _get_or_create(self, kind, name, labels, factory):
        key = (_check_name(name), _check_labels(labels))
        with self._lock:
            self._check_kind(name, kind)
            table = self._metrics[kind]
            metric = table.get(key)
            if metric is None:
                metric = factory(key[0], key[1], self._lock)
                table[key] = metric
            return metric

    def _check_kind(self, name: str, kind: str) -> None:
        registered = self._kinds.setdefault(name, kind)
        if registered != kind:
            raise ValidationError(
                f"metric {name!r} is already registered as a "
                f"{registered}, cannot reuse the name as a {kind}"
            )

    # -- reading -------------------------------------------------------------

    def get(self, name: str, labels=None):
        """The existing metric under ``(name, labels)``, or ``None``."""
        key = (name, _check_labels(labels))
        with self._lock:
            kind = self._kinds.get(name)
            if kind is None:
                return None
            return self._metrics[kind].get(key)

    def collect(self, kind: str) -> dict:
        """``{(name, labels): metric}`` for one kind (a shallow copy)."""
        if kind not in _KINDS:
            raise ValidationError(f"unknown metric kind {kind!r}")
        with self._lock:
            return dict(self._metrics[kind])

    def snapshot(self) -> dict:
        """Pure-JSON document of every metric, deterministically ordered."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": metric.value}
                for (name, labels), metric
                in sorted(self._metrics["counter"].items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": metric.value}
                for (name, labels), metric
                in sorted(self._metrics["gauge"].items())
            ]
        # Histogram states take the shared lock themselves; collect
        # the instances first, then read outside our critical section
        # to keep the lock non-reentrant-safe. ``state()`` (not
        # ``snapshot()``) so subclasses with presentation overrides
        # still serialize canonically.
        histograms = [
            {"name": name, "labels": dict(labels), **metric.state()}
            for (name, labels), metric
            in sorted(self.collect("histogram").items())
        ]
        return {
            "format": "repro.obs.registry/v1",
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, path=None, *, indent: int = 2) -> str:
        """Serialize :meth:`snapshot` to JSON; optionally write ``path``."""
        text = json.dumps(self.snapshot(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_snapshot(cls, state: dict) -> "MetricsRegistry":
        """Rebuild a registry whose :meth:`snapshot` equals ``state``."""
        if state.get("format") != "repro.obs.registry/v1":
            raise ValidationError(
                f"not a registry snapshot (format={state.get('format')!r})"
            )
        registry = cls()
        for record in state.get("counters", []):
            counter = registry.counter(record["name"], record["labels"])
            counter.value = record["value"]
        for record in state.get("gauges", []):
            gauge = registry.gauge(record["name"], record["labels"])
            gauge.value = record["value"]
        for record in state.get("histograms", []):
            key = (_check_name(record["name"]),
                   _check_labels(record["labels"]))
            with registry._lock:
                registry._check_kind(record["name"], "histogram")
                registry._metrics["histogram"][key] = (
                    LogScaleHistogram.from_snapshot(
                        record, lock=registry._lock))
        return registry

    def merge_snapshot(self, state: dict, *, labels=None) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The cross-process aggregation primitive: each shard process
        snapshots its own registry, the parent merges them all here, and
        the result is exact — counters add, histogram bucket counts and
        overflow counters add bucket-wise (:meth:`LogScaleHistogram.
        merge_state`), so sum-of-shards equals what one shared registry
        would have recorded. Gauges are point-in-time, not additive:
        each is ``set`` to the incoming value (last merge wins), so
        merge per-shard gauges under distinguishing ``labels``.

        ``labels`` (e.g. ``{"shard": "shard-03"}``) are added to every
        merged metric's own labels, letting one parent registry hold
        per-shard series side by side; an incoming label with the same
        key wins over the extra one.
        """
        if state.get("format") != "repro.obs.registry/v1":
            raise ValidationError(
                f"not a registry snapshot (format={state.get('format')!r})"
            )
        extra = dict(labels) if labels else {}
        for record in state.get("counters", []):
            merged = {**extra, **record["labels"]}
            self.counter(record["name"], merged).inc(record["value"])
        for record in state.get("gauges", []):
            merged = {**extra, **record["labels"]}
            self.gauge(record["name"], merged).set(record["value"])
        for record in state.get("histograms", []):
            merged = {**extra, **record["labels"]}
            histogram = self.histogram(
                record["name"], merged, low=record["low"],
                high=record["high"],
                buckets_per_decade=record["buckets_per_decade"])
            histogram.merge_state(record)

    # -- Prometheus exposition ------------------------------------------------

    def render_prometheus(self) -> str:
        """Text exposition (Prometheus format 0.0.4).

        Metric names are sanitized (``.`` and ``-`` become ``_``);
        histograms emit cumulative ``_bucket{le=...}`` series at every
        *occupied* edge plus ``+Inf``, with ``_sum`` and ``_count`` —
        a sparse but valid rendering of the log-scale buckets.
        """
        lines: list[str] = []
        typed: set[str] = set()
        snapshot = self.snapshot()
        for record in snapshot["counters"]:
            name = _prom_name(record["name"])
            if name not in typed:
                lines.append(f"# TYPE {name} counter")
                typed.add(name)
            lines.append(f"{name}{_prom_labels(record['labels'])} "
                         f"{_prom_value(record['value'])}")
        for record in snapshot["gauges"]:
            name = _prom_name(record["name"])
            if name not in typed:
                lines.append(f"# TYPE {name} gauge")
                typed.add(name)
            lines.append(f"{name}{_prom_labels(record['labels'])} "
                         f"{_prom_value(record['value'])}")
        for record in snapshot["histograms"]:
            name = _prom_name(record["name"])
            if name not in typed:
                lines.append(f"# TYPE {name} histogram")
                typed.add(name)
            labels = record["labels"]
            low = record["low"]
            per_decade = record["buckets_per_decade"]
            cumulative = 0
            for index, count in record["counts"]:
                cumulative += count
                edge = low * 10.0 ** ((index + 1) / per_decade)
                lines.append(
                    f"{name}_bucket"
                    f"{_prom_labels(labels, le=_prom_value(edge))} "
                    f"{cumulative}")
            lines.append(
                f"{name}_bucket{_prom_labels(labels, le='+Inf')} "
                f"{record['count']}")
            lines.append(f"{name}_sum{_prom_labels(labels)} "
                         f"{_prom_value(record['total'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} "
                         f"{record['count']}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            sizes = {kind: len(table)
                     for kind, table in self._metrics.items()}
        return (f"MetricsRegistry(counters={sizes['counter']}, "
                f"gauges={sizes['gauge']}, "
                f"histograms={sizes['histogram']})")


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value == math.inf:
            return "+Inf"
        if value == -math.inf:
            return "-Inf"
        return repr(value)
    return str(value)


def _prom_escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _prom_labels(labels: dict, **extra) -> str:
    items = list(labels.items()) + list(extra.items())
    if not items:
        return ""
    rendered = ",".join(
        f'{key}="{_prom_escape(str(value))}"' for key, value in items
    )
    return "{" + rendered + "}"


__all__ = [
    "Counter", "Gauge", "LogScaleHistogram", "MetricsRegistry",
    "DEFAULT_LOW", "DEFAULT_HIGH", "DEFAULT_BUCKETS_PER_DECADE",
]
