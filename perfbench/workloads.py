"""Inputs and deployments for the three benchmark workloads.

Every input is a pure function of the ``--seed`` argument: the private
datasets are fixed (their shape is what the workloads are about), while
the seed drives each session's integer seed (sparse-vector and oracle
noise) and every query's random rotation or interval jitter.

Streams are designed so that each request's class is decided by the
data, not by noise. Datasets have 10^6 rows, which shrinks the
sparse-vector noise far below the gap between a query's error and the
threshold. "Hard" queries therefore always buy an update, and "easy"
queries never do, until the update budget T is spent. After that,
fresh queries are answered from the hypothesis. Within a session no
two fresh queries are equal, so only repeats are read from the cache.
The per-class counts of a pass are then the same for every seed (the
checks hold every request to the class its item is designed for). That
is what keeps the class-mix, and with it throughput, steady from seed to
seed.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from repro import (
    Dataset,
    L2Ball,
    LinearQuery,
    PMWService,
    ServiceGateway,
    SquaredLoss,
    labeled_universe,
    random_ball_net,
)
from repro.data.builders import interval_grid
from repro.serve.ledger import replay_ledger
from repro.serve.shard import ShardedService
from repro.serve.shard.router import ConsistentHashRouter
from repro.serve.shard.worker import LEDGER_NAME

DATA_SEED = 20150531
ROWS = 1_000_000
SHARDS = 2

# CM: |X| = 2000 ball-net points x 10 label levels, d = 8.
CM_POINTS, CM_LABELS, CM_DIM = 2000, 10, 8
CM_SESSIONS = 4               # two per shard in cm_sharded
CM_HARD_NORMALIZATION = 2.0    # error stays > 0.3 through all T updates
CM_EASY_NORMALIZATION = 0.025  # error <= 4c = 0.1 < threshold 0.1875
CM_PARAMS = {"oracle": "noisy-sgd", "alpha": 0.25, "epsilon": 2.0,
             "delta": 1e-6, "max_updates": 8}

# Linear: interval grid with |X| = 2^21 (16 MiB per float64 array).
LINEAR_SIZE = 2 ** 21
LINEAR_SESSIONS = 2
LINEAR_CLUSTERS = (-0.8, -0.5, -0.2, 0.15, 0.45, 0.75)
LINEAR_CLUSTER_WIDTH = 0.004
LINEAR_JITTER = 0.002          # hard intervals always cover the cluster
LINEAR_EASY_WIDTH = 0.02       # hypothesis mass <= 1%, well below alpha/2
LINEAR_PARAMS = {"alpha": 0.05, "max_updates": 24}

BATCH_SIZE = 8


@dataclass(frozen=True)
class Item:
    """One request of a stream: a single query or a dashboard batch."""

    kind: str            # "hard", "easy", "repeat" or "batch"
    query: object = None
    queries: tuple = ()


@dataclass
class SessionPlan:
    session_id: str
    seed: int
    params: dict
    items: list = field(default_factory=list)


@dataclass
class Inputs:
    """Everything a pass needs: the dataset, sessions and their streams.

    ``remake`` builds the sessions again from the seed. Each pass drives
    newly built query objects, so memos a query keeps on itself (its
    fingerprint) start cold, as a new client query's do.
    """

    name: str
    mechanism: str
    dataset: Dataset
    sessions: list
    remake: Callable[[], list]

    def fresh(self) -> Inputs:
        """The same inputs with newly built query objects."""
        return replace(self, sessions=self.remake())


def session_ids(count: int) -> list[str]:
    """Session ids from the shards' hash ranges in turn, so each shard
    owns ``count / SHARDS`` sessions and a pass driving them in order
    switches shard only once per shard."""
    shards = [f"shard-{i:02d}" for i in range(SHARDS)]
    router = ConsistentHashRouter(shards)
    by_shard: dict[str, list[str]] = {shard: [] for shard in shards}
    candidate = 0
    while any(len(ids) < count // SHARDS for ids in by_shard.values()):
        sid = f"analyst-{candidate:03d}"
        candidate += 1
        ids = by_shard[router.route(sid)]
        if len(ids) < count // SHARDS:
            ids.append(sid)
    return [sid for ids in by_shard.values() for sid in ids]


def _rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q_matrix, r_matrix = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r_matrix))
    signs[signs == 0.0] = 1.0
    return q_matrix * signs[None, :]


def _interleave(hard, easy, batches, tail_easy, batch_after) -> list:
    """Per hard query ``[hard, easy, repeat, easy...]`` (``easy`` holds
    the easy queries that follow each hard one), dashboard batches after
    the hard queries listed in ``batch_after`` (all before the last hard
    query, so batch rounds still go through the mechanism), then a tail
    of ``[easy, repeat]`` pairs served after the budget is spent."""
    items: list[Item] = []
    batches = iter(batches)
    for index, query in enumerate(hard):
        items.append(Item("hard", query))
        first, *rest = easy[index]
        items += [Item("easy", first), Item("repeat", first)]
        items += [Item("easy", extra) for extra in rest]
        if index in batch_after:
            items.append(Item("batch", queries=tuple(next(batches))))
    for query in tail_easy:
        items += [Item("easy", query), Item("repeat", query)]
    return items


# -- convex minimization --------------------------------------------------------


def cm_dataset() -> Dataset:
    """Clustered regression data: 40 universe elements whose labels fit a
    unit-norm linear model, far from the uniform prior."""
    rng = np.random.default_rng(DATA_SEED)
    base = random_ball_net(CM_DIM, CM_POINTS, rng=rng)
    universe = labeled_universe(base, np.linspace(-1.0, 1.0, CM_LABELS))
    theta = rng.standard_normal(CM_DIM)
    theta /= np.linalg.norm(theta)
    misfit = (np.abs(universe.labels - universe.points @ theta)
              - 0.5 * np.abs(universe.labels))
    clusters = np.argsort(misfit, kind="stable")[:40]
    return Dataset(universe, rng.choice(clusters, size=ROWS))


def cm_sessions(seed: int) -> list[SessionPlan]:
    domain = L2Ball(CM_DIM)
    scale = SquaredLoss(domain, normalization=CM_HARD_NORMALIZATION).scale_bound()
    updates = CM_PARAMS["max_updates"]
    sessions = []
    for index, sid in enumerate(session_ids(CM_SESSIONS)):
        rng = np.random.default_rng([seed, index])

        def loss(normalization, label):
            return SquaredLoss(domain, rotation=_rotation(rng, CM_DIM),
                               normalization=normalization, name=label)

        hard = [loss(CM_HARD_NORMALIZATION, f"hard-{j}") for j in range(updates)]
        easy = [[loss(CM_EASY_NORMALIZATION, f"easy-{j}-{k}") for k in range(2)]
                for j in range(updates)]
        batches = [[loss(CM_EASY_NORMALIZATION, f"board-{b}-{j}")
                    for j in range(BATCH_SIZE)] for b in range(2)]
        tail = [loss(CM_EASY_NORMALIZATION, f"late-{j}") for j in range(4)]
        plan = SessionPlan(sid, seed * 1000 + index,
                           {**CM_PARAMS, "scale": scale})
        plan.items = _interleave(hard, easy, batches, tail, batch_after=(2, 5))
        sessions.append(plan)
    return sessions


# -- linear queries -----------------------------------------------------------------


def linear_dataset() -> Dataset:
    """10^6 rows in six narrow clusters of the 2^21-point interval grid."""
    universe = interval_grid(LINEAR_SIZE)
    rng = np.random.default_rng(DATA_SEED)
    centers = rng.choice(np.asarray(LINEAR_CLUSTERS), size=ROWS)
    raw = centers + rng.uniform(-0.5, 0.5, ROWS) * LINEAR_CLUSTER_WIDTH
    indices = np.rint((raw + 1.0) / 2.0 * (LINEAR_SIZE - 1)).astype(np.int64)
    return Dataset(universe, indices)


class IntervalTables:
    """Interval indicator tables as zero-copy windows of one read-only
    step array per interval length, so a stream of fresh intervals costs
    no |X|-sized memory per query."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._bases: dict[int, np.ndarray] = {}

    def table(self, start: int, length: int) -> np.ndarray:
        base = self._bases.get(length)
        if base is None:
            base = np.zeros(2 * self.size)
            base[self.size:self.size + length] = 1.0
            base.setflags(write=False)
            self._bases[length] = base
        return base[self.size - start:2 * self.size - start]


def linear_sessions(seed: int, tables: IntervalTables) -> list[SessionPlan]:
    size = tables.size

    def cells(width: float) -> int:
        return int(round(width / 2.0 * (size - 1)))

    def index_of(point: float) -> int:
        return int(round((point + 1.0) / 2.0 * (size - 1)))

    hard_length = cells(LINEAR_CLUSTER_WIDTH + 2 * LINEAR_JITTER)
    easy_length = cells(LINEAR_EASY_WIDTH)
    # Easy intervals live in the data-free gaps between clusters.
    edges = [-1.0, *LINEAR_CLUSTERS, 1.0]
    gaps = [(index_of(lo + 0.01), index_of(hi - 0.01) - easy_length)
            for lo, hi in zip(edges, edges[1:])]
    updates = LINEAR_PARAMS["max_updates"]
    sessions = []
    for index, sid in enumerate(session_ids(LINEAR_SESSIONS)):
        rng = np.random.default_rng([seed, index])
        starts: set[int] = set()

        def interval(draw, length, label):
            """A query at a start no earlier query of the session has, so
            only repeats are answered from the cache."""
            start = draw()
            while start in starts:
                start = draw()
            starts.add(start)
            return LinearQuery(tables.table(start, length), name=label)

        def gap_start():
            low, high = gaps[int(rng.integers(len(gaps)))]
            return int(rng.integers(low, high))

        def easy(label):
            return interval(gap_start, easy_length, label)

        def cluster_start(center):
            jitter = rng.uniform(-LINEAR_JITTER, LINEAR_JITTER) * 0.9
            return index_of(center + jitter) - hard_length // 2

        hard = []
        for j in range(updates):
            center = LINEAR_CLUSTERS[j % len(LINEAR_CLUSTERS)]
            hard.append(interval(functools.partial(cluster_start, center),
                                 hard_length, f"hard-{j}"))
        singles = [[easy(f"easy-{j}")] for j in range(updates)]
        batches = [[easy(f"board-{b}-{j}") for j in range(BATCH_SIZE)]
                   for b in range(3)]
        tail = [easy(f"late-{j}") for j in range(8)]
        plan = SessionPlan(sid, seed * 1000 + index, dict(LINEAR_PARAMS))
        plan.items = _interleave(hard, singles, batches, tail,
                                 batch_after=(5, 11, 17))
        sessions.append(plan)
    return sessions


# -- deployments ------------------------------------------------------------------


class Deployment:
    """A service, its sessions and a default gateway, built from scratch
    in ``workdir``; the unit whose bring-up time is ``setup_s``."""

    def __init__(self, inputs: Inputs, workdir: str, *, sharded: bool) -> None:
        self.workdir = workdir
        self.sharded = sharded
        self.service = None
        self.gateway = None
        try:
            if sharded:
                self.service = ShardedService(inputs.dataset, workdir,
                                              shards=SHARDS)
            else:
                self.service = PMWService(
                    inputs.dataset,
                    ledger_path=os.path.join(workdir, LEDGER_NAME))
            for plan in inputs.sessions:
                self.service.open_session(
                    inputs.mechanism, session_id=plan.session_id,
                    rng=plan.seed, **plan.params)
            self.gateway = ServiceGateway(self.service)
        except BaseException:
            self.close()
            raise

    def worker_pids(self) -> list[int]:
        if not self.sharded:
            return []
        return [self.service.ping(shard)["pid"]
                for shard in self.service.shard_ids]

    def worker_serve_seconds(self) -> float:
        if not self.sharded:
            return 0.0
        return sum(self.service.ping(shard)["serve_seconds"]
                   for shard in self.service.shard_ids)

    def cache_hit_ratio(self) -> float:
        if not self.sharded:
            return self.service.cache.stats().hit_rate
        hits = misses = 0.0
        for gauge in self.service.metrics_snapshot()["gauges"]:
            if gauge["name"] == "cache.hits":
                hits += gauge["value"]
            elif gauge["name"] == "cache.misses":
                misses += gauge["value"]
        return hits / (hits + misses) if hits + misses else 0.0

    def accountant_records(self) -> dict[str, list[dict]]:
        if self.sharded:
            return self.service.budget_records()
        return {sid: self.service.session(sid).accountant.to_records()
                for sid in self.service.session_ids}

    def mechanisms(self) -> dict:
        """In-process mechanisms by session (empty when sharded)."""
        if self.sharded:
            return {}
        return {sid: self.service.session(sid).mechanism
                for sid in self.service.session_ids}

    def ledger_paths(self) -> list[str]:
        if not self.sharded:
            return [os.path.join(self.workdir, LEDGER_NAME)]
        return [os.path.join(self.service.shard_dir(shard), LEDGER_NAME)
                for shard in self.service.shard_ids]

    def close(self) -> None:
        """Stop the gateway, then the service (and its workers)."""
        try:
            if self.gateway is not None:
                self.gateway.close(drain=False)
        finally:
            if self.service is not None:
                self.service.close()


def replayed_records(paths) -> dict[str, list[dict]]:
    """Per-session spend records rebuilt from the journals alone."""
    merged: dict[str, list[dict]] = {}
    for path in paths:
        state = replay_ledger(path)
        for sid in state.session_ids:
            merged[sid] = state.accountant_for(sid).to_records()
    return merged


WORKLOADS = {
    "cm_inproc": "in-process PMWService, one request outstanding",
    "cm_sharded": "2-shard ShardedService, one request outstanding",
    "linear_large": "pmw-linear over |X| = 2^21, one request outstanding",
}


def build_inputs(name: str, seed: int) -> Inputs:
    if name in ("cm_inproc", "cm_sharded"):
        mechanism, dataset = "pmw-convex", cm_dataset()
        remake = functools.partial(cm_sessions, seed)
    elif name == "linear_large":
        mechanism, dataset = "pmw-linear", linear_dataset()
        # The read-only step arrays are shared; the queries are not.
        remake = functools.partial(linear_sessions, seed,
                                   IntervalTables(LINEAR_SIZE))
    else:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {sorted(WORKLOADS)}")
    return Inputs(name, mechanism, dataset, remake(), remake)
