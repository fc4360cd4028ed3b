"""Sharded histograms: shard-local kernels for very large universes.

A dense :class:`~repro.data.histogram.Histogram` update allocates several
full-universe temporaries at once (log-weights, the shifted exponent, the
normalized result), and every reduction (``dot``, ``kl_divergence``,
sampling tables) walks the whole vector in one pass. At ``|X| ~ 10^7`` and
beyond those temporaries dominate peak memory and defeat cache locality.

:class:`ShardedHistogram` keeps the probability vector itself contiguous
(the universe is one address space; the mechanisms' dot products against
loss matrices need it dense), but splits it into contiguous *shards* and
runs every heavy operation shard-by-shard:

- ``multiplicative_update`` — two shard-local passes (max-shift then
  exponentiation) writing into one preallocated output, so temporaries are
  shard-sized instead of universe-sized;
- ``dot``/``total_variation``/``l1_distance``/``kl_divergence`` — per-shard
  partial reductions, combined at the end;
- ``sample_indices`` — a two-level inverse-CDF table: pick a shard by its
  mass, then a bin inside the shard, keeping each sampling table
  shard-sized.

Shard passes optionally run on a thread pool (``workers > 1``): numpy
releases the GIL inside its ufunc loops, so large shards exponentiate and
reduce in parallel. For laptop-scale universes the dense class is faster —
sharding is for the ≥10^6-element regime.

Results agree with the dense implementation: the multiplicative update is
the same log-space computation (the global max-shift is the max of the
per-shard maxima), and reductions differ only by floating-point summation
order (``~1e-15`` relative).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backend import ArrayBackend
from repro.data.histogram import Histogram, mass_annihilation_error
from repro.data.universe import Universe
from repro.exceptions import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_finite_array

#: Default shard size: small enough that per-shard temporaries fit in cache
#: comfortably, large enough that per-shard dispatch overhead is negligible.
DEFAULT_SHARD_SIZE = 1_000_000

#: Reused executors keyed by worker count (threads are cheap to keep; a new
#: pool per multiplicative update would cost more than small shards do).
#: Lock-guarded: concurrent first use (e.g. two sessions on the serve
#: layer's cross-session pool) must not each construct an executor and
#: orphan the loser's threads.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _make_slices(size: int, num_shards: int) -> list[slice]:
    edges = np.linspace(0, size, num_shards + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=workers,
                                      thread_name_prefix="repro-shard")
            _POOLS[workers] = pool
        return pool


def map_shards(slices: list[slice], workers: int | None, task):
    """Run ``task(shard_slice)`` over every shard, optionally threaded.

    The shared dispatch behind every shard-local pass
    (:class:`ShardedHistogram` reductions/updates and
    :class:`~repro.data.log_histogram.LogHistogram` accumulation and
    materialization): sequential unless ``workers > 1`` and there is
    more than one shard to fan out.
    """
    if workers and workers > 1 and len(slices) > 1:
        return list(_pool(workers).map(task, slices))
    return [task(shard) for shard in slices]


def check_shard_params(size: int, num_shards: int | None,
                       workers: int | None) -> tuple[int | None, int | None]:
    """Validate and normalize a ``(num_shards, workers)`` configuration.

    Shared by every shard-configurable histogram; returns the pair as
    ``int | None``. Bounds: ``1 <= num_shards <= size``, ``workers >= 1``.
    """
    if num_shards is not None:
        num_shards = int(num_shards)
        if not 1 <= num_shards <= size:
            raise ValidationError(
                f"num_shards must be in [1, {size}], got {num_shards}"
            )
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
    return num_shards, workers


class ShardedHistogram(Histogram):
    """A :class:`Histogram` whose heavy operations run per contiguous shard.

    Parameters
    ----------
    universe, weights:
        As for :class:`Histogram`.
    num_shards:
        Number of contiguous shards; defaults to
        ``ceil(size / DEFAULT_SHARD_SIZE)`` (minimum 1). Shards differ in
        size by at most one element.
    workers:
        Optional thread count for shard passes. ``None`` or ``1`` runs
        shards sequentially (still bounding temporary memory); ``> 1``
        fans shards out over a shared thread pool.
    """

    def __init__(self, universe: Universe, weights: np.ndarray, *,
                 num_shards: int | None = None,
                 workers: int | None = None,
                 backend: str | ArrayBackend | None = None) -> None:
        super().__init__(universe, weights, backend=backend)
        size = universe.size
        if num_shards is None:
            num_shards = max(1, -(-size // DEFAULT_SHARD_SIZE))
        num_shards, workers = check_shard_params(size, num_shards, workers)
        self._num_shards = num_shards
        self._workers = workers
        self._slices = _make_slices(size, num_shards)
        # Two-level sampling tables, built lazily by sample_indices.
        # Never shared across instances: every update constructs a fresh
        # object whose tables start empty (see the regression tests in
        # tests/data/test_histogram.py).
        self._shard_tables = None

    @classmethod
    def _adopt(cls, universe: Universe, normalized: np.ndarray, *,
               num_shards: int, workers: int | None,
               backend: ArrayBackend | None = None) -> "ShardedHistogram":
        """Wrap internally produced, already-normalized weights.

        The public constructor re-validates and copies (``isfinite`` and
        sign masks, a clip, a division — several full-universe
        temporaries), which is exactly what the shard-local update went
        to lengths to avoid. Updates produce weights that are
        non-negative, finite, and normalized by construction, so they are
        adopted in place; callers with untrusted weights must use the
        constructor.
        """
        instance = super()._adopt_normalized(universe, normalized,
                                             backend=backend)
        instance._num_shards = num_shards
        instance._workers = workers
        instance._slices = _make_slices(universe.size, num_shards)
        instance._shard_tables = None
        return instance

    # -- constructors -----------------------------------------------------

    @classmethod
    def uniform(cls, universe: Universe, *, num_shards: int | None = None,
                workers: int | None = None) -> "ShardedHistogram":
        """The uniform sharded histogram (PMW's ``Dhat_1``)."""
        return cls(universe, np.full(universe.size, 1.0 / universe.size),
                   num_shards=num_shards, workers=workers)

    @classmethod
    def from_histogram(cls, histogram: Histogram, *,
                       num_shards: int | None = None,
                       workers: int | None = None) -> "ShardedHistogram":
        """Reshard an existing histogram (weights are shared read-only)."""
        return cls(histogram.universe, histogram.weights,
                   num_shards=num_shards, workers=workers)

    # -- shard topology ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of contiguous shards."""
        return self._num_shards

    @property
    def workers(self) -> int | None:
        """Thread count for shard passes (``None`` = sequential)."""
        return self._workers

    @property
    def shard_slices(self) -> list[slice]:
        """The contiguous shard slices, in universe order."""
        return list(self._slices)

    def _map_shards(self, task):
        """Run ``task(shard_slice)`` over every shard, optionally threaded."""
        return map_shards(self._slices, self._workers, task)

    # -- shard-local algebra -----------------------------------------------

    def dot(self, values: np.ndarray) -> float:
        """``<values, D>`` as a sum of per-shard partial dot products."""
        values = np.asarray(values, dtype=float)
        if values.shape != self._weights.shape:
            raise ValidationError(
                f"values has shape {values.shape}, expected "
                f"{self._weights.shape}"
            )
        weights = self._weights
        backend = self._backend
        partials = self._map_shards(
            lambda s: backend.dot(values[s], weights[s]))
        return float(sum(partials))

    def multiplicative_update(self, direction: np.ndarray,
                              eta: float) -> "ShardedHistogram":
        """The MW update, computed with shard-sized temporaries.

        Same log-space computation as the dense class — pass 1 writes
        shifted log-weights shard by shard into one output buffer and
        collects per-shard maxima; pass 2 exponentiates in place against
        the global max (the max of the shard maxima, identical to the
        dense global max). Normalization divides the buffer in place by
        the same full-vector sum the dense constructor uses, so the
        result is bitwise identical to the dense update while every
        temporary stays shard-sized.
        """
        direction = check_finite_array(direction, "direction", ndim=1)
        if direction.shape != self._weights.shape:
            raise ValidationError(
                f"direction has shape {direction.shape}, expected "
                f"{self._weights.shape}"
            )
        eta = float(eta)
        backend = self._backend
        weights = backend.asarray(self._weights)
        direction = backend.asarray(direction)
        out = backend.empty_like(weights)

        maxima = self._map_shards(
            lambda s: backend.log_axpy_max(weights, direction, eta, out, s))
        shift = max(maxima)
        if not np.isfinite(shift):
            raise mass_annihilation_error("sharded multiplicative update")

        # exp(-inf) -> 0.0 exactly; only a fully-masked chunk could
        # produce non-finite values, and positive mass rules that out.
        self._map_shards(
            lambda s: backend.exp_shifted(out, shift, out, s))
        # exp output is finite, non-negative, and has positive mass (the
        # max-shifted entry is exp(0) = 1), so the constructor's
        # validation masks and clip/divide copies are provably no-ops —
        # normalize in place and adopt. The backend's total_mass is the
        # same full-vector pairwise sum the dense constructor computes,
        # which keeps dense/sharded results bitwise equal.
        backend.normalize(out, backend.total_mass(out))
        return ShardedHistogram._adopt(self._universe, out,
                                       num_shards=self._num_shards,
                                       workers=self._workers,
                                       backend=backend)

    # -- shard-local distances / divergences --------------------------------

    def total_variation(self, other: Histogram) -> float:
        """``(1/2)||D - D'||_1`` accumulated shard by shard."""
        return 0.5 * self.l1_distance(other)

    def l1_distance(self, other: Histogram) -> float:
        """``||D - D'||_1`` accumulated shard by shard."""
        self._check_compatible(other)
        mine, theirs = self._weights, other.weights
        partials = self._map_shards(
            lambda s: float(np.abs(mine[s] - theirs[s]).sum())
        )
        return float(sum(partials))

    def kl_divergence(self, other: Histogram) -> float:
        """``KL(self || other)`` accumulated shard by shard.

        Returns ``inf`` as soon as any shard finds mass of ``self`` where
        ``other`` has none (same convention as the dense class).
        """
        self._check_compatible(other)
        mine, theirs = self._weights, other.weights

        def shard_kl(shard: slice) -> float:
            p, q = mine[shard], theirs[shard]
            support = p > 0.0
            if not np.any(support):
                return 0.0
            p, q = p[support], q[support]
            if np.any(q == 0.0):
                return float("inf")
            return float(np.sum(p * (np.log(p) - np.log(q))))

        return float(sum(self._map_shards(shard_kl)))

    # -- two-level sampling -----------------------------------------------

    def sample_indices(self, n: int, rng=None) -> np.ndarray:
        """Inverse-CDF sampling through shard-sized tables.

        Level 1 picks the shard by cumulative shard mass; level 2 runs
        ``searchsorted`` on the shard's local cumulative table. Both
        tables are built once per (immutable) histogram and reused, like
        the dense cached CDF. Zero-weight bins and zero-mass shards are
        unreachable (flat CDF segments with ``side="right"``), and each
        shard's table is closed at its last nonzero bin so floating-point
        round-off in the level-2 offset can never select a trailing
        zero-weight element.
        """
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        generator = as_generator(rng)
        if self._shard_tables is None:
            self._shard_tables = self._build_shard_tables()
        shard_cdf, shard_offsets, local_cdfs, last_nonzero = self._shard_tables
        draws = generator.random(n)
        shard_ids = np.searchsorted(shard_cdf, draws, side="right")
        shard_ids = np.minimum(shard_ids, self._num_shards - 1)
        result = np.empty(n, dtype=np.intp)
        for shard_index in range(self._num_shards):
            mask = shard_ids == shard_index
            if not np.any(mask):
                continue
            local = draws[mask] - shard_offsets[shard_index]
            inner = np.searchsorted(local_cdfs[shard_index], local,
                                    side="right")
            inner = np.minimum(inner, last_nonzero[shard_index])
            result[mask] = inner + self._slices[shard_index].start
        return result

    def _build_shard_tables(self):
        weights = self._weights
        backend = self._backend
        masses = np.array([backend.total_mass(weights[s])
                           for s in self._slices])
        shard_cdf = np.cumsum(masses)
        nonzero_shards = np.nonzero(masses > 0.0)[0]
        shard_cdf[nonzero_shards[-1]:] = 1.0  # close the fp cumsum gap
        shard_offsets = np.concatenate(([0.0], shard_cdf[:-1]))
        local_cdfs, last_nonzero = [], []
        for shard_index, shard in enumerate(self._slices):
            chunk = weights[shard]
            local = backend.cumsum(chunk)
            support = np.nonzero(chunk)[0]
            last = int(support[-1]) if support.size else 0
            local[last:] = masses[shard_index]
            local.setflags(write=False)
            local_cdfs.append(local)
            last_nonzero.append(last)
        return shard_cdf, shard_offsets, local_cdfs, np.asarray(last_nonzero)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedHistogram(universe={self._universe.name!r}, "
            f"size={self._universe.size}, shards={self._num_shards}, "
            f"workers={self._workers})"
        )


def hypothesis_histogram(universe: Universe, weights: np.ndarray | None = None,
                         *, shards: int | None = None,
                         workers: int | None = None,
                         backend: str | ArrayBackend | None = None,
                         ) -> Histogram:
    """Build a mechanism hypothesis: dense, or sharded when asked.

    ``weights=None`` gives the uniform ``Dhat_1``. This is the single
    construction point behind the mechanisms' ``shards=`` /
    ``histogram_workers=`` options, used both at ``__init__`` and when
    restoring a snapshotted hypothesis. ``workers`` without ``shards``
    is rejected: there is nothing to thread over, and silently building
    the sequential dense path would make the knob a lie.
    """
    if weights is None:
        weights = np.full(universe.size, 1.0 / universe.size)
    if shards is None:
        if workers is not None:
            raise ValidationError(
                "histogram workers require sharding: pass shards=... "
                "alongside workers"
            )
        return Histogram(universe, weights, backend=backend)
    return ShardedHistogram(universe, weights, num_shards=shards,
                            workers=workers, backend=backend)


__all__ = ["ShardedHistogram", "hypothesis_histogram", "DEFAULT_SHARD_SIZE",
           "map_shards", "check_shard_params"]
