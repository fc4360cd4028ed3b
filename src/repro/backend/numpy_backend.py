"""NumPy backends: the bitwise-default ``float64`` path and a ``float32``
SIMD-friendly variant.

:class:`NumpyBackend` is a pure extraction — every method body is the
exact expression the data/engine layers inlined before the protocol
existed, so running it is bitwise-identical to the pre-refactor code
(the acceptance bar for the default backend).

:class:`Float32Backend` reuses the same expressions at ``float32``:
half the memory traffic on every universe-sized pass and twice the SIMD
lane width, which is where the speedup on large ``|X|`` comes from.
Reductions that feed normalizers and sampling tables (:meth:`total_mass`,
:meth:`build_cdf`) accumulate in ``float64`` — a
``float32`` cumsum over ``|X| = 10^6`` entries drifts to ``~1e-4``,
well past the ``1e-6`` agreement contract, while per-element arithmetic
stays comfortably inside it. The squared-family moments
(:meth:`second_moment`, :meth:`cross_moment`) run in ``float64`` too:
their entries scale with ``|x|²``, so on a 32-point universe of
standard-normal features ``float32`` rounding of features, weights and
partial sums already adds up to ``1.2e-6``.

:meth:`NumpyBackend.accumulate` and :meth:`NumpyBackend.exp_shifted` walk
the vector in :data:`BLOCK`-sized pieces, so an intermediate is re-read
from cache, not memory; elementwise results do not depend on blocking.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.backend.base import ArrayBackend

#: Elements per piece of the blocked passes: 512 KiB of ``float64``,
#: which stays in a core's L2 cache between the two halves of a pass.
BLOCK = 65536

#: Version 0 of every log-domain core: one read-only ``-log(size)`` vector
#: per ``(size, dtype)``, shared while any core still reads it.
_UNIFORM: "weakref.WeakValueDictionary[tuple, np.ndarray]" = (
    weakref.WeakValueDictionary())


def _second_moment(features, weights):
    """``E[x xᵀ] = Xᵀ diag(w) X`` — the one implementation of the
    squared-family moment math; histograms memoize its result
    (:meth:`repro.data.histogram.Histogram.sufficient_statistics`)."""
    return (features * weights[:, None]).T @ features


def _cross_moment(features, weights, labels):
    """``E[y x] = Xᵀ (w ⊙ y)``."""
    return features.T @ (weights * labels)


class NumpyBackend(ArrayBackend):
    """The default ``float64`` backend (bitwise the historical code path).

    The class is written dtype-generically — every expression reads its
    working dtype from the arrays themselves — so :class:`Float32Backend`
    only overrides allocation dtype and the ``float64``-accumulated
    reductions.
    """

    name = "numpy"
    dtype = np.float64

    # -- conversion / allocation -------------------------------------------

    def asarray(self, values):
        return np.asarray(values, dtype=self.dtype)

    def to_float64(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    def from_float64(self, values):
        return self.asarray(values)

    def empty_like(self, values):
        return np.empty_like(values)

    def log_uniform(self, size: int):
        # Published with one store: racing first callers may each build
        # one, but every caller gets a complete, read-only vector.
        key = (size, np.dtype(self.dtype).str)
        uniform = _UNIFORM.get(key)
        if uniform is None:
            uniform = np.full(size, -np.log(size), dtype=self.dtype)
            uniform.setflags(write=False)
            _UNIFORM[key] = uniform
        return uniform

    # -- MW hot loop --------------------------------------------------------

    def accumulate(self, log_weights, direction, eta: float, scratch,
                   base=None) -> None:
        if base is None:
            base = log_weights
        size = log_weights.shape[0]
        # One block of scratch, re-read from cache by the add.
        product = scratch[:BLOCK]
        for low in range(0, size, BLOCK):
            high = min(low + BLOCK, size)
            piece = product[:high - low]
            np.multiply(direction[low:high], eta, out=piece)
            np.add(base[low:high], piece, out=log_weights[low:high])

    def max_finite(self, values) -> float:
        if values.size:
            top = float(np.max(values))
            if top < np.inf:  # no NaN or +inf: -inf entries cannot win
                return top
        finite = values[np.isfinite(values)]
        return float(np.max(finite)) if finite.size else float("-inf")

    def exp_shifted(self, values, shift: float, out) -> None:
        for low in range(0, out.shape[0], BLOCK):
            high = min(low + BLOCK, out.shape[0])
            chunk = out[low:high]
            np.subtract(values[low:high], shift, out=chunk)
            np.exp(chunk, out=chunk)

    def total_mass(self, values) -> float:
        # Full-vector pairwise sum — the normalizer every histogram
        # constructor computes, keeping immutable and log paths aligned.
        return float(values.sum())

    def normalize(self, values, total: float) -> None:
        values /= total

    # -- dense immutable MW step -------------------------------------------

    def multiplicative_update(self, weights, direction, eta: float):
        weights = self.asarray(weights)
        direction = self.asarray(direction)
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights)
        log_weights = log_weights + float(eta) * direction
        finite = log_weights[np.isfinite(log_weights)]
        if finite.size == 0:
            return None
        log_weights -= np.max(finite)
        new_weights = np.exp(log_weights)
        new_weights[~np.isfinite(new_weights)] = 0.0
        return new_weights

    # -- engine kernels -----------------------------------------------------

    def dot(self, values, weights) -> float:
        return float(self.asarray(values) @ self.asarray(weights))

    def matvec(self, tables, weights):
        return self.asarray(tables) @ self.asarray(weights)

    def matmul(self, points, parameters):
        return self.asarray(points) @ self.asarray(parameters)

    def second_moment(self, features, weights):
        return _second_moment(self.asarray(features), self.asarray(weights))

    def cross_moment(self, features, weights, labels):
        return _cross_moment(self.asarray(features), self.asarray(weights),
                             self.asarray(labels))

    # -- cached-CDF inverse sampling ---------------------------------------

    def build_cdf(self, weights) -> np.ndarray:
        cdf = np.cumsum(weights)
        # Close the floating-point cumsum gap at the last *nonzero*
        # weight, so trailing zero-weight elements stay impossible.
        last_support = int(np.nonzero(weights)[0][-1])
        cdf[last_support:] = 1.0
        cdf.setflags(write=False)
        return cdf


class Float32Backend(NumpyBackend):
    """``float32`` storage and arithmetic, ``float64`` accumulation.

    See the module docstring for which reductions stay ``float64`` and
    why. Durable state still crosses the snapshot boundary as exact
    ``float64`` (widening a ``float32`` is lossless), so a hypothesis
    trained here restores bitwise into :class:`NumpyBackend`.
    """

    name = "float32"
    dtype = np.float32

    def total_mass(self, values) -> float:
        return float(values.sum(dtype=np.float64))

    def build_cdf(self, weights) -> np.ndarray:
        cdf = np.cumsum(weights, dtype=np.float64)
        last_support = int(np.nonzero(weights)[0][-1])
        cdf[last_support:] = 1.0
        cdf.setflags(write=False)
        return cdf

    def second_moment(self, features, weights):
        return _second_moment(self.to_float64(features),
                              self.to_float64(weights))

    def cross_moment(self, features, weights, labels):
        return _cross_moment(self.to_float64(features),
                             self.to_float64(weights),
                             self.to_float64(labels))


__all__ = ["Float32Backend", "NumpyBackend"]
