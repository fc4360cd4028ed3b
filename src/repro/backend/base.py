"""The ``ArrayBackend`` protocol: the numeric surface of the MW hot path.

Every operation the PMW hot loop performs on universe-sized vectors —
the fused log-weight accumulation behind ``mw_step_inplace``, the
deferred max-shift/exp/normalize materialization, the engine's
``linear_answers``/``glm_margin_matrix``/moment kernels, and the
cached-CDF inverse-sampling tables — goes through one of the methods
below. Swapping the backend swaps the arithmetic (dtype, fusion,
device) without touching the mechanism logic above it.

Contract
--------

- :class:`~repro.backend.numpy_backend.NumpyBackend` is the default and
  is **bitwise-identical** to the pre-protocol code: its methods are the
  exact expressions the data/engine layers used to inline, so every
  oracle, chaos suite, and golden file keeps passing unmodified.
- Every other registered backend must agree with ``NumpyBackend`` to
  ``<= 1e-6`` on MW steps, margins, moments, and sampling tables (pinned
  by ``tests/property/test_backend_agreement.py``).
- **Durable formats are backend-independent**: snapshots, checkpoints,
  and shared-memory segments always hold NumPy ``float64``. Backends
  convert at that boundary via :meth:`ArrayBackend.to_float64` /
  :meth:`ArrayBackend.from_float64`; widening an accelerated dtype to
  ``float64`` is exact, so a hypothesis trained on any backend restores
  bitwise into any other.

Shard-pass methods take a ``shard`` slice so the existing
``map_shards`` dispatch (sequential or thread-pool) keeps working:
backends supply the per-shard arithmetic, the histogram classes keep
the topology. Backends with ``fused = True`` additionally provide
whole-vector :meth:`ArrayBackend.fused_update` /
:meth:`ArrayBackend.fused_normalize` used by
:class:`~repro.data.log_histogram.LogHistogram` in place of the
shard-pass decomposition (one jitted kernel instead of four passes).

Mass annihilation (an update that zeroes every weight) is signalled by
returning a sentinel (``None`` from :meth:`multiplicative_update`, a
non-finite shift from the max passes); the histogram layer owns the
typed ``ValidationError`` so backends stay dependency-free.
"""

from __future__ import annotations

import numpy as np


def _restore_backend(name: str):
    """Unpickle hook: re-resolve a backend by name on the receiving side.

    Backends are stateless singletons, but some hold unpicklable state
    (jitted JAX closures); shipping the *name* keeps shard specs and
    dataset pickles working for every backend and preserves the
    one-instance-per-name invariant across process boundaries.
    """
    from repro.backend.registry import get_backend

    return get_backend(name)


class ArrayBackend:
    """Abstract numeric backend. See the module docstring for the contract.

    Implementations are stateless and cached as singletons by the
    registry; all methods must be thread-safe (shard passes run on a
    shared pool).
    """

    #: Registry name (``"numpy"``, ``"float32"``, ``"jax"``, ...).
    name: str = "abstract"

    #: Native dtype of hot-path arrays this backend produces.
    dtype = np.float64

    #: Whether :meth:`fused_update`/:meth:`fused_normalize` replace the
    #: shard-pass decomposition in ``LogHistogram``.
    fused: bool = False

    # -- conversion / allocation -------------------------------------------

    def asarray(self, values):
        """``values`` as a native-dtype array (no copy when already native)."""
        raise NotImplementedError

    def to_float64(self, values) -> np.ndarray:
        """Durable-format boundary: ``values`` as NumPy ``float64``."""
        raise NotImplementedError

    def from_float64(self, values):
        """Native representation of durable ``float64`` state."""
        raise NotImplementedError

    def empty_like(self, values):
        """Uninitialized native array with ``values``' shape."""
        raise NotImplementedError

    def log_uniform(self, size: int):
        """Log-weights of the uniform distribution: ``-log(size)`` each.

        Read-only and shared by every core at version 0, one vector per
        ``(size, dtype)``; a core's first :meth:`accumulate` reads it as
        ``base`` and writes into the core's own buffer.
        """
        raise NotImplementedError

    # -- MW hot loop: shard passes -----------------------------------------

    def accumulate(self, log_weights, direction, eta: float, scratch,
                   shard: slice, base=None) -> None:
        """``log_weights[shard] = base[shard] + eta * direction[shard]``.

        ``base`` defaults to ``log_weights`` (in place). ``scratch`` is
        shaped like ``log_weights`` and holds the ``eta * direction``
        product; a shard pass writes only inside ``scratch[shard]`` (the
        NumPy kernels, one block at its start).
        """
        raise NotImplementedError

    def max_finite(self, values, shard: slice) -> float:
        """Max finite entry of ``values[shard]`` (``-inf`` when none)."""
        raise NotImplementedError

    def log_axpy_max(self, weights, direction, eta: float, out,
                     shard: slice) -> float:
        """``out[shard] = log(weights[shard]) + eta * direction[shard]``;
        returns the shard's max finite entry (``-inf`` when none)."""
        raise NotImplementedError

    def exp_shifted(self, values, shift: float, out, shard: slice) -> None:
        """``out[shard] = exp(values[shard] - shift)`` (in place when
        ``values is out``)."""
        raise NotImplementedError

    def total_mass(self, values) -> float:
        """Full-vector sum, accumulated at ``float64`` fidelity."""
        raise NotImplementedError

    def normalize(self, values, total: float) -> None:
        """``values /= total`` in place."""
        raise NotImplementedError

    # -- MW hot loop: fused whole-vector (``fused = True`` backends) -------

    def fused_update(self, log_weights, direction, eta: float):
        """Whole-vector ``log_weights + eta * direction`` as one kernel."""
        raise NotImplementedError

    def fused_normalize(self, log_weights):
        """One kernel for max-shift + exp + sum: returns
        ``(weights, shift, total)`` with ``weights`` a normalized native
        NumPy array, ``shift`` the max finite log-weight (non-finite on
        mass annihilation) and ``total`` the pre-division mass."""
        raise NotImplementedError

    # -- dense immutable MW step -------------------------------------------

    def multiplicative_update(self, weights, direction, eta: float):
        """Unnormalized ``w * exp(eta * direction)`` with max-shift, or
        ``None`` when the update annihilated all mass."""
        raise NotImplementedError

    # -- engine kernels -----------------------------------------------------

    def dot(self, values, weights) -> float:
        """Scalar ``<values, weights>``."""
        raise NotImplementedError

    def matvec(self, tables, weights):
        """``tables @ weights`` (query-table rows against a hypothesis)."""
        raise NotImplementedError

    def matmul(self, points, parameters):
        """``points @ parameters`` — the blocked GLM margin kernel."""
        raise NotImplementedError

    def second_moment(self, features, weights):
        """``E[x xᵀ] = Xᵀ diag(w) X`` under the distribution ``weights``."""
        raise NotImplementedError

    def cross_moment(self, features, weights, labels):
        """``E[y x] = Xᵀ (w ⊙ y)`` under the distribution ``weights``."""
        raise NotImplementedError

    # -- cached-CDF inverse sampling ---------------------------------------

    def build_cdf(self, weights) -> np.ndarray:
        """Read-only monotone CDF over ``weights``, closed to exactly 1.0
        at the last nonzero entry; always ``float64`` so ``searchsorted``
        against uniform ``float64`` draws never aliases bins."""
        raise NotImplementedError

    def cumsum(self, values) -> np.ndarray:
        """Shard-local cumulative masses for two-level sampling tables."""
        raise NotImplementedError

    def __reduce__(self):
        return (_restore_backend, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


__all__ = ["ArrayBackend"]
