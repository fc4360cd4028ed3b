"""The blocked MW hot-loop kernels are bitwise the whole-vector expressions.

``NumpyBackend.accumulate`` and ``exp_shifted`` walk the vector in
``BLOCK``-sized pieces, and ``max_finite`` takes ``np.max`` directly,
falling back to a finite mask only when that max is NaN or ``+inf``.
Every result must equal, bit for bit, the expression the kernels ran
before blocking, which this module keeps as its reference — across
block boundaries, on ``-inf`` cells, and on both NumPy backends.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.numpy_backend import BLOCK

SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
BACKENDS = ["numpy", "float32"]


# -- the whole-vector expressions the blocked kernels must reproduce -------


def reference_accumulate(log_weights, direction, eta, scratch):
    np.multiply(direction, eta, out=scratch)
    log_weights += scratch


def reference_max_finite(values):
    finite = values[np.isfinite(values)]
    return float(np.max(finite)) if finite.size else float("-inf")


def reference_exp_shifted(values, shift, out):
    np.subtract(values, shift, out=out)
    np.exp(out, out=out)


# -- helpers ---------------------------------------------------------------


def log_weights_for(backend, size, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(-np.log(size), 3.0, size)
    values[rng.random(size) < 0.05] = -np.inf  # zero-weight cells
    return backend.asarray(values)


def assert_bitwise(ours, theirs):
    assert ours.dtype == theirs.dtype
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("size", SIZES)
class TestBitwiseAgainstReference:
    def test_accumulate(self, name, size):
        backend = get_backend(name)
        direction = backend.asarray(
            np.random.default_rng(size).uniform(-1.0, 1.0, size))
        ours = log_weights_for(backend, size, 1)
        theirs = ours.copy()
        backend.accumulate(ours, direction, 0.37, backend.empty_like(ours))
        reference_accumulate(theirs, direction, 0.37,
                             backend.empty_like(theirs))
        assert_bitwise(ours, theirs)

    def test_accumulate_from_a_read_only_base(self, name, size):
        backend = get_backend(name)
        base = log_weights_for(backend, size, 2)
        base.setflags(write=False)
        direction = backend.asarray(
            np.random.default_rng(size + 1).uniform(-1.0, 1.0, size))
        ours = backend.empty_like(base)
        backend.accumulate(ours, direction, -1.25, backend.empty_like(base),
                           base=base)
        theirs = base.copy()
        reference_accumulate(theirs, direction, -1.25,
                             backend.empty_like(theirs))
        assert_bitwise(ours, theirs)

    def test_accumulate_touches_one_block_of_scratch(self, name, size):
        backend = get_backend(name)
        log_weights = log_weights_for(backend, size, 3)
        scratch = backend.empty_like(log_weights)
        scratch[:] = np.nan
        backend.accumulate(log_weights, backend.asarray(np.ones(size)), 0.5,
                           scratch)
        touched = ~np.isnan(scratch)
        used = min(BLOCK, size)
        assert touched[:used].all()
        assert not touched[used:].any()

    def test_max_finite(self, name, size):
        backend = get_backend(name)
        values = log_weights_for(backend, size, 4)
        assert backend.max_finite(values) == reference_max_finite(values)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_max_finite_falls_back_past_nan_and_inf(self, name, size,
                                                    poison):
        backend = get_backend(name)
        values = log_weights_for(backend, size, 5)
        values[size // 2] = poison
        top = backend.max_finite(values)
        assert top == reference_max_finite(values)
        assert np.isfinite(top) or top == -np.inf

    def test_max_finite_of_all_minus_inf(self, name, size):
        backend = get_backend(name)
        values = backend.asarray(np.full(size, -np.inf))
        assert backend.max_finite(values) == -np.inf
        assert backend.max_finite(values[:0]) == -np.inf

    def test_exp_shifted(self, name, size):
        backend = get_backend(name)
        values = log_weights_for(backend, size, 6)
        shift = reference_max_finite(values)
        ours = backend.empty_like(values)
        backend.exp_shifted(values, shift, ours)
        theirs = backend.empty_like(values)
        reference_exp_shifted(values, shift, theirs)
        assert_bitwise(ours, theirs)

    def test_exp_shifted_in_place(self, name, size):
        backend = get_backend(name)
        ours = log_weights_for(backend, size, 7)
        theirs = ours.copy()
        backend.exp_shifted(ours, 0.25, ours)
        reference_exp_shifted(theirs, 0.25, theirs)
        assert_bitwise(ours, theirs)


@pytest.mark.parametrize("name", BACKENDS)
class TestSharedUniform:
    def test_one_read_only_vector_per_size_and_dtype(self, name):
        backend = get_backend(name)
        first = backend.log_uniform(1000)
        assert backend.log_uniform(1000) is first
        assert not first.flags.writeable
        assert first.dtype == backend.dtype
        assert_bitwise(first,
                       np.full(1000, -np.log(1000), dtype=backend.dtype))
        assert backend.log_uniform(1001) is not first
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_backends_do_not_share_across_dtypes(self, name):
        other = "float32" if name == "numpy" else "numpy"
        assert (get_backend(name).log_uniform(1000).dtype
                != get_backend(other).log_uniform(1000).dtype)
