"""The blocked MW hot-loop kernels are bitwise the whole-shard expressions.

``NumpyBackend.accumulate`` and ``exp_shifted`` walk each shard in
``BLOCK``-sized pieces, and ``max_finite`` takes ``np.max`` directly,
falling back to a finite mask only when that max is NaN or ``+inf``.
Every result must equal, bit for bit, the expression the kernels ran
before blocking, which this module keeps as its reference — on dense
and sharded slices, threaded shard passes, ``-inf`` cells, and both
NumPy backends.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.numpy_backend import BLOCK
from repro.data.sharded import _make_slices, map_shards

SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
BACKENDS = ["numpy", "float32"]


# -- the whole-shard expressions the blocked kernels must reproduce --------


def reference_accumulate(log_weights, direction, eta, scratch, shard):
    np.multiply(direction[shard], eta, out=scratch[shard])
    log_weights[shard] += scratch[shard]


def reference_max_finite(values, shard):
    chunk = values[shard]
    finite = chunk[np.isfinite(chunk)]
    return float(np.max(finite)) if finite.size else float("-inf")


def reference_exp_shifted(values, shift, out, shard):
    chunk = out[shard]
    np.subtract(values[shard], shift, out=chunk)
    np.exp(chunk, out=chunk)


# -- helpers ---------------------------------------------------------------


def layouts(size):
    """``(slices, workers)``: one dense slice, and three shards on two
    threads (so shard passes really run concurrently)."""
    yield _make_slices(size, 1), None
    if size >= 3:
        yield _make_slices(size, 3), 2


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
        for slices, workers in layouts(size):
            ours = log_weights_for(backend, size, 1)
            theirs = ours.copy()
            scratch = backend.empty_like(ours)
            map_shards(slices, workers, lambda s: backend.accumulate(
                ours, direction, 0.37, scratch, s))
            for shard in slices:
                reference_accumulate(theirs, direction, 0.37,
                                     backend.empty_like(theirs), shard)
            assert_bitwise(ours, theirs)

    def test_accumulate_from_a_read_only_base(self, name, size):
        backend = get_backend(name)
        base = log_weights_for(backend, size, 2)
        base.setflags(write=False)
        direction = backend.asarray(
            np.random.default_rng(size + 1).uniform(-1.0, 1.0, size))
        for slices, workers in layouts(size):
            ours = backend.empty_like(base)
            scratch = backend.empty_like(base)
            map_shards(slices, workers, lambda s: backend.accumulate(
                ours, direction, -1.25, scratch, s, base=base))
            theirs = base.copy()
            for shard in slices:
                reference_accumulate(theirs, direction, -1.25,
                                     backend.empty_like(theirs), shard)
            assert_bitwise(ours, theirs)

    def test_accumulate_touches_one_block_of_scratch_per_shard(self, name,
                                                               size):
        backend = get_backend(name)
        direction = backend.asarray(np.ones(size))
        for slices, workers in layouts(size):
            log_weights = log_weights_for(backend, size, 3)
            scratch = backend.empty_like(log_weights)
            scratch[:] = np.nan
            map_shards(slices, workers, lambda s: backend.accumulate(
                log_weights, direction, 0.5, scratch, s))
            touched = ~np.isnan(scratch)
            for shard in slices:
                used = min(BLOCK, shard.stop - shard.start)
                assert touched[shard.start:shard.start + used].all()
                assert not touched[shard.start + used:shard.stop].any()

    def test_max_finite(self, name, size):
        backend = get_backend(name)
        values = log_weights_for(backend, size, 4)
        for slices, workers in layouts(size):
            ours = map_shards(slices, workers,
                              lambda s: backend.max_finite(values, s))
            theirs = [reference_max_finite(values, s) for s in slices]
            assert ours == theirs

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_max_finite_falls_back_past_nan_and_inf(self, name, size,
                                                    poison):
        backend = get_backend(name)
        values = log_weights_for(backend, size, 5)
        values[size // 2] = poison
        for slices, workers in layouts(size):
            ours = map_shards(slices, workers,
                              lambda s: backend.max_finite(values, s))
            theirs = [reference_max_finite(values, s) for s in slices]
            assert ours == theirs
            assert all(np.isfinite(top) or top == -np.inf for top in ours)

    def test_max_finite_of_all_minus_inf(self, name, size):
        backend = get_backend(name)
        values = backend.asarray(np.full(size, -np.inf))
        assert backend.max_finite(values, slice(0, size)) == -np.inf
        assert backend.max_finite(values, slice(0, 0)) == -np.inf

    def test_exp_shifted(self, name, size):
        backend = get_backend(name)
        values = log_weights_for(backend, size, 6)
        shift = reference_max_finite(values, slice(0, size))
        for slices, workers in layouts(size):
            ours = backend.empty_like(values)
            map_shards(slices, workers, lambda s: backend.exp_shifted(
                values, shift, ours, s))
            theirs = backend.empty_like(values)
            for shard in slices:
                reference_exp_shifted(values, shift, theirs, shard)
            assert_bitwise(ours, theirs)

    def test_exp_shifted_in_place(self, name, size):
        backend = get_backend(name)
        ours = log_weights_for(backend, size, 7)
        theirs = ours.copy()
        for slices, workers in layouts(size):
            map_shards(slices, workers, lambda s: backend.exp_shifted(
                ours, 0.25, ours, s))
            for shard in slices:
                reference_exp_shifted(theirs, 0.25, theirs, shard)
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
