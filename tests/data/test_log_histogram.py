"""Tests for the version-stamped log-domain hypothesis accumulator."""

import json

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.numpy_backend import BLOCK
from repro.data.builders import interval_grid
from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.exceptions import ValidationError


@pytest.fixture
def universe():
    return interval_grid(64)


@pytest.fixture
def directions(universe):
    rng = np.random.default_rng(11)
    return [rng.uniform(-1.0, 1.0, universe.size) for _ in range(12)]


def immutable_chain(universe, weights, updates):
    hist = (Histogram.uniform(universe) if weights is None
            else Histogram(universe, weights))
    for direction, eta in updates:
        hist = hist.multiplicative_update(direction, eta)
    return hist


class TestConstruction:
    def test_uniform_starts_at_version_zero(self, universe):
        core = LogHistogram.uniform(universe)
        assert core.version == 0
        np.testing.assert_allclose(core.weights, 1.0 / universe.size)

    def test_weights_validated_like_histogram(self, universe):
        with pytest.raises(ValidationError):
            LogHistogram(universe, np.full(universe.size, -1.0))
        with pytest.raises(ValidationError):
            LogHistogram(universe, np.zeros(universe.size))

    def test_from_histogram(self, universe):
        rng = np.random.default_rng(0)
        hist = Histogram(universe, rng.random(universe.size))
        core = LogHistogram.from_histogram(hist)
        np.testing.assert_allclose(core.weights, hist.weights, atol=1e-15)


class TestVersioning:
    def test_each_update_bumps_version(self, universe, directions):
        core = LogHistogram.uniform(universe)
        for expected, direction in enumerate(directions, start=1):
            assert core.apply_update(direction, 0.3) == expected
        assert core.version == len(directions)

    def test_reads_do_not_bump_version(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        core.dot(directions[1])
        core.freeze()
        core.sample_indices(5, rng=0)
        assert core.version == 1

    def test_bad_direction_does_not_bump(self, universe):
        core = LogHistogram.uniform(universe)
        with pytest.raises(ValidationError):
            core.apply_update(np.ones(3), 0.3)
        with pytest.raises(ValidationError):
            core.apply_update(np.full(universe.size, np.nan), 0.3)
        with pytest.raises(ValidationError):
            core.apply_update(np.ones(universe.size), float("inf"))
        assert core.version == 0


class TestAgreementWithImmutablePath:
    def test_update_chain_matches(self, universe, directions):
        core = LogHistogram.uniform(universe)
        updates = [(d, 0.25) for d in directions]
        for direction, eta in updates:
            core.apply_update(direction, eta)
        reference = immutable_chain(universe, None, updates)
        np.testing.assert_allclose(core.weights, reference.weights,
                                   atol=1e-12)

    def test_dot_matches(self, universe, directions):
        core = LogHistogram.uniform(universe)
        for direction in directions:
            core.apply_update(direction, 0.2)
        reference = immutable_chain(universe, None,
                                    [(d, 0.2) for d in directions])
        probe = np.linspace(0.0, 1.0, universe.size)
        assert core.dot(probe) == pytest.approx(reference.dot(probe),
                                                abs=1e-12)

    def test_zero_weight_support_preserved(self, universe):
        weights = np.ones(universe.size)
        weights[:10] = 0.0
        core = LogHistogram(universe, weights)
        core.apply_update(np.ones(universe.size), 0.5)
        assert (core.weights[:10] == 0.0).all()
        assert core.weights.sum() == pytest.approx(1.0)


def unblocked_update(backend, log_weights, direction, eta):
    """One MW update as a single whole-vector expression."""
    product = np.empty_like(log_weights)
    np.multiply(backend.asarray(direction), eta, out=product)
    log_weights += product


def unblocked_weights(backend, log_weights):
    """Max-shift, ``exp`` and normalize, each over the whole vector."""
    shift = float(np.max(log_weights[np.isfinite(log_weights)]))
    weights = np.empty_like(log_weights)
    np.subtract(log_weights, shift, out=weights)
    np.exp(weights, out=weights)
    if backend.name == "float32":
        total = float(weights.sum(dtype=np.float64))
    else:
        total = float(weights.sum())
    weights /= total
    return weights


@pytest.mark.parametrize("backend", ["numpy", "float32"])
@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                  3 * BLOCK + 7])
class TestAgreementWithUnblockedExpressions:
    """A core's log-weights, weights and state are bitwise what the
    whole-vector expressions give, across block boundaries and on both
    NumPy backends — the blocked kernels are an implementation detail."""

    @staticmethod
    def updates(size, count=3):
        rng = np.random.default_rng(size)
        return [(rng.uniform(-1.0, 1.0, size), 0.3 * (k + 1) * (-1) ** k)
                for k in range(count)]

    def test_log_weights_from_the_shared_uniform(self, backend, size):
        backend = get_backend(backend)
        universe = interval_grid(size)
        core = LogHistogram(universe, backend=backend)
        shared = core._log_weights
        before = shared.tobytes()
        reference = np.full(size, -np.log(size), dtype=backend.dtype)
        for direction, eta in self.updates(size):
            core.apply_update(direction, eta)
            unblocked_update(backend, reference, direction, eta)
        assert core._log_weights.tobytes() == reference.tobytes()
        assert (core.state_dict()["log_weights"]
                == reference.astype(np.float64).tolist())
        assert shared.tobytes() == before

    def test_weights_at_every_version(self, backend, size):
        backend = get_backend(backend)
        universe = interval_grid(size)
        core = LogHistogram(universe, backend=backend)
        reference = np.full(size, -np.log(size), dtype=backend.dtype)
        assert (core.weights.tobytes()
                == unblocked_weights(backend, reference).tobytes())
        for direction, eta in self.updates(size):
            core.apply_update(direction, eta)
            unblocked_update(backend, reference, direction, eta)
            expected = unblocked_weights(backend, reference)
            assert core.weights.dtype == expected.dtype
            assert core.weights.tobytes() == expected.tobytes()

    def test_zero_weight_cells(self, backend, size):
        backend = get_backend(backend)
        universe = interval_grid(size)
        weights = np.random.default_rng(size + 1).random(size) + 0.5
        zero = np.arange(size) % 7 == 3
        zero[[i for i in (BLOCK - 1, BLOCK, size - 1) if 0 < i < size]] = True
        weights[zero] = 0.0
        core = LogHistogram(universe, weights, backend=backend)
        reference = backend.from_float64(
            np.asarray(core.state_dict()["log_weights"]))
        for direction, eta in self.updates(size):
            core.apply_update(direction, eta)
            unblocked_update(backend, reference, direction, eta)
        assert core._log_weights.tobytes() == reference.tobytes()
        assert (core.weights.tobytes()
                == unblocked_weights(backend, reference).tobytes())
        assert (core.weights[zero] == 0.0).all()


class TestFreeze:
    def test_frozen_view_cached_per_version(self, universe, directions):
        core = LogHistogram.uniform(universe)
        first = core.freeze()
        assert core.freeze() is first
        core.apply_update(directions[0], 0.3)
        assert core.freeze() is not first

    def test_frozen_view_survives_later_updates(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        frozen = core.freeze()
        pinned = frozen.weights.copy()
        for direction in directions[1:]:
            core.apply_update(direction, 0.3)
            core.freeze()
        np.testing.assert_array_equal(frozen.weights, pinned)

    def test_frozen_view_is_a_histogram(self, universe):
        assert type(LogHistogram.uniform(universe).freeze()) is Histogram

    def test_frozen_weights_read_only(self, universe):
        frozen = LogHistogram.uniform(universe).freeze()
        with pytest.raises(ValueError):
            frozen.weights[0] = 1.0

    def test_divergence_helpers_delegate(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        other = Histogram.uniform(universe)
        frozen = core.freeze()
        assert core.kl_divergence(other) == frozen.kl_divergence(other)
        assert core.total_variation(other) == frozen.total_variation(other)
        assert core.l1_distance(other) == frozen.l1_distance(other)


class TestSampling:
    def test_matches_frozen_sampling(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.5)
        a = core.sample_indices(100, rng=np.random.default_rng(3))
        b = core.freeze().sample_indices(100, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestAnnihilation:
    def test_materialization_raises_cleanly(self, universe):
        core = LogHistogram.uniform(universe)
        with np.errstate(over="ignore"):
            core.apply_update(np.full(universe.size, -1e200), 1e200)
        with pytest.raises(ValidationError, match="annihilated"):
            core.weights


class TestSnapshotRestore:
    @pytest.mark.parametrize("backend", ["numpy", "float32"])
    def test_state_round_trips_bitwise(self, universe, directions, backend):
        core = LogHistogram(universe, backend=backend)
        for direction in directions[:4]:
            core.apply_update(direction, 0.4)
        state = json.loads(json.dumps(core.state_dict()))
        assert set(state) == {"version", "log_weights"}
        restored = LogHistogram.from_state(universe, state, backend=backend)
        assert restored.version == core.version
        np.testing.assert_array_equal(restored.weights, core.weights)

    def test_shard_settings_in_a_state_are_not_read(self, universe,
                                                    directions):
        """States written with shard settings hold the same log-weights
        as dense ones; the extra keys restore to the same core."""
        core = LogHistogram.uniform(universe)
        for direction in directions[:3]:
            core.apply_update(direction, 0.4)
        state = dict(core.state_dict(), num_shards=3, workers=2)
        restored = LogHistogram.from_state(universe, state)
        assert restored.state_dict() == core.state_dict()
        assert restored.weights.tobytes() == core.weights.tobytes()

    def test_restore_then_update_matches_uninterrupted(self, universe,
                                                       directions):
        """The raw log-domain state restores exactly, so continuing after
        a snapshot is bitwise the same as never snapshotting."""
        uninterrupted = LogHistogram.uniform(universe)
        for direction in directions:
            uninterrupted.apply_update(direction, 0.35)

        resumed = LogHistogram.uniform(universe)
        for direction in directions[:6]:
            resumed.apply_update(direction, 0.35)
        state = json.loads(json.dumps(resumed.state_dict()))
        resumed = LogHistogram.from_state(universe, state)
        for direction in directions[6:]:
            resumed.apply_update(direction, 0.35)

        assert resumed.version == uninterrupted.version
        np.testing.assert_array_equal(resumed.weights,
                                      uninterrupted.weights)

    def test_minus_infinity_survives_json(self, universe):
        weights = np.ones(universe.size)
        weights[0] = 0.0
        core = LogHistogram(universe, weights)
        state = json.loads(json.dumps(core.state_dict()))
        restored = LogHistogram.from_state(universe, state)
        assert restored.weights[0] == 0.0
        np.testing.assert_array_equal(restored.weights, core.weights)

    def test_rejects_bad_state(self, universe):
        core = LogHistogram.uniform(universe)
        state = core.state_dict()
        wrong_size = dict(state, log_weights=state["log_weights"][:-1])
        with pytest.raises(ValidationError):
            LogHistogram.from_state(universe, wrong_size)
        nan_state = dict(state,
                         log_weights=[float("nan")] * universe.size)
        with pytest.raises(ValidationError):
            LogHistogram.from_state(universe, nan_state)
        negative_version = dict(state, version=-1)
        with pytest.raises(ValidationError):
            LogHistogram.from_state(universe, negative_version)


class TestBufferReuse:
    def test_unescaped_buffer_is_reused(self, universe, directions):
        """Without freezes, successive materializations reuse one buffer."""
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        first = core.weights
        core.apply_update(directions[1], 0.3)
        assert core.weights is first  # same object, new contents

    def test_escaped_buffer_is_not_overwritten(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        frozen_weights = core.freeze().weights
        core.apply_update(directions[1], 0.3)
        assert core.weights is not frozen_weights


class TestSharedUniformStart:
    """Uniform cores start on one shared, read-only log-weight vector, and
    a core's first update moves it onto a buffer of its own — with the
    same bits as updating a private uniform buffer in place."""

    @staticmethod
    def private_buffer_state(universe, updates):
        """``state_dict()`` of a core that owned its uniform start."""
        log_weights = np.full(universe.size, -np.log(universe.size))
        for direction, eta in updates:
            log_weights += direction * eta
        return {"version": len(updates), "log_weights": log_weights.tolist()}

    @pytest.mark.parametrize("backend", ["numpy", "float32"])
    def test_cores_on_one_universe_share_version_zero(self, universe,
                                                      backend):
        first = LogHistogram(universe, backend=backend)
        second = LogHistogram(universe, backend=backend)
        assert first._log_weights is second._log_weights
        assert not first._log_weights.flags.writeable

    def test_an_update_leaves_the_other_core_and_the_shared_vector(
            self, universe, directions):
        first = LogHistogram.uniform(universe)
        second = LogHistogram.uniform(universe)
        shared = first._log_weights
        before = shared.tobytes()
        second_weights = second.weights.copy()

        first.apply_update(directions[0], 0.4)
        first.apply_update(directions[1], -0.2)

        assert shared.tobytes() == before
        assert second._log_weights is shared
        assert second.version == 0
        np.testing.assert_array_equal(second.weights, second_weights)
        assert second.state_dict() == self.private_buffer_state(universe,
                                                                [])
        assert first._log_weights is not shared
        assert first._log_weights.flags.writeable

    def test_state_dict_bytes_match_a_private_buffer(self, universe,
                                                     directions):
        core = LogHistogram.uniform(universe)
        updates = [(direction, 0.3 * (1 + k % 3))
                   for k, direction in enumerate(directions[:5])]
        for applied in range(len(updates) + 1):
            if applied:
                core.apply_update(*updates[applied - 1])
            expected = self.private_buffer_state(universe,
                                                 updates[:applied])
            assert (json.dumps(core.state_dict())
                    == json.dumps(expected))

    @pytest.mark.parametrize("snapshot_at", [0, 1, 4])
    def test_snapshot_restore_continues_bitwise(self, universe, directions,
                                                snapshot_at):
        uninterrupted = LogHistogram.uniform(universe)
        resumed = LogHistogram.uniform(universe)
        for index, direction in enumerate(directions[:8]):
            if index == snapshot_at:
                state = json.loads(json.dumps(resumed.state_dict()))
                resumed = LogHistogram.from_state(universe, state)
            uninterrupted.apply_update(direction, 0.45)
            resumed.apply_update(direction, 0.45)
        assert resumed.version == uninterrupted.version
        assert resumed.weights.tobytes() == uninterrupted.weights.tobytes()
        assert resumed.state_dict() == uninterrupted.state_dict()

    def test_concurrent_cores_on_one_shared_uniform(self):
        """More threads than cores open cores on one universe and update
        them concurrently: every core ends on its reference bits and the
        shared vector never changes."""
        import os
        import sys
        import threading

        from repro.backend.numpy_backend import BLOCK

        universe = interval_grid(3 * BLOCK + 7)
        rng = np.random.default_rng(21)
        directions = [rng.uniform(-1.0, 1.0, universe.size)
                      for _ in range(2 * (os.cpu_count() or 1) + 2)]
        shared = LogHistogram.uniform(universe)._log_weights
        before = shared.tobytes()
        expected = [self.private_buffer_state(
                        universe, [(d, 0.6), (d, 0.2)])["log_weights"]
                    for d in directions]
        results = [None] * len(directions)

        def work(index):
            core = LogHistogram.uniform(universe)
            core.apply_update(directions[index], 0.6)
            core.apply_update(directions[index], 0.2)
            results[index] = core.state_dict()["log_weights"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(directions))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == expected
        assert shared.tobytes() == before
