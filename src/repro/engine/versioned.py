"""Version-aware batch evaluation: compile once, invalidate by staleness.

A :class:`~repro.engine.batch.CompiledBatch` already separates *compiling*
a batch (grouping, table stacking) from *evaluating* it, so the layout is
reused across histograms. What it cannot know is whether a histogram it
saw before has changed since — every call pays a full evaluation.

:class:`VersionedBatchEvaluator` closes that gap for linear-answer
workloads against a version-stamped hypothesis (anything exposing
``weights`` plus a monotone ``version``, e.g.
:class:`~repro.data.log_histogram.LogHistogram`). Every answer slot is
stamped with the version it was computed at; a read at an unchanged
version is a cached lookup, and a version bump invalidates — and
recomputes — **only the stale entries**, not the compiled layout:

- :meth:`answers` refreshes exactly the stale rows in one sub-matmul;
- :meth:`answer` serves single queries with growing-block prefetch
  (blocks double while the version holds, reset when it moves — the
  tail of an update-sparse stream collapses into a few large matmuls,
  and an update throws away at most one block);
- :meth:`update_then_answers` fuses the two for callers that apply an
  update and immediately need the whole batch re-answered: one in-place
  log-domain MW accumulation followed by a stale-entry refresh at the
  new version.

:class:`PrivateMWLinear` streams its batched ``answer_all`` through
:meth:`answer` (its rounds consume answers one at a time, so it applies
updates directly and lets lazy staleness do the rest); the benchmark
of record's ``linear_large`` workload (``perfbench/``) times it end to
end.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.exceptions import ValidationError

__all__ = ["VersionedBatchEvaluator"]


class VersionedBatchEvaluator:
    """Linear answers for one query batch, cached per hypothesis version.

    Parameters
    ----------
    tables:
        The stacked query tables, shape ``(batch, |X|)`` — e.g. from
        :func:`repro.engine.kernels.stack_tables` or a zero-copy shared
        matrix. Held by reference; must not be mutated afterwards.
    initial_block:
        First prefetch block size for :meth:`answer`; doubles while the
        hypothesis version holds still.
    backend:
        Optional :class:`~repro.backend.base.ArrayBackend` (or name);
        the tables are cast to its native dtype **once** at
        construction, so every refresh matmul runs at backend precision
        against the backend-native hypothesis weights. ``None`` keeps
        the historical ``float64`` layout. Answer slots are always
        ``float64`` — accelerated products widen on assignment, so
        callers see one answer dtype regardless of backend.

    The evaluator tracks one hypothesis stream: feed it monotonically
    observed versions of a single evolving hypothesis (version numbers
    from different hypotheses would alias).
    """

    def __init__(self, tables: np.ndarray, *, initial_block: int = 8,
                 backend: str | ArrayBackend | None = None) -> None:
        tables = np.asarray(tables, dtype=float)
        if tables.ndim != 2:
            raise ValidationError(
                f"tables must be 2-D (batch x universe), got shape "
                f"{tables.shape}"
            )
        if initial_block < 1:
            raise ValidationError(
                f"initial_block must be >= 1, got {initial_block}"
            )
        if backend is not None:
            tables = resolve_backend(backend).asarray(tables)
        self._tables = tables
        batch = tables.shape[0]
        self._answers = np.empty(batch)
        self._entry_versions = np.full(batch, -1, dtype=np.int64)
        self._initial_block = int(initial_block)
        self._block = self._initial_block
        self._last_version: int | None = None
        self._recomputed_rows = 0
        self._cached_hits = 0

    @classmethod
    def from_queries(cls, queries, *, initial_block: int = 8,
                     backend: str | ArrayBackend | None = None,
                     ) -> "VersionedBatchEvaluator":
        """Stack a :class:`LinearQuery` batch (zero-copy when shared)."""
        from repro.engine import kernels

        queries = list(queries)
        tables = kernels.shared_table_matrix(queries)
        if tables is None:
            tables = kernels.stack_tables(queries)
        return cls(tables, initial_block=initial_block, backend=backend)

    def __len__(self) -> int:
        return self._tables.shape[0]

    @property
    def recomputed_rows(self) -> int:
        """Total answer slots recomputed (stale at read time)."""
        return self._recomputed_rows

    @property
    def cached_hits(self) -> int:
        """Reads served from a same-version slot without any matmul."""
        return self._cached_hits

    # -- evaluation ---------------------------------------------------------

    def answers(self, weights: np.ndarray, version: int) -> np.ndarray:
        """All batch answers at ``version``, refreshing only stale slots.

        Returns a copy (callers may hold it across later refreshes).
        """
        version = self._observe(version)
        stale = self._entry_versions != version
        count = int(np.count_nonzero(stale))
        if count == self._entry_versions.shape[0]:
            # Everything is stale: one dense matmul, no fancy-index copy.
            # An accelerated-dtype product cannot target the float64
            # answer buffer directly; it widens on assignment instead.
            if self._tables.dtype == self._answers.dtype:
                np.matmul(self._tables, weights, out=self._answers)
            else:
                self._answers[:] = self._tables @ weights
            self._entry_versions[:] = version
        elif count:
            self._answers[stale] = self._tables[stale] @ weights
            self._entry_versions[stale] = version
        self._recomputed_rows += count
        self._cached_hits += self._entry_versions.shape[0] - count
        return self._answers.copy()

    def answer(self, weights: np.ndarray, version: int, index: int) -> float:
        """One answer at ``version``, with growing-block prefetch.

        Stream consumers call this in index order; a stale slot pulls in
        the next block (``initial_block``, doubling while the version
        holds), so an update invalidates at most one block of lookahead
        while update-free suffixes collapse into a few large matmuls.
        """
        version = self._observe(version)
        if not 0 <= index < self._entry_versions.shape[0]:
            raise ValidationError(
                f"index {index} out of range for batch of "
                f"{self._entry_versions.shape[0]}"
            )
        if self._entry_versions[index] != version:
            stop = min(self._entry_versions.shape[0], index + self._block)
            self._answers[index:stop] = self._tables[index:stop] @ weights
            self._entry_versions[index:stop] = version
            self._recomputed_rows += stop - index
            self._block *= 2
        else:
            self._cached_hits += 1
        return float(self._answers[index])

    def update_then_answers(self, core, direction: np.ndarray,
                            eta: float) -> np.ndarray:
        """Fused MW-update-then-evaluate against a log-domain core.

        Applies ``log w += eta * direction`` in place (bumping the
        core's version) and immediately refreshes the batch at the new
        version — the materialized weights move straight from the
        update's ``exp`` pass into the answer matmul, with the compiled
        table layout reused as-is.
        """
        core.apply_update(direction, eta)
        return self.answers(core.weights, core.version)

    # -- internals ----------------------------------------------------------

    def _observe(self, version: int) -> int:
        version = int(version)
        if version != self._last_version:
            self._block = self._initial_block
            self._last_version = version
        return version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VersionedBatchEvaluator(batch={len(self)}, "
            f"last_version={self._last_version}, "
            f"recomputed={self._recomputed_rows}, "
            f"hits={self._cached_hits})"
        )
