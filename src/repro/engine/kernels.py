"""Per-family kernels for the batched evaluation engine.

Every kernel here turns a *batch* of same-family queries into one or two
dense linear-algebra calls over the whole universe, instead of one pass
per query. The layouts:

- **Loss matrix** (linear queries): stack the ``B`` query tables into a
  matrix ``Q ∈ R^{B×|X|}``; all answers against a histogram ``w`` are the
  single matvec ``Q w``. Dominated by streaming ``Q`` once. A dataset's
  sparse histogram needs only its support columns (:func:`gather_tables`).
- **Margin matrix** (GLM families): a GLM loss in rotated features
  evaluates ``phi((X R_jᵀ) theta_j, y)`` per query — a ``|X|·d²`` matmul
  *per query* on the scalar path. But ``(X R_jᵀ) theta_j = X (R_jᵀ
  theta_j)``, so projecting every parameter first (``B`` tiny ``d×d``
  products) collapses the batch into one ``|X|×d @ d×B`` matmul producing
  the margin matrix ``M ∈ R^{|X|×B}``, followed by one vectorized link
  evaluation — roughly a factor-``d`` flop saving.

Squared losses need no kernel here: their moments ``E[x xᵀ]`` and
``E[y x]`` are memoized per histogram
(:meth:`repro.data.histogram.Histogram.sufficient_statistics`), so every
query after the first at a histogram costs ``d×d`` work on its own.

Kernels are pure functions over arrays; grouping queries into families is
:mod:`repro.engine.batch`'s job.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, backend_of
from repro.data.histogram import Histogram
from repro.exceptions import ValidationError
from repro.utils.validation import root_base

__all__ = [
    "table_rows",
    "stack_tables",
    "shared_table_matrix",
    "gather_tables",
    "linear_answers",
    "glm_parameter_matrix",
    "glm_margin_matrix",
]


def stack_tables(queries) -> np.ndarray:
    """Stack ``LinearQuery`` tables into the loss matrix ``Q ∈ R^{B×|X|}``.

    When the tables are already consecutive rows of one contiguous matrix
    (query families built that way — e.g.
    :func:`repro.experiments.workloads.large_universe_workload` — keep
    their tables as views), the shared matrix is returned **zero-copy**;
    stacking a 64-query batch over a 10^5-element universe would
    otherwise spend more time copying than the evaluation it enables.

    Raises if the tables disagree on universe size (a batch must target
    one universe).
    """
    tables = table_rows(queries)
    if not tables:
        return np.empty((0, 0))
    shared = _shared_row_matrix(tables)
    if shared is not None:
        return shared
    return np.vstack(tables)


def shared_table_matrix(queries) -> np.ndarray | None:
    """The zero-copy loss matrix for a batch, or ``None``.

    Returns the shared base matrix when the tables are exactly its rows
    in order (the :func:`stack_tables` fast path), without ever falling
    back to a copy — callers that cannot afford a ``B×|X|`` allocation
    (e.g. :meth:`repro.core.pmw_linear.PrivateMWLinear.answer_all` over a
    10^7-element universe) probe with this and keep per-query evaluation
    when it returns ``None``.
    """
    tables = table_rows(queries)
    if not tables:
        return np.empty((0, 0))
    return _shared_row_matrix(tables)


def table_rows(queries) -> list[np.ndarray]:
    """The batch's tables (no copies); raises on mixed universe sizes."""
    tables = [np.asarray(query.table, dtype=float) for query in queries]
    if not tables:
        return tables
    size = tables[0].shape[0]
    for index, table in enumerate(tables):
        if table.shape != (size,):
            raise ValidationError(
                f"query {index} has table shape {table.shape}; batch "
                f"universe size is {size}"
            )
    return tables


def _shared_row_matrix(tables) -> np.ndarray | None:
    """The common base matrix, iff the tables are exactly its rows in order."""
    base = root_base(tables[0])
    size = tables[0].shape[0]
    if base.ndim != 2 or base.shape != (len(tables), size):
        return None
    if base.dtype != tables[0].dtype or base.strides[1] != base.itemsize:
        return None
    start = base.__array_interface__["data"][0]
    for row, table in enumerate(tables):
        if root_base(table) is not base:
            return None
        if table.strides != (base.itemsize,):
            return None
        if (table.__array_interface__["data"][0]
                != start + row * base.strides[0]):
            return None
    return base


def gather_tables(tables, indices: np.ndarray) -> np.ndarray:
    """``Q[:, indices]`` (``B × k``) from the loss matrix or a sequence of
    its rows, reading only the gathered entries: unshared tables are
    never stacked ``|X|``-long."""
    out = np.empty((len(tables), indices.shape[0]))
    for row, table in enumerate(tables):
        np.take(table, indices, out=out[row])
    return out


def linear_answers(tables: np.ndarray, histogram: Histogram) -> np.ndarray:
    """All linear-query answers ``Q w`` in one matvec.

    Runs on the histogram's :class:`~repro.backend.base.ArrayBackend`
    (the NumPy default is the historical ``tables @ weights``)."""
    weights = histogram.weights
    if tables.size and tables.shape[1] != weights.shape[0]:
        raise ValidationError(
            f"loss matrix has {tables.shape[1]} columns but the histogram "
            f"universe has {weights.shape[0]} elements"
        )
    return backend_of(histogram).matvec(tables, weights)


def glm_parameter_matrix(losses, thetas) -> np.ndarray:
    """Project batch parameters into universe feature space: ``P ∈ R^{d×B}``.

    Column ``j`` is ``R_jᵀ theta_j`` (or ``theta_j`` for unrotated
    losses), so that ``X P`` is the whole batch's margin matrix. The
    per-column products are ``d×d`` — negligible next to the universe
    matmul they unlock.
    """
    columns = []
    for loss, theta in zip(losses, thetas):
        theta = np.asarray(theta, dtype=float)
        rotation = getattr(loss, "rotation", None)
        columns.append(theta if rotation is None else rotation.T @ theta)
    return np.column_stack(columns)


def glm_margin_matrix(points: np.ndarray, parameters: np.ndarray,
                      backend: ArrayBackend | None = None) -> np.ndarray:
    """The batch margin matrix ``M = X P ∈ R^{|X|×B}`` — one matmul.

    ``backend=None`` keeps the historical dense NumPy matmul; callers
    evaluating against a backend-carrying hypothesis pass its backend so
    the margin kernel follows the same arithmetic.
    """
    if points.shape[1] != parameters.shape[0]:
        raise ValidationError(
            f"universe dim {points.shape[1]} does not match projected "
            f"parameter dim {parameters.shape[0]}"
        )
    if backend is None:
        return points @ parameters
    return backend.matmul(points, parameters)
