"""Compile a batch of queries into per-family groups and evaluate them.

The engine's entry points take a *heterogeneous* list of queries —
:class:`~repro.losses.linear.LinearQuery` tables, GLM losses with
per-query feature rotations, anything implementing
:class:`~repro.losses.base.LossFunction` — and partition it into groups
that share a vectorized kernel (:mod:`repro.engine.kernels`):

================  =============================================  ===========
group             members                                        kernel
================  =============================================  ===========
``linear``        ``LinearQuery``                                loss matrix
``linear-cm``     ``LinearQueryAsCM``                            moments
``glm``           ``LogisticLoss`` / ``HingeLoss`` /             margin
                  ``HuberLoss`` (exact type, matching link       matrix
                  parameters)
``fallback``      everything else                                per-query
================  =============================================  ===========

Grouping is by *exact* type plus the link parameters the kernel depends
on, so a subclass with an overridden link never silently rides a kernel
that does not match its math — it falls back to the per-query path, which
is always correct. Squared losses take the per-query path too: each
reads its histogram's memoized sufficient statistics
(:meth:`~repro.losses.squared.SquaredLoss.moments`), which is ``O(d²)``
per loss and ``O(d³)`` per minimizer once the first query at a histogram
has paid the moment pass.

Results agree with the scalar path up to floating-point associativity
(``~1e-12`` absolute in practice; the property tests in
``tests/property/test_batch_agreement.py`` pin this down), because each
kernel computes the same quantity through a reassociated product — never
a different approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import backend_of
from repro.data.histogram import Histogram
from repro.engine import kernels
from repro.exceptions import ValidationError
from repro.losses.hinge import HingeLoss, HuberLoss
from repro.losses.linear import LinearQuery, LinearQueryAsCM
from repro.losses.logistic import LogisticLoss
from repro.obs import trace
from repro.optimize.minimize import MinimizeResult, minimize_loss

__all__ = [
    "CompiledBatch",
    "compile_batch",
    "batch_answers",
    "batch_loss_on",
    "batch_data_minima",
    "dedupe_by_fingerprint",
]

_LINEAR = "linear"
_LINEAR_CM = "linear-cm"
_GLM = "glm"
_FALLBACK = "fallback"

#: GLM families with a safe margin-matrix kernel, keyed by *exact* type.
#: The key function returns the link parameters that must match for two
#: instances to share one vectorized link evaluation.
_GLM_FAMILIES = {
    LogisticLoss: lambda loss: (),
    HingeLoss: lambda loss: (),
    HuberLoss: lambda loss: (loss.delta,),
}


def _family_key(query):
    if type(query) is LinearQuery:
        return (_LINEAR,)
    if type(query) is LinearQueryAsCM:
        return (_LINEAR_CM,)
    params = _GLM_FAMILIES.get(type(query))
    if params is not None:
        return (_GLM, type(query), params(query))
    return (_FALLBACK,)


@dataclass
class _Group:
    """One kernel-compatible slice of a batch (positions + members)."""

    kind: str
    indices: list[int]
    members: list
    queries: list | None = None  # each member's LinearQuery (linear groups)
    _tables: np.ndarray | None = field(default=None, repr=False)
    _squared: np.ndarray | None = field(default=None, repr=False)

    @property
    def tables(self) -> np.ndarray:
        """The ``B×|X|`` loss matrix, stacked on first (dense) use."""
        if self._tables is None:
            self._tables = kernels.stack_tables(self.queries)
        return self._tables

    def squared_tables(self) -> np.ndarray:
        """``tables * tables``, computed once per compiled group.

        The tables are immutable, and a CompiledBatch exists to be
        evaluated against many histograms — rebuilding this ``B×|X|``
        temporary per evaluation would dominate the moment kernel it
        feeds.
        """
        if self._squared is None:
            self._squared = self.tables * self.tables
        return self._squared

    def answers(self, histogram: Histogram, *,
                squared: bool = False) -> np.ndarray:
        """``<q_j, D>`` for every member (``<q_j², D>`` when ``squared``):
        on a histogram's support view when it has one, gathering each
        table there (``B × nnz``) instead of stacking ``B × |X|``.
        """
        view = histogram.support_view()
        if view is None:
            tables = self.squared_tables() if squared else self.tables
            return kernels.linear_answers(tables, histogram)
        gathered = kernels.gather_tables(kernels.table_rows(self.queries),
                                         view.indices)
        if squared:
            np.multiply(gathered, gathered, out=gathered)
        return kernels.linear_answers(gathered, view.histogram)


class CompiledBatch:
    """A batch of queries, grouped once, evaluated many times.

    Compiling is cheap (type dispatch; linear tables are stacked only
    when a dense histogram first needs them); the point of keeping the
    compiled object around is re-evaluating the same batch against
    *different* histograms — the serving layer answers a batch against
    an evolving public hypothesis, and PMW-linear replays its stream
    suffix after every update.
    """

    def __init__(self, queries) -> None:
        self.queries = list(queries)
        self._groups: list[_Group] = []
        buckets: dict[tuple, list[int]] = {}
        for index, query in enumerate(self.queries):
            buckets.setdefault(_family_key(query), []).append(index)
        for key, indices in buckets.items():
            members = [self.queries[i] for i in indices]
            linear = None
            if key[0] == _LINEAR:
                linear = members
            elif key[0] == _LINEAR_CM:
                linear = [loss.query for loss in members]
            if linear is not None:
                kernels.table_rows(linear)  # one universe per batch
            self._groups.append(
                _Group(kind=key[0], indices=indices, members=members,
                       queries=linear)
            )

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def group_kinds(self) -> list[str]:
        """The kernel kind of each group (diagnostics / tests)."""
        return [group.kind for group in self._groups]

    # -- evaluation --------------------------------------------------------

    def linear_answers(self, histogram: Histogram) -> np.ndarray:
        """All ``<q_j, D>`` answers in one matvec (``LinearQuery`` only)."""
        out = np.empty(len(self.queries))
        for group in self._groups:
            if group.kind != _LINEAR:
                raise ValidationError(
                    f"linear_answers needs a LinearQuery batch; found a "
                    f"{type(group.members[0]).__name__}"
                )
            out[group.indices] = group.answers(histogram)
        return out

    def loss_values(self, thetas, histogram: Histogram) -> np.ndarray:
        """The batch ``[l_D(theta_j)]`` — one vectorized pass per family.

        ``thetas`` is a sequence of per-query parameters, aligned with the
        compiled query order. Raises for ``LinearQuery`` members (they
        answer via :meth:`linear_answers`, not a parameter).
        """
        thetas = list(thetas)
        if len(thetas) != len(self.queries):
            raise ValidationError(
                f"{len(thetas)} thetas for {len(self.queries)} queries"
            )
        out = np.empty(len(self.queries))
        for group in self._groups:
            group_thetas = [thetas[i] for i in group.indices]
            if group.kind == _LINEAR:
                raise ValidationError(
                    "loss_values is for CM queries; LinearQuery batches "
                    "answer via linear_answers"
                )
            if group.kind == _LINEAR_CM:
                out[group.indices] = _linear_cm_values(
                    group, group_thetas, histogram)
            elif group.kind == _GLM:
                out[group.indices] = _glm_values(
                    group.members, group_thetas, histogram)
            else:
                out[group.indices] = [
                    float(loss.loss_on(np.asarray(theta, dtype=float),
                                       histogram))
                    for loss, theta in zip(group.members, group_thetas)
                ]
        return out

    def data_minima(self, histogram: Histogram, *,
                    solver_steps: int = 400) -> list[MinimizeResult]:
        """Batched ``argmin_theta l(theta; D)`` per query.

        ``linear-cm`` closed forms are batched through query moments;
        every other loss goes through the same
        :func:`~repro.optimize.minimize.minimize_loss` call the scalar
        path makes, so results never diverge from it by more than
        reassociated floating point.
        """
        results: list[MinimizeResult | None] = [None] * len(self.queries)
        for group in self._groups:
            if group.kind == _LINEAR:
                raise ValidationError(
                    "data_minima is for CM queries; LinearQuery batches "
                    "answer via linear_answers"
                )
            if group.kind == _LINEAR_CM:
                minima = _linear_cm_minima(group, histogram)
            else:
                minima = [minimize_loss(loss, histogram, steps=solver_steps)
                          for loss in group.members]
            for index, result in zip(group.indices, minima):
                results[index] = result
        return results


def _linear_cm_moments(group: _Group,
                       histogram: Histogram) -> tuple[np.ndarray, np.ndarray]:
    """First/second query moments ``(<q, D>, <q², D>)`` for the group."""
    return group.answers(histogram), group.answers(histogram, squared=True)


def _linear_cm_value(theta: np.ndarray, first: np.ndarray,
                     second: np.ndarray) -> np.ndarray:
    """``E[(theta - q)^2 / 4] = (theta² - 2·theta·<q,D> + <q²,D>) / 4``."""
    return 0.25 * (theta * theta - 2.0 * theta * first + second)


def _linear_cm_values(group: _Group, thetas,
                      histogram: Histogram) -> np.ndarray:
    """``E[(theta - q)^2 / 4]`` via first/second query moments."""
    theta = np.array([float(np.asarray(t, dtype=float).ravel()[0])
                      for t in thetas])
    first, second = _linear_cm_moments(group, histogram)
    return _linear_cm_value(theta, first, second)


def _linear_cm_minima(group: _Group,
                      histogram: Histogram) -> list[MinimizeResult]:
    """Exact minimizers ``clip(<q, D>, 0, 1)`` for a whole batch at once."""
    first, second = _linear_cm_moments(group, histogram)
    theta = np.clip(first, 0.0, 1.0)
    values = _linear_cm_value(theta, first, second)
    return [
        MinimizeResult(np.array([float(t)]), float(v), True)
        for t, v in zip(theta, values)
    ]


#: Universe rows per block in the margin-matrix evaluation. The block's
#: margin and value matrices (``block × B``) stay cache-resident, so the
#: batch streams the universe points exactly once instead of materializing
#: (and re-reading) two ``|X| × B`` temporaries — on cheap-link families
#: this blocking saves as much as the matmul does.
GLM_BLOCK_ROWS = 2048


def _glm_values(losses, thetas, histogram: Histogram) -> np.ndarray:
    """Margin-matrix evaluation of a same-link GLM group, universe-blocked.

    Runs on the histogram's compact support when it has one (the library
    GLMs are pointwise), exactly as each member's scalar ``loss_on``
    does. Per block of rows: one ``block×d @ d×B`` matmul, one
    vectorized link evaluation, one ``wᵀV`` accumulation. Summation is
    reassociated across blocks (``~1e-15`` vs the scalar path).
    """
    prototype = losses[0]
    histogram = prototype.support_of(histogram)
    universe = histogram.universe
    for loss in losses:  # same incompatibility error as the scalar path
        loss.check_universe_dim(universe)
    parameters = kernels.glm_parameter_matrix(losses, thetas)
    points = universe.points
    # The prototype's own accessor, so an unlabeled universe raises the
    # same LossSpecificationError the scalar path would — batching must
    # not change which exception a caller handles.
    labels = prototype._labels(universe)
    weights = histogram.weights
    backend = backend_of(histogram)
    out = np.zeros(len(losses))
    for start in range(0, universe.size, GLM_BLOCK_ROWS):
        stop = min(start + GLM_BLOCK_ROWS, universe.size)
        margins = kernels.glm_margin_matrix(points[start:stop], parameters,
                                            backend=backend)
        block_labels = (labels[start:stop, None]
                        if labels is not None else None)
        values = prototype.link(margins, block_labels)
        out += weights[start:stop] @ values
    return out


# -- functional façade -----------------------------------------------------


def compile_batch(queries) -> CompiledBatch:
    """Group a query batch by kernel family (see :class:`CompiledBatch`)."""
    return CompiledBatch(queries)


def batch_answers(queries, histogram: Histogram) -> np.ndarray:
    """All linear-query answers ``<q_j, D>`` in one vectorized pass."""
    with trace.span("engine.batch_answers", queries=len(queries)):
        return compile_batch(queries).linear_answers(histogram)


def batch_loss_on(losses, thetas, histogram: Histogram) -> np.ndarray:
    """The batch ``[l_D(theta_j)]`` in one vectorized pass per family."""
    with trace.span("engine.batch_loss_on", losses=len(losses)):
        return compile_batch(losses).loss_values(thetas, histogram)


def batch_data_minima(losses, histogram: Histogram, *,
                      solver_steps: int = 400) -> list[MinimizeResult]:
    """Batched data-side minimizations (closed forms vectorized)."""
    with trace.span("engine.batch_minima", losses=len(losses)):
        return compile_batch(losses).data_minima(histogram,
                                                 solver_steps=solver_steps)


def dedupe_by_fingerprint(queries, *, skip=()):
    """First occurrence of each fingerprintable query in a lane.

    Returns aligned ``(keys, uniques)`` lists, preserving lane order.
    Queries whose state cannot be fingerprinted are dropped (they cannot
    ride a fingerprint-keyed cache), as are keys in ``skip`` (typically
    the consumer's already-warm cache keys). Mechanism ``prewarm`` hooks
    use this so a coalesced gateway batch full of repeats costs one
    kernel entry per *distinct* query, not per request.
    """
    from repro.exceptions import LossSpecificationError

    keys: list[str] = []
    uniques: list = []
    seen = set(skip)
    for query in queries:
        fingerprint = getattr(query, "fingerprint", None)
        if fingerprint is None:
            continue
        try:
            key = fingerprint()
        except LossSpecificationError:
            continue
        if key in seen:
            continue
        seen.add(key)
        keys.append(key)
        uniques.append(query)
    return keys, uniques
