"""`repro.engine` — the batched query-evaluation engine.

The mechanisms in :mod:`repro.core` were written query-at-a-time: each
round evaluates one loss over the whole universe, and a ``k``-query
workload pays ``k`` full passes even when the queries share almost all of
their structure. This package is the batch counterpart — the hot paths
the ROADMAP's "fast as the hardware allows" north star targets:

- :mod:`repro.engine.kernels` — per-family vectorized kernels: the
  loss-matrix layout for linear queries (one matvec answers the whole
  batch) and the margin-matrix layout for GLM losses (one ``|X|×d @
  d×B`` matmul replaces ``B`` per-query feature products). Squared
  losses need neither: they read moments memoized per histogram.
- :mod:`repro.engine.batch` — :func:`compile_batch` groups a
  heterogeneous batch by kernel family; :func:`batch_answers`,
  :func:`batch_loss_on`, and :func:`batch_data_minima` evaluate it in one
  vectorized pass per family, falling back to the scalar path for
  anything a kernel cannot prove it handles.
- :mod:`repro.engine.versioned` — :class:`VersionedBatchEvaluator` keeps
  per-entry version stamps against an evolving hypothesis core, so only
  stale answers recompute across MW updates (plus a fused
  update-then-evaluate call for whole-batch consumers).

Consumers: :class:`~repro.core.pmw_cm.PrivateMWConvex` pre-warms its
data-side minimization cache through :func:`batch_data_minima`;
:class:`~repro.core.pmw_linear.PrivateMWLinear` answers whole streams
through the loss-matrix layout (recomputing only the suffix after each MW
update); the serving layer's batch planner hands mechanism lanes to the
engine before executing them, and the serving gateway
(:mod:`repro.serve.gateway`) coalesces queued concurrent requests into
exactly such lanes.

Agreement with the scalar path is a contract, not an accident: every
kernel computes the same quantity through a reassociated product, and
``tests/property/test_batch_agreement.py`` pins batched-vs-scalar
divergence below ``1e-10``. The benchmark of record (``perfbench/``)
times the batch paths end to end: ``batch_p50_ms`` per workload.
"""

from repro.engine.batch import (
    CompiledBatch,
    batch_answers,
    batch_data_minima,
    batch_loss_on,
    compile_batch,
    dedupe_by_fingerprint,
)
from repro.engine.versioned import VersionedBatchEvaluator
from repro.engine import kernels

__all__ = [
    "CompiledBatch",
    "compile_batch",
    "batch_answers",
    "batch_loss_on",
    "batch_data_minima",
    "dedupe_by_fingerprint",
    "VersionedBatchEvaluator",
    "kernels",
]
