"""Property test: a warm-started hypothesis solve is as good as a cold one.

``PrivateMWConvex`` seeds each hypothesis-side solve from the same
query's previous minimizer and, while that start is at most
``WARM_STALENESS_LIMIT`` versions old, cuts the step budget to a
quarter. The argument is that one MW step moves the hypothesis by at
most ``O(eta)``, so the old minimizer is a near-solution. This pins the
consequence in the best-seen-objective style of a solver-decrease check:
after up to ``WARM_STALENESS_LIMIT`` updates with ``eta <= 0.1``, the
reduced-budget warm solve lands within ``1e-5`` (relative to
``max(1, |value|)``) of a cold full-budget solve. Logistic losses have
no closed form, so the gradient solver really runs; closed-form losses
(quadratics, squared) ignore the budget and are exact either way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pmw_cm import PrivateMWConvex
from repro.data.dataset import Dataset
from repro.data.log_histogram import LogHistogram
from repro.data.universe import Universe
from repro.erm.oracle import NonPrivateOracle
from repro.losses.families import random_logistic_family
from repro.optimize.minimize import minimize_loss

SIZE, DIM = 2000, 6
_points = np.random.default_rng(0).standard_normal((SIZE, DIM))
_points /= np.linalg.norm(_points, axis=1).max()
UNIVERSE = Universe(_points, labels=np.sign(_points[:, 0] + 1e-12),
                    name="warm-start")
# The budgets the mechanism itself uses.
MECHANISM = PrivateMWConvex(Dataset(UNIVERSE, np.arange(100)),
                            NonPrivateOracle(), scale=2.0, alpha=0.2)
TOLERANCE = 1e-5


@given(seed=st.integers(min_value=0, max_value=2**16),
       updates=st.integers(min_value=1,
                           max_value=MECHANISM.WARM_STALENESS_LIMIT),
       eta=st.floats(min_value=1e-3, max_value=0.1))
@settings(max_examples=25, deadline=None)
def test_quarter_budget_warm_solve_matches_cold_solve(seed, updates, eta):
    assert MECHANISM.warm_solver_steps * 4 == MECHANISM.solver_steps
    loss = random_logistic_family(UNIVERSE, 1, rng=seed)[0]
    core = LogHistogram(UNIVERSE)
    start = minimize_loss(loss, core.freeze(),
                          steps=MECHANISM.solver_steps).theta
    rng = np.random.default_rng(seed)
    for _ in range(updates):
        core.apply_update(rng.uniform(-1.0, 1.0, SIZE), eta)
    hypothesis = core.freeze()
    warm = minimize_loss(loss, hypothesis,
                         steps=MECHANISM.warm_solver_steps, start=start)
    cold = minimize_loss(loss, hypothesis, steps=MECHANISM.solver_steps)
    assert abs(warm.value - cold.value) <= TOLERANCE * max(1.0,
                                                           abs(cold.value))
