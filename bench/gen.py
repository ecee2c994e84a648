"""Seeded inputs for the library workloads.

Universes follow the one-factor model of scripts/generate_fixtures.py: annual
vols spread evenly over [0.23, 0.42] and shuffled, betas on a 16%-vol market
factor drawn independently of vol, drifts increasing in variance.  The
covariance is the model's exact one, load load' + diag(vol^2 - load^2), so
its diagonal is vol^2 and it is strictly positive definite.

The same (seed, op index) always gives the same universe; the program sees
only the arrays returned here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# The risk-free rate sits this far below the minimum-variance return, so the
# tangency portfolio and both risk-free curves exist.
RISKFREE_MARGIN = 0.02


@dataclass(frozen=True)
class UniverseInput:
    label: str
    cov: np.ndarray
    expected_returns: Optional[np.ndarray] = None
    risk_free_rate: Optional[float] = None


def op_rng(seed: int, op_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, op_index])


def one_factor(rng: np.random.Generator, n: int, with_returns: bool) -> UniverseInput:
    vols = np.linspace(0.23, 0.42, n)
    rng.shuffle(vols)
    load = 0.16 * rng.uniform(0.6, 1.3, n)
    cov = np.outer(load, load) + np.diag(vols**2 - load**2)
    if not with_returns:
        return UniverseInput(f"n={n}", cov)
    rbar = 0.02 + 2.0 * vols**2 + rng.normal(0.0, 0.01, n)
    x = np.linalg.solve(cov, np.column_stack([np.ones(n), rbar]))
    mvp_return = float(x[:, 1].sum() / x[:, 0].sum())
    return UniverseInput(f"n={n}", cov, rbar, mvp_return - RISKFREE_MARGIN)
