"""Closed-form special portfolios of a nonsingular universe.

Every portfolio here is w_mvp + t d for a unit direction d of the
universe's covariance kernel (:attr:`~drfrontier.model.AssetUniverse.solver`):
one batched solve per universe, then a few dot products.  V^-1 is never
formed.  Throughout, for covariance V, variances eta, expected returns rbar
and the centred x0 = x - mean(x) 1:

    a = 1' V^-1 1          (inverse of the minimum-variance variance)
    b = 1' V^-1 rbar = a rbar' w_mvp
    rho^2 = eta0' V^-1 eta0 - (1' V^-1 eta0)^2 / a

which is eta' V^-1 eta - (1' V^-1 eta)^2 / a without its cancellation when
eta is close to a multiple of ones.  rho measures how far eta is from being
proportional to the ones vector in the V^-1 metric; it controls the spread
between the minimum-variance and maximum-DR portfolios and the height of
the DR frontier.  Every portfolio is formed once through
:func:`~drfrontier.model.portfolio_stats`, which reads its centrality about
the universe's ``centre``, so no embedding is built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateReturnsError,
    MissingReturnsError,
    TangencyInfeasibleError,
)
from .model import AssetUniverse, Portfolio, portfolio_stats


def _require_returns(universe: AssetUniverse) -> np.ndarray:
    if universe.expected_returns is None:
        raise MissingReturnsError("universe has no expected returns")
    return universe.expected_returns


def _require_risk_free_rate(universe: AssetUniverse) -> float:
    if universe.risk_free_rate is None:
        raise MissingReturnsError("universe has no risk-free rate")
    return universe.risk_free_rate


def self_financing_direction(universe: AssetUniverse) -> np.ndarray:
    """Unit-variance, zero-budget direction spanning the mean-variance frontier.

    w_o = V^-1 (rbar - (b/a) 1), normalized so that w_o' V w_o = 1.  Satisfies
    1' w_o = 0; every mean-variance efficient portfolio is
    w_mvp + sqrt(sigma^2 - sigma_mvp^2) * w_o.  This is the one refusal of
    the mean-variance curves: a universe without returns raises
    MissingReturnsError, and returns proportional to ones in the V^-1 metric,
    which leave w_o undefined, DegenerateReturnsError.
    """
    _require_returns(universe)
    w_o = universe.solver.w_o
    if w_o is None:
        raise DegenerateReturnsError(
            "expected returns are proportional to ones in the V^-1 metric; "
            "frontier direction undefined"
        )
    return w_o


def q_portfolio(universe: AssetUniverse) -> Portfolio:
    """The portfolio of highest DR on the line w_mvp + t w_o.

    w_Q = w_mvp + (eta' w_o / 2) * w_o, sigma_Q^2 = sigma_mvp^2 + (eta' w_o)^2 / 4.
    It is the mean-variance efficient portfolio with the highest DR only when
    eta' w_o >= 0.  When eta' w_o < 0 it lies on the inefficient branch, below
    the minimum-variance return, and the best efficient choice is w_mvp itself.
    """
    w_o, s = self_financing_direction(universe), universe.solver
    w_q = s.w_mvp + 0.5 * s.eta_wo * w_o
    return portfolio_stats(universe, w_q)


def tangent_portfolio(universe: AssetUniverse) -> Portfolio:
    """Tangency portfolio of the risk-free capital-market line.

    w_T = V^-1 (rbar - r0 1) / (b - r0 a) = w_mvp + (k_r sigma_mvp^2 / (R - r0)) w_o
    with R = rbar' w_mvp = b / a, the minimum-variance return (the kernel's
    ret_mvp), and (w_o, k_r) the kernel's direction of rbar (w_T = w_mvp
    when there is none).
    Requires R - r0 > 1e-12 |R|: the risk-free rate r0 below R.  This is
    the one refusal of the tangency (TangencyInfeasibleError); without
    returns or r0 it raises MissingReturnsError.
    """
    _require_returns(universe)
    r0 = _require_risk_free_rate(universe)
    s = universe.solver
    ret = s.ret_mvp
    if ret - r0 <= 1e-12 * abs(ret):
        raise TangencyInfeasibleError(
            f"b - r0 a = {s.a * (ret - r0):.3e}; risk-free rate must sit below the "
            "minimum-variance portfolio return"
        )
    w_t = s.w_mvp if s.w_o is None else s.w_mvp + (s.k_r * s.sigma2_mvp / (ret - r0)) * s.w_o
    return portfolio_stats(universe, w_t)


@dataclass(frozen=True, eq=False)
class SpecialPortfolios:
    """The named portfolios of a universe.

    Each is w_mvp plus a multiple of a zero-budget direction of the kernel,
    so it sums to one up to rounding: mvp is w_mvp = V^-1 1 / (1' V^-1 1),
    mdrp is the universe's centre s = w_mvp + (rho / 2) d_eta, of DR q_max
    bit for bit and centrality exactly 0.  The scalars tying them together
    (a, rho, w_o, eta' w_o, ...) are the kernel's, ``universe.solver``.  The
    fields needing w_o, or the tangency, are None where
    :func:`self_financing_direction`, or :func:`tangent_portfolio`, refuses.
    """

    mvp: Portfolio
    mdrp: Portfolio
    q_pf: Optional[Portfolio] = None
    tangent: Optional[Portfolio] = None


def special_portfolios(universe: AssetUniverse, embedding=None) -> SpecialPortfolios:
    """Assemble every closed-form portfolio the inputs support.

    `embedding` is unused: every centrality comes from the kernel.  It is
    kept because existing callers pass it.
    """
    mvp = portfolio_stats(universe, universe.solver.w_mvp)
    mdrp = portfolio_stats(universe, universe.centre[0])
    try:
        q_pf = q_portfolio(universe)
    except (MissingReturnsError, DegenerateReturnsError):
        q_pf = None
    try:
        tangent = tangent_portfolio(universe)
    except (MissingReturnsError, TangencyInfeasibleError):
        tangent = None
    return SpecialPortfolios(mvp, mdrp, q_pf, tangent)
