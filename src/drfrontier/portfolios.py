"""Closed-form special portfolios of a nonsingular universe.

Every V^-1 image comes from the universe's own covariance kernel
(:attr:`~drfrontier.model.AssetUniverse.solver`): one Cholesky factorization
and one batched solve per universe, after which each portfolio here is a few
dot products.  No inverse is ever formed explicitly.  Throughout, for a
universe with covariance V, variance vector eta and expected returns rbar:

    a = 1' V^-1 1          (inverse of the minimum-variance variance)
    b = 1' V^-1 rbar
    rho^2 = eta' V^-1 eta - (1' V^-1 eta)^2 / a

rho measures how far eta is from being proportional to the ones vector in
the V^-1 metric; it controls the spread between the minimum-variance and
maximum-DR portfolios and the height of the DR frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import embedding as _embedding
from .errors import (
    DegenerateReturnsError,
    DrFrontierError,
    EmbeddingMismatchError,
    MissingReturnsError,
    TangencyInfeasibleError,
)
from .model import (
    AssetUniverse,
    CovarianceSolver,
    Portfolio,
    portfolio_stats,
    proportional_to_ones,
)

# |eta' w_o| <= ZERO_BAND_RTOL * rho is reported as the knife-edge zero case.
ZERO_BAND_RTOL = 1e-12
# Agreement required between the two independent max-DR formulas.
MDRP_AGREEMENT_ATOL = 1e-8


def solver_for(universe: AssetUniverse) -> CovarianceSolver:
    """The universe's covariance kernel (built once, owned by the universe)."""
    return universe.solver


def min_variance_portfolio(universe: AssetUniverse) -> Portfolio:
    """Minimum-variance budget portfolio w = V^-1 1 / (1' V^-1 1)."""
    s = universe.solver
    dr = 0.5 * (s.ones_inv_eta - 1.0) * s.sigma2_mvp
    expected_return = None
    if universe.expected_returns is not None:
        expected_return = float(universe.expected_returns @ s.w_mvp)
    return Portfolio(
        weights=s.w_mvp,
        variance=s.sigma2_mvp,
        dr=dr,
        expected_return=expected_return,
    )


def max_dr_portfolio(universe: AssetUniverse, embedding=None) -> Portfolio:
    """Maximum-DR budget portfolio, cross-checked through two routes.

    The covariance route is

        w = (1 - 1' V^-1 eta / 2) * w_mvp + 0.5 * V^-1 eta

    and the distance-matrix route normalizes D^-1 1, read from `embedding`
    (built here when none is passed).  Both must agree to
    MDRP_AGREEMENT_ATOL; the DR of the result is q_max = 1 / (2 * 1' D^-1 1).
    """
    s = universe.solver
    w_v = (1.0 - 0.5 * s.ones_inv_eta) * s.w_mvp + 0.5 * s.inv_eta

    emb = _embedding.embed(universe) if embedding is None else embedding
    if emb.universe_fingerprint != universe.fingerprint:
        raise EmbeddingMismatchError("embedding was built from a different universe")
    w_d = emb.mdrp_weights
    gap = float(np.abs(w_v - w_d).max())
    if gap > MDRP_AGREEMENT_ATOL * max(1.0, float(np.abs(w_v).max())):
        raise DrFrontierError(
            f"max-DR routes disagree by {gap:.3e}; universe is numerically unstable"
        )

    expected_return = None
    if universe.expected_returns is not None:
        expected_return = float(universe.expected_returns @ w_v)
    return Portfolio(
        weights=w_v,
        variance=float(w_v @ universe.cov @ w_v),
        dr=emb.q_max,
        expected_return=expected_return,
    )


def _require_returns(universe: AssetUniverse) -> np.ndarray:
    if universe.expected_returns is None:
        raise MissingReturnsError("universe has no expected returns")
    return universe.expected_returns


def self_financing_direction(universe: AssetUniverse) -> np.ndarray:
    """Unit-variance, zero-budget direction spanning the mean-variance frontier.

    w_o = V^-1 (rbar - (b/a) 1), normalized so that w_o' V w_o = 1.  Satisfies
    1' w_o = 0; every mean-variance efficient portfolio is
    w_mvp + sqrt(sigma^2 - sigma_mvp^2) * w_o.
    """
    rbar = _require_returns(universe)
    if proportional_to_ones(rbar):
        raise DegenerateReturnsError(
            "expected returns are proportional to ones; frontier direction undefined"
        )
    w_o = universe.solver.w_o
    if w_o is None:
        raise DegenerateReturnsError(
            "projected return direction has nonpositive V^-1 norm"
        )
    return w_o


def eta_wo(universe: AssetUniverse) -> float:
    """The slope coefficient eta' w_o of weighted-average variance along the frontier."""
    return float(universe.variances @ self_financing_direction(universe))


def eta_wo_sign(universe: AssetUniverse) -> str:
    """Tri-state sign of eta' w_o: 'positive', 'zero', or 'negative'.

    The zero band has half-width ZERO_BAND_RTOL * rho, so the knife-edge
    case is reported explicitly rather than resolved by rounding noise.
    """
    m = eta_wo(universe)
    if abs(m) <= ZERO_BAND_RTOL * universe.solver.rho:
        return "zero"
    return "positive" if m > 0.0 else "negative"


def q_portfolio(universe: AssetUniverse, embedding=None) -> Portfolio:
    """The mean-variance efficient portfolio with the highest DR.

    w_Q = w_mvp + (eta' w_o / 2) * w_o.  When eta' w_o >= 0 this sits on the
    efficient branch with sigma_Q^2 = sigma_mvp^2 + (eta' w_o)^2 / 4; when
    eta' w_o < 0 the formula lands on the inefficient branch and the best
    efficient choice is the minimum-variance portfolio itself (the zero band
    collapses w_Q onto it).
    """
    s = universe.solver
    w_o = self_financing_direction(universe)
    m = float(universe.variances @ w_o)
    if abs(m) <= ZERO_BAND_RTOL * s.rho:
        m = 0.0
    w_q = s.w_mvp + 0.5 * m * w_o
    return portfolio_stats(universe, w_q, embedding=embedding)


def tangent_portfolio(universe: AssetUniverse) -> Portfolio:
    """Tangency portfolio of the risk-free capital-market line.

    w_T = V^-1 (rbar - r0 1) / (b - r0 a); requires the minimum-variance
    portfolio return b / a to exceed the risk-free rate r0.
    """
    rbar = _require_returns(universe)
    if universe.risk_free_rate is None:
        raise MissingReturnsError("universe has no risk-free rate")
    r0 = universe.risk_free_rate
    s = universe.solver
    denom = s.b - r0 * s.a
    if denom <= 1e-12 * abs(s.b):
        raise TangencyInfeasibleError(
            f"b - r0 a = {denom:.3e}; risk-free rate must sit below the "
            "minimum-variance portfolio return"
        )
    w_t = (s.inv_r - r0 * s.inv_ones) / denom
    return portfolio_stats(universe, w_t)


@dataclass(frozen=True)
class SpecialPortfolios:
    """The named portfolios of a universe, plus the scalars tying them together.

    d = mdrp.weights - mvp.weights satisfies 1' d = 0, d' V w_mvp = 0 and
    d' V d = rho^2 / 4.  Fields needing expected returns (or a feasible
    risk-free rate) are None when the inputs are absent or degenerate.
    """

    mvp: Portfolio
    mdrp: Portfolio
    d: np.ndarray
    a: float
    rho: float
    b: Optional[float] = None
    w_o: Optional[np.ndarray] = None
    eta_wo: Optional[float] = None
    eta_wo_sign: Optional[str] = None
    q_pf: Optional[Portfolio] = None
    tangent: Optional[Portfolio] = None


def special_portfolios(universe: AssetUniverse, embedding=None) -> SpecialPortfolios:
    """Assemble every closed-form portfolio the inputs support."""
    s = universe.solver
    mvp = min_variance_portfolio(universe)
    mdrp = max_dr_portfolio(universe, embedding=embedding)
    if embedding is not None:
        mvp = portfolio_stats(universe, mvp.weights, embedding=embedding)
        mdrp = portfolio_stats(universe, mdrp.weights, embedding=embedding)

    m = sign = q_pf = tangent = None
    if s.w_o is not None:
        m = float(universe.variances @ s.w_o)
        sign = eta_wo_sign(universe)
        q_pf = q_portfolio(universe, embedding=embedding)
        if universe.risk_free_rate is not None:
            try:
                tangent = tangent_portfolio(universe)
            except TangencyInfeasibleError:
                tangent = None
            if tangent is not None and embedding is not None:
                tangent = portfolio_stats(universe, tangent.weights, embedding=embedding)

    return SpecialPortfolios(
        mvp=mvp,
        mdrp=mdrp,
        d=mdrp.weights - mvp.weights,
        a=s.a,
        rho=s.rho,
        b=s.b,
        w_o=s.w_o,
        eta_wo=m,
        eta_wo_sign=sign,
        q_pf=q_pf,
        tangent=tangent,
    )
