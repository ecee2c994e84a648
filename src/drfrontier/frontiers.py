"""Closed-form risk frontiers in the (sigma, DR) plane.

Every curve here is parameterized by the portfolio risk sigma.  With
u = sqrt(sigma^2 - sigma_mvp^2) the three families are

    efficient DR:           q_dr(sigma) = -0.5 (u - rho/2)^2 + rho^2/8 + q_mvp
    mean-variance DR:       q_ef(sigma) = -0.5 (u - m/2)^2 + m^2/8 + q_mvp
    capital-market line DR: q_cml(sigma) = -0.5 sigma^2 + (R_T / (2 sigma_T)) sigma

where m = eta' w_o, R_T = eta' w_T, and the risk-free efficient curve
replaces R_T / sigma_T by sqrt(eta' V^-1 eta).  The DR-efficient portfolio
at risk sigma is an affine mix of the minimum-variance and maximum-DR
portfolios (two-fund separation), and the general engine behind all of the
curves maximizes a linear objective over the budget-and-risk set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRhoError,
    DimensionMismatchError,
    MissingReturnsError,
    RiskBelowMvpError,
)
from .model import AssetUniverse, Portfolio
from .portfolios import (
    proportional_to_ones,
    self_financing_direction,
    tangent_portfolio,
    ZERO_BAND_RTOL,
)

# sigma^2 this far below sigma_mvp^2 is an error; closer misses are snapped up.
RISK_SNAP_ATOL = 1e-12


class FrontierKind(str, Enum):
    EFFICIENT_DR = "efficient_dr"
    MV_EFFICIENT_DR = "mv_efficient_dr"
    CML = "cml"
    EFFICIENT_DR_RISKFREE = "efficient_dr_riskfree"
    MV_MEAN_RETURN = "mv_mean_return"
    MDP_AT_SIGMA = "mdp_at_sigma"


class EfShape(str, Enum):
    """Shape class of the mean-variance DR curve q_ef."""

    STRONGLY_CONCAVE = "strongly_concave"
    STRICTLY_DECREASING = "strictly_decreasing"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class FrontierParams:
    """Scalars fixing every closed-form curve of a universe.

    eta_wo (and with it tau_o and a non-degenerate shape class) is only
    present when the universe carries usable expected returns.  tau_o is the
    reported inflection-scale of a strictly decreasing q_ef curve; the
    second-difference locator over an actual sweep is authoritative when the
    two disagree.
    """

    sigma2_mvp: float
    q_mvp: float
    rho: float
    sigma2_mdrp: float
    q_mdrp: float
    eta_wo: Optional[float] = None
    tau_o: Optional[float] = None
    ef_shape: EfShape = EfShape.DEGENERATE

    @property
    def sigma_mvp(self) -> float:
        return float(np.sqrt(self.sigma2_mvp))

    @property
    def sigma_mdrp(self) -> float:
        return float(np.sqrt(self.sigma2_mdrp))


@dataclass(frozen=True)
class KktSolution:
    """Maximizer of a linear objective over the budget-and-risk set.

    degenerate is True when the objective was proportional to ones, in which
    case every feasible point ties and the minimum-variance portfolio is
    returned.
    """

    weights: np.ndarray
    degenerate: bool = False
    beta: Optional[float] = None


@dataclass(frozen=True)
class DrPoint:
    """DR-efficient portfolio at a given risk level."""

    weights: np.ndarray
    alpha: float
    beyond_mdrp: bool


def frontier_params(universe: AssetUniverse) -> FrontierParams:
    """Compute the frontier scalars of a universe."""
    s = universe.solver
    sigma2_mvp = s.sigma2_mvp
    q_mvp = 0.5 * (s.ones_inv_eta - 1.0) * sigma2_mvp
    rho = s.rho
    sigma2_mdrp = sigma2_mvp + 0.25 * rho * rho
    q_mdrp = q_mvp + 0.125 * rho * rho

    m = None
    tau_o = None
    shape = EfShape.DEGENERATE
    if universe.expected_returns is not None and not proportional_to_ones(
        universe.expected_returns
    ):
        w_o = self_financing_direction(universe)
        m = float(universe.variances @ w_o)
        if abs(m) <= ZERO_BAND_RTOL * rho:
            m = 0.0
        if m >= 0.0:
            shape = EfShape.STRONGLY_CONCAVE
        else:
            shape = EfShape.STRICTLY_DECREASING
            sigma_mvp = float(np.sqrt(sigma2_mvp))
            tau_o = sigma_mvp * float(
                np.sqrt(1.0 + abs(m) ** (4.0 / 3.0) / sigma_mvp ** (2.0 / 3.0))
            )

    return FrontierParams(
        sigma2_mvp=sigma2_mvp,
        q_mvp=q_mvp,
        rho=rho,
        sigma2_mdrp=sigma2_mdrp,
        q_mdrp=q_mdrp,
        eta_wo=m,
        tau_o=tau_o,
        ef_shape=shape,
    )


def _excess_variance(sigma2_mvp: float, sigma: float) -> float:
    """sigma^2 - sigma_mvp^2 with the snap-up guard at the lower endpoint."""
    s2 = float(sigma) * float(sigma)
    if s2 < sigma2_mvp - RISK_SNAP_ATOL:
        raise RiskBelowMvpError(
            f"sigma^2 = {s2:.12g} below minimum-variance level {sigma2_mvp:.12g}"
        )
    return max(s2 - sigma2_mvp, 0.0)


def _excess_risk(sigma2_mvp: float, sigmas: np.ndarray):
    """u = sqrt(sigma^2 - sigma_mvp^2) on a grid, snapped up as above, and the
    mask of grid points below sigma_mvp."""
    s2 = sigmas * sigmas
    return np.sqrt(np.maximum(s2 - sigma2_mvp, 0.0)), s2 < sigma2_mvp - RISK_SNAP_ATOL


def _q_along(params: FrontierParams, m, u):
    """DR of w_mvp + u * d for a unit-variance, zero-budget d with eta' d = m."""
    return -0.5 * (u - 0.5 * m) ** 2 + m * m / 8.0 + params.q_mvp


def max_linear_over_ellipsoid(
    universe: AssetUniverse, objective, sigma: float
) -> KktSolution:
    """Maximize c' w subject to 1' w = 1 and w' V w <= sigma^2.

    The optimizer is invariant to positive rescaling of c.  For c not
    proportional to ones the solution sits on the risk boundary:

        w = (V^-1 c + lam V^-1 1) / beta = w_mvp + u * d_c,
        beta = sqrt((c' V^-1 c - (1' V^-1 c)^2 / a) / (sigma^2 - sigma_mvp^2)),
        lam = (beta - 1' V^-1 c) / a,  d_c = CovarianceSolver.direction of c.

    c proportional to ones makes every feasible portfolio tie; the
    minimum-variance portfolio is returned with degenerate=True.
    """
    c = np.asarray(objective, dtype=float)
    if c.shape != (universe.n,):
        raise DimensionMismatchError(
            f"objective shape {c.shape} vs universe of {universe.n} assets"
        )
    s = universe.solver
    u2 = _excess_variance(s.sigma2_mvp, sigma)
    if proportional_to_ones(c):
        return KktSolution(weights=s.w_mvp, degenerate=True)
    if u2 == 0.0:
        return KktSolution(weights=s.w_mvp)
    d, k = s.direction(c, s.solve(c))
    if d is None:
        # c is indistinguishable from a multiple of ones in the V^-1 metric
        return KktSolution(weights=s.w_mvp, degenerate=True)
    u = float(np.sqrt(u2))
    return KktSolution(weights=s.w_mvp + u * d, beta=k / u)


def q_dr_at(params: FrontierParams, sigma: float) -> float:
    """Efficient-frontier DR at risk sigma.

    With rho = 0 the frontier is flat at q_mvp (every budget portfolio has
    the same weighted-average variance, so extra risk buys nothing).
    """
    u2 = _excess_variance(params.sigma2_mvp, sigma)
    if params.rho == 0.0:
        return params.q_mvp
    return _q_along(params, params.rho, float(np.sqrt(u2)))


def efficient_dr_portfolio(
    universe: AssetUniverse, params: FrontierParams, sigma: float
) -> DrPoint:
    """DR-efficient portfolio at risk sigma as a two-fund mix.

    w(sigma) = alpha * w_mdrp + (1 - alpha) * w_mvp with
    alpha = (2 / rho) * sqrt(sigma^2 - sigma_mvp^2).  alpha > 1 lands past
    the maximum-DR portfolio (risk no longer buys DR) and is flagged.
    """
    if params.rho == 0.0:
        raise DegenerateRhoError("flat frontier: DR-efficient mix undefined")
    u = float(np.sqrt(_excess_variance(params.sigma2_mvp, sigma)))
    alpha = 2.0 * u / params.rho
    w = universe.solver.w_mvp + u * universe.solver.d_eta
    return DrPoint(weights=w, alpha=alpha, beyond_mdrp=alpha > 1.0)


def q_ef_at(universe: AssetUniverse, params: FrontierParams, sigma: float):
    """DR of the mean-variance efficient portfolio at risk sigma.

    Returns (q, weights); q equals the direct DR of the returned weights.
    """
    if params.eta_wo is None:
        raise MissingReturnsError(
            "mean-variance DR curve needs expected returns not proportional to ones"
        )
    u = float(np.sqrt(_excess_variance(params.sigma2_mvp, sigma)))
    w = universe.solver.w_mvp + u * self_financing_direction(universe)
    return _q_along(params, params.eta_wo, u), w


def dr_gap_at(params: FrontierParams, sigma: float) -> float:
    """q_dr(sigma) - q_ef(sigma) = 0.5 (rho - eta' w_o) sqrt(sigma^2 - sigma_mvp^2).

    Nonnegative because eta' w_o <= rho (Cauchy-Schwarz in the V^-1 metric);
    identically zero exactly when expected returns are proportional to the
    variance vector.
    """
    if params.eta_wo is None:
        raise MissingReturnsError("gap needs the mean-variance DR curve")
    u2 = _excess_variance(params.sigma2_mvp, sigma)
    return 0.5 * (params.rho - params.eta_wo) * float(np.sqrt(u2))


@dataclass(frozen=True)
class CmlDrCurve:
    """DR along the capital-market line, q(sigma) = -sigma^2/2 + slope * sigma / 2.

    slope = eta' w_T / sigma_T.  When positive, the curve peaks at
    sigma = slope / 2 where the risky fraction is peak_mix = eta' w_T / (2 sigma_T^2).
    """

    tangent: Portfolio
    slope: float
    peak_sigma: Optional[float]
    peak_mix: Optional[float]

    def value(self, sigma: float) -> float:
        if sigma < 0.0:
            raise RiskBelowMvpError("sigma must be nonnegative")
        return -0.5 * sigma * sigma + 0.5 * self.slope * sigma

    def mix(self, sigma: float) -> float:
        """Fraction of wealth in the tangency portfolio at risk sigma."""
        return float(sigma) / self.tangent.sigma


def cml_curve(universe: AssetUniverse) -> CmlDrCurve:
    """Build the capital-market-line DR curve (needs returns and a feasible r0)."""
    tangent = tangent_portfolio(universe)
    r_t = float(universe.variances @ tangent.weights)
    slope = r_t / tangent.sigma
    peak_sigma = None
    peak_mix = None
    if r_t > 0.0:
        peak_sigma = 0.5 * slope
        peak_mix = 0.5 * r_t / tangent.variance
    return CmlDrCurve(
        tangent=tangent, slope=slope, peak_sigma=peak_sigma, peak_mix=peak_mix
    )


def q_cml_at(universe: AssetUniverse, sigma: float) -> float:
    return cml_curve(universe).value(sigma)


@dataclass(frozen=True)
class RiskFreeDrCurve:
    """Efficient DR when the budget constraint is absorbed by a cash position.

    q(sigma) = -sigma^2/2 + gain * sigma / 2 with gain = sqrt(eta' V^-1 eta).
    The optimal risky sleeve at risk sigma is sigma * direction (cash takes
    the rest); unit_exposure_risk = 1 / gain is the risk of the cheapest
    sleeve with unit weighted-average variance.
    """

    gain: float
    direction: np.ndarray
    unit_exposure_risk: float

    def value(self, sigma: float) -> float:
        if sigma < 0.0:
            raise RiskBelowMvpError("sigma must be nonnegative")
        return -0.5 * sigma * sigma + 0.5 * self.gain * sigma

    def risky_weights(self, sigma: float):
        """Risky sleeve and cash weight at risk sigma."""
        if sigma < 0.0:
            raise RiskBelowMvpError("sigma must be nonnegative")
        w = sigma * self.direction
        return w, 1.0 - float(w.sum())


def riskfree_dr_curve(universe: AssetUniverse) -> RiskFreeDrCurve:
    s = universe.solver
    gain = float(np.sqrt(max(s.eta_inv_eta, 0.0)))
    if gain <= 0.0:
        raise DegenerateRhoError("all asset variances vanish; curve undefined")
    return RiskFreeDrCurve(
        gain=gain,
        direction=s.inv_eta / gain,
        unit_exposure_risk=1.0 / gain,
    )


def q_dr_riskfree_at(universe: AssetUniverse, sigma: float) -> float:
    return riskfree_dr_curve(universe).value(sigma)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class FrontierRow:
    """One grid point of a frontier sweep; non-applicable fields stay None."""

    sigma: float
    q: Optional[float] = None
    ret: Optional[float] = None
    centrality: Optional[float] = None
    alpha: Optional[float] = None
    status: str = "ok"
    weights: Optional[np.ndarray] = None
    cash: Optional[float] = None


@dataclass
class FrontierCurve:
    kind: FrontierKind
    rows: list = field(default_factory=list)

    CSV_HEADER = ("kind", "sigma", "q", "ret", "centrality", "alpha", "status")

    def to_csv_text(self) -> str:
        def fmt(x):
            return "" if x is None else f"{x:.12g}"

        lines = [",".join(self.CSV_HEADER)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        self.kind.value,
                        fmt(r.sigma),
                        fmt(r.q),
                        fmt(r.ret),
                        fmt(r.centrality),
                        fmt(r.alpha),
                        r.status,
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def default_sigma_grid(
    params: FrontierParams, points: int = 200, span: float = 3.0
) -> np.ndarray:
    """Geometric grid in excess variance, from near sigma_mvp out to span * sigma_mdrp."""
    lo = 1e-6 * params.sigma2_mvp
    hi = (span * params.sigma_mdrp) ** 2
    u2 = np.geomspace(lo, max(hi, lo * 10.0), int(points))
    return np.sqrt(params.sigma2_mvp + u2)


def sweep(
    universe: AssetUniverse,
    kind: FrontierKind,
    sigma_grid: Optional[Sequence[float]] = None,
    embedding=None,
    include_weights: bool = False,
) -> FrontierCurve:
    """Evaluate one curve on a sigma grid, one row per grid point.

    Per-point domain violations become row status flags; curve-level
    impossibilities (missing returns, infeasible tangency) raise before any
    row is produced.  Rows are emitted in grid order, so equal inputs give
    identical output.

    Every kind without cash is w = w_mvp + u * d with eta' d = m, evaluated as
    arrays; d None collapses it onto w_mvp.  Centrality (when an embedding is
    passed) is c^2 = q_max - q = |u d - (rho / 2) d_eta|_V^2 / 2, i.e.
    (u - rho / 2)^2 / 2 + (rho u / 4) |d - d_eta|_V^2: no cancellation near
    the maximum-DR portfolio, even when d is nearly d_eta.
    """
    kind = FrontierKind(kind)
    params = frontier_params(universe)
    if sigma_grid is None:
        sigma_grid = default_sigma_grid(params)
    sigmas = np.asarray(sigma_grid, dtype=float)
    rbar = universe.expected_returns
    curve = FrontierCurve(kind=kind)
    if kind in (FrontierKind.CML, FrontierKind.EFFICIENT_DR_RISKFREE):
        cml = cml_curve(universe) if kind is FrontierKind.CML else None
        rf = riskfree_dr_curve(universe) if cml is None else None
        for sigma in sigmas:
            row = FrontierRow(sigma=float(sigma))
            try:
                if cml is not None:
                    row.q = cml.value(sigma)
                    mix = cml.mix(sigma)
                    row.alpha = mix
                    if rbar is not None and universe.risk_free_rate is not None:
                        row.ret = universe.risk_free_rate + mix * (
                            float(rbar @ cml.tangent.weights) - universe.risk_free_rate
                        )
                    if include_weights:
                        row.weights = mix * cml.tangent.weights
                        row.cash = 1.0 - mix
                else:
                    row.q = rf.value(sigma)
                    w, cash = rf.risky_weights(sigma)
                    if rbar is not None and universe.risk_free_rate is not None:
                        row.ret = float(rbar @ w) + cash * universe.risk_free_rate
                    if include_weights:
                        row.weights = w
                        row.cash = cash
            except RiskBelowMvpError:
                row.status = "risk_below_mvp"
            curve.rows.append(row)
        return curve

    s = universe.solver
    u, below = _excess_risk(params.sigma2_mvp, sigmas)
    alpha = None
    if kind is FrontierKind.EFFICIENT_DR:
        d, m = s.d_eta, params.rho
        alpha = None if d is None else 2.0 * u / params.rho
    elif kind is FrontierKind.MDP_AT_SIGMA:
        d = s.d_root
        m = 0.0 if d is None else float(universe.variances @ d)
    elif params.eta_wo is None:
        raise MissingReturnsError(
            "mean-variance sweeps need non-degenerate expected returns"
        )
    else:
        d, m, alpha = s.w_o, params.eta_wo, u
    status = "degenerate" if kind is FrontierKind.MDP_AT_SIGMA and d is None else "ok"
    if d is None:
        u, d = np.zeros_like(u), np.zeros(universe.n)
    none = [None] * len(sigmas)
    q = _q_along(params, m, u).tolist()
    alpha = none if alpha is None else alpha.tolist()
    ret = none if rbar is None else (rbar @ s.w_mvp + u * (rbar @ d)).tolist()
    centrality = none
    if embedding is not None:
        e = d - (0.0 if s.d_eta is None else s.d_eta)
        bend = 0.25 * params.rho * float(e @ universe.cov @ e)
        c_sq = 0.5 * (u - 0.5 * params.rho) ** 2 + bend * u
        centrality = np.sqrt(np.maximum(c_sq, 0.0)).tolist()
    weights = list(s.w_mvp + u[:, None] * d) if include_weights else none
    for i, sigma in enumerate(sigmas.tolist()):
        cells = (q[i], ret[i], centrality[i], alpha[i], status, weights[i])
        if below[i]:
            cells = (None,) * 4 + ("risk_below_mvp", None)
        curve.rows.append(FrontierRow(sigma, *cells))
    return curve


# ---------------------------------------------------------------------------
# curvature diagnostics


def _second_divided(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Second divided differences 2 f[x_{i-1}, x_i, x_{i+1}] (curvature sign)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    d1 = np.diff(ys) / np.diff(xs)
    return 2.0 * np.diff(d1) / (xs[2:] - xs[:-2])


def locate_inflection(xs, ys) -> Optional[float]:
    """First x where the discrete curvature changes sign, by linear interpolation."""
    xs = np.asarray(xs, dtype=float)
    d2 = _second_divided(xs, ys)
    mid = xs[1:-1]
    sign = np.sign(d2)
    for i in range(len(d2) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            t = d2[i] / (d2[i] - d2[i + 1])
            return float(mid[i] + t * (mid[i + 1] - mid[i]))
    return None


def inflection_report(universe: AssetUniverse, points: int = 800, span: float = 3.0):
    """Empirical inflection of the mean-variance DR curve vs the reported tau_o.

    Returns a dict with the formula value (None unless the curve is strictly
    decreasing), the sweep-located inflection, and their gap.  The empirical
    locator is authoritative.
    """
    params = frontier_params(universe)
    if params.eta_wo is None:
        raise MissingReturnsError("inflection needs the mean-variance DR curve")
    sigma_lo = params.sigma_mvp * (1.0 + 1e-9)
    sigma_hi = span * max(params.sigma_mdrp, params.sigma_mvp * 2.0)
    sigmas = np.linspace(sigma_lo, sigma_hi, int(points))
    values = _q_along(params, params.eta_wo, _excess_risk(params.sigma2_mvp, sigmas)[0])
    found = locate_inflection(sigmas, values)
    gap = None
    if found is not None and params.tau_o is not None:
        gap = abs(found - params.tau_o)
    return {
        "tau_o_formula": params.tau_o,
        "inflection_empirical": found,
        "abs_gap": gap,
        "shape": params.ef_shape.value,
    }
