"""Closed-form risk frontiers in the (sigma, DR) plane.

Every curve here is parameterized by the portfolio risk sigma.  With
u = sqrt(sigma^2 - sigma_mvp^2) the three families are

    efficient DR:        q_dr(sigma) = -0.5 (u - rho/2)^2 + rho^2/8 + q_mvp
    mean-variance DR:    q_ef(sigma) = -0.5 (u - m/2)^2 + m^2/8 + q_mvp
    DR with cash:        q(sigma) = -0.5 sigma^2 + (eta' x / 2) sigma

where m = eta' w_o.  A cash curve holds sigma * x in risky assets and the
rest in cash, for a sleeve x with x' V x = 1.  The risk-free efficient curve
takes x proportional to V^-1 eta, so eta' x = sqrt(eta' V^-1 eta); the
capital-market line takes x = w_T / sigma_T, the tangency portfolio per unit
of its risk.  The two coincide when excess returns are proportional to eta.
The DR-efficient portfolio at risk sigma is an affine mix of the
minimum-variance and maximum-DR portfolios (two-fund separation).  Every
curve reads the directions its universe's covariance kernel caches;
:func:`max_linear_over_ellipsoid` maximizes any other linear objective over
the budget-and-risk set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRhoError,
    DimensionMismatchError,
    MissingReturnsError,
    RiskBelowMvpError,
)
from .model import AssetUniverse, Portfolio, _finite_array, _finite_float, _float_array
from .portfolios import tangent_portfolio

# sigma^2 below (1 - RISK_SNAP_RTOL) sigma_mvp^2 is an error; closer misses snap up.
RISK_SNAP_RTOL = 1e-12
# sigma^2 - sigma_mvp^2 up to this times sigma_mvp^2 is rounding: snapped to 0
_SNAP_RTOL = 4.0 * np.finfo(float).eps
# the default sigma grid reaches this multiple of sigma_mdrp
GRID_SPAN = 3.0


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
    paper's reported inflection scale of a strictly decreasing q_ef curve; it
    is not the curvature root, which :func:`inflection_report` gives in
    closed form next to it.
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


@dataclass(frozen=True)
class DrPoint:
    """DR-efficient portfolio at a given risk level."""

    weights: np.ndarray
    alpha: float
    beyond_mdrp: bool


def frontier_params(universe: AssetUniverse) -> FrontierParams:
    """Compute the frontier scalars of a universe, all read from its kernel.

    eta_wo is None, and the shape degenerate, when the kernel has no
    mean-variance direction w_o: without returns, or with returns
    proportional to ones in the V^-1 metric.
    """
    s = universe.solver
    sigma2_mvp, rho, m = s.sigma2_mvp, s.rho, s.eta_wo
    tau_o = None
    shape = EfShape.DEGENERATE
    if m is not None and m >= 0.0:
        shape = EfShape.STRONGLY_CONCAVE
    elif m is not None:
        shape = EfShape.STRICTLY_DECREASING
        sigma_mvp = float(np.sqrt(sigma2_mvp))
        tau_o = sigma_mvp * float(
            np.sqrt(1.0 + abs(m) ** (4.0 / 3.0) / sigma_mvp ** (2.0 / 3.0))
        )

    return FrontierParams(
        sigma2_mvp=sigma2_mvp,
        q_mvp=s.q_mvp,
        rho=rho,
        sigma2_mdrp=sigma2_mvp + 0.25 * rho * rho,
        q_mdrp=s.q_max,
        eta_wo=m,
        tau_o=tau_o,
        ef_shape=shape,
    )


def _excess_risk(sigma2_mvp: float, sigmas: np.ndarray):
    """u = sqrt(sigma^2 - sigma_mvp^2) on a grid, and the mask of grid points
    below sigma_mvp, every negative sigma included.

    Points within RISK_SNAP_RTOL * sigma_mvp^2 below sigma_mvp^2, or a few
    ulps above it, snap to u = 0: sigma_mvp itself squares back to
    sigma_mvp^2 only up to rounding, and the square root would turn one ulp
    into u ~ 1e-8 sigma_mvp.
    """
    s2 = sigmas * sigmas
    u2 = s2 - sigma2_mvp
    u2[u2 <= _SNAP_RTOL * sigma2_mvp] = 0.0
    return np.sqrt(u2), (s2 < sigma2_mvp * (1.0 - RISK_SNAP_RTOL)) | (sigmas < 0.0)


def _excess_risk_at(sigma2_mvp: float, sigma: float) -> float:
    """Scalar u of :func:`_excess_risk`; a sigma below sigma_mvp, or negative,
    raises RiskBelowMvpError, and one that is not a finite number ParseError."""
    sigma = _finite_float(sigma, "sigma")
    u, below = _excess_risk(sigma2_mvp, np.array([sigma]))
    if below[0]:
        raise RiskBelowMvpError(
            f"sigma = {sigma:.12g} below minimum-variance risk {np.sqrt(sigma2_mvp):.12g}"
        )
    return float(u[0])


def _q_along(params: FrontierParams, m, u):
    """DR of w_mvp + u * d for a unit-variance, zero-budget d with eta' d = m.

    Squares by multiplication (``**`` is C ``pow`` on a float), so at u = 0
    -0.5 (m/2)^2 + m^2/8 is exactly 0 on the scalar and the array route.
    """
    t = u - 0.5 * m
    return -0.5 * (t * t) + m * m / 8.0 + params.q_mvp


def max_linear_over_ellipsoid(
    universe: AssetUniverse, objective, sigma: float
) -> KktSolution:
    """Maximize c' w subject to 1' w = 1 and w' V w <= sigma^2.

    The optimizer is invariant to positive rescaling of c.  For c not
    proportional to ones the solution sits on the risk boundary:

        w = (V^-1 c + lam V^-1 1) / beta = w_mvp + u * d_c,
        beta = sqrt((c' V^-1 c - (1' V^-1 c)^2 / a) / (sigma^2 - sigma_mvp^2)),
        lam = (beta - 1' V^-1 c) / a,  d_c = CovarianceSolver.centred_direction of c.

    c proportional to ones makes every feasible portfolio tie; the
    minimum-variance portfolio is returned with degenerate=True.
    """
    c = _float_array(objective, "objective")
    if c.shape != (universe.n,):
        raise DimensionMismatchError(
            f"objective shape {c.shape} vs universe of {universe.n} assets"
        )
    s = universe.solver
    u = _excess_risk_at(s.sigma2_mvp, sigma)
    d, _ = s.centred_direction(c)
    if d is None:
        return KktSolution(weights=s.w_mvp, degenerate=True)
    return KktSolution(weights=s.w_mvp + u * d)


def q_dr_at(params: FrontierParams, sigma: float) -> float:
    """Efficient-frontier DR at risk sigma.

    With rho = 0 the frontier is flat at q_mvp (every budget portfolio has
    the same weighted-average variance, so extra risk buys nothing).
    """
    u = _excess_risk_at(params.sigma2_mvp, sigma)
    if params.rho == 0.0:
        return params.q_mvp
    return _q_along(params, params.rho, u)


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
    u = _excess_risk_at(params.sigma2_mvp, sigma)
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
    u = _excess_risk_at(params.sigma2_mvp, sigma)
    w = universe.solver.w_mvp + u * universe.solver.w_o
    return _q_along(params, params.eta_wo, u), w


def dr_gap_at(params: FrontierParams, sigma: float) -> float:
    """q_dr(sigma) - q_ef(sigma) = 0.5 (rho - eta' w_o) sqrt(sigma^2 - sigma_mvp^2).

    Nonnegative because eta' w_o <= rho (Cauchy-Schwarz in the V^-1 metric);
    identically zero exactly when expected returns are proportional to the
    variance vector.
    """
    if params.eta_wo is None:
        raise MissingReturnsError("gap needs the mean-variance DR curve")
    u = _excess_risk_at(params.sigma2_mvp, sigma)
    return 0.5 * (params.rho - params.eta_wo) * u


@dataclass(frozen=True)
class CashDrCurve:
    """DR of sigma * x in risky assets and 1 - sigma * 1' x in cash, x' V x = 1.

    The sleeve x has unit risk, so q(sigma) = -sigma^2/2 + gain * sigma / 2
    with gain = eta' x, and when gain > 0 the curve peaks at sigma = gain / 2.
    The risk-free efficient curve takes x proportional to V^-1 eta, the
    capital-market line x = w_T / sigma_T and keeps the tangency portfolio.
    """

    gain: float
    direction: np.ndarray
    tangent: Optional[Portfolio] = None

    @property
    def peak_sigma(self) -> Optional[float]:
        return 0.5 * self.gain if self.gain > 0.0 else None

    def value(self, sigma):
        """q at risk sigma, a float or an array; a negative sigma raises
        RiskBelowMvpError and one that is not a finite number ParseError."""
        s = _finite_array(sigma, "sigma")
        if np.any(s < 0.0):
            raise RiskBelowMvpError("sigma must be nonnegative")
        return -0.5 * s * s + 0.5 * self.gain * s

    def mix(self, sigma):
        """Fraction of wealth in risky assets at risk sigma, sigma * 1' x, a
        float or an array; a negative sigma is read as given, and one that is
        not a finite number raises ParseError."""
        return _finite_array(sigma, "sigma") * float(self.direction.sum())

    def risky_weights(self, sigma: float):
        """Risky sleeve and cash weight at risk sigma, checked by :meth:`value`."""
        sigma = _finite_float(sigma, "sigma")
        self.value(sigma)
        return sigma * self.direction, 1.0 - self.mix(sigma)


def cml_curve(universe: AssetUniverse) -> CashDrCurve:
    """Build the capital-market-line DR curve (needs returns and a feasible r0)."""
    tangent = tangent_portfolio(universe)
    x = tangent.weights / tangent.sigma
    return CashDrCurve(gain=float(universe.variances @ x), direction=x, tangent=tangent)


def q_cml_at(universe: AssetUniverse, sigma: float) -> float:
    return cml_curve(universe).value(_finite_float(sigma, "sigma"))


def riskfree_dr_curve(universe: AssetUniverse) -> CashDrCurve:
    """Build the efficient DR curve with cash, gain = sqrt(eta' V^-1 eta)."""
    s = universe.solver
    gain = float(np.sqrt(max(s.eta_inv_eta, 0.0)))
    if gain <= 0.0:
        raise DegenerateRhoError("all asset variances vanish; curve undefined")
    return CashDrCurve(gain=gain, direction=s.inv_eta / gain)


def q_dr_riskfree_at(universe: AssetUniverse, sigma: float) -> float:
    return riskfree_dr_curve(universe).value(_finite_float(sigma, "sigma"))


# ---------------------------------------------------------------------------
# sweeps


@dataclass(slots=True)
class FrontierRow:
    """One grid point of a frontier sweep; non-applicable fields stay None.
    Slotted, so a row has no ``__dict__``: a sweep builds hundreds."""

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


def default_sigma_grid(params: FrontierParams, points: int = 200) -> np.ndarray:
    """Geometric grid in excess variance, from near sigma_mvp out to
    GRID_SPAN * sigma_mdrp."""
    lo = 1e-6 * params.sigma2_mvp
    hi = (GRID_SPAN * params.sigma_mdrp) ** 2
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
    identical output.  Every kind is evaluated as arrays over the grid, the
    rows are built from those columns in one pass, and the rows below
    sigma_mvp are replaced by index.  The default grid is the universe's
    ``sigma_grid``, computed once per universe; a non-finite grid point
    raises ParseError.

    Every kind without cash is w = w_mvp + u * d with eta' d = m; d None
    collapses it onto w_mvp.  Its centrality is c^2 = q_max - q =
    |u d - (rho / 2) d_eta|_V^2 / 2, i.e.
    (u - rho / 2)^2 / 2 + (rho u / 4) |d - d_eta|_V^2: one O(n^2) product per
    sweep and no cancellation near the maximum-DR portfolio, even when d is
    nearly d_eta.  The two cash kinds are one formula, sigma * x in risky
    assets and the rest in cash for a unit-risk sleeve x (see
    :class:`CashDrCurve`), with x = w_T / sigma_T (cml, alpha the risky
    fraction) or x proportional to V^-1 eta (efficient_dr_riskfree).  Their
    return is sigma * rbar' x + cash * r0 and their rows carry no centrality.
    A negative sigma is flagged risk_below_mvp on every kind.  Weights, of
    every kind, are formed only with include_weights.

    `embedding` is unused; it is kept because existing callers pass it.
    """
    kind = FrontierKind(kind)
    params = frontier_params(universe)
    if sigma_grid is None:
        sigmas = universe.sigma_grid
    else:
        sigmas = _finite_array(sigma_grid, "sigma_grid")
        if sigmas.ndim != 1:
            raise DimensionMismatchError(f"sigma_grid must be 1-D, got shape {sigmas.shape}")
    rbar, r0 = universe.expected_returns, universe.risk_free_rate
    status, ret, centrality, alpha, cash = "ok", None, None, None, None
    if kind in (FrontierKind.CML, FrontierKind.EFFICIENT_DR_RISKFREE):
        if kind is FrontierKind.CML:
            cash_curve = cml_curve(universe)
        else:
            cash_curve = riskfree_dr_curve(universe)
        sleeve = cash_curve.direction
        below = sigmas < 0.0
        # rows below zero are flagged, so their q is never read
        q = cash_curve.value(np.maximum(sigmas, 0.0))
        mix = cash_curve.mix(sigmas)
        cash = 1.0 - mix
        alpha = mix if kind is FrontierKind.CML else None
        if rbar is not None and r0 is not None:
            ret = sigmas * float(rbar @ sleeve) + cash * r0
        weights = sigmas[:, None] * sleeve if include_weights else None
    else:
        s = universe.solver
        u, below = _excess_risk(params.sigma2_mvp, sigmas)
        if kind is FrontierKind.EFFICIENT_DR:
            d, m = s.d_eta, params.rho
            alpha = None if d is None else 2.0 * u / params.rho
        elif kind is FrontierKind.MDP_AT_SIGMA:
            d = s.d_root
            m = 0.0 if d is None else float(universe.variances @ d)
            if d is None:
                status = "degenerate"
        elif params.eta_wo is None:
            raise MissingReturnsError(
                "mean-variance sweeps need non-degenerate expected returns"
            )
        else:
            d, m, alpha = s.w_o, params.eta_wo, u
        if d is None:
            u, d = np.zeros_like(u), np.zeros(universe.n)
        q = _q_along(params, m, u)
        if rbar is not None:
            ret = rbar @ s.w_mvp + u * (rbar @ d)
        e = d - (0.0 if s.d_eta is None else s.d_eta)
        bend = 0.25 * params.rho * float(e @ universe.cov @ e)
        t = u - 0.5 * params.rho
        centrality = np.sqrt(np.maximum(0.5 * (t * t) + bend * u, 0.0))
        weights = s.w_mvp + u[:, None] * d if include_weights else None

    if not include_weights:
        weights, cash = repeat(None), None
    sigma_list = sigmas.tolist()
    q, ret, centrality, alpha, cash = (
        repeat(None) if x is None else x.tolist() for x in (q, ret, centrality, alpha, cash)
    )
    rows = list(
        map(FrontierRow, sigma_list, q, ret, centrality, alpha, repeat(status), weights, cash)
    )
    for i in np.flatnonzero(below).tolist():
        rows[i] = FrontierRow(sigma_list[i], status="risk_below_mvp")
    return FrontierCurve(kind=kind, rows=rows)


# ---------------------------------------------------------------------------
# curvature diagnostics


def inflection_report(universe: AssetUniverse):
    """Curvature root of the mean-variance DR curve next to the reported tau_o.

    With u = sqrt(sigma^2 - sigma_mvp^2) and m = eta' w_o the curve has
    d^2 q / d sigma^2 = -1 - (m / 2) sigma_mvp^2 / u^3, so it bends from
    convex to concave exactly at u*^3 = |m| sigma_mvp^2 / 2 when m < 0, and
    is concave everywhere otherwise.  Returns a dict with the paper's tau_o
    (None unless the curve is strictly decreasing), the root
    sqrt(sigma_mvp^2 + u*^2) under "inflection_empirical" (None when m >= 0),
    their gap, and the shape class.
    """
    params = frontier_params(universe)
    if params.eta_wo is None:
        raise MissingReturnsError("inflection needs the mean-variance DR curve")
    root = gap = None
    if params.eta_wo < 0.0:
        u_star = float(np.cbrt(-0.5 * params.eta_wo * params.sigma2_mvp))
        root = float(np.sqrt(params.sigma2_mvp + u_star * u_star))
        gap = abs(root - params.tau_o)
    return {
        "tau_o_formula": params.tau_o,
        "inflection_empirical": root,
        "abs_gap": gap,
        "shape": params.ef_shape.value,
    }
