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
Every curve without cash is a ray of two-fund separation (Merton 1972),
w = w_mvp + u d along a direction d that the universe's covariance kernel
caches.  :func:`sweep` evaluates the rays over a grid; each scalar reader,
:func:`~drfrontier.mdp.mdp_at_sigma` too, is one sweep row read at one point,
and :func:`max_linear_over_ellipsoid` is the ray of any other linear objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateRhoError, DimensionMismatchError, RiskBelowMvpError
from .model import AssetUniverse, Portfolio, _finite_array, _finite_float, _float_array
from .portfolios import self_financing_direction, tangent_portfolio

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


def _kernel(name: str) -> property:
    """A read-only FrontierParams attribute: the kernel's attribute `name`."""
    return property(lambda self: getattr(self.universe.solver, name))


@dataclass(frozen=True)
class FrontierParams:
    """Scalars fixing every closed-form curve of a universe: a view that reads
    its covariance kernel and copies nothing.

    eta_wo (and with it tau_o and a non-degenerate shape class) is only
    present when the kernel has a mean-variance direction w_o: with expected
    returns that are not proportional to ones in the V^-1 metric.  tau_o is the
    paper's reported inflection scale of a strictly decreasing q_ef curve; it
    is not the curvature root, which :func:`inflection_report` gives in
    closed form next to it.
    """

    universe: AssetUniverse

    sigma2_mvp = _kernel("sigma2_mvp")
    q_mvp = _kernel("q_mvp")
    rho = _kernel("rho")
    q_mdrp = _kernel("q_max")
    eta_wo = _kernel("eta_wo")

    @property
    def sigma2_mdrp(self) -> float:
        return self.sigma2_mvp + 0.25 * self.rho * self.rho

    @property
    def sigma_mvp(self) -> float:
        return float(np.sqrt(self.sigma2_mvp))

    @property
    def sigma_mdrp(self) -> float:
        return float(np.sqrt(self.sigma2_mdrp))

    @property
    def ef_shape(self) -> EfShape:
        if self.eta_wo is None:
            return EfShape.DEGENERATE
        return EfShape.STRONGLY_CONCAVE if self.eta_wo >= 0.0 else EfShape.STRICTLY_DECREASING

    @property
    def tau_o(self) -> Optional[float]:
        m, s = self.eta_wo, self.sigma_mvp
        if m is None or m >= 0.0:
            return None
        return s * float(np.sqrt(1.0 + abs(m) ** (4.0 / 3.0) / s ** (2.0 / 3.0)))


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
    """The :class:`FrontierParams` view of a universe, whose kernel is built
    first: a singular universe raises SingularCovarianceError here."""
    universe.solver
    return FrontierParams(universe)


def _excess_risk(sigma2_mvp: float, sigmas: np.ndarray):
    """u = sqrt(sigma^2 - sigma_mvp^2) on a grid, and the mask of grid points
    below sigma_mvp, every negative sigma included.

    Points within RISK_SNAP_RTOL * sigma_mvp^2 below sigma_mvp^2, or a few
    ulps above it, snap to u = 0: sigma_mvp itself squares back to
    sigma_mvp^2 only up to rounding, and the square root would turn one ulp
    into u ~ 1e-8 sigma_mvp.

    u is that of the float sigma, on the default grid too, whose exact u^2
    belongs to another sigma than the row's: near sigma_mvp u's condition
    number sigma^2 / u^2 is 1e6.  Against 50 digits at the rows' float sigma
    (800 default-grid rows, four universes) that u^2 was farther on 388 rows
    and closer on 304.
    """
    s2 = sigmas * sigmas
    u2 = s2 - sigma2_mvp
    u2[u2 <= _SNAP_RTOL * sigma2_mvp] = 0.0
    return np.sqrt(u2), (s2 < sigma2_mvp * (1.0 - RISK_SNAP_RTOL)) | (sigmas < 0.0)


def _objective_ray(s, d):
    """The ray maximizing c' w, d the kernel's direction of c; degenerate, on
    w_mvp, when c has none (every feasible portfolio ties)."""
    return (None, 0.0, None, "degenerate") if d is None else (d, float(s.eta0 @ d), None, "ok")


def _ray(universe: AssetUniverse, kind: FrontierKind):
    """(d, m, u_one, status) of a kind without cash: rows w = w_mvp + u d,
    m = eta' d, alpha = u / u_one (None without u_one); d None puts them on
    w_mvp.  A mean-variance kind raises where :func:`self_financing_direction`
    refuses."""
    s = universe.solver
    if kind is FrontierKind.EFFICIENT_DR:
        # alpha = 1 at the maximum-DR portfolio, u = rho / 2
        return s.d_eta, s.rho, None if s.d_eta is None else 0.5 * s.rho, "ok"
    if kind is FrontierKind.MDP_AT_SIGMA:
        return _objective_ray(s, s.d_root)
    return self_financing_direction(universe), s.eta_wo, 1.0, "ok"


def _ray_rows(universe: AssetUniverse, ray, sigmas: np.ndarray, include_weights: bool) -> list:
    """The rows of a :func:`_ray` on the grid sigmas (see :func:`sweep`)."""
    s = universe.solver
    d, m, u_one, status = ray
    u, below = _excess_risk(s.sigma2_mvp, sigmas)
    alpha = None if u_one is None else u / u_one
    if d is None:
        u, d = np.zeros_like(u), np.zeros(universe.n)
    # squared by multiplication (``**`` is C ``pow`` on a float), so at u = 0
    # -0.5 (m/2)^2 + m^2/8 is exactly 0 and q exactly q_mvp
    t = u - 0.5 * m
    q = -0.5 * (t * t) + m * m / 8.0 + s.q_mvp
    rbar = universe.expected_returns
    ret = None if rbar is None else rbar @ s.w_mvp + u * (s.rbar0 @ d)
    e = d - (0.0 if s.d_eta is None else s.d_eta)
    bend = 0.25 * s.rho * float(e @ universe.cov @ e)
    t = u - 0.5 * s.rho
    centrality = np.sqrt(np.maximum(0.5 * (t * t) + bend * u, 0.0))
    weights = s.w_mvp + u[:, None] * d if include_weights else repeat(None)
    return _rows(sigmas, below, status, q, ret, centrality, alpha, weights, None)


def _point(universe: AssetUniverse, ray, sigma) -> FrontierRow:
    """The one-point sweep row, with weights, of a kind or a :func:`_ray` at
    risk sigma.  As in :func:`sweep`, sigma is read before the kind's ray: one
    that is not a finite number raises ParseError, and one below sigma_mvp, or
    negative, RiskBelowMvpError."""
    sigma = _finite_float(sigma, "sigma")
    ray = _ray(universe, ray) if isinstance(ray, FrontierKind) else ray
    (row,) = _ray_rows(universe, ray, np.array([sigma]), True)
    if row.status == "risk_below_mvp":
        mvp = np.sqrt(universe.solver.sigma2_mvp)
        raise RiskBelowMvpError(f"sigma = {sigma:.12g} below minimum-variance risk {mvp:.12g}")
    return row


def max_linear_over_ellipsoid(
    universe: AssetUniverse, objective, sigma: float
) -> KktSolution:
    """Maximize c' w subject to 1' w = 1 and w' V w <= sigma^2.

    The optimizer is invariant to positive rescaling of c.  For c not
    proportional to ones the solution sits on the risk boundary:

        w = (V^-1 c + lam V^-1 1) / beta = w_mvp + u * d_c,
        beta = sqrt((c' V^-1 c - (1' V^-1 c)^2 / a) / (sigma^2 - sigma_mvp^2)),
        lam = (beta - 1' V^-1 c) / a,  d_c = CovarianceSolver.direction of c,

    one solve of c, then the one-point sweep row of the ray along d_c.  c
    proportional to ones makes every feasible portfolio tie; the
    minimum-variance portfolio is returned with degenerate=True.  Accuracy is
    bounded by the rounding of the c passed, which centring cancels when c is
    nearly constant: for c = sqrt(eta) use :func:`~drfrontier.mdp.mdp_at_sigma`.
    """
    c = _float_array(objective, "objective")
    if c.shape != (universe.n,):
        raise DimensionMismatchError(
            f"objective shape {c.shape} vs universe of {universe.n} assets"
        )
    d, _ = universe.solver.direction(c)
    row = _point(universe, _objective_ray(universe.solver, d), sigma)
    return KktSolution(weights=row.weights, degenerate=d is None)


def q_dr_at(params: FrontierParams, sigma: float) -> float:
    """Efficient-frontier DR at risk sigma: the one-point efficient_dr row's q.

    With rho = 0 the frontier is flat at q_mvp (every budget portfolio has
    the same weighted-average variance, so extra risk buys nothing).
    """
    return _point(params.universe, FrontierKind.EFFICIENT_DR, sigma).q


def efficient_dr_portfolio(
    universe: AssetUniverse, params: FrontierParams, sigma: float
) -> DrPoint:
    """DR-efficient portfolio at risk sigma: the one-point efficient_dr row.

    w(sigma) = alpha * w_mdrp + (1 - alpha) * w_mvp with
    alpha = (2 / rho) * sqrt(sigma^2 - sigma_mvp^2).  alpha > 1 lands past
    the maximum-DR portfolio (risk no longer buys DR) and is flagged.
    `params` is unused; it is kept because existing callers pass it.
    """
    row = _point(universe, FrontierKind.EFFICIENT_DR, sigma)
    if row.alpha is None:
        raise DegenerateRhoError("flat frontier: DR-efficient mix undefined")
    return DrPoint(weights=row.weights, alpha=row.alpha, beyond_mdrp=row.alpha > 1.0)


def q_ef_at(universe: AssetUniverse, params: FrontierParams, sigma: float):
    """DR of the mean-variance efficient portfolio at risk sigma.

    Returns (q, weights) of the one-point mv_efficient_dr sweep row; q equals
    the direct DR of the returned weights.  `params` is unused; it is kept
    because existing callers pass it.
    """
    row = _point(universe, FrontierKind.MV_EFFICIENT_DR, sigma)
    return row.q, row.weights


def dr_gap_at(params: FrontierParams, sigma: float) -> float:
    """q_dr(sigma) - q_ef(sigma) = 0.5 (rho - eta' w_o) u, u the one-point
    mv_efficient_dr row's alpha, sqrt(sigma^2 - sigma_mvp^2).

    Nonnegative because eta' w_o <= rho (Cauchy-Schwarz in the V^-1 metric);
    identically zero exactly when expected returns are proportional to the
    variance vector.
    """
    row = _point(params.universe, FrontierKind.MV_EFFICIENT_DR, sigma)
    return 0.5 * (params.rho - params.eta_wo) * row.alpha


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
    sigma = _finite_float(sigma, "sigma")  # read first, as sweep reads its grid
    return cml_curve(universe).value(sigma)


def riskfree_dr_curve(universe: AssetUniverse) -> CashDrCurve:
    """Build the efficient DR curve with cash, gain = sqrt(eta' V^-1 eta):
    V^-1 eta = rho d_eta + a m w_mvp, m = eta' w_mvp, V-orthogonal parts."""
    s = universe.solver
    m = float(universe.variances @ s.w_mvp)
    gain = float(np.sqrt(s.rho * s.rho + s.a * m * m))
    if gain <= 0.0:
        raise DegenerateRhoError("all asset variances vanish; curve undefined")
    x = s.a * m * s.w_mvp + (0.0 if s.d_eta is None else s.rho * s.d_eta)
    return CashDrCurve(gain=gain, direction=x / gain)


def q_dr_riskfree_at(universe: AssetUniverse, sigma: float) -> float:
    sigma = _finite_float(sigma, "sigma")
    return riskfree_dr_curve(universe).value(sigma)


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
    identical output; every kind is evaluated as arrays over the grid.  The
    default grid is the universe's ``sigma_grid``, computed once per
    universe; a non-finite grid point raises ParseError.

    Every kind without cash is a ray w = w_mvp + u * d with eta' d = m, from
    which each scalar reader takes one row; d None collapses it onto w_mvp.
    Its centrality is c^2 = q_max - q =
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
    if sigma_grid is None:
        sigmas = universe.sigma_grid
    else:
        sigmas = _finite_array(sigma_grid, "sigma_grid")
        if sigmas.ndim != 1:
            raise DimensionMismatchError(f"sigma_grid must be 1-D, got shape {sigmas.shape}")
    if kind not in (FrontierKind.CML, FrontierKind.EFFICIENT_DR_RISKFREE):
        rows = _ray_rows(universe, _ray(universe, kind), sigmas, include_weights)
        return FrontierCurve(kind=kind, rows=rows)
    cash_curve = cml_curve(universe) if kind is FrontierKind.CML else riskfree_dr_curve(universe)
    sleeve = cash_curve.direction
    # rows below zero are flagged, so their q is never read
    q = cash_curve.value(np.maximum(sigmas, 0.0))
    mix = cash_curve.mix(sigmas)
    cash = 1.0 - mix
    rbar, r0 = universe.expected_returns, universe.risk_free_rate
    ret = None if rbar is None or r0 is None else sigmas * float(rbar @ sleeve) + cash * r0
    alpha = mix if kind is FrontierKind.CML else None
    weights, cash = (sigmas[:, None] * sleeve, cash) if include_weights else (repeat(None), None)
    rows = _rows(sigmas, sigmas < 0.0, "ok", q, ret, None, alpha, weights, cash)
    return FrontierCurve(kind=kind, rows=rows)


def _rows(sigmas, below, status, q, ret, centrality, alpha, weights, cash) -> list:
    """Rows from a sweep's columns, None where one is; rows in `below` are replaced."""
    sigma_list = sigmas.tolist()
    q, ret, centrality, alpha, cash = (
        repeat(None) if x is None else x.tolist() for x in (q, ret, centrality, alpha, cash)
    )
    rows = list(
        map(FrontierRow, sigma_list, q, ret, centrality, alpha, repeat(status), weights, cash)
    )
    for i in np.flatnonzero(below).tolist():
        rows[i] = FrontierRow(sigma_list[i], status="risk_below_mvp")
    return rows


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
    their gap, and the shape class.  It raises where
    :func:`self_financing_direction` refuses.
    """
    params = frontier_params(universe)
    self_financing_direction(universe)
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
