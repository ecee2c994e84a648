"""Closed-form risk frontiers in the (sigma, DR) plane.

Every curve is a ray of two-fund separation, w = w0 + u d, from a base point
w0 of risk sigma0 and DR q0 along d with d' V d = 1 and eta' d = m.  At risk
sigma, with u = sqrt(sigma^2 - sigma0^2),

    q(sigma) = q0 + u (m - u) / 2.

A curve without cash starts at the minimum-variance portfolio (Merton 1972)
along a zero-budget direction the covariance kernel caches: d_eta, m = rho,
for the efficient DR curve and w_o, m = eta' w_o, for the mean-variance
curves.  A curve with cash starts at all cash (Tobin 1958), so u = sigma,
and holds sigma * x in risky assets and the rest in cash, for a unit-risk
sleeve x: the risk-free efficient curve x proportional to V^-1 eta, so
m = sqrt(eta' V^-1 eta), the capital-market line x = w_T / sigma_T, the
tangency portfolio per unit of its risk, so m = eta' x.  The two coincide
when excess returns are proportional to eta.  :func:`sweep` evaluates the
rays over a grid, :func:`point` reads one kind's row at one sigma, and
:func:`max_linear_over_ellipsoid` the row of any other linear objective's
ray.  The scalars that fix the rays (sigma_mvp, q_mvp, rho, eta' w_o,
eta' w_mvp, rbar' w_mvp and the shape class ef_shape) are the covariance
kernel's, ``universe.solver``; this module keeps no record of its own (q_max
is ``universe.centre``'s), and its rows carry numbers only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, ParseError, RiskBelowMvpError
from .model import AssetUniverse, CovarianceSolver
from .model import _finite_array, _finite_float, _float_array
from .model import default_sigma_grid  # noqa: F401  (read as frontiers.default_sigma_grid)
from .portfolios import _require_risk_free_rate, self_financing_direction, tangent_portfolio

# sigma^2 below (1 - RISK_SNAP_RTOL) sigma_mvp^2 is an error; closer misses snap up.
RISK_SNAP_RTOL = 1e-12
# sigma^2 - sigma_mvp^2 up to this times sigma_mvp^2 is rounding: snapped to 0
_SNAP_RTOL = 4.0 * np.finfo(float).eps
# the largest sigma whose square is a finite float
MAX_SIGMA = float(np.sqrt(np.finfo(float).max))


class FrontierKind(str, Enum):
    EFFICIENT_DR = "efficient_dr"
    MV_EFFICIENT_DR = "mv_efficient_dr"
    CML = "cml"
    EFFICIENT_DR_RISKFREE = "efficient_dr_riskfree"
    MV_MEAN_RETURN = "mv_mean_return"
    MDP_AT_SIGMA = "mdp_at_sigma"


def frontier_params(universe: AssetUniverse) -> CovarianceSolver:
    """The universe's covariance kernel ``universe.solver`` itself, the one
    record of every scalar that fixes the curves (sigma_mvp, q_mvp, rho,
    eta_wo, ef_shape, ...), for callers that ask this module for it: a
    singular universe raises SingularCovarianceError here."""
    return universe.solver


def _excess_risk(sigma2_0: float, sigmas: np.ndarray):
    """u = sqrt(sigma^2 - sigma0^2) on a grid, and the mask of grid points
    below the base risk sigma0, every negative sigma included.  A sigma
    past MAX_SIGMA in size, whose square overflows, raises ParseError.

    From all cash, sigma0 = 0, u is sigma itself: sqrt(sigma * sigma) would
    underflow to 0 below about 1.5e-154.  From w_mvp, points within
    RISK_SNAP_RTOL * sigma_mvp^2 below sigma_mvp^2, or a few ulps above it,
    snap to u = 0: sigma_mvp itself squares back to sigma_mvp^2 only up to
    rounding, and the square root would turn one ulp into u ~ 1e-8 sigma_mvp.

    u is that of the float sigma, on the default grid too, whose exact u^2
    belongs to another sigma than the row's: near sigma_mvp u's condition
    number sigma^2 / u^2 is 1e6.  Against 50 digits at the rows' float sigma
    (800 default-grid rows, four universes) that u^2 was farther on 388 rows
    and closer on 304.
    """
    big = np.flatnonzero(np.abs(sigmas) > MAX_SIGMA)
    if big.size:
        x = float(sigmas[big[0]])
        raise ParseError(f"sigma {x:.12g} is past {MAX_SIGMA:.12g}: its square overflows")
    if sigma2_0 == 0.0:
        return sigmas, sigmas < 0.0
    s2 = sigmas * sigmas
    u2 = s2 - sigma2_0
    u2[u2 <= _SNAP_RTOL * sigma2_0] = 0.0
    return np.sqrt(u2), (s2 < sigma2_0 * (1.0 - RISK_SNAP_RTOL)) | (sigmas < 0.0)


class _Ray(NamedTuple):
    """A ray w = w0 + u d and its base point at u = 0: weights w0, variance
    sigma2, DR q and return ret there; d None keeps every row on w0.  m =
    eta' d, slope is the return per unit u (None without returns) and alpha
    u / u_one.  risky is None on a budget ray, from w_mvp, whose rows carry
    centrality, and 1' d on a cash ray, from all cash, whose rows carry cash."""

    w: np.ndarray
    sigma2: float
    q: float
    ret: Optional[float]
    d: Optional[np.ndarray]
    m: float
    slope: Optional[float]
    u_one: Optional[float]
    status: str = "ok"
    risky: Optional[float] = None


def _budget_ray(universe: AssetUniverse, d, m: float, u_one, status: str = "ok") -> _Ray:
    """The ray from w_mvp along a zero-budget direction d."""
    s = universe.solver
    slope = None if s.rbar0 is None else 0.0 if d is None else float(s.rbar0 @ d)
    return _Ray(s.w_mvp, s.sigma2_mvp, s.q_mvp, s.ret_mvp, d, m, slope, u_one, status)


def _objective_ray(universe: AssetUniverse, d) -> _Ray:
    """The ray maximizing c' w, d the kernel's direction of c; degenerate, on
    w_mvp, when c has none (every feasible portfolio ties)."""
    m = 0.0 if d is None else float(universe.solver.eta0 @ d)
    return _budget_ray(universe, d, m, None, "degenerate" if d is None else "ok")


def _cash_ray(universe: AssetUniverse, x: np.ndarray, gain: float, u_one) -> _Ray:
    """The ray from all cash, whose return is r0, along a unit-risk sleeve x
    of gain m = eta' x."""
    rbar, r0 = universe.expected_returns, universe.risk_free_rate
    slope = None if rbar is None else float((rbar - r0) @ x)
    return _Ray(np.zeros(universe.n), 0.0, 0.0, r0, x, gain, slope, u_one, risky=x.sum())


def _ray(universe: AssetUniverse, kind: FrontierKind) -> _Ray:
    """The ray of a kind.  A mean-variance kind raises where
    :func:`self_financing_direction` refuses, cml where :func:`tangent_portfolio`
    does, and efficient_dr_riskfree, as cml, without a risk-free rate."""
    s = universe.solver
    if kind is FrontierKind.EFFICIENT_DR:
        # alpha = 1 at the maximum-DR portfolio, u = rho / 2
        return _budget_ray(universe, s.d_eta, s.rho, None if s.d_eta is None else 0.5 * s.rho)
    if kind is FrontierKind.MDP_AT_SIGMA:
        return _objective_ray(universe, s.d_root)
    if kind is FrontierKind.CML:
        # alpha, the risky fraction u 1' x, is 1 at the tangency, u = sigma_T
        tangent = tangent_portfolio(universe)
        x = tangent.weights / tangent.sigma
        return _cash_ray(universe, x, float(universe.variances @ x), tangent.sigma)
    if kind is FrontierKind.EFFICIENT_DR_RISKFREE:
        # V^-1 eta = rho d_eta + a eta_mvp w_mvp, two V-orthogonal parts, and
        # gain > 0: rho = 0 makes eta constant, so eta_mvp = eta_1 > 0
        _require_risk_free_rate(universe)
        gain = float(np.sqrt(s.rho * s.rho + s.a * s.eta_mvp * s.eta_mvp))
        x = s.a * s.eta_mvp * s.w_mvp + (0.0 if s.d_eta is None else s.rho * s.d_eta)
        return _cash_ray(universe, x / gain, gain, None)
    return _budget_ray(universe, self_financing_direction(universe), s.eta_wo, 1.0)


def _ray_rows(universe: AssetUniverse, ray, sigmas: np.ndarray, include_weights: bool) -> list:
    """The rows of a ray on the grid sigmas (see :func:`sweep`): q = q0 +
    u (m - u) / 2, exactly q0 at u = 0, ret = ret0 + u slope, alpha = u / u_one
    and, with include_weights, weights w0 + u d.  Rows below the base risk
    are replaced by flagged ones."""
    u, below = _excess_risk(ray.sigma2, sigmas)
    u, d = (np.zeros_like(u), np.zeros(universe.n)) if ray.d is None else (u, ray.d)
    q = ray.q + 0.5 * u * (ray.m - u)
    ret = None if ray.slope is None else ray.ret + u * ray.slope
    alpha = None if ray.u_one is None else u / ray.u_one
    centrality = cash = None
    if ray.risky is None:
        s = universe.solver
        e = d - (0.0 if s.d_eta is None else s.d_eta)
        bend = 0.25 * s.rho * float(e @ universe.cov @ e)
        t = u - 0.5 * s.rho
        centrality = np.sqrt(np.maximum(0.5 * (t * t) + bend * u, 0.0))
    elif include_weights:
        cash = 1.0 - u * ray.risky
    weights = ray.w + u[:, None] * d if include_weights else repeat(None)
    sigma_list = sigmas.tolist()
    q, ret, centrality, alpha, cash = (
        repeat(None) if x is None else x.tolist() for x in (q, ret, centrality, alpha, cash)
    )
    status = repeat(ray.status)
    rows = list(map(FrontierRow, sigma_list, q, ret, centrality, alpha, status, weights, cash))
    for i in np.flatnonzero(below).tolist():
        rows[i] = FrontierRow(sigma_list[i], status="risk_below_mvp")
    return rows


def point(universe: AssetUniverse, kind, sigma) -> FrontierRow:
    """The :func:`sweep` row, with weights, of a kind at risk sigma, bit for
    bit: q, ret, centrality or cash, alpha, status and weights.  kind is a
    :class:`FrontierKind` or its value (or the ray of
    :func:`max_linear_over_ellipsoid`).

    As in :func:`sweep`, sigma is read before the kind's ray: one that is not
    a finite number raises ParseError, a kind the sweep refuses raises as
    the sweep does, a sigma past MAX_SIGMA in size ParseError, and a sigma
    below the ray's base risk (sigma_mvp, or 0 with cash) RiskBelowMvpError.
    A kind's scalars are the row's fields: on efficient_dr the mix
    alpha = (2 / rho) u of s and w_mvp, None where rho = 0, lands past the
    maximum-DR portfolio when alpha > 1; on mv_efficient_dr alpha is
    u = sqrt(sigma^2 - sigma_mvp^2), so the gap q_dr - q_ef of the two
    curves is 0.5 (rho - eta' w_o) alpha, nonnegative by Cauchy-Schwarz in
    the V^-1 metric.
    """
    sigma = _finite_float(sigma, "sigma")
    ray = kind if isinstance(kind, _Ray) else _ray(universe, FrontierKind(kind))
    (row,) = _ray_rows(universe, ray, np.array([sigma]), True)
    if row.status == "risk_below_mvp":
        base = "minimum-variance" if ray.risky is None else "all-cash"
        risk = np.sqrt(ray.sigma2)
        raise RiskBelowMvpError(f"sigma = {sigma:.12g} below {base} risk {risk:.12g}")
    return row


def max_linear_over_ellipsoid(
    universe: AssetUniverse, objective, sigma: float
) -> FrontierRow:
    """Maximize c' w subject to 1' w = 1 and w' V w <= sigma^2.

    The optimizer is invariant to positive rescaling of c.  For c not
    proportional to ones the solution sits on the risk boundary:

        w = (V^-1 c + lam V^-1 1) / beta = w_mvp + u * d_c,
        beta = sqrt((c' V^-1 c - (1' V^-1 c)^2 / a) / (sigma^2 - sigma_mvp^2)),
        lam = (beta - 1' V^-1 c) / a,  d_c = CovarianceSolver.direction of c,

    one solve of c, then the :func:`point` row, weights and DR q included,
    of the ray along d_c.  c proportional to ones makes every feasible
    portfolio tie; the row then holds the minimum-variance portfolio and
    status "degenerate".  Accuracy is bounded by the rounding of the c
    passed, which centring cancels when c is nearly constant: for
    c = sqrt(eta) read the mdp_at_sigma kind's point.
    """
    c = _float_array(objective, "objective")
    if c.shape != (universe.n,):
        raise DimensionMismatchError(
            f"objective shape {c.shape} vs universe of {universe.n} assets"
        )
    d, _ = universe.solver.direction(c)
    return point(universe, _objective_ray(universe, d), sigma)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(slots=True, eq=False)
class FrontierRow:
    """One grid point of a frontier sweep; non-applicable fields stay None.
    Slotted, so a row has no ``__dict__``: a sweep builds hundreds.  It may
    hold weights, so rows compare by identity, like the other records."""

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
    universe; a non-finite grid point, or one past MAX_SIGMA in size, whose
    square overflows, raises ParseError.

    Every kind is one ray w = w0 + u * d (:func:`_ray`), from which
    :func:`point` takes one row.  A kind without cash starts at w_mvp; d None
    collapses it there.  Its centrality is c^2 = q_max - q =
    (u - rho / 2)^2 / 2 + (rho u / 4) |d - d_eta|_V^2: one O(n^2) product per
    sweep and no cancellation near the maximum-DR portfolio.  The two cash
    kinds need a risk-free rate r0 and start at all cash, u = sigma, along a
    unit-risk sleeve x (:func:`_cash_ray`); cml's alpha is the risky
    fraction sigma 1' x.  Their return is r0 + sigma (rbar - r0 1)' x and
    their rows carry, in place of centrality, the cash 1 - sigma 1' x with
    include_weights, which alone forms the weights of any kind.  A negative
    sigma is flagged risk_below_mvp on every kind.

    `embedding` is unused; it is kept because existing callers pass it.
    """
    kind = FrontierKind(kind)
    if sigma_grid is None:
        sigmas = universe.sigma_grid
    else:
        sigmas = _finite_array(sigma_grid, "sigma_grid")
        if sigmas.ndim != 1:
            raise DimensionMismatchError(f"sigma_grid must be 1-D, got shape {sigmas.shape}")
    rows = _ray_rows(universe, _ray(universe, kind), sigmas, include_weights)
    return FrontierCurve(kind=kind, rows=rows)


# ---------------------------------------------------------------------------
# curvature diagnostics


def inflection_report(universe: AssetUniverse):
    """Curvature root of the mean-variance DR curve next to the reported tau_o.

    With u = sqrt(sigma^2 - sigma_mvp^2) and m = eta' w_o the curve has
    d^2 q / d sigma^2 = -1 - (m / 2) sigma_mvp^2 / u^3, so it bends from
    convex to concave exactly at u*^3 = |m| sigma_mvp^2 / 2 when m < 0, and
    is concave everywhere otherwise.  Returns a dict with the paper's
    reported inflection scale tau_o = sigma_mvp sqrt(1 + |m|^(4/3) /
    sigma_mvp^(2/3)) (None unless the curve is strictly decreasing), the root
    sqrt(sigma_mvp^2 + u*^2) under "inflection_empirical" (None when m >= 0),
    their gap, and the shape class.  It raises where
    :func:`self_financing_direction` refuses.
    """
    s = universe.solver
    self_financing_direction(universe)
    tau_o = root = gap = None
    if s.eta_wo < 0.0:
        m, sigma = abs(s.eta_wo), s.sigma_mvp
        tau_o = sigma * float(np.sqrt(1.0 + m ** (4.0 / 3.0) / sigma ** (2.0 / 3.0)))
        u_star = float(np.cbrt(0.5 * m * s.sigma2_mvp))
        root = float(np.sqrt(s.sigma2_mvp + u_star * u_star))
        gap = abs(root - tau_o)
    return {
        "tau_o_formula": tau_o,
        "inflection_empirical": root,
        "abs_gap": gap,
        "shape": s.ef_shape.value,
    }
