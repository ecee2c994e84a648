"""Most-diversified portfolio and its link to the DR frontier.

The diversification ratio of a budget portfolio is
sqrt(eta)' w / sqrt(w' V w).  Replacing the weighted-average variance eta' w
in the DR functional by the squared weighted-average volatility
(sqrt(eta)' w)^2 swaps the distance matrix D for

    D_eta[i, j] = 0.5 * (sqrt(eta_i) - sqrt(eta_j))^2

which is always a Euclidean squared-distance matrix (points on a line).  The
two objectives differ, on long-only portfolios, by at most twice

    d_max = max over the simplex of 0.5 * w' D_eta w

which this module brackets: an exact upper bound from the largest entry of
D_eta and a lower bound from multi-start replicator ascent.  That bracket is
what makes the ratio-maximizing portfolio track the DR-efficient frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeVarianceError,
    NotSPDError,
    SingularCovarianceError,
    ZeroVarianceError,
)
from .frontiers import KktSolution, max_linear_over_ellipsoid
from .model import AssetUniverse, Portfolio, portfolio_stats

# replicator ascent stops when the largest weight update is below this
STEP_TOL = 1e-12
MAX_ITER = 10_000
# closed-form ratio must beat a sigma sweep to this relative slack
RATIO_SWEEP_RTOL = 1e-6


@dataclass(frozen=True)
class DmaxBounds:
    """Bracket for the simplex maximum of 0.5 * w' A w.

    lower comes from the best replicator run (a feasible point, so it is a
    genuine lower bound); upper = 0.5 * max A is valid but not tight (two-point
    supports reach 0.25 * max A).  converged is False when a run hit the cap.
    """

    lower: float
    upper: float
    argmax_weights: np.ndarray
    starts_used: int
    converged: bool


@dataclass(frozen=True)
class MdpAnalysis:
    """Ratio-optimal portfolio plus the objective-gap bracket of its universe."""

    portfolio: Portfolio
    ratio: float
    d_eta: np.ndarray
    d_max_lower: float
    d_max_upper: float
    starts_used: int
    converged: bool


@dataclass(frozen=True)
class SandwichReport:
    """Monte Carlo check of the objective sandwich at one risk level.

    gap = max eta' w - max (sqrt(eta)' w)^2 over the sampled long-only
    portfolios near the risk shell; holds when 0 <= gap <= 2 * d_max_upper
    (up to rounding).  empty flags a level where no sample hit the shell.
    """

    sigma: float
    requested: int
    accepted: int
    max_avg_variance: float
    max_avg_volatility_sq: float
    gap: float
    d_max_upper: float
    holds: Optional[bool]
    empty: bool


def build_d_eta(universe: AssetUniverse) -> np.ndarray:
    """Volatility distance matrix D_eta[i, j] = 0.5 (sqrt(eta_i) - sqrt(eta_j))^2."""
    eta = np.asarray(universe.variances, dtype=float)
    if float(eta.min()) < -1e-12:
        raise NegativeVarianceError(f"negative asset variance {eta.min():.3e}")
    root = np.sqrt(np.clip(eta, 0.0, None))
    # difference-of-roots form: no cancellation for near-equal variances,
    # exact zero diagonal, nonnegative by construction
    diff = root[:, None] - root[None, :]
    return 0.5 * diff * diff


def diversification_ratio(universe: AssetUniverse, weights) -> float:
    """sqrt(eta)' w / sqrt(w' V w) for a budget portfolio."""
    p = portfolio_stats(universe, weights)
    if p.variance <= 0.0:
        raise ZeroVarianceError("portfolio variance is zero; ratio undefined")
    root = np.sqrt(np.clip(universe.variances, 0.0, None))
    return float(root @ p.weights) / p.sigma


def mdp_global(universe: AssetUniverse) -> Portfolio:
    """Ratio-maximizing budget portfolio w proportional to V^-1 sqrt(eta).

    Verified against a sigma sweep of :func:`mdp_at_sigma`: the closed form
    must match the best swept ratio to RATIO_SWEEP_RTOL, otherwise the
    universe violates the normalization assumption and an error is raised.
    The swept maximizers are w_mvp + u * d_root, so their ratios are one
    array expression in u over the cached kernel.
    """
    eta = universe.variances
    if float(eta.min()) <= 0.0:
        raise ZeroVarianceError("every asset needs positive variance")
    s = universe.solver
    root = np.sqrt(eta)
    x = s.inv_root_eta
    total = float(np.ones(universe.n) @ x)
    if abs(total) < 1e-300:
        raise SingularCovarianceError("V^-1 sqrt(eta) sums to zero; cannot normalize")
    w = x / total
    best = diversification_ratio(universe, w)

    # audit: sweep the risk-constrained solutions and compare ratios
    sigma_lo = float(np.sqrt(s.sigma2_mvp))
    sigma_hi = 16.0 * max(sigma_lo, float(np.sqrt(w @ universe.cov @ w)))
    sigmas = np.geomspace(sigma_lo * (1.0 + 1e-9), sigma_hi, 64)
    slope, u = 0.0, np.zeros(len(sigmas))  # equal volatilities: all are w_mvp
    if s.d_root is not None:
        slope, u = float(root @ s.d_root), np.sqrt(sigmas * sigmas - s.sigma2_mvp)
    swept = float(np.max((root @ s.w_mvp + u * slope) / np.sqrt(s.sigma2_mvp + u * u)))
    if swept > best * (1.0 + RATIO_SWEEP_RTOL):
        raise NotSPDError(
            f"closed-form ratio {best:.12g} beaten by sweep {swept:.12g}; "
            "normalization of V^-1 sqrt(eta) failed"
        )
    return portfolio_stats(universe, w)


def mdp_at_sigma(universe: AssetUniverse, sigma: float) -> KktSolution:
    """Maximize sqrt(eta)' w at risk sigma (degenerate when all vols are equal)."""
    root = np.sqrt(np.clip(universe.variances, 0.0, None))
    return max_linear_over_ellipsoid(universe, root, sigma)


def _replicator(A: np.ndarray, w0: np.ndarray, max_iter: int, tol: float):
    """Multiplicative-update ascent of w' A w on the simplex.

    For nonnegative symmetric A the update w <- w * (A w) / (w' A w) never
    decreases the objective.  A zero denominator means the current support
    carries no interaction mass; the point is stationary.
    """
    w = w0
    for _ in range(max_iter):
        Aw = A @ w
        denom = float(w @ Aw)
        if denom <= 0.0:
            return w, True
        w_new = w * Aw / denom
        w_new /= w_new.sum()
        if float(np.abs(w_new - w).max()) <= tol:
            return w_new, True
        w = w_new
    return w, False


def d_max_bounds(
    d_eta,
    starts: int = 32,
    seed: int = 0,
    max_iter: int = MAX_ITER,
    step_tol: float = STEP_TOL,
) -> DmaxBounds:
    """Bracket max over the simplex of 0.5 * w' A w for a nonnegative matrix A.

    Start points: every vertex, every pair midpoint, and `starts` Dirichlet
    draws from a seeded generator (drawn sequentially, so enlarging `starts`
    keeps the earlier runs and the lower bound is monotone in `starts`).
    """
    A = np.asarray(d_eta, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {A.shape}")
    n = A.shape[0]
    rng = np.random.default_rng(seed)

    start_points = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        start_points.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i] = e[j] = 0.5
            start_points.append(e)
    for _ in range(int(starts)):
        start_points.append(rng.dirichlet(np.ones(n)))

    best_val = -np.inf
    best_w = start_points[0]
    all_converged = True
    for w0 in start_points:
        w, ok = _replicator(A, w0, max_iter, step_tol)
        all_converged = all_converged and ok
        val = 0.5 * float(w @ A @ w)
        if val > best_val:
            best_val = val
            best_w = w
    upper = 0.5 * float(A.max())
    return DmaxBounds(
        lower=best_val,
        upper=upper,
        argmax_weights=best_w,
        starts_used=len(start_points),
        converged=all_converged,
    )


def analyze_mdp(universe: AssetUniverse, starts: int = 32, seed: int = 0) -> MdpAnalysis:
    """Bundle the ratio-optimal portfolio with the d_max bracket of its universe."""
    portfolio = mdp_global(universe)
    d_eta = build_d_eta(universe)
    bounds = d_max_bounds(d_eta, starts=starts, seed=seed)
    return MdpAnalysis(
        portfolio=portfolio,
        ratio=diversification_ratio(universe, portfolio.weights),
        d_eta=d_eta,
        d_max_lower=bounds.lower,
        d_max_upper=bounds.upper,
        starts_used=bounds.starts_used,
        converged=bounds.converged,
    )


def sandwich_check(
    universe: AssetUniverse,
    sigma: float,
    samples: int = 100_000,
    seed: int = 0,
    band: float = 0.01,
    max_batches: int = 500,
) -> SandwichReport:
    """Sample long-only portfolios near the risk shell and test the sandwich.

    Rejection-samples Dirichlet portfolios whose risk lies within a relative
    `band` of sigma, then compares the best weighted-average variance with
    the best squared weighted-average volatility.  An empty accepted set is
    reported, not fatal.
    """
    eta = np.clip(universe.variances, 0.0, None)
    root = np.sqrt(eta)
    d_upper = 0.5 * float(build_d_eta(universe).max())
    rng = np.random.default_rng(seed)

    n = universe.n
    batch = max(int(samples), 100_000)
    max_avg_var = -np.inf
    max_avg_vol_sq = -np.inf
    accepted = 0
    for _ in range(max_batches):
        W = rng.dirichlet(np.ones(n), size=batch)
        risk = np.sqrt(np.einsum("ij,jk,ik->i", W, universe.cov, W))
        mask = np.abs(risk - sigma) <= band * sigma
        hits = int(mask.sum())
        if hits:
            Wa = W[mask]
            max_avg_var = max(max_avg_var, float((Wa @ eta).max()))
            max_avg_vol_sq = max(max_avg_vol_sq, float(((Wa @ root) ** 2).max()))
            accepted += hits
        if accepted >= samples:
            break

    if accepted == 0:
        return SandwichReport(
            sigma=float(sigma),
            requested=int(samples),
            accepted=0,
            max_avg_variance=float("nan"),
            max_avg_volatility_sq=float("nan"),
            gap=float("nan"),
            d_max_upper=d_upper,
            holds=None,
            empty=True,
        )

    gap = max_avg_var - max_avg_vol_sq
    holds = -1e-12 <= gap <= 2.0 * d_upper + 1e-12
    return SandwichReport(
        sigma=float(sigma),
        requested=int(samples),
        accepted=accepted,
        max_avg_variance=max_avg_var,
        max_avg_volatility_sq=max_avg_vol_sq,
        gap=gap,
        d_max_upper=d_upper,
        holds=holds,
        empty=False,
    )
