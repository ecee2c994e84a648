"""Most-diversified portfolio and its link to the DR frontier.

The diversification ratio of a budget portfolio is
sqrt(eta)' w / sqrt(w' V w).  Replacing the weighted-average variance eta' w
in the DR functional by the squared weighted-average volatility
(sqrt(eta)' w)^2 swaps the distance matrix D for

    D_eta[i, j] = 0.5 * (sqrt(eta_i) - sqrt(eta_j))^2

which is always a Euclidean squared-distance matrix (points on a line).  The
two objectives differ, on long-only portfolios, by at most twice

    d_max = max over the simplex of 0.5 * w' D_eta w

For D_eta this is the closed form (sqrt(eta_max) - sqrt(eta_min))^2 / 8,
half the weight on each extreme volatility, which :func:`analyze_mdp` and
:func:`sandwich_check` report.  For a general Euclidean distance matrix the
objective is concave on the simplex (its maximum is the squared radius of
the minimum enclosing ball of the embedded points), so :func:`d_max_bounds`
reaches the global maximum with one pairwise Frank-Wolfe ascent whose
duality gap certifies the bracket; it refuses a matrix that is not a
distance matrix.  That bound is what makes the
ratio-maximizing portfolio track the DR-efficient frontier.

:func:`sandwich_check` tests the sandwich 0 <= max eta' w - max
(sqrt(eta)' w)^2 <= 2 d_max on long-only portfolios of a given risk.  It
moves Dirichlet draws onto that risk shell along segments to two long-only
anchors, the long-only minimum-variance portfolio
(:func:`long_only_min_variance`, kept by its universe) and the most volatile
asset, each with one quadratic root, so every draw lands; a level outside
the long-only risk range is reported empty without drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .embedding import assert_edm
from .errors import (
    DimensionMismatchError,
    NegativeVarianceError,
    NotPSDError,
    NotSPDError,
    ParseError,
    SingularCovarianceError,
    ZeroVarianceError,
)
from .frontiers import KktSolution, max_linear_over_ellipsoid
from .model import AssetUniverse, Portfolio, _float_array, portfolio_stats

MAX_ITER = 10_000
# Frank-Wolfe ascent stops when its duality gap is below this times max D;
# the long-only minimum variance when its gap is below this times w' V w
GAP_RTOL = 1e-12
# a landed draw counts when its risk is within this fraction of sigma
SHELL_BAND = 0.01


@dataclass(frozen=True)
class DmaxBounds:
    """Bracket for the simplex maximum of 0.5 * w' D w, D a Euclidean distance matrix.

    The bracket is a duality certificate from one Frank-Wolfe ascent:
    lower = f(w) at the final point argmax_weights and
    upper = max_j (D w)_j - f(w), which concavity makes an upper bound.
    converged means the gap closed below GAP_RTOL * max D; steps counts the
    ascent steps.  starts_used is always 1, kept for readers of the field.
    """

    lower: float
    upper: float
    argmax_weights: np.ndarray
    starts_used: int
    converged: bool
    steps: int


@dataclass(frozen=True)
class MdpAnalysis:
    """Ratio-optimal portfolio plus the exact d_max of its universe's D_eta.

    d_max_lower and d_max_upper both hold the closed form; starts_used is 1
    and converged is True.
    """

    portfolio: Portfolio
    ratio: float
    d_eta: np.ndarray
    d_max_lower: float
    d_max_upper: float
    starts_used: int
    converged: bool


@dataclass(frozen=True)
class LongOnlyMvp:
    """Long-only minimum-variance portfolio w_lo with its certificate.

    variance is w' V w at weights.  variance_lower = 2 min_j (V w)_j - w' V w,
    that is variance - 2 * gap with the Frank-Wolfe gap
    w' V w - min_j (V w)_j, bounds the long-only minimum from below by
    convexity.
    """

    weights: np.ndarray
    variance: float
    variance_lower: float


@dataclass(frozen=True)
class SandwichReport:
    """Monte Carlo check of the objective sandwich at one risk level.

    gap = max eta' w - max (sqrt(eta)' w)^2 over sampled long-only
    portfolios on the risk shell.  eta' w - (sqrt(eta)' w)^2 is the
    w-weighted variance of the volatilities, which equals w' D_eta w and so
    is at most 2 * d_max.  holds is 0 <= gap <= 2 * d_max_upper (up to
    rounding), where d_max_upper is the exact d_max of the universe's D_eta.
    It is true for every non-empty sample: by Jensen
    eta' w >= (sqrt(eta)' w)^2 for every w, so gap >= 0, and at the sampled
    argmax w* of eta' w, gap <= eta' w* - (sqrt(eta)' w*)^2 = w*' D_eta w*
    <= 2 * d_max.  So holds checks the sampler's arithmetic, not the theory;
    only the exact maxima over the shell would test the sandwich itself.

    Long-only risk spans [sigma_lo, sigma_hi]: sigma_lo is the risk of the
    long-only minimum-variance portfolio w_lo and sigma_hi = max sqrt(eta_i)
    the risk of the most volatile asset, the largest long-only risk because
    risk is convex.  Each of the `requested` Dirichlet draws x is moved along
    a segment to the target risk tau = clip(sigma, sigma_lo, sigma_hi):
    along w_lo -> x when x's risk is at least tau, else along x -> the most
    volatile vertex.  risk^2 is a convex quadratic along either segment whose
    ends lie on opposite sides of tau^2, so one root lands the draw on the
    shell, long-only and on budget.  accepted counts the landed portfolios
    whose risk, evaluated again at the root, lies within SHELL_BAND * sigma
    of sigma; every draw lands when that band meets [sigma_lo, sigma_hi].
    empty flags a level with none.  When the band misses
    [sigma_lo, sigma_hi] nothing is drawn and empty is certified: the test
    uses the certified lower bound on w_lo's variance
    (:class:`LongOnlyMvp`), so it does not depend on the seed.
    """

    sigma: float
    sigma_lo: float
    sigma_hi: float
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

    The ratio sqrt(eta)' x / sqrt(x' V x) of any x is extremal along
    V^-1 sqrt(eta), with value +-sqrt(sqrt(eta)' V^-1 sqrt(eta)) by
    Cauchy-Schwarz in the V metric, and the sign of the budget scaling
    t = 1' V^-1 sqrt(eta) decides which extreme w = V^-1 sqrt(eta) / t is.
    For t < 0 it is the minimum, and no budget portfolio attains the
    supremum, so NotSPDError is raised.
    """
    eta = universe.variances
    if float(eta.min()) <= 0.0:
        raise ZeroVarianceError("every asset needs positive variance")
    x = universe.solver.inv_root_eta
    total = float(np.ones(universe.n) @ x)
    if abs(total) < 1e-300:
        raise SingularCovarianceError("V^-1 sqrt(eta) sums to zero; cannot normalize")
    if total < 0.0:
        raise NotSPDError(
            f"1' V^-1 sqrt(eta) = {total:.12g} < 0: the normalized V^-1 sqrt(eta) "
            "minimizes the ratio and no budget portfolio maximizes it"
        )
    return portfolio_stats(universe, x / total)


def mdp_at_sigma(universe: AssetUniverse, sigma: float) -> KktSolution:
    """Maximize sqrt(eta)' w at risk sigma (degenerate when all vols are equal)."""
    root = np.sqrt(np.clip(universe.variances, 0.0, None))
    return max_linear_over_ellipsoid(universe, root, sigma)


def _pairwise_frank_wolfe(D: np.ndarray, tol: float):
    """Pairwise Frank-Wolfe ascent of f(w) = 0.5 * w' D w on the simplex.

    D is a Euclidean distance matrix, so f is concave there and the
    Frank-Wolfe gap max_j g_j - w' g (g = D w, the gradient) bounds
    f* - f(w).  The ascent starts at the midpoint of the farthest pair and
    moves weight to the vertex s with the largest gradient entry from a
    support vertex v, with exact line search: along e_s - e_v the slope is
    g_s - g_v and the second derivative -2 D[s, v].  v is the support vertex
    whose line search gains most.  The classic choice, the smallest g_v, is among
    the candidates, so the linear convergence of pairwise Frank-Wolfe holds;
    the gain rule also hands a vertex's weight to a near-duplicate of it in
    one step, where the classic rule zig-zags through a third vertex.  Each
    step updates g with one row of D, so it costs O(n).  Returns the final
    point, its gradient recomputed in full, and the number of steps.
    """
    n = D.shape[0]
    i, j = divmod(int(np.argmax(D)), n)
    w = np.zeros(n)
    w[i] += 0.5
    w[j] += 0.5
    g = 0.5 * (D[i] + D[j])
    steps = 0
    while steps < MAX_ITER:
        s = int(np.argmax(g))
        if float(g[s]) - float(w @ g) <= tol:
            break
        # only support vertices below g_s give an ascent direction; the gap
        # test guarantees one (min g_v <= w' g < g_s)
        support = np.flatnonzero(w)
        support = support[g[support] < g[s]]
        slope = g[s] - g[support]
        curvature = 2.0 * D[s, support]
        room = w[support]
        # the step is capped by the weight at v; coincident points
        # (D[s, v] = 0) make f linear along the pair and take the cap
        step = room.copy()
        inside = curvature * room > slope
        step[inside] = slope[inside] / curvature[inside]
        k = int(np.argmax(step * (slope - 0.5 * step * curvature)))
        v = int(support[k])
        w[s] += step[k]
        w[v] = 0.0 if step[k] == room[k] else room[k] - step[k]
        g += step[k] * (D[s] - D[v])
        steps += 1
    # drop the rounding drift of the O(n) updates before certifying
    return w, D @ w, steps


def d_max_bounds(d_eta, *, seed: int = 0) -> DmaxBounds:
    """Bracket max over the simplex of 0.5 * w' D w for a Euclidean distance matrix D.

    D_eta and the distance matrix of every covariance are distance matrices
    by theorem.  :func:`assert_edm` certifies D: its ParseError,
    DimensionMismatchError, NonZeroDiagonalError and AsymmetricError
    propagate, and a failing certificate raises NotPSDError.
    One pairwise Frank-Wolfe ascent of at most MAX_ITER O(n) steps then
    closes the bracket [f(w), max_j (D w)_j - f(w)] to GAP_RTOL * max D
    unless the step cap is hit.  `seed` is unused; it is kept because
    existing callers pass it.
    """
    A = _float_array(d_eta, "distance matrix")
    cert = assert_edm(A)
    if not cert.is_edm:
        raise NotPSDError(f"not a Euclidean distance matrix: {cert.reason}")
    tol = GAP_RTOL * float(A.max())
    w, g, steps = _pairwise_frank_wolfe(A, tol)
    lower = 0.5 * float(w @ g)
    # max(g) >= w'g in exact arithmetic; keep rounding from inverting it
    upper = max(float(g.max()) - lower, lower)
    return DmaxBounds(
        lower=lower,
        upper=upper,
        argmax_weights=w,
        starts_used=1,
        converged=upper - lower <= tol,
        steps=steps,
    )


def _d_max_of_d_eta(universe: AssetUniverse) -> float:
    """Exact d_max of D_eta: half the weight on each extreme volatility.

    Points on a line have the segment between the extremes as their minimum
    enclosing ball, so d_max = (sqrt(eta_max) - sqrt(eta_min))^2 / 8.
    """
    root = np.sqrt(np.clip(universe.variances, 0.0, None))
    spread = float(root.max() - root.min())
    return spread * spread / 8.0


def analyze_mdp(universe: AssetUniverse) -> MdpAnalysis:
    """Bundle the ratio-optimal portfolio with the exact d_max of its universe."""
    portfolio = mdp_global(universe)
    d_max = _d_max_of_d_eta(universe)
    return MdpAnalysis(
        portfolio=portfolio,
        ratio=diversification_ratio(universe, portfolio.weights),
        d_eta=build_d_eta(universe),
        d_max_lower=d_max,
        d_max_upper=d_max,
        starts_used=1,
        converged=True,
    )


def _support_minimum(V: np.ndarray, support: np.ndarray):
    """Weights on `support` minimizing w' V w subject to 1' w = 1:
    V_S^-1 1 normalized; None when the solve fails."""
    try:
        y = np.linalg.solve(V[np.ix_(support, support)], np.ones(len(support)))
    except np.linalg.LinAlgError:
        return None
    z = y / y.sum()
    return z if np.all(np.isfinite(z)) else None


def long_only_min_variance(universe: AssetUniverse) -> LongOnlyMvp:
    """Long-only minimum-variance portfolio by a primal active-set method.

    Start: the support minimum (:func:`_support_minimum`) on all assets,
    solved again without its negative weights until none is negative (the
    least volatile asset if a solve fails).  Step (fully corrective
    Frank-Wolfe): add the asset j of the smallest (V w)_j and move towards
    the support minimum, dropping each asset whose weight reaches 0 first,
    until that minimum is nonnegative; keep the step only if it lowers w' V w.
    Convexity gives v' V v >= 2 min_j (V w)_j - w' V w for every long-only
    v, so the Frank-Wolfe gap w' V w - min_j (V w)_j certifies w.  Stops
    when the gap is at most GAP_RTOL * w' V w or j is already held (the gap
    is rounding).  :attr:`~drfrontier.model.AssetUniverse.long_only_mvp`
    keeps the result with its universe.
    """
    V = universe.cov
    n = universe.n
    w = np.zeros(n)
    support = np.arange(n)
    solves = 0
    while True:
        z = _support_minimum(V, support)
        solves += 1
        if z is None:
            w[int(np.argmin(universe.variances))] = 1.0
            break
        if z.min() >= 0.0:
            w[support] = z
            break
        support = support[z > 0.0]

    g = V @ w
    variance = float(w @ g)
    while solves < MAX_ITER:
        j = int(np.argmin(g))
        if w[j] > 0.0 or g[j] >= (1.0 - GAP_RTOL) * variance:
            break
        step = w.copy()
        support = np.append(np.flatnonzero(step), j)
        while True:
            z = _support_minimum(V, support)
            solves += 1
            if z is None or z.min() >= 0.0:
                break
            d = z - step[support]
            shrink = np.flatnonzero(d < 0.0)
            ratio = step[support[shrink]] / -d[shrink]
            k = int(np.argmin(ratio))
            step[support] += ratio[k] * d
            step[support[shrink[k]]] = 0.0
            np.clip(step, 0.0, None, out=step)
            support = np.flatnonzero(step)
        if z is None:
            break
        step[support] = z
        g_step = V @ step
        if not float(step @ g_step) < variance:
            break
        w, g, variance = step, g_step, float(step @ g_step)
    return LongOnlyMvp(
        weights=w,
        variance=variance,
        variance_lower=max(2.0 * float(g.min()) - variance, 0.0),
    )


def sandwich_check(
    universe: AssetUniverse,
    sigma: float,
    samples: int = 100_000,
    seed: int = 0,
) -> SandwichReport:
    """Land `samples` long-only portfolios on the risk shell and test the sandwich.

    See :class:`SandwichReport` for the anchors, the landing root and when
    the report is certified empty.  The draws X come from one Dirichlet(1)
    call of a generator seeded with `seed`.  One product X V gives every
    coefficient of the quadratics: x' V x, x' V w_lo = x . (V w_lo) and
    x' V e_hi, column hi of X V, with w_lo' V w_lo and eta_hi known.  The
    landing check evaluates each quadratic again at its root, and
    eta' w and sqrt(eta)' w of a landed w are linear along its segment, so
    no landed portfolio is formed: after the draws and X V the cost is
    O(samples * n).  samples below 1 raise DimensionMismatchError, and a
    sigma that is not a finite number raises ParseError.
    """
    if not np.isfinite(sigma):
        raise ParseError(f"sigma {sigma!r} is not a finite number")
    if int(samples) < 1:
        raise DimensionMismatchError(f"samples must be at least 1, got {samples}")
    eta = np.clip(universe.variances, 0.0, None)
    root = np.sqrt(eta)
    d_upper = _d_max_of_d_eta(universe)
    lo = universe.long_only_mvp
    hi = int(np.argmax(eta))
    sigma_lo = float(np.sqrt(lo.variance))
    sigma_hi = float(root[hi])
    report = dict(
        sigma=float(sigma),
        sigma_lo=sigma_lo,
        sigma_hi=sigma_hi,
        requested=int(samples),
        d_max_upper=d_upper,
    )
    empty = SandwichReport(
        **report,
        accepted=0,
        max_avg_variance=float("nan"),
        max_avg_volatility_sq=float("nan"),
        gap=float("nan"),
        holds=None,
        empty=True,
    )
    below = np.sqrt(lo.variance_lower) > (1.0 + SHELL_BAND) * sigma
    if below or sigma_hi < (1.0 - SHELL_BAND) * sigma:
        return empty

    tau_sq = min(max(sigma, sigma_lo), sigma_hi) ** 2
    X = np.random.default_rng(seed).dirichlet(np.ones(universe.n), size=int(samples))
    XV = X @ universe.cov
    r_x = np.einsum("ij,ij->i", X, XV)
    v_lo = universe.cov @ lo.weights
    # x' V w_lo, eta' x and sqrt(eta)' x in one pass over X
    x_lo, x_eta, x_root = (X @ np.column_stack([v_lo, eta, root])).T
    # up: w_lo -> x, else x -> e_hi; P and Q are the segment's ends
    up = r_x >= tau_sq
    r_p = np.where(up, lo.variance, r_x)
    r_q = np.where(up, r_x, eta[hi])
    pq = np.where(up, x_lo, XV[:, hi])
    # risk^2 along P -> Q is r_p + 2 b t + a t^2, with r_p <= tau^2 <= r_q
    b = pq - r_p
    a = r_q - pq - b
    rise = np.maximum(tau_sq - r_p, 0.0)
    disc = np.sqrt(np.maximum(b * b + a * rise, 0.0))
    # the root form without cancellation for either sign of b
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(b >= 0.0, rise / (b + disc), (disc - b) / a)
    t = np.clip(np.nan_to_num(t), 0.0, 1.0)
    risk = np.sqrt(np.maximum(r_p + t * (2.0 * b + a * t), 0.0))
    landed = np.abs(risk - sigma) <= SHELL_BAND * sigma
    if not landed.any():
        return empty

    # eta' w and sqrt(eta)' w are linear along the segment
    p_eta = np.where(up, float(eta @ lo.weights), x_eta)
    q_eta = np.where(up, x_eta, eta[hi])
    p_root = np.where(up, float(root @ lo.weights), x_root)
    q_root = np.where(up, x_root, root[hi])
    w_eta = (p_eta + t * (q_eta - p_eta))[landed]
    w_root = (p_root + t * (q_root - p_root))[landed]
    max_avg_var = float(w_eta.max())
    max_avg_vol_sq = float(np.square(w_root).max())
    gap = max_avg_var - max_avg_vol_sq
    return SandwichReport(
        **report,
        accepted=int(landed.sum()),
        max_avg_variance=max_avg_var,
        max_avg_volatility_sq=max_avg_vol_sq,
        gap=gap,
        holds=-1e-12 <= gap <= 2.0 * d_upper + 1e-12,
        empty=False,
    )
