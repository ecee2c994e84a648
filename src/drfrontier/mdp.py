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
(sqrt(eta)' w)^2 <= 2 d_max on long-only portfolios of a given risk with
the exact maxima: each lies on Markowitz's long-only frontier for the
return vector eta or sqrt(eta), which :func:`critical_line` computes as a
finite list of corners (Markowitz 1956; Niedermayer and Niedermayer 2010;
Bailey and Lopez de Prado 2013).  The module stands on model alone; the
ratio maximizer at a given risk is the mdp_at_sigma kind's
:func:`~drfrontier.frontiers.point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeVarianceError,
    NotPSDError,
    NotSPDError,
    ParseError,
    SingularCovarianceError,
    ZeroVarianceError,
)
from .model import (
    AssetUniverse, Portfolio, _finite_float, _float_array, _root_gap, portfolio_stats,
)

MAX_ITER = 10_000
# Frank-Wolfe ascent stops when its duality gap is below this times max D
GAP_RTOL = 1e-12
# a sandwich level is empty this fraction of sigma outside the long-only risks
SHELL_BAND = 0.01
# a w_lo whose certificate gap exceeds this times max eta is refused
MVP_GAP_RTOL = 1e-10
# a critical line solves for its KKT inverse again when a residual exceeds
# this times the residual's scale
RESIDUAL_RTOL = 1e-10
# it does not border an asset whose Schur complement is below this times
# max |V| (1 + |c|_1)^2, the rounding scale of the complement (see _walk)
SCHUR_RTOL = 1e-13
# an asset that changed at a corner changes back only below (1 - TIE_RTOL)
# times that corner's lambda
TIE_RTOL = 1e-9
# from FOLD_FROM slots the inverse's corrections are folded in FOLD_EVERY at
# a time: one rank-FOLD_EVERY product reads M once instead of FOLD_EVERY times
FOLD_FROM, FOLD_EVERY = 128, 32


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class MdpAnalysis:
    """Ratio-optimal portfolio plus d_max of its universe's D_eta, the closed
    form (sqrt(eta_max) - sqrt(eta_min))^2 / 8."""

    portfolio: Portfolio
    ratio: float
    d_max: float


@dataclass(frozen=True, eq=False)
class CriticalLine:
    """Markowitz's long-only frontier for return vector mu, by its corners.

    The maximizer of lambda mu' w - 0.5 w' V w over budget portfolios w >= 0
    for lambda from lambdas[0] = inf down to lambdas[-1] = 0; at each corner
    an asset enters or leaves.  Between corners k and k + 1, free[k] holds
    w_F = pairs[k] @ [1, lambda] (zero elsewhere), of risk^2 var0[k] +
    lambda^2 k2[k] and mu' w = top + mean[k] + lambda k2[k] with top = max mu.
    """

    top: float
    lambdas: np.ndarray
    free: tuple
    pairs: tuple
    var0: np.ndarray
    mean: np.ndarray
    k2: np.ndarray

    def at(self, tau: float) -> tuple:
        """(k, lambda) of the line's point of risk tau, on segment k (its
        nearer end outside the line's risk range)."""
        lam, tau_sq = self.lambdas, tau * tau
        low = self.var0 + lam[1:] ** 2 * self.k2  # each segment's lowest risk^2
        k = min(int(np.searchsorted(-low, -tau_sq)), len(low) - 1)
        t = 0.0
        if self.k2[k] > 0.0:
            t = min(max(np.sqrt(max(tau_sq - self.var0[k], 0.0) / self.k2[k]), lam[k + 1]), lam[k])
        return k, t

    def max_at(self, tau: float) -> float:
        """max mu' w over long-only budget portfolios of risk tau, at :meth:`at`."""
        k, t = self.at(tau)
        return float(self.top + self.mean[k] + t * self.k2[k])


@dataclass(frozen=True, eq=False)
class LongOnlyMvp:
    """Long-only minimum-variance portfolio w_lo with its certificate.

    weights is the last corner (lambda = 0) of the universe's eta line,
    clipped at zero and renormalized, and variance is w' V w.
    variance_lower = 2 min_j (V w)_j - w' V w, that is variance - 2 * gap
    with the Frank-Wolfe gap w' V w - min_j (V w)_j, bounds the long-only
    minimum from below by convexity.
    """

    weights: np.ndarray
    variance: float
    variance_lower: float


def long_only_mvp(universe: AssetUniverse) -> LongOnlyMvp:
    """The :class:`LongOnlyMvp` of a universe, which keeps it; a gap above
    MVP_GAP_RTOL * max eta raises SingularCovarianceError."""
    line, w = universe.eta_line, np.zeros(universe.n)
    w[line.free[-1]] = np.clip(line.pairs[-1][:, 0], 0.0, None)
    w /= w.sum()
    g = universe.cov @ w
    # a riskless mix of a singular V can round below zero, as in Portfolio.sigma
    variance = max(float(w @ g), 0.0)
    lower = max(2.0 * float(g.min()) - variance, 0.0)
    if variance - lower > MVP_GAP_RTOL * float(universe.variances.max()):
        raise SingularCovarianceError(f"w_lo variance {variance:.3e} certified to {lower:.3e}")
    return LongOnlyMvp(w, variance, lower)


@dataclass(frozen=True)
class SandwichReport:
    """Exact check of the objective sandwich at one risk level.

    gap = max eta' w - max (sqrt(eta)' w)^2 over long-only budget portfolios
    of risk tau = clip(sigma, sigma_lo, sigma_hi), both maxima read from
    the universe's critical lines.  eta' w - (sqrt(eta)' w)^2 = w' D_eta w,
    the w-weighted variance of the volatilities, is at most 2 * d_max, so
    holds, 0 <= gap <= 2 * d_max_upper up to 1e-12 * max(1, max eta' w),
    tests the theorem.
    sigma_lo is the risk of the long-only minimum-variance portfolio w_lo
    and sigma_hi = max sqrt(eta_i), the largest long-only risk.  A sigma
    more than SHELL_BAND * sigma outside [sigma_lo, sigma_hi] is empty, by
    the certified lower bound on w_lo's variance (:class:`LongOnlyMvp`);
    its two maxima, gap and holds are None.  Nothing is drawn: requested
    echoes `samples` and accepted equals it, or 0 on an empty level; both
    are kept for readers of the fields.
    """

    sigma: float
    sigma_lo: float
    sigma_hi: float
    requested: int
    accepted: int
    max_avg_variance: Optional[float]
    max_avg_volatility_sq: Optional[float]
    gap: Optional[float]
    d_max_upper: float
    holds: Optional[bool]
    empty: bool


def build_d_eta(universe: AssetUniverse) -> np.ndarray:
    """Volatility distance matrix D_eta[i, j] = 0.5 (sqrt(eta_i) - sqrt(eta_j))^2."""
    eta = universe.variances
    if float(eta.min()) < -1e-12:
        raise NegativeVarianceError(f"negative asset variance {eta.min():.3e}")
    # no cancellation for near-equal variances, exact zero diagonal,
    # symmetric and nonnegative by construction
    diff = _root_gap(eta[:, None], eta[None, :])
    return 0.5 * diff * diff


def _ratio(universe: AssetUniverse, p: Portfolio) -> float:
    """sqrt(eta)' w / sigma of a portfolio p with weights w."""
    if p.variance <= 0.0:
        raise ZeroVarianceError("portfolio variance is zero; ratio undefined")
    return float(universe.volatilities @ p.weights) / p.sigma


def mdp_global(universe: AssetUniverse) -> Portfolio:
    """Ratio-maximizing budget portfolio w proportional to V^-1 sqrt(eta).

    The ratio sqrt(eta)' x / sqrt(x' V x) of any x is extremal along
    V^-1 sqrt(eta), with value +-sqrt(sqrt(eta)' V^-1 sqrt(eta)) by
    Cauchy-Schwarz in the V metric, and the sign of the budget scaling
    t = 1' V^-1 sqrt(eta) = a sqrt(eta)' w_mvp decides which extreme
    w = V^-1 sqrt(eta) / t = w_mvp + (k_root / t) d_root is, d_root being the
    kernel's zero-budget direction of sqrt(eta).  For t < 0 it is the minimum,
    and no budget portfolio attains the supremum, so NotSPDError is raised.
    """
    eta = universe.variances
    if float(eta.min()) <= 0.0:
        raise ZeroVarianceError("every asset needs positive variance")
    s = universe.solver
    total = s.a * float(universe.volatilities @ s.w_mvp)
    if abs(total) < 1e-300:
        raise SingularCovarianceError("V^-1 sqrt(eta) sums to zero; cannot normalize")
    if total < 0.0:
        raise NotSPDError(
            f"1' V^-1 sqrt(eta) = {total:.12g} < 0: the normalized V^-1 sqrt(eta) "
            "minimizes the ratio and no budget portfolio maximizes it"
        )
    w = s.w_mvp if s.d_root is None else s.w_mvp + (s.k_root / total) * s.d_root
    return portfolio_stats(universe, w)


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
    from .embedding import assert_edm

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
    eta = universe.variances
    spread = float(_root_gap(eta.max(), eta.min()))
    return spread * spread / 8.0


def analyze_mdp(universe: AssetUniverse) -> MdpAnalysis:
    """The ratio-maximizing portfolio (:func:`mdp_global`), its ratio and the
    closed-form d_max of the universe; builds no D_eta."""
    portfolio = mdp_global(universe)
    return MdpAnalysis(
        portfolio=portfolio,
        ratio=_ratio(universe, portfolio),
        d_max=_d_max_of_d_eta(universe),
    )


def _walk(V, mu, free):
    """Corners of the critical line of mu (max mu = 0) from lambda = inf,
    where the free set is `free`, down to lambda = 0.

    M inverts F's KKT matrix [[0, 1'], [1, V_F]] (slot 0 the budget, slot
    i + 1 the i-th free asset, and slot[j] = i, or -1 for j outside F) and
    Y = M [e_0, (0, mu_F)], so on a segment (gamma, w_F) = Y[:, 0] +
    lambda Y[:, 1].  Asset j outside F stays out while its slack
    lambda (mu_j - a_j) - b_j, (b, a) = [1, V_jF] Y, is nonpositive, and a
    free asset stays in while its weight is nonnegative.  Both conditions
    read lambda slope_j - level_j <= 0, with level_F = Y[1:, 0] and
    slope_F = -Y[1:, 1] for the weights, so one rule gives the next corner:
    the largest lambda = level_j / slope_j below this one over the j where
    both are negative.
    There j enters by bordering, M += (M u - e) (M u - e)' / s with
    u = [1, V_Fj], e its new slot and s = V_jj - u' M u, or the asset in slot
    q leaves by M -= M e_q e_q' M / M_qq and the last slot moves into q.  From
    FOLD_FROM slots the corrections wait aside and are folded in FOLD_EVERY
    at a time, so a corner costs O(n |F|).  M is solved for at the start and
    when a KKT residual fails; one refinement step polishes the last corner.
    Each segment is returned as (F, [w_F(0), dw_F/dlambda], var0, mean, k2).

    s is the variance of e_j - c, c = (M u)[1:] the budget mix of F that
    matches j's covariances.  Below its rounding scale j is collinear with
    F (a singular V): its slack is then lambda (mu_j - c' mu_F) exactly,
    nonpositive at the corner where F came to span j, so it never enters.
    A singular KKT matrix, a nonpositive pivot M_qq or MAX_ITER corners
    raise SingularCovarianceError.
    """
    n, f, k = len(mu), 0, 0
    M, Y, R = np.zeros((n + 1, n + 1)), np.zeros((n + 1, 2)), np.zeros((n + 1, 2))
    aside, weights = np.zeros((n + 1, FOLD_EVERY)), np.zeros(FOLD_EVERY)
    rows, F = np.empty((n, n)), np.zeros(n, dtype=int)  # rows[i] = V[F[i]]
    # u holds the border [1, V_Fj] (u[0] stays 1) and col the product M x
    slot, u, col = np.full(n, -1), np.ones(n + 1), np.zeros(n + 1)
    R[0, 0] = 1.0

    def solve(free):
        nonlocal f, k
        f, k, aside[:] = len(free), 0, 0.0
        K = np.ones((f + 1, f + 1))
        K[0, 0], K[1:, 1:] = 0.0, V[np.ix_(free, free)]
        try:
            M[: f + 1, : f + 1] = np.linalg.inv(K)
        except np.linalg.LinAlgError:
            raise SingularCovarianceError("critical line: singular KKT matrix") from None
        F[:f], rows[:f], R[1 : f + 1, 1] = free, V[free], mu[free]
        slot[F[:f]] = np.arange(f)
        Y[: f + 1] = M[: f + 1, : f + 1] @ R[: f + 1]

    def times(x):  # M x into col; an int x is the unit vector of that slot
        unit = isinstance(x, int)
        if unit:
            col[: f + 1] = M[: f + 1, x]
        else:
            np.matmul(M[: f + 1, : f + 1], x, out=col[: f + 1])
        if k:
            A = aside[: f + 1, :k]
            col[: f + 1] += (A * weights[:k]) @ (A[x] if unit else A.T @ x)
        return col[: f + 1]

    def correct(c, weight):  # M += weight c c', and Y with it
        nonlocal k
        Y_F, M_F = Y[: f + 1], M[: f + 1, : f + 1]  # views, updated in place
        Y_F += c[:, None] * (weight * (c @ R[: f + 1]))
        if f + 1 < FOLD_FROM:
            M_F += (weight * c)[:, None] * c
            return
        if k == FOLD_EVERY:
            M_F += (aside[: f + 1] * weights) @ aside[: f + 1].T
            aside[: f + 1], k = 0.0, 0
        aside[: f + 1, k], weights[k], k = c, weight, k + 1

    solve(free)
    vmax = float(np.abs(V).max())
    lam, last, refreshed, cand = np.inf, -1, False, np.empty(n)
    lambdas, segments = [np.inf], []
    while True:
        free, W = F[:f], Y[1 : f + 1]
        A = rows[:f].T @ W + Y[0]
        # the KKT rows of F and the budget row, against their terms' size
        E, mu_F = A[free] - R[1 : f + 1], mu[free]
        residual = np.abs(E).max(axis=0) + np.abs(W.sum(axis=0) - R[0])
        size = vmax * np.abs(W).sum(axis=0) + np.abs(Y[0])
        size[1] -= mu_F.min()  # max |R_F| = (0, -min mu_F), as mu <= 0
        if not refreshed and any(residual > RESIDUAL_RTOL * size):
            solve(free)
            refreshed = True
            continue
        refreshed = False
        gain = mu_F @ W
        segments.append([free.copy(), W.copy(), -Y[0, 0], gain[0], max(gain[1], 0.0)])
        slope, level = mu - A[:, 1], A[:, 0]
        level[free], slope[free] = W[:, 0], -W[:, 1]
        cand.fill(-np.inf)
        np.divide(level, slope, out=cand, where=np.maximum(slope, level) < 0.0)
        # the asset that changed at this corner does not change back at it
        if last >= 0 and cand[last] >= lam * (1.0 - TIE_RTOL):
            cand[last] = -np.inf
        while True:
            j = int(cand.argmax())
            if not cand[j] > 0.0:
                # E[:, 0] is A[free, 0] (R[:, 0] = e_0), which level overwrote
                u[0], u[1 : f + 1] = W[:, 0].sum() - 1.0, E[:, 0]
                d = times(u[: f + 1])
                segments[-1][1][:, 0] = w = W[:, 0] - d[1:]
                segments[-1][2:4] = d[0] - Y[0, 0], mu_F @ w
                return lambdas + [0.0], segments
            if len(segments) >= MAX_ITER:
                raise SingularCovarianceError(f"critical line: no end after {MAX_ITER} corners")
            i = int(slot[j])
            if i >= 0:
                c = times(i + 1)
                if not c[i + 1] > 0.0:
                    raise SingularCovarianceError("critical line: nonpositive pivot")
                correct(c, -1.0 / c[i + 1])
                for a in (M, aside, Y, R):
                    a[i + 1] = a[f]
                M[:, i + 1], rows[i], F[i] = M[:, f], rows[f - 1], F[f - 1]
                slot[F[i]], slot[j] = i, -1
                for a in (M, M.T, aside, Y, R):
                    a[f] = 0.0
                f -= 1
                break
            u[1 : f + 1] = rows[:f, j]
            Mu = times(u[: f + 1])
            s = V[j, j] - u[: f + 1] @ Mu
            if s > SCHUR_RTOL * vmax * (1.0 + np.abs(Mu[1:]).sum()) ** 2:
                rows[f], F[f], R[f + 1, 1], col[f + 1], slot[j] = V[j], j, mu[j], -1.0, f
                f += 1
                correct(col[: f + 1], 1.0 / s)
                break
            cand[j] = -np.inf  # collinear with F on budget portfolios
        lam, last = min(float(cand[j]), lam), j
        lambdas.append(lam)


def critical_line(V, mu) -> CriticalLine:
    """The long-only critical line of return vector mu over covariance V.

    At lambda = inf it starts at the long-only minimum-variance portfolio of
    the assets tied at max mu: the least volatile of them alone, or, when
    several tie (mu proportional to ones included), the end of their own
    line for a return vector that singles that one out.  Tied assets outside
    the start then have a zero slack slope and never enter, as Bailey and
    Lopez de Prado skip a candidate whose denominator is zero.
    """
    V, mu = np.asarray(V, dtype=float), np.asarray(mu, dtype=float)
    top = np.flatnonzero(mu == mu.max())
    free = [int(top[np.argmin(np.diag(V)[top])])]
    if len(top) > 1:
        single = np.where(top == free[0], 0.0, -1.0)
        free = top[_walk(V[np.ix_(top, top)], single, [int(np.argmax(single))])[1][-1][0]]
    lambdas, segments = _walk(V, mu - mu.max(), free)
    held, pairs, *scalars = zip(*segments)
    return CriticalLine(float(mu.max()), np.array(lambdas), held, pairs, *map(np.array, scalars))


def sandwich_check(
    universe: AssetUniverse,
    sigma: float,
    samples: int = 100_000,
    seed: int = 0,
) -> SandwichReport:
    """Test the sandwich at risk sigma with the exact long-only maxima.

    See :class:`SandwichReport`.  Both maxima are closed forms on one
    segment of the universe's eta_line and root_eta_line, built once per
    universe; an empty level reads only w_lo.  `samples` and `seed` are kept
    for callers; nothing is drawn.  samples that is not a number raises
    ParseError and below 1 DimensionMismatchError, and a sigma that is not
    a finite number raises ParseError.
    """
    sigma = _finite_float(sigma, "sigma")
    try:
        requested = int(samples)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"samples {samples!r} is not a finite number") from None
    if requested < 1:
        raise DimensionMismatchError(f"samples must be at least 1, got {samples}")
    d_upper = _d_max_of_d_eta(universe)
    lo = universe.long_only_mvp
    sigma_lo = float(np.sqrt(lo.variance))
    sigma_hi = float(universe.volatilities.max())
    below = np.sqrt(lo.variance_lower) > (1.0 + SHELL_BAND) * sigma
    empty = bool(below or sigma_hi < (1.0 - SHELL_BAND) * sigma)
    tau = min(max(sigma, sigma_lo), sigma_hi)
    max_var = max_vol_sq = gap = holds = None
    if not empty:
        max_var = universe.eta_line.max_at(tau)
        max_vol_sq = universe.root_eta_line.max_at(tau) ** 2
        gap = max_var - max_vol_sq
        # the rounding of the two maxima, which cancel exactly where the most
        # volatile assets tie
        slack = 1e-12 * max(1.0, max_var)
        holds = -slack <= gap <= 2.0 * d_upper + slack
    return SandwichReport(
        sigma=sigma,
        sigma_lo=sigma_lo,
        sigma_hi=sigma_hi,
        requested=requested,
        accepted=0 if empty else requested,
        max_avg_variance=max_var,
        max_avg_volatility_sq=max_vol_sq,
        gap=gap,
        d_max_upper=d_upper,
        holds=holds,
        empty=empty,
    )
