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
brackets it by one pairwise Frank-Wolfe ascent whose duality gap certifies
the bracket, also where MAX_ITER steps leave the gap open (converged is
False); it refuses a matrix that is not a distance matrix.  That bound is
what makes the ratio-maximizing portfolio track the DR-efficient frontier.

:func:`sandwich_check` tests the sandwich 0 <= max eta' w - max
(sqrt(eta)' w)^2 <= 2 d_max on long-only portfolios of a given risk with
the exact maxima: each lies on Markowitz's long-only frontier for the
return vector eta or sqrt(eta), a :class:`CriticalLine` of finitely many
corners (Markowitz 1956; Niedermayer and Niedermayer 2010; Bailey and
Lopez de Prado 2013).  Both lines start at the long-only minimum-variance
portfolio w_lo, which :func:`_active_set` solves once per universe, started
from the positive support of the kernel's unconstrained w_mvp; each is walked
up from there, and kept in walk order, only as far as a level reads it, or
jumped by block pivots to the segment of a level inside the long-only risks
that starts it: the eta line from w_lo, the sqrt(eta) line, which the
universe pairs with it, from the free set and KKT inverse where the eta line
landed.  The module stands on model alone; the ratio maximizer at a given
risk is the mdp_at_sigma kind's :func:`~drfrontier.frontiers.point`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeVarianceError,
    NotPSDError,
    NotSPDError,
    SingularCovarianceError,
    ZeroVarianceError,
)
from .model import (
    AssetUniverse, Portfolio, _finite_float, _float_array, _root_gap, portfolio_stats,
)

MAX_ITER = 10_000
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
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
# times that corner's lambda; it caps every rounding at lambda = 0, of ties
# and of a swap's pivots (see _walk)
TIE_RTOL = 1e-9
# a corner of a weight below -NEGATIVE_ATOL (of the budget 1), which only a
# walk that rounding broke could reach, raises SingularCovarianceError
NEGATIVE_ATOL = 1e-6
# a critical line's corrections to its KKT inverse are folded in FOLD_EVERY at
# a time: one rank-FOLD_EVERY product reads M once instead of FOLD_EVERY times
FOLD_EVERY = 32
# a jump that leaves as many violations as its fewest for STALLS block steps
# in a row exchanges one asset at a time (Murty's rule, see _walk)
STALLS = 3


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


class CriticalLine:
    """Markowitz's long-only frontier for return vector mu, by its corners.

    The maximizer of lambda mu' w - 0.5 w' V w over budget portfolios w >= 0
    for lambda from 0 up to corners[-1] = inf; at each corner an asset
    enters or leaves.  Between corners k and k + 1, free[k] holds
    w_F = pairs[k] @ [1, lambda] (zero elsewhere), of risk^2 var0[k] +
    lambda^2 k2[k] and mu' w = top + mean[k] + lambda k2[k] with top = max mu.

    The lists hold the segments walked so far, in walk order (:func:`_walk`),
    from the free set of the universe's w_lo and its KKT inverse: from
    corners[0] = 0, or, on a universe certified nonsingular whose max mu is
    one asset's, from the segment that holds a risk read strictly inside
    (sigma_lo, sigma_hi) that starts the line, corners[0] its lambda (no
    corner).  Such a jump starts from the free set of w_lo, or, where the
    line `near` it was built with rests its walk on the segment that holds
    that risk, from near's free set there and a copy of its KKT inverse (a
    declined jump walks from w_lo all the same); at a corner, to its
    rounding, it lands without the asset that changes there, as a walked read
    does.  :meth:`at` and :meth:`max_at` walk on to the segment that holds
    their risk (past the segments that end at lambda = 0, where ties change
    the free set); a read below a jump's risk, or at(inf), which walks the
    whole line, starts the line again as a first read does.
    """

    def __init__(self, universe: AssetUniverse, mu, near: Optional[CriticalLine] = None):
        mu = np.asarray(mu, dtype=float)
        self.top = float(mu.max())
        # an asset within the rounding of max mu ties at the top: a corner
        # between such near-ties lies at a lambda of the order of 1 / rounding
        mu = mu - self.top
        mu[mu > -len(mu) * EPS * abs(self.top)] = 0.0
        lo = universe.long_only_mvp
        self._from = (universe.cov, mu, lo.free, lo.kkt_inverse)
        # the rounding scale of a risk^2 (see _near)
        self._ulps = len(mu) * EPS * float(np.abs(universe.cov).max())
        # the risks strictly between which a start jumps
        jumps = universe.nonsingular and np.count_nonzero(mu == 0.0) == 1
        self._inside = (np.sqrt(lo.variance), universe.volatilities.max()) if jumps else (0.0, 0.0)
        self._floor = self._walk = None  # _floor: the risk^2 of a jump, 0 without one
        self._lead = near  # the line whose landing a jump starts from
        self.free, self.pairs, self.var0, self.mean, self.k2 = [], [], [], [], []
        self.corners, self._upper = [0.0], []  # _upper: each segment's risk^2 at its top

    def _start(self, tau: float) -> None:
        """Walk from w_lo again, or jump where tau is inside the risks, from
        the landing at tau of the line `near` built with it where it has one."""
        jump = self._inside[0] < tau < self._inside[1]
        self._floor = tau * tau if jump else 0.0
        landing = self._lead._landing(tau) if jump and self._lead is not None else None
        self._walk = _walk(*self._from, tau if jump else None, landing)
        for field in (self.free, self.pairs, self.var0, self.mean, self.k2, self._upper):
            field.clear()  # in place: a reader may hold the lists
        self.corners[:] = [0.0]

    def _extend(self) -> bool:
        """Walk one more segment; False once the line is complete."""
        if self._walk is None:
            return False
        try:
            *segment, low, lam = next(self._walk)
        except StopIteration:  # the walk raised on an earlier read
            raise SingularCovarianceError("critical line: its walk failed before") from None
        if not self.free:
            self.corners[0] = low
        for field, value in zip((self.free, self.pairs, self.var0, self.mean, self.k2), segment):
            field.append(value)
        self.corners.append(lam)
        self._upper.append(np.inf if lam == np.inf else self.var0[-1] + lam * lam * self.k2[-1])
        if lam == np.inf:
            self._walk = None  # the walk's arrays go with it
        return True

    def _near(self, k: int, lam: float, tau_sq: float, around: list) -> bool:
        """Whether tau_sq is within the rounding of segment k's risk^2 at its
        corner lam: n ulps of max |V| times |w|_1^2 there on each segment around it."""
        spread = sum(float((np.abs(pair) @ (1.0, lam)).sum()) ** 2 for pair in around)
        return abs(tau_sq - self.var0[k] - lam * lam * self.k2[k]) <= self._ulps * spread

    def _landing(self, tau: float) -> Optional[tuple]:
        """(F, M): the free set of the segment that holds tau and the inverse
        of its KKT matrix, where the walk rests on that segment; else None."""
        if self._walk is None or self.at(tau)[0] < len(self.free) - 1:
            return None
        return self._walk.send(True)

    def at(self, tau: float) -> tuple:
        """(k, lambda): segment k holds the point of risk tau (or the nearer end)."""
        tau_sq = tau * tau
        # a first read starts the line; one below a jump's risk or at inf restarts it
        if self._floor is None or self.corners[0] > 0.0 and not self._floor <= tau_sq < np.inf:
            self._start(tau)
        while (self.corners[-1] == 0.0 or self._upper[-1] <= tau_sq) and self._extend():
            pass
        k = min(bisect.bisect_right(self._upper, tau_sq), len(self._upper) - 1)
        # a segment that ends at lambda = 0 has no length: its point there
        # is read on the first segment past the ties
        while self.corners[k + 1] == 0.0:
            k += 1
        lo, hi = self.corners[k], self.corners[k + 1]
        if self.k2[k] > 0.0:  # var0 of a riskless mix may round below zero
            lam = np.sqrt(max(tau_sq - max(self.var0[k], 0.0), 0.0) / self.k2[k])
            # a point within the rounding of a corner is that corner
            if k and lo > 0.0 and self._near(k, lo, tau_sq, self.pairs[k - 1 : k + 1]):
                lam = lo
            elif hi < np.inf and self._near(k, hi, tau_sq, self.pairs[k : k + 2]):
                lam = hi
            lo = min(max(lam, lo), hi)
        # at a corner, read the side without the asset that changes there (weight 0);
        # a jump's corners[0] is no corner
        if lo == hi < np.inf and (k + 1 < len(self.free) or self._extend()):
            k += len(self.free[k + 1]) < len(self.free[k])
        elif k and lo == self.corners[k] > 0.0:
            k -= len(self.free[k - 1]) < len(self.free[k])
        return k, lo

    def max_at(self, tau: float) -> float:
        """max mu' w over long-only budget portfolios of risk tau, at :meth:`at`."""
        k, lam = self.at(tau)
        return float(self.top + self.mean[k] + lam * self.k2[k])


@dataclass(frozen=True, eq=False)
class LongOnlyMvp:
    """Long-only minimum-variance portfolio w_lo with its certificate.

    weights is the active-set minimum (:func:`_active_set`) on its free set
    `free`, renormalized, and variance is w' V w.  variance_lower = 2 min_j
    (V w)_j - w' V w, that is variance - 2 * gap with the Frank-Wolfe gap
    w' V w - min_j (V w)_j, bounds the long-only minimum from below by
    convexity.  Both critical lines of the universe start at `free`, from
    kkt_inverse, the inverse of its KKT matrix [[0, 1'], [1, V_free]].
    """

    weights: np.ndarray
    variance: float
    variance_lower: float
    free: np.ndarray
    kkt_inverse: np.ndarray


def long_only_mvp(universe: AssetUniverse) -> LongOnlyMvp:
    """The :class:`LongOnlyMvp` of a universe, which keeps it; a gap above
    MVP_GAP_RTOL * max eta raises SingularCovarianceError.

    :func:`_active_set` starts from the positive support of the kernel's
    w_mvp, the budget minimum without the bounds, built here where it is not
    yet (so w_lo does not depend on which read came first); a singular
    universe has no kernel and starts from its least volatile asset.
    """
    V = universe.cov
    if universe.nonsingular:
        start = np.flatnonzero(universe.solver.w_mvp > 0.0)
    else:
        start = np.array([int(np.argmin(np.diag(V)))])
    free, x = _active_set(V, start)
    w = np.zeros(universe.n)
    w[free] = x
    w /= w.sum()
    g = V @ w
    # a riskless mix of a singular V can round below zero, as in Portfolio.sigma
    variance = max(float(w @ g), 0.0)
    lower = max(2.0 * float(g.min()) - variance, 0.0)
    if variance - lower > MVP_GAP_RTOL * float(universe.variances.max()):
        raise SingularCovarianceError(f"w_lo variance {variance:.3e} certified to {lower:.3e}")
    return LongOnlyMvp(w, variance, lower, free, _kkt_inverse(V, free))


@dataclass(frozen=True)
class SandwichReport:
    """Exact check of the objective sandwich at one risk level.

    gap = max eta' w - max (sqrt(eta)' w)^2 over long-only budget portfolios
    of risk tau = clip(sigma, sigma_lo, sigma_hi), both maxima read from
    the universe's critical lines (at sigma_lo, at their lambda = 0 end, the
    point of w_lo's free set).  eta' w - (sqrt(eta)' w)^2 = w' D_eta w,
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
    step updates g with one row of D, so it costs O(n); a gap within tol on
    that g is tested again on D w, which drops the updates' rounding drift
    and is the gradient the certificate reads.  Returns the final point, its
    gradient recomputed in full, and the number of steps.
    """
    n = D.shape[0]
    i, j = divmod(int(np.argmax(D)), n)
    w = np.zeros(n)
    w[i] += 0.5
    w[j] += 0.5
    g, full = 0.5 * (D[i] + D[j]), False
    steps = 0
    while steps < MAX_ITER:
        s = int(np.argmax(g))
        if float(g[s]) - float(w @ g) <= tol:
            if full:
                return w, g, steps
            g, full = D @ w, True
            continue
        full = False
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
    return w, D @ w, steps


def d_max_bounds(d_eta, *, seed: int = 0) -> DmaxBounds:
    """Bracket max over the simplex of 0.5 * w' D w for a Euclidean distance matrix D.

    D_eta and the distance matrix of every covariance are distance matrices
    by theorem.  :func:`assert_edm` certifies D: its ParseError (an entry
    not a finite number), DimensionMismatchError, NonZeroDiagonalError and
    AsymmetricError propagate, and a failing certificate raises NotPSDError.
    One pairwise Frank-Wolfe ascent of at most MAX_ITER O(n) steps then
    closes the bracket [f(w), max_j (D w)_j - f(w)] to GAP_RTOL * max D; at
    the step cap it stops short of the maximum, and the bracket still holds
    (converged False).  `seed` is unused; existing callers pass it.
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


def _kkt(V, free) -> np.ndarray:
    """The KKT matrix [[0, 1'], [1, V_FF]] of free set F."""
    K = np.ones((len(free) + 1, len(free) + 1))
    K[0, 0], K[1:, 1:] = 0.0, V[np.ix_(free, free)]
    return K


def _kkt_inverse(V, free) -> np.ndarray:
    """The inverse of the KKT matrix of free set F; a singular one raises
    SingularCovarianceError."""
    try:
        return np.linalg.inv(_kkt(V, free))
    except np.linalg.LinAlgError:
        raise SingularCovarianceError("critical line: singular KKT matrix") from None


def _schur(v, U, MU, vmax) -> tuple:
    """(s, spread, borders) of assets outside a free set F, one per column
    of their borders U = [1, V_Fj] (or of the one border U), with MU the
    inverse of F's KKT matrix times U.  s = V_jj - u' M u (v holds V_jj) is
    the variance of e_j - c, c = (M u)[1:] the budget mix of F that matches
    j's covariances, and spread = 1 + |c|_1.  j borders F when s exceeds
    SCHUR_RTOL vmax spread^2, its rounding scale; below it j is collinear
    with F on budget portfolios."""
    s = v - (U * MU).sum(axis=0)
    spread = 1.0 + np.abs(MU[1:]).sum(axis=0)
    return s, spread, s > SCHUR_RTOL * vmax * spread * spread


def _block_factor(S, floor) -> Optional[np.ndarray]:
    """The Cholesky factor L of S, or None where an L_ii^2 is not above floor
    (for a Schur block, :func:`_schur`'s SCHUR_RTOL vmax spread^2)."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    return L if (np.diag(L) ** 2 > floor).all() else None


def _pin(pair, ends, low, high) -> None:
    """Start a segment at the weights `ends` where the segment before it
    ended, at the corner `low` where the asset in pair's last row entered F
    (the rows before it hold F's other assets in that segment's order): in
    place, the entering weight is exactly 0 there, and the change to the
    pair [w_F(0), dw_F/dlambda], the rounding of the two segments at their
    shared corner, fades linearly to 0 at the upper corner `high` (or holds
    at every lambda, where high is inf or low)."""
    change = -(pair @ (1.0, low))
    change[:-1] += ends
    if low < high < np.inf:
        pair[:, 0] += change * (high / (high - low))
        pair[:, 1] -= change / (high - low)
    else:
        pair[:, 0] += change
    pair[-1, 0] = -(low * pair[-1, 1])


def _active_set(V, start) -> tuple:
    """(F, w_F): the free set and weights of the long-only minimum-variance
    portfolio w_lo, by a primal active-set method on the budget KKT system.

    The minimum of w' V w over budget portfolios on a set drops its
    nonpositive weights until all are positive (on a lone asset it is
    exactly 1); the method starts there, on `start`.  At the minimum w_F
    on F, an asset j outside F lowers the variance when its multiplier
    (V w)_j - w' V w is below the rounding of V w; those that border F
    (:func:`_schur`) are the candidates.  When their block Schur complement
    passes that test too, all of them enter at once, the minimum drops its
    nonpositive weights again, and the move is kept if it lowers the
    variance.  Otherwise the first candidate by index enters alone, and
    while a solve gives a negative weight the portfolio steps to the first
    weight that reaches zero, whose asset leaves (Bland's rule on ties).
    Each kept move lowers the variance and ends at the minimum of its free
    set, so no free set returns; MAX_ITER solves raise SingularCovarianceError.
    """
    n, vmax, solves = len(V), float(np.abs(V).max()), 0

    def kkt(S, rhs):  # the KKT matrix of S, solved against rhs
        nonlocal solves
        if solves == MAX_ITER:
            raise SingularCovarianceError(f"w_lo: no end after {MAX_ITER} solves")
        solves += 1
        return np.linalg.solve(_kkt(V, S), rhs)

    def minimum(S):  # (w_S, w_S' V_S w_S) of the least variance on S
        z = kkt(S, np.eye(len(S) + 1, 1)[:, 0])
        return z[1:], -z[0]

    def positive(S):  # (S, w_S, variance): the minimum on S, less its nonpositive weights
        y, least = minimum(S)
        while not (y > 0.0).all():
            S = S[y > 0.0]
            y, least = minimum(S)
        return S, y, least

    F, x, _ = positive(np.asarray(start))
    while True:
        VF = V[:, F]
        g = VF @ x
        variance = float(x @ g[F])
        multiplier = g - variance
        multiplier[F] = 0.0
        N = np.flatnonzero(multiplier < -n * EPS * float((np.abs(VF) @ x).max()))
        if not N.size:
            return F, x
        # the borders [1, V_Fj] of the candidates, and M times them
        U = np.ones((len(F) + 1, N.size))
        U[1:] = V[np.ix_(F, N)]
        MU = kkt(F, U)
        _, spread, fits = _schur(V[N, N], U, MU, vmax)
        N, U, MU, spread = N[fits], U[:, fits], MU[:, fits], spread[fits]
        if not N.size:
            return F, x
        floor = SCHUR_RTOL * vmax * spread * spread
        if N.size > 1 and _block_factor(V[np.ix_(N, N)] - U.T @ MU, floor) is not None:
            S, y, least = positive(np.concatenate([F, N]))
            if least < variance:
                F, x = S, y
                continue
        S, w = np.append(F, N[0]), np.append(x, 0.0)
        y = minimum(S)[0]
        if not y[-1] > 0.0:  # its multiplier was rounding
            return F, x
        while not (y > 0.0).all():
            # step from w towards y to the first weight that reaches zero
            falls = np.flatnonzero(y <= 0.0)
            room = w[falls]
            t = np.divide(room, room - y[falls], out=np.zeros(falls.size), where=room > 0.0)
            first = falls[t == t.min()]
            out = first[np.argmin(S[first])]
            w = np.clip(w + t.min() * (y - w), 0.0, None)
            S, w = np.delete(S, out), np.delete(w, out)
            y = minimum(S)[0]
        F, x = S, y


def _walk(V, mu, free, inverse, tau=None, landing=None):
    """The segments of the critical line of mu (max mu = 0) from lambda = 0,
    where the free set is `free` and its KKT matrix has inverse `inverse`,
    up to lambda = inf; given a risk tau, from the segment that holds tau.

    M inverts F's KKT matrix [[0, 1'], [1, V_F]] (slot 0 the budget, slot
    i + 1 the i-th free asset, and slot[j] = i, or -1 for j outside F) and
    Y = M [e_0, (0, mu_F)], so on a segment (gamma, w_F) = Y[:, 0] +
    lambda Y[:, 1].  Asset j outside F stays out while its slack
    lambda (mu_j - a_j) - b_j, (b, a) = [1, V_jF] Y, is nonpositive, and a
    free asset stays in while its weight is nonnegative.  Both conditions
    read lambda slope_j - level_j <= 0, with level_F = Y[1:, 0] and
    slope_F = -Y[1:, 1] for the weights, so one rule gives the next corner:
    the smallest lambda = level_j / slope_j above this one over the j with
    a positive slope.  A lone free asset holds the budget and never leaves
    (a swap below may replace it), and where every free asset ties at max
    mu, Y[:, 1] is zero: no slope is positive and the segment reaches
    lambda = inf.
    There j enters by bordering, M += (M u - e) (M u - e)' / s with
    u = [1, V_Fj], e its new slot and s its Schur complement (:func:`_schur`),
    or the asset in slot q leaves by M -= M e_q e_q' M / M_qq and the last
    slot moves into q.  These corrections wait aside and are folded in
    FOLD_EVERY at a time, so a corner costs O(n |F|).  M starts as
    `inverse`; a step solves for it again (:func:`_kkt_inverse`, at most
    once) where a KKT residual exceeds RESIDUAL_RTOL of its scale, and
    refines Y once on a residual above the rounding of its own sums, as the
    leaving assets of an upward walk downdate M from ill-conditioned free
    sets.
    Each segment is yielded as (F, [w_F(0), dw_F/dlambda], var0, mean, k2,
    lambda of its lower corner, lambda of its upper corner); a segment
    that starts where an asset entered starts at the weights where the one
    before it ended, its entering weight exactly 0 (:func:`_pin`).  Sent
    True where it rests after a segment, the walk yields (F, M), a copy of
    F and of M with the corrections aside folded in, and rests there still.

    Given tau, the first steps are block principal pivots (Judice and Pires
    1994; Kim and Park 2011) to tau's segment, from `landing`, a free set and
    the inverse of its KKT matrix (another line's at tau), where given, else
    from `free`; the corners go on from lambda_tau, where var0 + lambda^2 k2 =
    tau^2 on F.  At lambda_tau the free assets of negative weight leave,
    M -= M_:L M_LL^-1 M_L:, and the outside ones of positive slack enter,
    M += C S^-1 C' with C = [M U; -I] (S their Schur block), each set at once
    and in place, until none does beyond tol, n ulps of the columns' scale.
    The free assets of weight at most tol then leave in one last exchange,
    so at a corner the landing takes the side a walked read takes
    (:meth:`CriticalLine.at`), and an asset that enters there enters again.
    After STALLS steps without fewer of them, one changes at a time, the
    least index first (Murty's rule).  A k2 <= 0, tau^2 < var0, a block that
    fails :func:`_block_factor`, a free set seen again or MAX_ITER steps
    decline the jump: the walk then starts from `free` as without tau,
    whatever the jump started from.

    At lambda = 0 a level or slope within its rounding of zero is zero: n
    ulps of its scale times vmax max |M_FF|, by which M amplifies the
    rounding of the KKT rows (the weights that the swaps below leave at zero
    carry it), and at most TIE_RTOL of that scale.  Ties are taken there in
    the order of the assets.  An asset j collinear with F (a singular V) has
    the slack lambda (mu_j - c' mu_F) exactly, c the mix of :func:`_schur`.
    Where F came to span j at a corner above lambda = 0, that slack was
    nonpositive there, so j never enters.  At lambda = 0 it may rise: j then
    enters in place of the free asset whose weight reaches zero first along
    e_j - c on c's entries above TIE_RTOL (1 + |c|_1), the least asset index
    on ties (M restarts from {j}'s :func:`_kkt_inverse` in place of a lone
    asset), a move that keeps the variance (another w_lo) and raises mu' w.
    A singular KKT matrix, a nonpositive pivot M_qq, a free set that
    returns at lambda = 0, a corner weight below -NEGATIVE_ATOL or MAX_ITER
    corners raise SingularCovarianceError.
    """
    n, f, k = len(mu), 0, 0
    M, Y, R, fix = (np.zeros((n + 1, n + 1)), *np.zeros((3, n + 1, 2)))
    aside, weights = np.zeros((n + 1, FOLD_EVERY)), np.zeros(FOLD_EVERY)
    rows, F = np.empty((n, n)), np.zeros(n, dtype=int)  # rows[i] = V[F[i]]
    # u holds the border [1, V_Fj] (u[0] stays 1) and col the product M x
    slot, u, col = np.full(n, -1), np.ones(n + 1), np.zeros(n + 1)
    R[0, 0] = 1.0

    def solve(free, inverse):  # M, Y and the slots of free set `free` afresh
        nonlocal f, k
        slot[F[:f]], M[: f + 1, : f + 1], Y[: f + 1], R[1 : f + 1] = -1, 0.0, 0.0, 0.0
        f, k, aside[:] = len(free), 0, 0.0
        M[: f + 1, : f + 1] = inverse
        F[:f], rows[:f], R[1 : f + 1, 1] = free, V[free], mu[free]
        slot[F[:f]] = np.arange(f)
        Y[: f + 1] = M[: f + 1, : f + 1] @ R[: f + 1]

    def times(x):  # M x, into col for a vector x; an int x is the unit vector of that slot
        unit = isinstance(x, int)
        if unit:
            col[: f + 1] = M[: f + 1, x]
            out = col[: f + 1]
        else:
            out = np.matmul(M[: f + 1, : f + 1], x, out=col[: f + 1] if x.ndim == 1 else None)
        if k:
            A = aside[: f + 1, :k]
            out += (A * weights[:k]) @ (A[x] if unit else A.T @ x)
        return out

    def fold():  # M takes in the k corrections waiting aside
        nonlocal k
        M[: f + 1, : f + 1] += (aside[: f + 1, :k] * weights[:k]) @ aside[: f + 1, :k].T
        aside[: f + 1, :k], k = 0.0, 0

    def correct(c, weight):  # M += weight c c', set aside, and Y with it
        nonlocal k
        Y[: f + 1] += c[:, None] * (weight * (c @ R[: f + 1]))
        if k == FOLD_EVERY:
            fold()
        aside[: f + 1, k], weights[k], k = c, weight, k + 1

    # block and exchange read and write M itself: the jump's pivots run before
    # the first correction is set aside, and solve empties the aside
    def block(C, L, sign):  # M += sign C (L L')^-1 C', and Y with it, in place
        G = np.linalg.solve(L, C.T)
        M[: f + 1, : f + 1] += G.T @ (sign * G)
        Y[: f + 1] += G.T @ (sign * (G @ R[: f + 1]))

    def drop(i):  # the last slot moves into slot i, whose asset leaves F
        nonlocal f
        for a in (M, aside, Y, R):
            a[i + 1] = a[f]
        j, F[i] = F[i], F[f - 1]
        M[:, i + 1], rows[i], slot[F[i]], slot[j] = M[:, f], rows[f - 1], i, -1
        for a in (M, M.T, aside, Y, R):
            a[f] = 0.0
        f -= 1

    def leave(i):  # the asset in slot i leaves F
        c = times(i + 1)
        if not c[i + 1] > 0.0:
            raise SingularCovarianceError("critical line: nonpositive pivot")
        correct(c, -1.0 / c[i + 1])
        drop(i)

    def schur(j):  # M u (in col), then s, 1 + |c|_1 and whether j borders, of j outside F
        u[1 : f + 1] = rows[:f, j]
        Mu = times(u[: f + 1])
        return (Mu, *_schur(V[j, j], u[: f + 1], Mu, vmax))

    def enter(j, s):  # asset j borders F, with M u in col
        nonlocal f
        rows[f], F[f], R[f + 1, 1], col[f + 1], slot[j] = V[j], j, mu[j], -1.0, f
        f += 1
        correct(col[: f + 1], 1.0 / s)

    def rows_and_residual():  # (A, size, worst): A = [1, V_jF] Y of each asset j,
        # the scale of Y's columns and the worst KKT residual against it (in fix)
        free, W = F[:f], Y[1 : f + 1]
        low = float(mu[free].min())
        if low == 0.0:  # every free asset ties at max mu: Y[:, 1] = M 0
            Y[: f + 1, 1] = 0.0
        A = (W.T @ rows[:f]).T + Y[0]
        # the KKT rows of F and the budget row, against their terms' size
        # (max |R_F| = (0, -min mu_F), as mu <= 0; a size of 0 has no residual)
        fix[0], fix[1 : f + 1] = W.sum(axis=0) - R[0], A[free] - R[1 : f + 1]
        size = vmax * np.abs(W).sum(axis=0) + np.abs(Y[0]) - [0.0, low]
        return A, size, float((np.abs(fix[: f + 1]).max(axis=0) / np.maximum(size, TINY)).max())

    def exchange(bad):  # the assets of `bad` outside F enter, then those in F
        # leave, each set by one update of M; False where the entering Schur
        # block fails its pivot test or the leaving pivot block is not definite
        nonlocal f
        out = slot[bad]
        E, out = bad[out < 0], out[out >= 0]
        if E.size:
            U = np.vstack((np.ones(E.size), rows[:f, E]))
            MU = M[: f + 1, : f + 1] @ U
            spread = 1.0 + np.abs(MU[1:]).sum(axis=0)
            L = _block_factor(V[E[:, None], E] - U.T @ MU, SCHUR_RTOL * vmax * spread * spread)
            if L is None:
                return False
            rows[f : f + E.size], F[f : f + E.size], R[f + 1 : f + E.size + 1, 1] = V[E], E, mu[E]
            slot[E], f = np.arange(f, f + E.size), f + E.size
            block(np.concatenate((MU, -np.eye(E.size))), L, 1.0)
        if out.size:
            C = M[: f + 1, out + 1]
            L = _block_factor(C[out + 1], 0.0) if out.size < f else None
            if L is None:
                return False
            block(C, L, -1.0)
            for i in np.sort(out)[::-1]:
                drop(int(i))
        return True

    start, tau_sq = (free, inverse), None if tau is None else tau * tau
    solve(*(start if landing is None else landing))
    vmax = float(np.abs(V).max())
    lam, last, entered, refreshed, fewest, stalls = 0.0, -1, False, True, n + 1, 0
    cand, walked, seen = np.empty(n), 0, set()
    while True:
        A, size, worst = rows_and_residual()
        free, W = F[:f], Y[1 : f + 1]
        if not refreshed and worst > RESIDUAL_RTOL:
            solve(free, _kkt_inverse(V, free))
            refreshed = True
            continue
        refreshed = False
        if worst > (f + 1) * EPS:  # above the rounding of its sums
            Y[: f + 1] -= times(fix[: f + 1])
            A = rows_and_residual()[0]
        gain = mu[free] @ W
        walked += 1
        slope, level = mu - A[:, 1], A[:, 0]
        level[free], slope[free] = W[:, 0], -W[:, 1]
        if tau_sq is not None:  # first, block pivots towards lambda(tau)
            var0 = -Y[0, 0]
            jumps = gain[1] > 0.0 and tau_sq >= var0 and walked <= MAX_ITER
            if jumps:
                lam = float(np.sqrt((tau_sq - var0) / gain[1]))
                excess, tol = lam * slope - level, n * EPS * (size[0] + lam * size[1])
                (bad,) = np.nonzero(excess > tol)
                fewest, stalls = (bad.size, 0) if bad.size < fewest else (fewest, stalls + 1)
                if stalls >= STALLS:  # one at a time, the least index first, and no F twice
                    held = frozenset(free.tolist())
                    jumps, bad = held not in seen, bad[:1]
                    seen.add(held)
            if jumps and not bad.size:
                # none violates: the walk goes on from here, once weights of at most tol leave
                tau_sq, zero = None, free[excess[free] >= -tol]
                if zero.size and exchange(zero):
                    continue
            elif jumps and exchange(bad):
                continue
            else:  # the jump declines: the walk starts again from `free`, as without tau
                solve(*start)
                tau_sq, lam, refreshed, walked, seen = None, 0.0, True, 0, set()
                continue
        # where an asset entered F at this corner, the weights there of the
        # segment before, which this one starts at (see _pin)
        ends, entered = segment[1] @ (1.0, lam) if entered else None, False
        segment = (free.astype(np.int32), W.copy(), -Y[0, 0], gain[0], max(gain[1], 0.0))
        if float((W @ (1.0, lam)).min()) < -NEGATIVE_ATOL:
            raise SingularCovarianceError(f"critical line: a weight below 0 at lambda = {lam:.6g}")
        if lam == 0.0:  # ties
            fold()  # the scale reads M whole
            amplified = vmax * float(np.abs(M[1 : f + 1, 1 : f + 1]).max())
            rounding = min(n * EPS * max(1.0, amplified), TIE_RTOL)
            level[np.abs(level) <= rounding * size[0]] = 0.0
            slope[np.abs(slope) <= rounding * size[1]] = 0.0
            held = frozenset(free.tolist())
            if held in seen:
                raise SingularCovarianceError("critical line: its ties at lambda = 0 cycle")
            seen.add(held)
        cand.fill(np.inf)
        np.divide(level, slope, out=cand, where=slope > 0.0)
        if f == 1:
            cand[free] = np.inf
        # the asset that changed at this corner does not change back at it,
        # but for ties at lambda = 0
        if last >= 0 and lam > 0.0 and cand[last] <= lam * (1.0 + TIE_RTOL):
            cand[last] = np.inf
        low = lam
        while True:
            j = int(cand.argmin())
            if not cand[j] < np.inf:
                if ends is not None:
                    _pin(segment[1], ends, low, np.inf)
                yield *segment, low, np.inf
                return
            if walked >= MAX_ITER:
                raise SingularCovarianceError(f"critical line: no end after {MAX_ITER} corners")
            out, into = int(slot[j]), j
            if out >= 0:
                into = -1
                break
            Mu, s, spread, borders = schur(j)
            if borders:
                break
            # collinear with F on budget portfolios; at lambda = 0 its slack
            # slope[j] lambda may rise (above its rounding), and j swaps in
            pivots = Mu[1:] > TIE_RTOL * spread
            if lam == 0.0 and slope[j] > SCHUR_RTOL * spread * size[1] and pivots.any():
                # the ratio test of e_j - c on the weights at lambda = 0, ties
                # to the least asset index
                ratio = np.where(pivots, level[free] / np.where(pivots, Mu[1:], 1.0), np.inf)
                out, cand[j] = int(np.argmin(np.where(ratio == ratio.min(), free, n))), lam
                break
            cand[j] = np.inf
        lam, last, entered = max(float(cand[j]), lam), j, out < 0
        if ends is not None:
            _pin(segment[1], ends, low, lam)
        asked = yield *segment, low, lam
        while asked:  # sent True: F and its KKT inverse, the corrections aside folded in
            C = aside[: f + 1, :k]
            asked = yield F[:f].copy(), M[: f + 1, : f + 1] + (C * weights[:k]) @ C.T
        if out >= 0 and into >= 0 and f == 1:  # j replaces a lone free asset, which cannot leave
            solve([into], _kkt_inverse(V, [into]))
            continue
        if out >= 0:
            leave(out)
            if into >= 0:
                _, s, _, borders = schur(into)
                if not borders:
                    raise SingularCovarianceError(
                        "critical line: a swap at lambda = 0 stays collinear"
                    )
        if into >= 0:
            enter(into, s)


def sandwich_check(
    universe: AssetUniverse,
    sigma: float,
    samples: int = 100_000,
    seed: int = 0,
) -> SandwichReport:
    """Test the sandwich at risk sigma with the exact long-only maxima.

    See :class:`SandwichReport`.  Both maxima are closed forms on one
    segment of the universe's eta_line and root_eta_line, each walked up
    from w_lo to that segment, or, for a level inside (sigma_lo, sigma_hi)
    that starts a line or lies below its start, jumped to it
    (:class:`CriticalLine`): the eta line, read first, from w_lo, and the
    root line, which the universe built with it, from the eta line's landing
    there; an empty level reads only w_lo.  `samples` and `seed` are kept for
    callers; nothing is drawn.  A sigma or samples that is not a finite
    number raises ParseError, and samples below 1 DimensionMismatchError.
    """
    sigma = _finite_float(sigma, "sigma")
    requested = int(_finite_float(samples, "samples"))
    if requested < 1:
        raise DimensionMismatchError(f"samples must be at least 1, got {samples}")
    d_upper = _d_max_of_d_eta(universe)
    lo = universe.long_only_mvp
    sigma_lo = float(np.sqrt(lo.variance))
    sigma_hi = float(universe.volatilities.max())
    below = np.sqrt(lo.variance_lower) > (1.0 + SHELL_BAND) * sigma
    empty = bool(below or sigma_hi < (1.0 - SHELL_BAND) * sigma)
    # at or below sigma_lo both lines are read at w_lo, their lambda = 0 end
    tau = 0.0 if sigma <= sigma_lo else min(sigma, sigma_hi)
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
