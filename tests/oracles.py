"""Brute-force reference computations for the test suite.

Everything here is deliberately independent of the library's closed forms:
dense scans, projected-gradient ascent, simplex grids, support enumeration,
bisection, the active-set long-only minimum variance and the Dirichlet
sandwich sampler that the critical line replaced, the distance matrix's
second route to the maximum-DR portfolio, q_max and centrality, the LU
route to the kernel's images and a row-by-row sweep built on it, the
eigenvalue decisions that the Cholesky certificates of `validate_universe`
and `assert_edm` stand in for, and the kernel and the centre at 50 or 60
digits (mpmath), which the tests and `scripts/accuracy.py` score against.
Slow and dumb on purpose.
"""

from __future__ import annotations

import itertools

import numpy as np

import drfrontier as drf
from drfrontier.embedding import EIG_RTOL
from drfrontier.errors import (
    DegenerateReturnsError,
    MissingReturnsError,
    NotSPDError,
    TangencyInfeasibleError,
)
from drfrontier.frontiers import (
    _SNAP_RTOL,
    RISK_SNAP_RTOL,
    FrontierCurve,
    FrontierKind,
    FrontierRow,
)
from drfrontier.mdp import GAP_RTOL, MAX_ITER, SHELL_BAND, LongOnlyMvp
from drfrontier.model import BUDGET_ATOL, PSD_RTOL, proportional_to_ones


def hyperplane_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n x (n-1)) of the directions with zero coordinate sum."""
    center = np.eye(n) - np.full((n, n), 1.0 / n)
    u, s, _ = np.linalg.svd(center)
    return u[:, : n - 1]


def projected_gradient_min_variance(V, iters=50_000, tol=1e-14):
    """Minimize w' V w over the budget hyperplane by projected gradient."""
    V = np.asarray(V, float)
    n = V.shape[0]
    w = np.full(n, 1.0 / n)
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(V)[-1]))
    for _ in range(iters):
        g = 2.0 * V @ w
        g = g - g.mean()
        w_new = w - step * g
        if float(np.abs(w_new - w).max()) <= tol:
            return w_new
        w = w_new
    return w


def projected_gradient_max_dr(V, eta, starts=20, seed=0, iters=50_000, tol=1e-14):
    """Maximize 0.5 (eta' w - w' V w) over the budget hyperplane, multi-start."""
    V = np.asarray(V, float)
    eta = np.asarray(eta, float)
    n = V.shape[0]
    rng = np.random.default_rng(seed)
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(V)[-1]))
    best_w, best_val = None, -np.inf
    for k in range(starts):
        if k == 0:
            w = np.full(n, 1.0 / n)
        else:
            v = rng.normal(0.0, 1.0, n)
            w = np.full(n, 1.0 / n) + (v - v.mean())
        for _ in range(iters):
            g = 0.5 * eta - V @ w
            g = g - g.mean()
            w_new = w + step * g
            if float(np.abs(w_new - w).max()) <= tol:
                w = w_new
                break
            w = w_new
        val = 0.5 * float(eta @ w - w @ V @ w)
        if val > best_val:
            best_val, best_w = val, w
    return best_w, best_val


def _shell_chart(V):
    """Parameterization pieces of {1'w = 1, w' V w = sigma^2}."""
    V = np.asarray(V, float)
    n = V.shape[0]
    Z = hyperplane_basis(n)
    M = Z.T @ V @ Z
    evals, evecs = np.linalg.eigh(M)
    M_inv_half = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    w_mvp = np.linalg.solve(V, np.ones(n))
    w_mvp = w_mvp / w_mvp.sum()
    s2_mvp = float(w_mvp @ V @ w_mvp)
    return Z, M_inv_half, w_mvp, s2_mvp


def circle_scan(V, objective, sigma, n_theta=4096, refine=60):
    """Dense scan of the feasible circle for n = 3; returns (w_best, value).

    objective is a callable of the weight vector.  The coarse argmax is
    polished by golden-section search, so smooth objectives are located to
    far better than the grid spacing.
    """
    V = np.asarray(V, float)
    assert V.shape[0] == 3
    Z, M_inv_half, w_mvp, s2_mvp = _shell_chart(V)
    u = np.sqrt(max(sigma * sigma - s2_mvp, 0.0))
    if u == 0.0:
        return w_mvp, objective(w_mvp)

    def w_of(theta):
        y = u * (M_inv_half @ np.array([np.cos(theta), np.sin(theta)]))
        return w_mvp + Z @ y

    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    vals = np.array([objective(w_of(t)) for t in thetas])
    i = int(np.argmax(vals))
    span = 2.0 * np.pi / n_theta
    lo, hi = thetas[i] - span, thetas[i] + span
    for _ in range(refine):
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        if objective(w_of(m1)) < objective(w_of(m2)):
            lo = m1
        else:
            hi = m2
    t = 0.5 * (lo + hi)
    w = w_of(t)
    val = objective(w)
    if vals[i] > val:
        w, val = w_of(thetas[i]), vals[i]
    return w, val


def simplex_grid(n: int, m: int) -> np.ndarray:
    """All weight vectors with coordinates k/m summing to 1."""
    if n == 3:
        rows = []
        for i in range(m + 1):
            j = np.arange(m - i + 1)
            block = np.empty((m - i + 1, 3))
            block[:, 0] = i
            block[:, 1] = j
            block[:, 2] = m - i - j
            rows.append(block)
        return np.vstack(rows) / m
    pts = []
    for bars in itertools.combinations(range(m + n - 1), n - 1):
        prev = -1
        ks = []
        for b in bars:
            ks.append(b - prev - 1)
            prev = b
        ks.append(m + n - 2 - prev)
        pts.append(ks)
    return np.asarray(pts, float) / m


def grid_max_half_quad(A, W, chunk=200_000):
    """max over rows w of 0.5 * w' A w, evaluated in chunks."""
    A = np.asarray(A, float)
    best = -np.inf
    for k in range(0, len(W), chunk):
        block = W[k : k + chunk]
        vals = 0.5 * np.einsum("ij,jk,ik->i", block, A, block)
        best = max(best, float(vals.max()))
    return best


def exact_d_max(D):
    """max over the simplex of 0.5 * w' D w for a distance matrix, n <= 8.

    On the support S of a maximizer the KKT conditions read D_S w_S = lambda 1,
    and some maximizer has an affinely independent support, whose D_S is
    nonsingular.  So the maximum is among the vertices and the points
    w_S proportional to D_S^-1 1 that are nonnegative; every support is
    enumerated.  Returns (value, weights).
    """
    D = np.asarray(D, float)
    n = D.shape[0]
    assert n <= 8
    best_w = np.zeros(n)
    best_w[0] = 1.0
    best = 0.0
    for k in range(2, n + 1):
        for S in itertools.combinations(range(n), k):
            idx = list(S)
            try:
                y = np.linalg.solve(D[np.ix_(idx, idx)], np.ones(k))
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(y)) or float(y.min()) < 0.0:
                continue
            total = float(y.sum())
            w = np.zeros(n)
            w[idx] = y / total
            val = 0.5 * float(w @ D @ w)
            if val > best:
                best, best_w = val, w
    return best, best_w


def _support_minimum(V, support):
    """Weights on `support` minimizing w' V w subject to 1' w = 1: the
    least-squares solution of the KKT system [[V_S, 1], [1', 0]], which is
    consistent, and exact, also where V_S is singular; None when not finite."""
    k = len(support)
    K = np.ones((k + 1, k + 1))
    K[:k, :k], K[k, k] = V[np.ix_(support, support)], 0.0
    z = np.linalg.lstsq(K, np.eye(k + 1)[k], rcond=None)[0][:k]
    return z if np.all(np.isfinite(z)) else None


def long_only_min_variance(universe) -> LongOnlyMvp:
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
    is rounding).  The second route to the last corner of the critical line.
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
        free=np.flatnonzero(w),
        kkt_inverse=None,  # the oracle starts no critical line
    )


def _anchors(universe, sigma):
    """w_lo by the active set, the most volatile asset hi, and the target
    tau = clip(sigma, sigma_lo, sigma_hi) of the Dirichlet sampler."""
    lo = long_only_min_variance(universe)
    hi = int(np.argmax(universe.variances))
    sigma_lo = float(np.sqrt(lo.variance))
    return lo, hi, min(max(sigma, sigma_lo), float(np.sqrt(universe.variances[hi])))


def sandwich_landings(universe, sigma, samples, seed=0, band=SHELL_BAND):
    """The Dirichlet sampler that the sandwich check used before the exact
    maxima: a lower bound on each of them.

    Draws X, Dirichlet(1) from a generator seeded with `seed`, are moved to
    risk tau (:func:`_anchors`) along w_lo -> x when x's risk is at least
    tau, else along x -> e_hi.  risk^2 is a convex quadratic along either
    segment whose ends lie on opposite sides of tau^2, so one root lands
    each draw on the shell, long-only and on budget; one product X V gives
    every coefficient.  Returns the number of landed portfolios whose risk,
    evaluated again at the root, is within `band` of sigma, and their max
    eta' w and max (sqrt(eta)' w)^2 (nan when none lands).
    """
    eta = np.clip(universe.variances, 0.0, None)
    root = np.sqrt(eta)
    lo, hi, tau = _anchors(universe, sigma)
    tau_sq = tau * tau
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
    landed = np.abs(risk - sigma) <= band * sigma
    if not landed.any():
        return 0, float("nan"), float("nan")
    # eta' w and sqrt(eta)' w are linear along the segment
    p_eta = np.where(up, float(eta @ lo.weights), x_eta)
    q_eta = np.where(up, x_eta, eta[hi])
    p_root = np.where(up, float(root @ lo.weights), x_root)
    q_root = np.where(up, x_root, root[hi])
    w_eta = (p_eta + t * (q_eta - p_eta))[landed]
    w_root = (p_root + t * (q_root - p_root))[landed]
    return int(landed.sum()), float(w_eta.max()), float(np.square(w_root).max())


def sandwich_bisection(universe, sigma, samples, seed=0, band=SHELL_BAND):
    """The sampler's landings, found by bisection on each segment.

    Same Dirichlet draws, anchors and target as :func:`sandwich_landings`;
    each draw x moves along w_lo -> x when its risk is at least tau, else
    along x -> e_hi, to the point where the three-operand einsum risk
    crosses tau, by 60 halvings.  Returns the landed portfolios whose
    einsum risk is within `band` of sigma, and their max eta' w and
    max (sqrt(eta)' w)^2.
    """
    V = universe.cov
    eta = universe.variances
    n = universe.n

    def risk(W):
        return np.sqrt(np.einsum("ij,jk,ik->i", W, V, W))

    lo, hi, tau = _anchors(universe, sigma)
    X = np.random.default_rng(seed).dirichlet(np.ones(n), size=samples)
    up = (risk(X) >= tau)[:, None]
    P = np.where(up, lo.weights, X)
    Q = np.where(up, X, np.eye(n)[hi])
    # risk(P) <= tau <= risk(Q) and the set below tau is an interval at P
    lo_t, hi_t = np.zeros(samples), np.ones(samples)
    for _ in range(60):
        mid = 0.5 * (lo_t + hi_t)
        below = risk(P + mid[:, None] * (Q - P)) < tau
        lo_t = np.where(below, mid, lo_t)
        hi_t = np.where(below, hi_t, mid)
    W = P + (0.5 * (lo_t + hi_t))[:, None] * (Q - P)
    W = W[np.abs(risk(W) - sigma) <= band * sigma]
    return W, float((W @ eta).max()), float(((W @ np.sqrt(eta)) ** 2).max())


def long_only_max_enum(V, mu, tau):
    """max mu' w over budget portfolios w >= 0 with w' V w <= tau^2, n <= 6.

    At a maximizer with support S either the risk bound is slack, and w is
    a vertex (or any point of a face where mu is constant), or it binds and
    the KKT conditions give w_S = alpha_S + lambda beta_S with lambda >= 0,
    from the bordered system [[0, 1'], [1, V_S]] against [1, 0] and
    [0, mu_S], at the lambda of risk tau.  Every support is enumerated and
    the best feasible candidate returned (None when none is).
    """
    V, mu = np.asarray(V, float), np.asarray(mu, float)
    n = len(mu)
    assert n <= 6
    best = None
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            idx = list(S)
            K = np.zeros((k + 1, k + 1))
            K[0, 1:] = K[1:, 0] = 1.0
            K[1:, 1:] = V[np.ix_(idx, idx)]
            rhs = np.zeros((k + 1, 2))
            rhs[0, 0], rhs[1:, 1] = 1.0, mu[idx]
            try:
                sol = np.linalg.solve(K, rhs)[1:]
            except np.linalg.LinAlgError:
                continue
            a, b = sol[:, 0], sol[:, 1]
            VS = K[1:, 1:]
            var0, k2 = float(a @ VS @ a), float(b @ VS @ b)
            if var0 > tau * tau:
                continue
            lam = np.sqrt((tau * tau - var0) / k2) if k2 > 0.0 else 0.0
            w = a + lam * b
            if float(w.min()) < -1e-12:
                continue
            value = float(mu[idx] @ w)
            best = value if best is None else max(best, value)
    return best


def random_universe(
    rng,
    n,
    with_returns=False,
    with_riskfree=False,
    vol_lo=0.1,
    vol_hi=0.5,
):
    """Random well-conditioned SPD universe, factor-plus-noise correlation."""
    k = max(1, n // 4)
    B = rng.normal(0.0, 1.0, (n, k))
    C = B @ B.T + np.diag(rng.uniform(1.0, 3.0, n))
    d = np.sqrt(np.diag(C))
    corr = C / np.outer(d, d)
    vols = rng.uniform(vol_lo, vol_hi, n)
    V = corr * np.outer(vols, vols)
    V = 0.5 * (V + V.T)

    rbar = None
    r0 = None
    if with_returns or with_riskfree:
        rbar = rng.uniform(0.01, 0.20, n)
    if with_riskfree:
        x = np.linalg.solve(V, np.ones(n))
        mvp_ret = float(rbar @ x) / float(np.ones(n) @ x)
        r0 = mvp_ret - rng.uniform(0.02, 0.10)
    return drf.validate_universe(V, expected_returns=rbar, risk_free_rate=r0)


def conditioned_cov(rng, n, log_cond, vol_lo=0.1, vol_hi=0.5):
    """Covariance, not yet validated, whose correlation has eigenvalues
    spread over 10^log_cond and whose volatilities are uniform in
    [vol_lo, vol_hi]: V runs towards singular while the variances stay
    apart."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    C = (q * np.geomspace(1.0, 10.0 ** (-log_cond), n)) @ q.T
    root = np.sqrt(np.diag(C))
    vols = rng.uniform(vol_lo, vol_hi, n)
    return C / np.outer(root, root) * np.outer(vols, vols)


def conditioned_universe(n, seed, log_cond, with_riskfree=False, vol_lo=0.1, vol_hi=0.5):
    """Universe of :func:`conditioned_cov` with expected returns, and a
    risk-free rate below the minimum-variance return when asked."""
    rng = np.random.default_rng(seed)
    V = conditioned_cov(rng, n, log_cond, vol_lo, vol_hi)
    rbar = rng.uniform(0.01, 0.2, n)
    r0 = None
    if with_riskfree:
        x = np.linalg.solve(V, np.ones(n))
        r0 = float(rbar @ x) / float(x.sum()) - rng.uniform(0.01, 0.05)
    return drf.validate_universe(V, expected_returns=rbar, risk_free_rate=r0)


def rotated_spectrum_cov(seed=1, log_cond=5.0):
    """Three-asset covariance q diag(geomspace(1, 10^-log_cond, 3) * scale) q'
    with a random rotation q, plus expected returns.  At seed 1 and
    log_cond 5 (eigenvalues 6e-7..6e-2) the Gram matrix formed as
    -0.5 Js' D Js missed the Pythagoras check by 2.1e-7."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    scale = rng.uniform(0.05, 0.5)
    V = (q * (np.geomspace(1.0, 10.0 ** (-log_cond), 3) * scale)) @ q.T
    return V, rng.uniform(0.01, 0.2, 3)


# the classes of singular V that AssetUniverse.centre tells apart
SINGULAR_KINDS = ("riskless", "duplicate", "unbounded", "conditioned")


def singular_cov(rng, kind, n):
    """Covariance of n assets, not yet validated, of one of SINGULAR_KINDS:

    - riskless: rank n - 1, whose null vector z has 1' z != 0, so a budget
      portfolio is riskless and the maximum DR is unique;
    - duplicate: asset n a copy of asset 1 in a universe of n - 1 assets of
      full rank (two clones for n = 2), so the maximum is not unique;
    - unbounded: generic rank between 1 and n - 2 (n >= 3), so some
      zero-budget z with V z = 0 has eta' z != 0 and DR has no maximum;
    - conditioned: :func:`conditioned_cov` with cond from 1e10 to 1e12.
    """
    if kind == "conditioned":
        return conditioned_cov(rng, n, rng.uniform(10.0, 12.0))
    if kind == "duplicate":
        A = rng.standard_normal((n - 1, n + 1))
        index = [*range(n - 1), 0]
        return (A @ A.T / (n + 1))[np.ix_(index, index)]
    rank = n - 1 if kind == "riskless" else int(rng.integers(1, n - 1))
    A = rng.standard_normal((n, rank))
    return A @ A.T


def with_spectrum(evals, seed=4):
    """Symmetric q diag(evals) q' with a random rotation q: a covariance
    whose eigenvalues, negative ones included, are known."""
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(evals),) * 2))[0]
    V = (q * np.asarray(evals, dtype=float)) @ q.T
    return 0.5 * (V + V.T)


def block_riskfree_dr(V, eta, risky_weights, cash):
    """DR of an (n+1)-asset portfolio whose extra asset is riskless.

    Builds the augmented covariance, then evaluates 0.5 * w' D w with the
    augmented distance matrix, entirely outside the library's curve formulas.
    """
    V = np.asarray(V, float)
    eta = np.asarray(eta, float)
    n = V.shape[0]
    Vt = np.zeros((n + 1, n + 1))
    Vt[:n, :n] = V
    etat = np.append(eta, 0.0)
    Dt = 0.5 * (etat[:, None] + etat[None, :]) - Vt
    wt = np.append(np.asarray(risky_weights, float), float(cash))
    # check_budget's rule: a levered cash row sums to 1 only up to its rounding
    tol = max(BUDGET_ATOL, 4 * len(wt) * np.finfo(float).eps * float(np.abs(wt).sum()))
    assert abs(wt.sum() - 1.0) <= tol
    return 0.5 * float(wt @ Dt @ wt)


def sweep_rowwise(
    universe, kind, sigma_grid=None, embedding=None, include_weights=False
):
    """Row-by-row reference for :func:`drfrontier.sweep`, on a route of its own.

    It calls no curve function of the library and reads none of the kernel's
    directions.  Every direction is formed here from the LU images of
    :func:`lu_route` and the right-hand sides of :func:`centred_rhs`, each
    row's u from its sigma with the library's snap constants, q as the direct
    DR of the row's weights (:func:`block_riskfree_dr` for a row holding
    cash), and centrality from the row's weights: from the Gram form w' B w of
    an embedding, or without one from 0.5 (w - s)' V (w - s) about the
    maximum-DR portfolio s formed here.  The library's decisions are shared
    so that statuses and refusals compare: proportional_to_ones for a missing
    direction, and a tangency only for r0 below the minimum-variance return.
    """
    V, eta, rbar = universe.cov, universe.variances, universe.expected_returns
    r0 = universe.risk_free_rate
    _, eta0, root0, *rbar0 = centred_rhs(universe)
    inv_ones, inv_eta, inv_root, *inv_rbar = lu_route(universe)
    a = float(inv_ones.sum())
    sigma2_mvp, w_mvp = 1.0 / a, inv_ones / a

    def direction(c, c0, inv_c):
        # (d, k): d = (V^-1 c0 - (1' V^-1 c0) w_mvp) / k, then projected onto
        # the budget hyperplane; None where c is a multiple of ones
        if proportional_to_ones(c):
            return None, 0.0
        g = float(inv_c.sum())
        k_sq = float(c0 @ inv_c) - g * g / a
        if k_sq <= 0.0:
            return None, 0.0
        d = (inv_c - g * w_mvp) / np.sqrt(k_sq)
        return d - d.sum() * w_mvp, float(np.sqrt(k_sq))

    d_eta, rho = direction(eta, eta0, inv_eta)
    d_root, _ = direction(universe.volatilities, root0, inv_root)
    w_o, _ = (None, 0.0) if rbar is None else direction(rbar, rbar0[0], inv_rbar[0])
    w_mdrp = w_mvp if d_eta is None else w_mvp + 0.5 * rho * d_eta

    def row_centrality(w):
        if embedding is not None:
            return float(np.sqrt(max(w @ embedding.gram @ w, 0.0)))
        offset = w - w_mdrp
        return float(np.sqrt(max(0.5 * float(offset @ V @ offset), 0.0)))

    kind = FrontierKind(kind)
    if sigma_grid is None:
        sigma_grid = drf.default_sigma_grid(drf.frontier_params(universe))
    if kind in (FrontierKind.MV_EFFICIENT_DR, FrontierKind.MV_MEAN_RETURN) and w_o is None:
        if rbar is None:
            raise MissingReturnsError("mean-variance sweeps need returns")
        raise DegenerateReturnsError("returns proportional to ones")
    sleeve = None
    if kind is FrontierKind.CML:
        if rbar is None or r0 is None:
            raise MissingReturnsError("the capital-market line needs returns and r0")
        ret_mvp = float(rbar @ w_mvp)
        if ret_mvp - r0 <= 1e-12 * abs(ret_mvp):
            raise TangencyInfeasibleError("r0 not below the minimum-variance return")
        excess = inv_rbar[0] + (rbar.mean() - r0) * inv_ones  # V^-1 (rbar - r0 1)
        w_t = excess / excess.sum()
        sleeve = w_t / np.sqrt(float(w_t @ V @ w_t))
    if kind is FrontierKind.EFFICIENT_DR_RISKFREE:
        inv_eta_full = inv_eta + eta.mean() * inv_ones  # V^-1 eta
        sleeve = inv_eta_full / np.sqrt(float(eta @ inv_eta_full))

    curve = FrontierCurve(kind=kind)
    for sigma in np.asarray(sigma_grid, dtype=float):
        sigma = float(sigma)
        row = FrontierRow(sigma=sigma)
        curve.rows.append(row)
        if sleeve is not None:
            if sigma < 0.0:
                row.status = "risk_below_mvp"
                continue
            w = sigma * sleeve
            cash = 1.0 - float(w.sum())
            row.q = block_riskfree_dr(V, eta, w, cash)
            if kind is FrontierKind.CML:
                row.alpha = float(w.sum())
            if rbar is not None and r0 is not None:
                row.ret = float(rbar @ w) + cash * r0
            if include_weights:
                row.weights, row.cash = w, cash
            continue
        u_sq = sigma * sigma - sigma2_mvp
        if sigma < 0.0 or sigma * sigma < sigma2_mvp * (1.0 - RISK_SNAP_RTOL):
            row.status = "risk_below_mvp"
            continue
        u = 0.0 if u_sq <= _SNAP_RTOL * sigma2_mvp else float(np.sqrt(u_sq))
        if kind is FrontierKind.EFFICIENT_DR:
            d = d_eta
            row.alpha = None if d is None else 2.0 * u / rho
        elif kind is FrontierKind.MDP_AT_SIGMA:
            d = d_root
            row.status = "degenerate" if d is None else "ok"
        else:
            d = w_o
            row.alpha = u
        w = w_mvp if d is None else w_mvp + u * d
        # the DR functional of the row's weights, without the budget
        # check of diversification_return: on near-singular universes
        # sum(w) drifts from 1 by about u * |d| * eps
        row.q = 0.5 * float(eta @ w - w @ V @ w)
        row.ret = None if rbar is None else float(rbar @ w)
        row.centrality = row_centrality(w)
        if include_weights:
            row.weights = w
    return curve


def forward_error(universe):
    """Relative forward-error bound of the kernel's unit directions.

    A solve with V is good to n * eps * cond(V) relative; forming
    d = (V^-1 c0 - g w_mvp) / k from the kernel's centred c0
    (:func:`centred_rhs`) then loses the ratio |V^-1 c0| / (k |d|) to
    cancellation.  Every quantity read from the kernel's images inherits this
    error, and a reference route carries it in its own rounded weights.
    """
    s = universe.solver
    loss = 1.0
    cols = (universe.variances, universe.volatilities, universe.expected_returns)
    for c, c0, inv_c in zip(cols, centred_rhs(universe)[1:], lu_route(universe)[1:]):
        d, k = s.direction(c, c0, inv_c)
        if d is not None:
            cancel = float(np.abs(inv_c).max()) / (k * float(np.abs(d).max()))
            loss = max(loss, cancel)
    cond = float(np.linalg.cond(universe.cov))
    return universe.n * np.finfo(float).eps * cond * loss


def centred_rhs(universe):
    """The kernel's right-hand sides [1, eta0, sqrt(eta)0, rbar0], x0 the
    centred x - mean(x) 1 (rbar0 only with returns), with sqrt(eta) - sqrt(eta_1)
    formed as (eta - eta_1) / (sqrt(eta) + sqrt(eta_1)) before centring."""
    eta, root, rbar = universe.variances, universe.volatilities, universe.expected_returns
    cols = [eta, (eta - eta[0]) / (root + root[0])] + ([] if rbar is None else [rbar])
    return [np.ones(universe.n)] + [c - c.mean() for c in cols]


def lu_route(universe):
    """The kernel's batch V^-1 :func:`centred_rhs` by np.linalg.solve, one
    row per right-hand side: the LU route that the kernel takes only as its
    fallback."""
    return np.linalg.solve(universe.cov, np.column_stack(centred_rhs(universe))).T


def eigen_covariance_decision(cov):
    """The eigenvalue decision of :func:`drfrontier.validate_universe` on a
    symmetric covariance: None where it raises NotPSDError, else whether the
    universe is nonsingular."""
    V = np.asarray(cov, dtype=float)
    V = 0.5 * (V + V.T)
    evals = np.linalg.eigvalsh(V)
    lam_max = max(float(evals[-1]), 0.0)
    lam_min = float(evals[0])
    if lam_min < -PSD_RTOL * lam_max:
        return None
    return lam_min > PSD_RTOL * lam_max


def eigen_is_edm(dist):
    """The eigenvalue decision of :func:`drfrontier.assert_edm` on a matrix
    that meets its preconditions: no entry below -1e-10 max|D| and
    lambda_min(-0.5 J D J) >= -EIG_RTOL * max(lambda_top, max|D|)."""
    D = np.asarray(dist, dtype=float)
    scale = max(float(np.abs(D).max()), np.finfo(float).tiny)
    if float(D.min()) < -1e-10 * scale:
        return False
    r = D.mean(axis=1)
    G = -0.5 * (D - r[:, None] - r[None, :] + r.mean())
    evals = np.linalg.eigvalsh(0.5 * (G + G.T))
    return float(evals[0]) >= -EIG_RTOL * max(float(evals[-1]), scale)


# Agreement required between the two routes to the maximum-DR portfolio.
MDRP_AGREEMENT_ATOL = 1e-8


def distance_route(universe):
    """(s, q_max) from the distance matrix alone: the LU solution y of
    D y = 1, s = y / (1' y) and q_max = 1 / (2 * 1' y).  The library reads
    both from its covariance kernel on a nonsingular universe; this is the
    geometric second route, the sphere centre s proportional to D^-1 1."""
    D = drf.build_distance_matrix(universe)
    ones = np.ones(universe.n)
    y = np.linalg.solve(D, ones)
    total = float(ones @ y)
    return y / total, 1.0 / (2.0 * total)


def pythagoras_gaps(universe, portfolio):
    """(|w' B w + q - q_max|, |c^2 + q - q_max|) for a library portfolio.

    s and q_max come from :func:`distance_route`, and B is the Gram matrix
    about that s, formed from V as :func:`drfrontier.embed` forms it; none of
    the three reads the covariance kernel.  c^2 is the portfolio's own
    centrality_sq, about the kernel's w_mdrp.  Both gaps are zero in exact
    arithmetic on every budget portfolio.
    """
    s, q_max = distance_route(universe)
    v = universe.cov @ s
    gram = 0.5 * (universe.cov - (v[:, None] + v[None, :]) + float(s @ v))
    w = portfolio.weights
    through_gram = float(w @ gram @ w) + portfolio.dr - q_max
    kernel = portfolio.centrality_sq + portfolio.dr - q_max
    return abs(through_gram), abs(kernel)


def mdrp_route_gap(universe):
    """max |w_mdrp - s| / max(1, max |w_mdrp|) between the maximum-DR
    portfolio of the covariance route (``special_portfolios(u).mdrp``)
    and the s of :func:`distance_route`."""
    w = drf.special_portfolios(universe).mdrp.weights
    gap = float(np.abs(w - distance_route(universe)[0]).max())
    return gap / max(1.0, float(np.abs(w).max()))


def second_divided(xs, ys) -> np.ndarray:
    """Second divided differences 2 f[x_{i-1}, x_i, x_{i+1}] (curvature sign)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    d1 = np.diff(ys) / np.diff(xs)
    return 2.0 * np.diff(d1) / (xs[2:] - xs[:-2])


def locate_inflection(xs, ys):
    """First x where the discrete curvature changes sign, by linear interpolation."""
    xs = np.asarray(xs, dtype=float)
    d2 = second_divided(xs, ys)
    mid = xs[1:-1]
    sign = np.sign(d2)
    for i in range(len(d2) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            t = d2[i] / (d2[i] - d2[i + 1])
            return float(mid[i] + t * (mid[i + 1] - mid[i]))
    return None


def swept_inflection(universe, points=800, span=3.0):
    """Inflection of the mean-variance DR curve located on a sigma grid of
    the q of mv_efficient_dr points, from just above sigma_mvp to
    span * max(sigma_mdrp, 2 sigma_mvp); None when the discrete curvature
    never changes sign."""
    params = drf.frontier_params(universe)
    sigma_lo = params.sigma_mvp * (1.0 + 1e-9)
    sigma_hi = span * max(params.sigma_mdrp, params.sigma_mvp * 2.0)
    sigmas = np.linspace(sigma_lo, sigma_hi, int(points))
    values = [drf.point(universe, "mv_efficient_dr", s).q for s in sigmas]
    return locate_inflection(sigmas, values)


# closed-form ratio must beat the sigma sweep to this relative slack
RATIO_SWEEP_RTOL = 1e-6


def ratio_sweep_audit(universe):
    """Compare the ratio of the normalized V^-1 sqrt(eta), solved here by
    np.linalg.solve, with the best ratio of 64 risk-constrained maximizers
    w_mvp + u * d_root, sigma from just above sigma_mvp to 16 times the
    larger of sigma_mvp and the normalized point's risk; raises NotSPDError
    when the sweep wins by more than RATIO_SWEEP_RTOL, and returns
    (closed-form ratio, best swept ratio)."""
    s = universe.solver
    root = np.sqrt(universe.variances)
    x = np.linalg.solve(universe.cov, root)
    w = x / float(x.sum())
    best = float(root @ w) / float(np.sqrt(w @ universe.cov @ w))
    sigma_lo = float(np.sqrt(s.sigma2_mvp))
    sigma_hi = 16.0 * max(sigma_lo, float(np.sqrt(w @ universe.cov @ w)))
    sigmas = np.geomspace(sigma_lo * (1.0 + 1e-9), sigma_hi, 64)
    slope, u = 0.0, np.zeros(len(sigmas))  # equal volatilities: all are w_mvp
    if s.d_root is not None:
        slope = float((root - root.mean()) @ s.d_root)
        u = np.sqrt(sigmas * sigmas - s.sigma2_mvp)
    swept = float(np.max((root @ s.w_mvp + u * slope) / np.sqrt(s.sigma2_mvp + u * u)))
    if swept > best * (1.0 + RATIO_SWEEP_RTOL):
        raise NotSPDError(
            f"closed-form ratio {best:.12g} beaten by sweep {swept:.12g}"
        )
    return best, swept


def long_only_min_variance_enum(V):
    """min w' V w over the simplex for a positive definite V, n <= 8.

    On the support S of the minimizer the KKT conditions read
    V_S w_S = lambda 1, so the minimizer is among the points
    w_S proportional to V_S^-1 1 that are nonnegative; every support is
    enumerated.  Returns (variance, weights).
    """
    V = np.asarray(V, float)
    n = V.shape[0]
    assert n <= 8
    best, best_w = np.inf, None
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            idx = list(S)
            y = np.linalg.solve(V[np.ix_(idx, idx)], np.ones(k))
            if float(y.min()) < 0.0:
                continue
            w = np.zeros(n)
            w[idx] = y / float(y.sum())
            val = float(w @ V @ w)
            if val < best:
                best, best_w = val, w
    return best, best_w


# ---------------------------------------------------------------------------
# the closed forms at many digits (mpmath, a test extra, imported on use)


def floats(values) -> np.ndarray:
    """A float array of mpf values."""
    return np.array([float(v) for v in values])


def centre_at_digits(cov, dps=60):
    """(s, q_max) of a float covariance, read exactly, at dps digits.

    The bordered KKT system V s + mu 1 = eta / 2, 1' s = 1 is solved by LU;
    where its matrix is singular (V has a null direction z with 1' z = 0,
    as clones do), its least-norm solution is read from the eigenvalues of
    the symmetric bordered matrix, which shares the clones' weight equally,
    as the library's centre does.  q_max = (eta' s - s' V s) / 2.
    Returns a list of mpf and an mpf; arithmetic on them belongs under
    ``mpmath.workdps(dps)``.
    """
    import mpmath as mp

    rows = np.asarray(cov, dtype=float).tolist()
    n = len(rows)
    with mp.workdps(dps):
        K = mp.matrix([row + [1] for row in rows] + [[1] * n + [0]])
        b = mp.matrix([K[i, i] / 2 for i in range(n)] + [1])
        try:
            x = mp.lu_solve(K, b)
        except (ZeroDivisionError, TypeError):  # a zero pivot column: TypeError
            E, Q = mp.eigsy(K)
            cut = mp.mpf(10) ** (-dps // 2) * max(abs(e) for e in E)
            x = mp.matrix(n + 1, 1)
            for k in range(n + 1):
                if abs(E[k]) > cut:
                    x += Q[:, k] * (mp.fdot(Q[:, k], b) / E[k])
        s = [x[i] for i in range(n)]
        Vs = [mp.fdot(K[i, :n], s) for i in range(n)]
        q_max = (mp.fdot([K[i, i] for i in range(n)], s) - mp.fdot(s, Vs)) / 2
    return s, q_max


class DigitKernel:
    """The covariance kernel of a nonsingular universe's float inputs at dps
    digits: V, eta = diag(V), rbar and r0 are read exactly, V is factored
    once by mpmath's LU, and sqrt(eta) is exact.

    Fields mirror ``u.solver``: a, w_mvp, sigma2_mvp, q_mvp, sigma2_mdrp,
    eta_mvp, ret_mvp, and (k, d) for rho and d_eta, k_root and d_root, k_r
    and w_o, each d = (V^-1 c0 - g w_mvp) / k with c0 = c - mean(c) 1,
    g = 1' V^-1 c0 and k^2 = c0' V^-1 c0 - g^2 / a (0 and None for a
    constant c), and eta_wo = eta' w_o; s and q_max are
    :func:`centre_at_digits`'s.  Values are mpf numbers and lists of them,
    None without returns or r0; arithmetic on them belongs under
    ``mpmath.workdps(k.dps)``, as in the methods.
    """

    def __init__(self, universe, dps=50):
        import mpmath as mp

        self.mp, self.dps, self.n = mp, dps, universe.n
        rbar, r0 = universe.expected_returns, universe.risk_free_rate
        with mp.workdps(dps):
            self.V = mp.matrix(universe.cov.tolist())
            self._lu = mp.mp.LU_decomp(self.V)
            self.eta = [self.V[i, i] for i in range(self.n)]
            self.root = [mp.sqrt(e) for e in self.eta]
            self.rbar = None if rbar is None else [mp.mpf(r) for r in rbar.tolist()]
            self.r0 = None if r0 is None else mp.mpf(r0)
            self.inv_ones = self.solve([1] * self.n)
            self.a = mp.fsum(self.inv_ones)
            self.w_mvp = [v / self.a for v in self.inv_ones]
            self.sigma2_mvp = 1 / self.a
            self.rho, self.d_eta = self.direction(self.eta)
            self.k_root, self.d_root = self.direction(self.root)
            self.k_r, self.w_o = (None, None) if rbar is None else self.direction(self.rbar)
            self.eta_wo = None if self.w_o is None else mp.fdot(self.eta, self.w_o)
            self.eta_mvp = mp.fdot(self.eta, self.w_mvp)
            self.ret_mvp = None if rbar is None else mp.fdot(self.rbar, self.w_mvp)
            self.q_mvp = self.q(self.w_mvp)
            self.sigma2_mdrp = self.sigma2_mvp + self.rho**2 / 4
        self.s, self.q_max = centre_at_digits(universe.cov, dps)

    @classmethod
    def of_free_set(cls, cov, free, dps=50):
        """The kernel of V_F, F a free set of a critical line (no returns)."""
        import types

        V_F = np.asarray(cov)[np.ix_(free, free)]
        sub = types.SimpleNamespace(n=len(free), cov=V_F, expected_returns=None, risk_free_rate=None)
        return cls(sub, dps)

    def two_fund_max(self, tau, root) -> tuple:
        """(max mu' w over budget portfolios w of risk tau, whether that w >= 0),
        mu = sqrt(eta) with root, else eta: mu' w_mvp + k sqrt(tau^2 -
        sigma2_mvp), the closed form on a critical line's free set."""
        mp = self.mp
        with mp.workdps(self.dps):
            x = mp.sqrt(max(mp.mpf(tau) ** 2 - self.sigma2_mvp, 0))
            if root:
                base, gain, d = mp.fdot(self.root, self.w_mvp), self.k_root, self.d_root
            else:
                base, gain, d = self.eta_mvp, self.rho, self.d_eta
            w = self.w_mvp if d is None else [a + x * b for a, b in zip(self.w_mvp, d)]
            return base + gain * x, min(w) >= 0

    def solve(self, c) -> list:
        """V^-1 c."""
        mp = self.mp
        with mp.workdps(self.dps):
            LU, p = self._lu
            y = mp.mp.U_solve(LU, mp.mp.L_solve(LU, mp.matrix(list(c)), p))
            return [y[i] for i in range(self.n)]

    def direction(self, c):
        """(k, d) of c, as the class docstring defines them."""
        mp = self.mp
        with mp.workdps(self.dps):
            mean = mp.fsum(c) / self.n
            c0 = [x - mean for x in c]
            if not any(c0):
                return 0, None
            y = self.solve(c0)
            g = mp.fsum(y)
            k = mp.sqrt(mp.fdot(c0, y) - g * g / self.a)
            return k, [(y[i] - g * self.w_mvp[i]) / k for i in range(self.n)]

    def variance(self, w):
        """w' V w."""
        mp = self.mp
        with mp.workdps(self.dps):
            return mp.fdot(w, [mp.fdot(self.V[i, :], w) for i in range(self.n)])

    def q(self, w):
        """q(w) = (eta' w - w' V w) / 2."""
        with self.mp.workdps(self.dps):
            return (self.mp.fdot(self.eta, w) - self.variance(w)) / 2

    def centrality_sq(self, w):
        """(w - s)' V (w - s) / 2."""
        with self.mp.workdps(self.dps):
            return self.variance([wi - si for wi, si in zip(w, self.s)]) / 2

    def portfolios(self) -> dict:
        """{name: weights} of the portfolios the inputs define: the
        risk-free sleeve V^-1 eta / sqrt(eta' V^-1 eta), the most-diversified
        V^-1 sqrt(eta) / 1' V^-1 sqrt(eta) (where that sum is positive), the
        Q portfolio w_mvp + (eta' w_o / 2) w_o (where w_o is defined) and
        the tangency V^-1 (rbar - r0 1) / 1' V^-1 (rbar - r0 1) (with returns
        and r0)."""
        mp, n = self.mp, self.n
        with mp.workdps(self.dps):
            x = self.solve(self.eta)
            gain = mp.sqrt(mp.fdot(self.eta, x))
            refs = {"sleeve": [xi / gain for xi in x]}
            y = self.solve(self.root)
            if mp.fsum(y) > 0:
                refs["mdp"] = [yi / mp.fsum(y) for yi in y]
            if self.w_o is not None:
                refs["q"] = [self.w_mvp[i] + self.eta_wo / 2 * self.w_o[i] for i in range(n)]
            if self.rbar is not None and self.r0 is not None:
                t = self.solve([r - self.r0 for r in self.rbar])
                refs["tangent"] = [ti / mp.fsum(t) for ti in t]
            return refs
