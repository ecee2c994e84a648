"""Brute-force reference computations for the test suite.

Everything here is deliberately independent of the library's closed forms:
dense scans, projected-gradient ascent, rejection sampling, simplex grids.
Slow and dumb on purpose.
"""

from __future__ import annotations

import itertools

import numpy as np

import drfrontier as drf
from drfrontier.errors import MissingReturnsError, RiskBelowMvpError
from drfrontier.frontiers import (
    FrontierCurve,
    FrontierKind,
    FrontierRow,
    _excess_variance,
)


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


def sample_risk_ball(V, sigma, count, rng):
    """Sample budget portfolios with w' V w <= sigma^2 (interior included)."""
    V = np.asarray(V, float)
    n = V.shape[0]
    Z, M_inv_half, w_mvp, s2_mvp = _shell_chart(V)
    u_max = np.sqrt(max(sigma * sigma - s2_mvp, 0.0))
    dirs = rng.normal(0.0, 1.0, (count, n - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = u_max * rng.uniform(0.0, 1.0, count) ** (1.0 / (n - 1))
    Y = dirs * radii[:, None]
    return w_mvp + Y @ M_inv_half.T @ Z.T


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
    assert abs(wt.sum() - 1.0) < 1e-9
    return 0.5 * float(wt @ Dt @ wt)


def dirichlet_shell(V, sigma, count, rng, band=0.01, max_batches=500, batch=200_000):
    """Long-only portfolios whose risk is within a relative band of sigma."""
    V = np.asarray(V, float)
    n = V.shape[0]
    out = []
    total = 0
    for _ in range(max_batches):
        W = rng.dirichlet(np.ones(n), size=batch)
        risk = np.sqrt(np.einsum("ij,jk,ik->i", W, V, W))
        hits = W[np.abs(risk - sigma) <= band * sigma]
        if len(hits):
            out.append(hits)
            total += len(hits)
        if total >= count:
            break
    if not out:
        return np.empty((0, n))
    return np.vstack(out)[:count]


def sweep_rowwise(
    universe, kind, sigma_grid=None, embedding=None, include_weights=False
):
    """Row-by-row reference for :func:`drfrontier.sweep`.

    Every row calls the scalar per-point functions (q_dr_at,
    efficient_dr_portfolio, q_ef_at, max_linear_over_ellipsoid) and, with an
    embedding, reads centrality from the Gram form w' B w of the row's
    weights; no array expression in u is shared with the library sweep.
    """
    def row_centrality(w):
        if embedding is None or w is None:
            return None
        return float(np.sqrt(max(w @ embedding.gram @ w, 0.0)))

    kind = FrontierKind(kind)
    params = drf.frontier_params(universe)
    if sigma_grid is None:
        sigma_grid = drf.default_sigma_grid(params)
    rbar = universe.expected_returns
    if kind in (FrontierKind.MV_EFFICIENT_DR, FrontierKind.MV_MEAN_RETURN):
        if params.eta_wo is None:
            raise MissingReturnsError("mean-variance sweeps need returns")
    if kind is FrontierKind.CML:
        cml = drf.cml_curve(universe)
    if kind is FrontierKind.EFFICIENT_DR_RISKFREE:
        rf = drf.riskfree_dr_curve(universe)
    if kind is FrontierKind.MDP_AT_SIGMA:
        root_eta = np.sqrt(np.clip(universe.variances, 0.0, None))

    curve = FrontierCurve(kind=kind)
    for sigma in np.asarray(sigma_grid, dtype=float):
        row = FrontierRow(sigma=float(sigma))
        try:
            if kind is FrontierKind.EFFICIENT_DR:
                row.q = drf.q_dr_at(params, sigma)
                if params.rho == 0.0:
                    w = drf.min_variance_portfolio(universe).weights
                else:
                    point = drf.efficient_dr_portfolio(universe, params, sigma)
                    w = point.weights
                    row.alpha = point.alpha
                row.ret = None if rbar is None else float(rbar @ w)
                row.centrality = row_centrality(w)
                if include_weights:
                    row.weights = w
            elif kind in (FrontierKind.MV_EFFICIENT_DR, FrontierKind.MV_MEAN_RETURN):
                q, w = drf.q_ef_at(universe, params, sigma)
                row.q = q
                row.alpha = float(np.sqrt(_excess_variance(params.sigma2_mvp, sigma)))
                row.ret = None if rbar is None else float(rbar @ w)
                row.centrality = row_centrality(w)
                if include_weights:
                    row.weights = w
            elif kind is FrontierKind.MDP_AT_SIGMA:
                sol = drf.max_linear_over_ellipsoid(universe, root_eta, sigma)
                w = sol.weights
                # the DR functional of the row's weights, without the budget
                # check of diversification_return: on near-singular universes
                # sum(w) drifts from 1 by about u * |d| * eps
                row.q = 0.5 * float(universe.variances @ w - w @ universe.cov @ w)
                row.ret = None if rbar is None else float(rbar @ w)
                row.centrality = row_centrality(w)
                if sol.degenerate:
                    row.status = "degenerate"
                if include_weights:
                    row.weights = w
            elif kind is FrontierKind.CML:
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
            elif kind is FrontierKind.EFFICIENT_DR_RISKFREE:
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
