import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier.errors import (
    AsymmetricError,
    DimensionMismatchError,
    DrFrontierError,
    NonZeroDiagonalError,
    NotPSDError,
    NotSPDError,
    ParseError,
    SingularCovarianceError,
    ZeroVarianceError,
)
from drfrontier import mdp
from drfrontier.model import check_budget
from drfrontier.mdp import GAP_RTOL, MVP_GAP_RTOL, SHELL_BAND, _d_max_of_d_eta, _ratio

from .conftest import V3
from .oracles import (
    DigitKernel,
    circle_scan,
    conditioned_universe,
    exact_d_max,
    forward_error,
    grid_max_half_quad,
    long_only_max_enum,
    long_only_min_variance,
    long_only_min_variance_enum,
    random_universe,
    ratio_sweep_audit,
    sandwich_bisection,
    sandwich_landings,
    simplex_grid,
)

EPS = np.finfo(float).eps


def _d_eta_elementwise(eta):
    n = len(eta)
    root = np.sqrt(eta)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            D[i, j] = 0.5 * (root[i] - root[j]) ** 2
    return D


def test_build_d_eta_three_asset(ex3):
    D = drf.build_d_eta(ex3)
    np.testing.assert_allclose(D, _d_eta_elementwise(ex3.variances), atol=1e-14)
    # only two distinct volatilities, so one positive distance
    assert D[0, 1] == pytest.approx((17.0 - np.sqrt(253.0)) / 9.0, rel=1e-12)
    assert D[1, 2] == pytest.approx(0.0, abs=1e-15)


def test_build_d_eta_zero_for_equal_variances(identity3):
    np.testing.assert_allclose(drf.build_d_eta(identity3), 0.0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(1e-4, 1e2), min_size=2, max_size=10),
)
def test_d_eta_is_always_a_distance_matrix(variances):
    eta = np.asarray(variances)
    u = drf.validate_universe(np.diag(eta))
    D = drf.build_d_eta(u)
    np.testing.assert_allclose(D, _d_eta_elementwise(eta), rtol=1e-12, atol=1e-14)
    assert drf.assert_edm(D).is_edm


def test_diversification_ratio_three_asset(ex3):
    w = np.full(3, 1.0 / 3.0)
    expected = (np.sqrt(11.0) + 2.0 * np.sqrt(23.0)) / 9.0
    assert _ratio(ex3, drf.portfolio_stats(ex3, w)) == pytest.approx(expected, rel=1e-12)


def test_diversification_ratio_single_asset_is_one(ex3):
    for i in range(3):
        w = np.zeros(3)
        w[i] = 1.0
        assert _ratio(ex3, drf.portfolio_stats(ex3, w)) == pytest.approx(1.0, rel=1e-12)


def test_diversification_ratio_zero_variance(degenerate3):
    with pytest.raises(ZeroVarianceError):
        _ratio(degenerate3, drf.portfolio_stats(degenerate3, np.array([1.0, 0.0, 0.0])))


def test_mdp_global_identity(identity3):
    p = drf.mdp_global(identity3)
    np.testing.assert_allclose(p.weights, np.full(3, 1.0 / 3.0), atol=1e-12)
    assert _ratio(identity3, drf.portfolio_stats(identity3, p.weights)) == pytest.approx(
        np.sqrt(3.0), rel=1e-12
    )


def test_mdp_global_diagonal():
    # for any diagonal covariance the max ratio is sqrt(n)
    u = drf.validate_universe(np.diag([1.0, 4.0, 9.0]))
    p = drf.mdp_global(u)
    np.testing.assert_allclose(p.weights, [6.0 / 11.0, 3.0 / 11.0, 2.0 / 11.0], atol=1e-12)
    assert _ratio(u, drf.portfolio_stats(u, p.weights)) == pytest.approx(
        np.sqrt(3.0), rel=1e-12
    )


def test_mdp_global_three_asset(ex3):
    p = drf.mdp_global(ex3)
    root = np.sqrt(ex3.variances)
    # direction check against a plain linear solve
    x = np.linalg.solve(ex3.cov, root)
    np.testing.assert_allclose(p.weights, x / x.sum(), atol=1e-10)
    # ratio value from the quadratic form
    ratio = _ratio(ex3, drf.portfolio_stats(ex3, p.weights))
    assert ratio**2 == pytest.approx(float(root @ x), rel=1e-10)


def test_mdp_global_beats_sampling(ex3):
    p = drf.mdp_global(ex3)
    best = _ratio(ex3, drf.portfolio_stats(ex3, p.weights))
    rng = np.random.default_rng(113)
    for _ in range(5_000):
        v = rng.normal(0.0, 1.0, 3)
        w = np.full(3, 1.0 / 3.0) + (v - v.mean())
        assert _ratio(ex3, drf.portfolio_stats(ex3, w)) <= best + 1e-12


def test_mdp_global_requires_positive_variances(degenerate3):
    with pytest.raises(ZeroVarianceError):
        drf.mdp_global(degenerate3)


def _ratio_minimizing_universe():
    # one calm asset highly correlated with two volatile ones: V^-1 sqrt(eta)
    # sums to -1.67, so normalizing it to a budget flips it to the ratio's
    # minimum
    corr = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.7], [0.9, 0.7, 1.0]])
    vols = np.array([0.3, 1.0, 1.0])
    return drf.validate_universe(corr * np.outer(vols, vols))


def test_mdp_global_refuses_a_ratio_minimizer():
    u = _ratio_minimizing_universe()
    total = float(np.ones(3) @ np.linalg.solve(u.cov, np.sqrt(u.variances)))
    assert total == pytest.approx(-1.67, abs=5e-3)
    with pytest.raises(NotSPDError):
        drf.mdp_global(u)
    with pytest.raises(NotSPDError):
        ratio_sweep_audit(u)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6), st.floats(0.0, 9.0))
def test_ratio_sweep_audit_is_the_sign_of_the_budget_scaling(n, seed, log_cond):
    # the sigma sweep the closed form used to be audited with fails exactly
    # when 1' V^-1 sqrt(eta) < 0, the condition mdp_global tests
    try:
        u = conditioned_universe(n, seed, log_cond, vol_lo=0.05, vol_hi=1.0)
        total = u.solver.a * float(np.sqrt(u.variances) @ u.solver.w_mvp)
    except DrFrontierError:
        return
    if total < 0.0:
        with pytest.raises(NotSPDError):
            ratio_sweep_audit(u)
        with pytest.raises(NotSPDError):
            drf.mdp_global(u)
    else:
        best, swept = ratio_sweep_audit(u)
        p = drf.mdp_global(u)
        ratio = float(np.sqrt(u.variances) @ p.weights) / p.sigma
        assert abs(ratio - best) <= forward_error(u) * best


def test_mdp_at_sigma_snaps_to_mvp(ex3):
    sol = drf.point(ex3, "mdp_at_sigma", 1.0)
    np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_mdp_at_sigma_degenerate(identity3):
    sol = drf.point(identity3, "mdp_at_sigma", 1.0)
    assert sol.status == "degenerate"


def test_mdp_at_sigma_matches_circle_scan(ex3):
    root = np.sqrt(ex3.variances)
    for sigma in (1.1, 1.5, 2.0):
        sol = drf.point(ex3, "mdp_at_sigma", sigma)
        val = float(root @ sol.weights)
        _, ref = circle_scan(np.array(ex3.cov), lambda w: float(root @ w), sigma)
        assert val == pytest.approx(ref, abs=1e-7)
        assert val >= ref - 1e-7


def test_mdp_at_global_risk_recovers_global(ex3, universe30):
    for u in (ex3, universe30):
        p = drf.mdp_global(u)
        sol = drf.point(u, "mdp_at_sigma", p.sigma)
        np.testing.assert_allclose(sol.weights, p.weights, atol=1e-9)
        # that it reads the sweep's row bit for bit is pinned, at this sigma,
        # by test_frontiers::test_curves_at_sigma_mvp_are_their_u0_values


def test_d_max_bounds_zero_matrix():
    b = drf.d_max_bounds(np.zeros((3, 3)))
    assert b.lower == 0.0
    assert b.upper == 0.0
    assert b.argmax_weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert b.converged


def test_d_max_bounds_equilateral():
    # all pairwise distances equal: the maximum is interior, at the uniform
    # weights, strictly above every pair midpoint
    d = 2.0
    A = d * (np.ones((3, 3)) - np.eye(3))
    b = drf.d_max_bounds(A)
    assert b.lower == pytest.approx(d / 3.0, rel=1e-9)
    assert b.lower > d / 4.0
    np.testing.assert_allclose(b.argmax_weights, np.full(3, 1.0 / 3.0), atol=1e-6)
    W = simplex_grid(3, 999)
    assert grid_max_half_quad(A, W) == pytest.approx(d / 3.0, rel=1e-9)


def test_d_max_bounds_volatility_distance_closed_form():
    # for D_eta the optimum is the half-half mix of the extreme volatilities:
    # d_max = (r_max - r_min)^2 / 8, and the certified bracket is closed there
    rng = np.random.default_rng(127)
    for n in (2, 3, 5, 8):
        eta = rng.uniform(0.01, 2.0, n)
        u = drf.validate_universe(np.diag(eta))
        D = drf.build_d_eta(u)
        b = drf.d_max_bounds(D)
        root = np.sqrt(eta)
        span = float(root.max() - root.min())
        assert b.lower == pytest.approx(span**2 / 8.0, rel=1e-9)
        assert b.upper == pytest.approx(b.lower, rel=1e-9)
        assert b.converged


def test_d_max_bounds_match_simplex_grid():
    rng = np.random.default_rng(131)
    for n, m in ((2, 400), (3, 200), (4, 60), (5, 36), (6, 24)):
        eta = rng.uniform(0.01, 3.0, n)
        D = drf.build_d_eta(drf.validate_universe(np.diag(eta)))
        b = drf.d_max_bounds(D)
        ref = grid_max_half_quad(D, simplex_grid(n, m))
        # even m puts the optimal pair midpoint on the grid
        assert b.lower == pytest.approx(ref, rel=1e-9)


def test_d_max_bounds_planar_point_cloud():
    # a generic embedded distance matrix, optimum not necessarily two-point
    rng = np.random.default_rng(137)
    pts = rng.normal(0.0, 1.0, (4, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    D = np.einsum("ijk,ijk->ij", diff, diff)
    b = drf.d_max_bounds(D)
    ref = grid_max_half_quad(D, simplex_grid(4, 80))
    assert b.lower >= ref - 1e-9
    assert b.lower <= b.upper + 1e-12
    assert 0.5 * float(
        b.argmax_weights @ D @ b.argmax_weights
    ) == pytest.approx(b.lower, abs=1e-12)


def test_d_max_bounds_rejects_a_non_edm():
    # D_eta and every covariance D are distance matrices by theorem, so
    # anything else is refused with a typed error, and the certificate's
    # own precondition errors propagate
    rng = np.random.default_rng(139)
    D = rng.uniform(0.0, 2.0, (6, 6))
    D = D + D.T
    np.fill_diagonal(D, 0.0)
    assert not drf.assert_edm(D).is_edm
    with pytest.raises(NotPSDError, match="centered form not PSD"):
        drf.d_max_bounds(D, seed=5)
    negative = D.copy()
    negative[0, 1] = negative[1, 0] = -1.0
    with pytest.raises(NotPSDError, match="negative entries"):
        drf.d_max_bounds(negative)
    diagonal = D + np.eye(6)
    with pytest.raises(NonZeroDiagonalError):
        drf.d_max_bounds(diagonal)
    asymmetric = D.copy()
    asymmetric[0, 1] += 0.5
    with pytest.raises(AsymmetricError):
        drf.d_max_bounds(asymmetric)
    # three points on a line, with a non-finite distance or diagonal entry
    for bad in (np.nan, np.inf):
        for i, j in ((0, 2), (1, 1)):
            line = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
            line[i, j] = line[j, i] = bad
            with pytest.raises(ParseError, match="non-finite entries"):
                drf.d_max_bounds(line)


def test_d_max_bounds_closed_form_to_rounding():
    # the farthest-pair start is optimal for D_eta: the bracket is closed at
    # (r_max - r_min)^2 / 8 without a search, at every size
    rng = np.random.default_rng(151)
    for n in (2, 3, 10, 60, 300):
        eta = rng.uniform(0.01, 2.0, n)
        b = drf.d_max_bounds(drf.build_d_eta(drf.validate_universe(np.diag(eta))))
        root = np.sqrt(eta)
        closed = float(root.max() - root.min()) ** 2 / 8.0
        assert b.upper == pytest.approx(closed, rel=1e-12)
        assert b.lower == pytest.approx(closed, rel=1e-12)
        assert b.converged and b.starts_used == 1


def test_d_max_of_d_eta_closed_form_matches_the_ascent(ex3, universe30):
    rng = np.random.default_rng(157)
    universes = [ex3, universe30] + [
        random_universe(rng, n) for n in (2, 3, 10, 60, 300)
    ]
    for u in universes:
        d_max = _d_max_of_d_eta(u)
        b = drf.d_max_bounds(drf.build_d_eta(u))
        assert d_max == pytest.approx(b.lower, rel=1e-12)
        assert d_max == pytest.approx(b.upper, rel=1e-12)
        assert drf.analyze_mdp(u).d_max == d_max


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6), st.floats(-9.0, -3.0))
def test_d_max_and_d_eta_on_near_equal_volatilities(n, seed, log_spread):
    # a difference of rounded roots cancels: on volatilities 0.3 (1, 1 + 1e-9,
    # 1 - 1e-9) it put d_max 3.1e-8 relative off its 50-digit value
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    vols = 0.3 * (1.0 + 10.0**log_spread * rng.uniform(-1.0, 1.0, n))
    u = drf.validate_universe(np.diag(vols * vols))
    D = drf.build_d_eta(u)
    with mp.workdps(50):
        root = [mp.sqrt(mp.mpf(e)) for e in u.variances.tolist()]
        ref = [[(a - b) ** 2 / 2 for b in root] for a in root]
        d_max = (max(root) - min(root)) ** 2 / 8
        for i in range(n):
            for j in range(n):
                assert abs(D[i, j] - ref[i][j]) <= 8 * EPS * ref[i][j], (i, j)
        assert abs(_d_max_of_d_eta(u) - d_max) <= 8 * EPS * d_max


def _edm(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@st.composite
def point_clouds(draw):
    """Up to 8 points in R^1..R^4, some duplicated or nearly coincident."""
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 4))
    # dyadic coordinates in [-1, 1]: no subnormal squared distances
    coord = st.integers(-(2**20), 2**20).map(lambda k: k / 2**20)
    row = st.lists(coord, min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    for i in range(1, n):
        kind = draw(st.sampled_from(("free", "free", "duplicate", "near")))
        if kind != "free":
            j = draw(st.integers(0, i - 1))
            jitter = draw(st.floats(-1e-7, 1e-7)) if kind == "near" else 0.0
            pts[i] = pts[j] + jitter
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    return pts * scale


@settings(max_examples=60, deadline=None)
@given(point_clouds())
# the gap on the O(n)-updated gradient closed after 33 steps, 1.40486e-16
# on D w against a tolerance of 1.40445e-16: the ascent stopped unconverged
@example(
    np.array([
        [-0.001603673733559339, 0.008964892191674486],
        [-0.003610340330384471, -0.0027149503230768372],
        [0.0046074739366134595, 0.004191815681426614],
    ])
)
def test_d_max_bounds_certified_on_point_clouds(points):
    D = _edm(points)
    ref, _ = exact_d_max(D)
    b = drf.d_max_bounds(D)
    span = max(float(D.max()), np.finfo(float).tiny)
    assert b.starts_used == 1 and b.converged
    assert b.lower <= ref + 1e-9 * span
    assert ref <= b.upper + 1e-9 * span
    assert b.upper - b.lower <= 1e-10 * span
    w = b.argmax_weights
    assert float(w.min()) >= 0.0
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
    assert 0.5 * float(w @ D @ w) == pytest.approx(b.lower, rel=1e-12, abs=1e-300)


def test_d_max_bounds_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        drf.d_max_bounds(np.ones((2, 3)))


def test_analyze_mdp_bundle(ex3):
    a = drf.analyze_mdp(ex3)
    assert a.ratio == pytest.approx(
        _ratio(ex3, drf.portfolio_stats(ex3, a.portfolio.weights)), rel=1e-12
    )
    assert a.d_max == pytest.approx((17.0 - np.sqrt(253.0)) / 36.0, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6), st.floats(0.0, 9.0))
def test_long_only_min_variance_matches_support_enumeration(n, seed, log_cond):
    u = conditioned_universe(n, seed, log_cond)
    lo = u.long_only_mvp
    variance, w = long_only_min_variance_enum(u.cov)
    # 1e-12 relative, plus the rounding of w' V w: its terms reach w'|V|w
    # and the two routes sum them in different orders
    floor = 4 * n * EPS * float(w @ np.abs(u.cov) @ w)
    assert abs(lo.variance - variance) <= 1e-12 * variance + floor
    assert lo.weights.min() >= 0.0
    assert abs(float(lo.weights.sum()) - 1.0) <= 4 * n * EPS
    # the Frank-Wolfe gap closes to GAP_RTOL, or to the rounding of V w
    rounding = 4 * n * EPS * float((np.abs(u.cov) @ lo.weights).max())
    assert lo.variance_lower <= variance + 2 * floor
    assert lo.variance - lo.variance_lower <= 2 * (GAP_RTOL * lo.variance + rounding)


def test_long_only_min_variance_on_fixtures(ex3, universe30):
    # ex3's minimum-variance portfolio is equal weight and long-only
    assert np.sqrt(ex3.long_only_mvp.variance) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(ex3.long_only_mvp.weights, 1.0 / 3.0, rtol=1e-15)
    lo = universe30.long_only_mvp
    assert np.sqrt(lo.variance) == pytest.approx(0.14549345726716, rel=1e-12)
    assert np.count_nonzero(lo.weights) == 16
    assert lo.variance - lo.variance_lower <= GAP_RTOL * lo.variance


def _lines(u):
    return {"eta": (u.eta_line, u.variances), "root": (u.root_eta_line, np.sqrt(u.variances))}


def _tables(line, n):
    """(alpha, beta), corners x n: segment k of the line holds the weights
    alpha[k] + lambda beta[k], its pair scattered onto its free set."""
    ab = np.zeros((2, len(line.free), n))
    for k, (free, pair) in enumerate(zip(line.free, line.pairs)):
        ab[:, k, free] = pair.T
    return ab


def _at_most_exact(landed, line, tau, square=False):
    # a landed draw's risk is tau up to rounding, where the line's value
    # rises like a square root at sigma_lo: compare at a hair above tau
    exact = line.max_at(tau * (1.0 + 1e-9))
    exact = exact * exact if square else exact
    return landed <= exact * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 10**6),
    st.floats(0.0, 9.0),
    st.floats(1e-3, 1.0),
)
def test_lines_meet_support_enumeration(n, seed, log_cond, where):
    # max mu' w at risk tau, exact to 1e-10 relative from the long-only
    # minimum risk (plus a thousandth of the span in variance) to sigma_hi
    u = conditioned_universe(n, seed, log_cond)
    var_lo = long_only_min_variance_enum(u.cov)[0]
    tau = float(np.sqrt(var_lo + where * (u.variances.max() - var_lo)))
    for name, (line, mu) in _lines(u).items():
        _assert_meets_enumeration(u, line, mu, tau, name)


def _assert_meets_enumeration(u, line, mu, tau, name):
    ref = long_only_max_enum(u.cov, mu, tau)
    assert abs(line.max_at(tau) - ref) <= 1e-10 * abs(ref), (name, tau)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 10**6),
    log_cond=st.floats(0.0, 9.0),
    where=st.floats(1e-3, 1.0),
)
# tau^2 is max eta - 1.4e-17: the root line's point is clipped to the top
# corner of segment {1, 0}, where asset 1 leaves, and read there it had a
# weight of -7.1e-15
@example(n=2, seed=4276, log_cond=5.681640625, where=1.0)
# tau is sigma_lo, where w_lo holds one asset: each line's point is clipped
# to the lower corner of the next segment, where an asset enters, and read
# there it had a weight of -5.6e-17
@example(n=2, seed=480501, log_cond=3.0, where=0.0)
# tau is sigma_lo, where w_lo holds one asset: the root line's point was
# read 5e-16 above the corner where asset 0 enters, and had a weight of
# -1.9e-14; within the rounding of that corner it is now read at it
@example(n=2, seed=824001, log_cond=3.625, where=0.0)
def test_the_point_at_tau_is_a_long_only_portfolio_of_risk_tau(n, seed, log_cond, where):
    # at(tau)'s segment and lambda rebuild, from that segment's free set and
    # pair, the long-only budget portfolio of risk tau whose return max_at reads
    u = conditioned_universe(n, seed, log_cond)
    var_lo = long_only_min_variance_enum(u.cov)[0]
    tau = float(np.sqrt(var_lo + where * (u.variances.max() - var_lo)))
    for name, (line, mu) in _lines(u).items():
        k, lam = line.at(tau)
        w = np.zeros(n)
        w[line.free[k]] = line.pairs[k] @ [1.0, lam]
        assert w.min() >= 0.0, (name, w)
        check_budget(w, n)
        assert float(w @ u.cov @ w) == pytest.approx(tau * tau, rel=1e-10), name
        assert float(mu @ w) == pytest.approx(line.max_at(tau), rel=1e-12), name


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 10**6),
    st.floats(0.0, 9.0),
    st.lists(st.floats(0.0, 1.2), min_size=1, max_size=4),
)
# at sigma_lo the whole line, walked from w_lo, reads the eta line's maximum
# 1.5e-13 below the 50-digit one on w_lo's free set (condition 2.4e7), so
# the 50-digit bound is on a jumped read's error beyond the whole line's
@example(n=6, seed=590, log_cond=7.375, wheres=[0.0])
def test_a_line_read_at_rising_tau_then_in_full_is_the_whole_line(n, seed, log_cond, wheres):
    # the universe's lines walk only as far as each read needs; read at
    # rising risks (past sigma_hi too) each reads the free set of a line of
    # the same universe walked in full first, and its maximum is off the
    # 50-digit two-fund maximum on that set by at most 1e-13 more than the
    # whole line's (the first read jumps to its segment by its own block
    # updates, so the last bits may differ); read in full, the line is bit
    # for bit the whole line
    u = conditioned_universe(n, seed, log_cond)
    var_lo = u.long_only_mvp.variance
    eta = np.clip(u.variances, 0.0, None)
    for line, mu in ((u.eta_line, eta), (u.root_eta_line, u.volatilities)):
        whole = mdp.CriticalLine(u, mu)
        whole.at(math.inf)  # walked in full before any read
        for where in sorted(wheres):
            tau = float(np.sqrt(var_lo + where * (u.variances.max() - var_lo)))
            k, lam = line.at(tau)
            np.testing.assert_array_equal(np.sort(line.free[k]), np.sort(whole.free[whole.at(tau)[0]]))
            low, high = _two_fund_bracket(u, line, k, lam, tau, mu is not eta)
            off = [max(low - v, v - high, 0.0) for v in (line.max_at(tau), whole.max_at(tau))]
            assert off[0] <= off[1] + 1e-13 * low, (off, low, high)
        line.at(math.inf)
        for field in ("corners", "var0", "mean", "k2"):
            np.testing.assert_array_equal(getattr(line, field), getattr(whole, field))
        assert len(line.free) == len(whole.free) == len(line.pairs) == len(whole.pairs)
        for a, b in zip(line.free + line.pairs, whole.free + whole.pairs):
            np.testing.assert_array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10**6),
    log_cond=st.floats(0.0, 9.0),
    where=st.floats(1e-3, 1.0, exclude_max=True),
)
def test_a_first_read_jumps_to_the_segment_of_the_line_walked_from_w_lo(n, seed, log_cond, where):
    _assert_a_jump_meets_the_walk(conditioned_universe(n, seed, log_cond), where)


def _assert_a_jump_meets_the_walk(u, where):
    # a line first read at tau inside (sigma_lo, sigma_hi) jumps to its
    # segment by block pivots: the free set of the line walked up from w_lo
    # at tau, and its maximum to 1e-13; where the jump declines, the line
    # starts at w_lo and reads bit for bit as the walked one
    var_lo = u.long_only_mvp.variance
    tau = float(np.sqrt(var_lo + where * (u.variances.max() - var_lo)))
    for line, mu in _lines(u).values():
        walked = mdp.CriticalLine(u, mu)
        walked.at(0.0)  # the first read at sigma_lo starts from w_lo
        j = walked.at(tau)[0]
        k = line.at(tau)[0]
        assert walked.corners[0] == 0.0 and line.corners[0] >= 0.0
        np.testing.assert_array_equal(np.sort(line.free[k]), np.sort(walked.free[j]))
        if line.corners[0] == 0.0:
            assert line.max_at(tau) == walked.max_at(tau)
        else:
            assert line.max_at(tau) == pytest.approx(walked.max_at(tau), rel=1e-13)


@pytest.mark.parametrize(
    "constants",
    [
        # every block refused: w_lo takes the active set's one-asset route,
        # and a jump declines at its first exchange
        {"_block_factor": lambda S, floor: None},
        # every step solves for M again, where a residual declined the jump
        {"RESIDUAL_RTOL": 0.0},
        # the corners go on from a block-updated M, with corrections folded
        # three at a time
        {"FOLD_EVERY": 3},
    ],
    ids=["blocks-refused", "refreshed", "aside"],
)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10**6),
    log_cond=st.floats(0.0, 9.0),
    where=st.floats(1e-3, 1.0, exclude_max=True),
)
def test_a_jump_meets_the_walk_on_each_route(monkeypatch, constants, n, seed, log_cond, where):
    # the constants hold for every example, so the patch need not be undone
    for name, value in constants.items():
        monkeypatch.setattr(mdp, name, value)
    _assert_a_jump_meets_the_walk(conditioned_universe(n, seed, log_cond), where)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 10**6),
    log_cond=st.floats(0.0, 9.0),
    where=st.floats(1e-3, 1.0, exclude_max=True),
)
def test_a_root_line_jumps_from_the_eta_line_landing(n, seed, log_cond, where):
    # as sandwich_check reads them: the eta line at tau first, then the root
    # line built with it, whose first read jumps from the eta line's free set
    # at tau and its KKT inverse; it meets the enumerated maximum, and the
    # free set and the maximum of a root line read from w_lo to 1e-13.  The
    # universe's own pair reads bit for bit as a pair built here
    u = conditioned_universe(n, seed, log_cond)
    var_lo = u.long_only_mvp.variance
    tau = float(np.sqrt(var_lo + where * (u.variances.max() - var_lo)))
    eta = mdp.CriticalLine(u, np.clip(u.variances, 0.0, None))
    eta.max_at(tau)
    line, fresh = mdp.CriticalLine(u, u.volatilities, eta), mdp.CriticalLine(u, u.volatilities)
    k, j = line.at(tau)[0], fresh.at(tau)[0]
    np.testing.assert_array_equal(np.sort(line.free[k]), np.sort(fresh.free[j]))
    assert line.max_at(tau) == pytest.approx(fresh.max_at(tau), rel=1e-13)
    _assert_meets_enumeration(u, line, u.volatilities, tau, "root")
    assert u.eta_line.max_at(tau) == eta.max_at(tau)
    assert u.root_eta_line.at(tau) == line.at(tau)
    np.testing.assert_array_equal(u.root_eta_line.free[k], line.free[k])
    assert u.root_eta_line.max_at(tau) == line.max_at(tau)


@pytest.mark.parametrize(
    "n, seed, log_cond, where",
    [
        (5, 196957, 6.760526016387825, 0.28059283762508497),
        (7, 830615, 6.0280008985520865, 0.17988529885110008),
        (4, 821749, 7.905380333088423, 0.107357272940469),
    ],
)
def test_a_root_line_jump_declined_from_the_eta_landing_walks_from_w_lo(n, seed, log_cond, where):
    # the jump from the eta line's landing at tau declines on these draws: an
    # exchange reaches a free set whose least variance exceeds tau^2 (the
    # first two), or a lone asset, whose k2 = 0 gives no lambda(tau) (the
    # third, whose w_lo holds one asset).  The line then walks from w_lo, bit
    # for bit as a line read at sigma_lo first; a walk from the eta line's
    # free set raised "a weight below 0 at lambda = 0"
    u = conditioned_universe(n, seed, log_cond)
    var_lo = u.long_only_mvp.variance
    tau = float(np.sqrt(var_lo + where * (u.variances.max() - var_lo)))
    eta = mdp.CriticalLine(u, np.clip(u.variances, 0.0, None))
    eta.max_at(tau)
    assert eta._landing(tau) is not None
    line, walked = mdp.CriticalLine(u, u.volatilities, eta), mdp.CriticalLine(u, u.volatilities)
    k, lam = line.at(tau)
    walked.at(0.0)
    assert line.corners[0] == 0.0 and walked.at(tau) == (k, lam)
    assert line.max_at(tau) == walked.max_at(tau)
    np.testing.assert_array_equal(line.free[k], walked.free[k])
    np.testing.assert_array_equal(line.pairs[k], walked.pairs[k])
    if n <= 6:
        _assert_meets_enumeration(u, line, u.volatilities, tau, "root")


@pytest.mark.parametrize("walked", [True, False], ids=["walked-whole", "walked-past-tau"])
def test_a_root_line_jumps_from_w_lo_where_the_eta_line_has_no_landing(universe30, walked):
    # the eta line was walked whole, or read below tau and then past it: its
    # walk does not rest on tau's segment, so it hands out no landing, and
    # the root line read at tau beside it jumps from w_lo, bit for bit as a
    # fresh root line does
    u = universe30
    sigma_lo, sigma_hi = np.sqrt(u.long_only_mvp.variance), u.volatilities.max()
    tau = sigma_lo + 0.4 * (sigma_hi - sigma_lo)
    eta = mdp.CriticalLine(u, np.clip(u.variances, 0.0, None))
    for where in [math.inf] if walked else [0.2, 0.7]:
        eta.at(sigma_lo + where * (sigma_hi - sigma_lo))
    assert eta._landing(tau) is None
    line, fresh = mdp.CriticalLine(u, u.volatilities, eta), mdp.CriticalLine(u, u.volatilities)
    k, j = line.at(tau)[0], fresh.at(tau)[0]
    assert line.corners[0] > 0.0
    np.testing.assert_array_equal(line.free[k], fresh.free[j])
    assert line.max_at(tau) == fresh.max_at(tau)


def test_a_root_line_read_first_leaves_the_eta_line_unstarted(panel30):
    # the universe's root line, read before its eta line, finds no landing:
    # it starts no walk of the eta line and reads bit for bit as a root line
    # built alone
    u = drf.annualize(panel30)
    sigma_lo, sigma_hi = np.sqrt(u.long_only_mvp.variance), u.volatilities.max()
    tau = sigma_lo + 0.4 * (sigma_hi - sigma_lo)
    value = u.root_eta_line.max_at(tau)
    assert u.eta_line.free == []
    assert value == mdp.CriticalLine(u, u.volatilities).max_at(tau)


def test_a_root_line_read_after_the_eta_line_reads_as_sandwich_check(panel30):
    # read after its eta line, the universe's root line jumps from the eta
    # line's landing, and its square is sandwich_check's, bit for bit
    u, checked = drf.annualize(panel30), drf.annualize(panel30)
    sigma_lo, sigma_hi = np.sqrt(u.long_only_mvp.variance), u.volatilities.max()
    tau = sigma_lo + 0.4 * (sigma_hi - sigma_lo)
    u.eta_line.max_at(tau)
    value = u.root_eta_line.max_at(tau)
    assert u.root_eta_line.corners[0] > 0.0
    assert value**2 == drf.sandwich_check(checked, tau).max_avg_volatility_sq


def _corner_reads(u, mu):
    """(tau, [(line, k, lambda) of a fresh line read at tau, and of the whole
    line]) at each corner risk tau of the whole line inside (sigma_lo,
    sigma_hi)."""
    whole = mdp.CriticalLine(u, mu)
    whole.at(math.inf)
    sigma_lo, sigma_hi = np.sqrt(u.long_only_mvp.variance), u.volatilities.max()
    for upper in whole._upper[:-1]:
        tau = float(np.sqrt(upper))
        if sigma_lo < tau < sigma_hi:
            yield tau, [(line, *line.at(tau)) for line in (mdp.CriticalLine(u, mu), whole)]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 10**6), log_cond=st.floats(0.0, 9.0))
# a fresh eta line read at a corner risk held the asset that changes there
# at a weight of -1.4e-17, on the side a walked read does not take
@example(n=6, seed=739246, log_cond=1.7608754695078885)
# the fresh eta line holds an asset at 1.3e-12 that the whole line does not
@example(n=7, seed=999999, log_cond=8.0)
def test_fresh_lines_read_at_the_corners_of_whole_lines_hold_no_negative_weight(n, seed, log_cond):
    # a jump to a corner risk lands on the side that a walked read takes,
    # without the asset that changes there, and holds no negative weight.
    # Where the two free sets differ, the routes place a corner within
    # rounding of each other: the asset that differs reaches 0, on the
    # segment that holds it, at a risk^2 within 10 roundings of tau^2 (n ulps
    # of max |V| times |w|_1^2, as CriticalLine._near; at most 2.4 of them
    # on 2400 scratch draws)
    u = conditioned_universe(n, seed, log_cond)
    rounding = n * EPS * float(np.abs(u.cov).max())
    for _, mu in _lines(u).values():
        for tau, reads in _corner_reads(u, mu):
            (line, k, lam), whole = reads
            assert (line.pairs[k] @ (1.0, lam)).min() >= 0.0, line.pairs[k]
            free = [set(read.free[i].tolist()) for read, i, _ in reads]
            for j in free[0] ^ free[1]:
                read, i, at = reads[0] if j in free[0] else whole
                pair = read.pairs[i]
                a, b = pair[list(read.free[i]).index(j)]
                corner_sq = read.var0[i] + (a / b) ** 2 * read.k2[i]
                spread = float((np.abs(pair) @ (1.0, at)).sum()) ** 2
                assert abs(corner_sq - tau * tau) <= 10.0 * rounding * spread, (j, tau)


@pytest.mark.parametrize(
    "n, seed, log_cond, tau",
    [
        (6, 739246, 1.7608754695078885, 0.07225936467621208),
        (7, 744678, 5.036381230531439, 0.06735376795005786),
        (8, 541513, 2.5916395695392658, 0.04347815791907352),
    ],
)
def test_a_jump_that_lands_at_a_corner_reads_the_walked_side(n, seed, log_cond, tau):
    # tau is an eta corner's risk: the jump's pivots stop with the asset that
    # changes there free at a weight within rounding of 0 (as low as
    # -1.7e-16), on the side that a line walked to tau does not read, so
    # that asset leaves the landing
    u = conditioned_universe(n, seed, log_cond)
    eta = np.clip(u.variances, 0.0, None)
    line, walked = mdp.CriticalLine(u, eta), mdp.CriticalLine(u, eta)
    walked.at(0.0)
    (k, lam), j = line.at(tau), walked.at(tau)[0]
    assert line.corners[0] > 0.0
    np.testing.assert_array_equal(np.sort(line.free[k]), np.sort(walked.free[j]))
    assert (line.pairs[k] @ (1.0, lam)).min() >= 0.0
    assert line.max_at(tau) == pytest.approx(walked.max_at(tau), rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10**6),
    log_cond=st.floats(0.0, 9.0),
    wheres=st.lists(st.floats(1e-3, 1.0, exclude_max=True), min_size=3, max_size=3),
)
def test_levels_read_falling_jump_again_to_the_segments_read_rising(n, seed, log_cond, wheres):
    # each read below a jump's risk starts the line again, jumping where it
    # is inside (sigma_lo, sigma_hi): three levels read in falling order
    # meet the free sets of a line read in rising order, and its maxima to
    # 1e-13
    u = conditioned_universe(n, seed, log_cond)
    var_lo = u.long_only_mvp.variance
    taus = [float(np.sqrt(var_lo + w * (u.variances.max() - var_lo))) for w in sorted(wheres)]
    for _, mu in _lines(u).values():
        reads = []
        for order in (taus, taus[::-1]):
            line, read = mdp.CriticalLine(u, mu), []
            for tau in order:  # a restart clears the lists: read each at once
                k = line.at(tau)[0]
                read.append((sorted(line.free[k]), line.max_at(tau)))
            reads.append(read)
        for (rising, up), (falling, down) in zip(reads[0], reads[1][::-1]):
            assert rising == falling
            assert down == pytest.approx(up, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["integer", "copies", "sample"]),
    st.integers(0, 10**6),
    st.floats(0.0, 1.0),
)
def test_no_line_of_a_singular_universe_jumps(kind, seed, where):
    # a first read inside (sigma_lo, sigma_hi) of a singular universe walks
    # up from w_lo, bit for bit as a line first read at sigma_lo
    u = drf.validate_universe(_singular_cov(kind, seed))
    try:
        lo = u.long_only_mvp
    except DrFrontierError:
        return
    tau = float(np.sqrt(lo.variance + where * (u.variances.max() - lo.variance)))
    for line, mu in _lines(u).values():
        walked = mdp.CriticalLine(u, mu)
        try:
            walked.at(0.0)
            k, lam = walked.at(tau)
        except DrFrontierError as err:
            with pytest.raises(type(err)):
                line.at(tau)
            continue
        assert line.at(tau) == (k, lam) and line.corners[0] == 0.0
        assert line.max_at(tau) == walked.max_at(tau)
        np.testing.assert_array_equal(line.free[k], walked.free[k])
        np.testing.assert_array_equal(line.pairs[k], walked.pairs[k])


def _two_fund_bracket(u, line, k, lam, tau, root):
    """The 50-digit two-fund maxima on segment k's free set at the ends of
    tau^2 +- its rounding: n ulps of max |V| times |w|_1^2 at lambda (a bound
    on the rounding of w' V w), which the maximum, rising like the square
    root of tau^2 - sigma_mvp^2 on that set, amplifies near sigma_lo."""
    pair = line.pairs[k]
    spread = float(np.abs(pair[:, 0]).sum() + lam * np.abs(pair[:, 1]).sum())
    rounding = u.n * EPS * float(np.abs(u.cov).max()) * spread * spread
    kernel = DigitKernel.of_free_set(u.cov, line.free[k])
    return [
        float(kernel.two_fund_max(math.sqrt(max(tau * tau + sign * rounding, 0.0)), root)[0])
        for sign in (-1.0, 1.0)
    ]


def _assert_continuous(u, line, mu, name):
    line.at(math.inf)
    lam, (alpha, beta) = line.corners, _tables(line, u.n)
    assert lam[0] == 0.0 and lam[-1] == np.inf
    assert np.all(np.diff(lam) >= 0.0)
    for k in range(1, len(lam) - 1):
        before = alpha[k - 1] + lam[k] * beta[k - 1]
        after = alpha[k] + lam[k] * beta[k]
        scale = float(np.abs(before).max())
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-10 * scale)
        risk_before = line.var0[k - 1] + lam[k] ** 2 * line.k2[k - 1]
        risk_after = line.var0[k] + lam[k] ** 2 * line.k2[k]
        assert risk_after == pytest.approx(risk_before, rel=1e-10), (name, k)
        assert risk_before == pytest.approx(after @ u.cov @ after, rel=1e-10)
        value = line.top + line.mean[k] + lam[k] * line.k2[k]
        assert value == pytest.approx(mu @ after, rel=1e-10)
        assert after.min() >= -1e-12 * scale
        assert after.sum() == pytest.approx(1.0, abs=1e-12 * max(1.0, scale))


def test_lines_are_continuous_at_every_corner(universe30):
    # seeds 11, 39 and 131 read an entering weight below -1e-12 of the scale
    # at its own corner (-8.4e-11 on 131's eta line at corner 2) before the
    # walk set it to 0 there
    seeds = (0, 1, 2, 3, 4, 11, 39, 131)
    us = [universe30] + [conditioned_universe(8, seed, 6.0) for seed in seeds]
    for u in us:
        for name, (line, mu) in _lines(u).items():
            _assert_continuous(u, line, mu, name)


def _exit_slots(line):
    """(slot, |F|) of each asset that leaves the line, replaying the walk's
    slot order up from its first free set: an entering asset takes the next
    slot, and the asset in the last slot moves into a leaving one's.  Each
    free set of the line is kept in that order."""
    F, exits = list(line.free[0]), []
    for free in line.free[1:]:
        (j,) = set(free) ^ set(F)
        if j in F:
            i = F.index(j)
            exits.append((i, len(F)))
            F[i] = F[-1]
            F.pop()
        else:
            F.append(j)
        assert F == list(free)
    return exits


@pytest.mark.parametrize(
    "args, constants, exits",
    [
        # on the root line asset 1 leaves, enters again and then leaves from
        # the last slot (its slot is also the one the last slot moves into)
        ((5, 284, 4.5), {}, {"eta": [(2, 4), (0, 3), (0, 2)],
                             "root": [(2, 4), (0, 3), (0, 4), (2, 3), (0, 2)]}),
        # every corner solves for M again and rebuilds the slot map first
        ((6, 33, 3.0), {"RESIDUAL_RTOL": 0.0},
         dict.fromkeys(("eta", "root"), [(1, 4), (2, 3), (1, 2)])),
        # one to three corrections wait aside at each exit; at three the
        # leaving asset's correction follows a fold
        ((6, 6, 6.0), {"FOLD_EVERY": 3},
         dict.fromkeys(("eta", "root"), [(0, 4), (1, 3), (2, 4), (0, 3), (1, 3), (0, 2)])),
        # each correction is folded as the next arrives
        ((6, 6, 6.0), {"FOLD_EVERY": 1},
         dict.fromkeys(("eta", "root"), [(0, 4), (1, 3), (2, 4), (0, 3), (1, 3), (0, 2)])),
    ],
    ids=["last-slot", "after-refresh", "aside", "fold-each"],
)
def test_lines_through_exits_meet_enumeration(monkeypatch, args, constants, exits):
    u = conditioned_universe(*args)
    var_lo = long_only_min_variance_enum(u.cov)[0]
    inv, calls = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    for name, value in constants.items():
        monkeypatch.setattr(mdp, name, value)
    for name, mu in (("eta", u.variances), ("root", np.sqrt(u.variances))):
        fresh = drf.validate_universe(u.cov)
        calls.clear()
        line = mdp.CriticalLine(fresh, mu)
        _assert_continuous(u, line, mu, name)
        assert _exit_slots(line) == exits[name]
        assert any(i < size - 1 for i, size in exits[name])  # the last slot moves
        # a solve at the start, and one after each corner when refreshing
        corners = len(line.corners) - 2
        assert len(calls) == (1 + corners if constants.get("RESIDUAL_RTOL") == 0.0 else 1)
        lam = np.array(line.corners[1:-1])
        at_corners = np.array(line.var0[1:]) + lam**2 * np.array(line.k2[1:])
        spread = var_lo + np.linspace(1e-3, 1.0, 7) * (u.variances.max() - var_lo)
        for tau in np.sqrt(np.concatenate([at_corners, spread])):
            _assert_meets_enumeration(u, line, mu, float(tau), name)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6), st.floats(0.0, 9.0))
def test_both_lines_end_at_the_active_set_w_lo(n, seed, log_cond):
    u = conditioned_universe(n, seed, log_cond)
    ref = long_only_min_variance(u)
    floor = 4 * n * EPS * float(ref.weights @ np.abs(u.cov) @ ref.weights)
    for line, _ in _lines(u).values():
        line.at(0.0)
        w = _tables(line, n)[0][0]
        assert abs(float(w @ u.cov @ w) - ref.variance) <= GAP_RTOL * ref.variance + floor
    assert u.long_only_mvp.weights.min() >= 0.0
    assert u.long_only_mvp.variance == pytest.approx(ref.variance, rel=GAP_RTOL, abs=floor)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6), st.floats(0.0, 9.0))
def test_w_lo_from_the_w_mvp_support_is_the_w_lo_from_the_least_volatile_asset(n, seed, log_cond):
    # the active set started from the positive support of the kernel's w_mvp
    # ends on the free set it reaches from the least volatile asset alone,
    # with weights within the rounding of a solve of that set's KKT matrix,
    # n eps cond(K) max w (at most 0.14 of it on 3000 scratch draws)
    u = conditioned_universe(n, seed, log_cond)
    lo = u.long_only_mvp
    free, x = mdp._active_set(u.cov, np.array([int(np.argmin(u.variances))]))
    np.testing.assert_array_equal(np.sort(lo.free), np.sort(free))
    w = np.zeros(n)
    w[free] = np.clip(x, 0.0, None)
    w /= w.sum()
    cond = float(np.linalg.cond(mdp._kkt(u.cov, free)))
    assert float(np.abs(lo.weights - w).max()) <= n * EPS * cond * float(w.max())
    assert lo.variance - lo.variance_lower <= MVP_GAP_RTOL * float(u.variances.max())


def test_lines_on_tied_top_variances(ex3):
    # eta_b = eta_c = 23/9 tie at the top: both lines end, at lambda = inf,
    # at the least-variance mix (1/2, 1/2) of the two, of risk sqrt(19/18),
    # and stay at the top value from there to sigma_hi, so the sandwich gap
    # is 0 there
    u = drf.validate_universe(ex3.cov)
    start = np.sqrt(19.0 / 18.0)
    for name, (line, mu) in _lines(u).items():
        line.at(math.inf)
        alpha, beta = _tables(line, u.n)
        np.testing.assert_allclose(alpha[-1], [0.0, 0.5, 0.5], atol=1e-15)
        np.testing.assert_array_equal(beta[-1], 0.0)
        np.testing.assert_allclose(alpha[0], 1.0 / 3.0, rtol=1e-15)
        assert line.max_at(start) == line.top == mu.max()
        assert line.max_at(1.5) == line.top
        for tau in (1.001, 1.01, 1.02, 1.027):
            ref = long_only_max_enum(u.cov, mu, tau)
            assert line.max_at(tau) == pytest.approx(ref, rel=1e-12), (name, tau)
    for sigma in (1.05, 1.2, 1.4):
        rep = drf.sandwich_check(u, sigma, samples=10)
        assert rep.gap == pytest.approx(0.0, abs=1e-15) and rep.holds is True
    rep = drf.sandwich_check(u, 1.01, samples=10)
    assert 0.0 < rep.gap <= 2.0 * rep.d_max_upper


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 4135.626917817706, 1e4, 3e7, 1e9])
def test_sandwich_holds_at_every_variance_scale(scale):
    # ex3's tied top variances make the exact gap 0, so its sign is the
    # rounding of eta_top against sqrt(eta_top)^2: at 4135.6 times V it
    # came out -1.8e-12, below an absolute tolerance of 1e-12
    u = drf.validate_universe(V3 * scale)
    for factor in (1.05, 1.2, 1.4):
        rep = drf.sandwich_check(u, factor * np.sqrt(scale), samples=10)
        assert rep.holds is True, (factor, rep.gap)
        assert abs(rep.gap) <= 1e-12 * rep.max_avg_variance


def test_lines_of_equal_variances_are_flat(identity3):
    # mu proportional to ones: one segment, the equal-weight portfolio
    for line, mu in _lines(identity3).values():
        line.at(math.inf)
        assert line.corners == [0.0, np.inf]
        np.testing.assert_allclose(_tables(line, 3)[0][0], 1.0 / 3.0, rtol=1e-15)
        assert line.k2[0] == 0.0
        for tau in (0.5, 0.7, 1.0, 2.0):
            assert line.max_at(tau) == 1.0


def test_a_refreshed_line_matches_the_updated_one(monkeypatch, universe30):
    # a residual above zero refreshes the inverse by a solve at every corner
    # (inv calls are counted); folding the corrections three at a time or
    # each as the next arrives moves where their rounding falls
    def line_with(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(mdp, name, value)
        out = mdp.CriticalLine(universe30, universe30.variances)
        out.at(math.inf)  # the walk runs when the line is read
        monkeypatch.undo()
        return out

    base = line_with()
    inv = np.linalg.inv
    calls = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    monkeypatch.setattr(mdp, "RESIDUAL_RTOL", 0.0)
    refreshed = mdp.CriticalLine(universe30, universe30.variances)
    refreshed.at(math.inf)
    monkeypatch.undo()
    # a solve at nearly every corner
    assert len(calls) >= len(refreshed.corners) // 2
    alpha = _tables(base, 30)[0]
    for other in (refreshed, line_with(FOLD_EVERY=3), line_with(FOLD_EVERY=1)):
        other_alpha = _tables(other, 30)[0]
        np.testing.assert_array_equal(other_alpha != 0.0, alpha != 0.0)
        np.testing.assert_allclose(other.corners, base.corners, rtol=1e-9)
        np.testing.assert_allclose(other_alpha, alpha, rtol=0, atol=1e-10)
        for tau in np.linspace(0.146, 0.42, 9):
            assert other.max_at(tau) == pytest.approx(base.max_at(tau), rel=1e-12)


def test_a_duplicated_asset_leaves_the_lines_unchanged(universe30):
    # the copy is collinear with its original on budget portfolios: the
    # Schur complement is zero and it never enters beside it
    V = universe30.cov
    dup = np.concatenate([np.arange(30), [7]])
    twin = drf.validate_universe(V[np.ix_(dup, dup)])
    for tau in np.linspace(0.146, 0.42, 9):
        for a, b in zip(_lines(universe30).values(), _lines(twin).values()):
            assert b[0].max_at(tau) == pytest.approx(a[0].max_at(tau), rel=1e-12)
    w = twin.long_only_mvp.weights
    assert w[7] + w[30] == pytest.approx(universe30.long_only_mvp.weights[7], rel=1e-10)


def _singular_cov(kind, seed):
    """A singular covariance: integer loadings on fewer factors than assets,
    copies of assets, or a sample covariance of fewer periods than assets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 31))
    if kind == "integer":
        B = rng.integers(-2, 3, size=(n, int(rng.integers(1, min(5, n))))).astype(float)
        return B @ B.T
    if kind == "copies":
        B = rng.normal(size=(n, n))
        keep = np.concatenate([np.arange(n), rng.integers(0, n, size=int(rng.integers(1, 4)))])
        return (B @ B.T)[np.ix_(keep, keep)]
    X = rng.normal(size=(int(rng.integers(2, n)), n)) * rng.uniform(0.1, 0.5, n)
    return np.cov(X, rowvar=False)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["integer", "copies", "sample"]), st.integers(0, 10**6))
def test_singular_universes_end_at_w_lo_or_in_a_typed_error(kind, seed):
    u = drf.validate_universe(_singular_cov(kind, seed))
    scale = float(u.variances.max())
    try:
        lo = u.long_only_mvp
        reps = [drf.sandwich_check(u, f * np.sqrt(scale)) for f in (0.3, 0.7, 1.0)]
    except DrFrontierError:
        return
    ref = long_only_min_variance(u)
    tol = MVP_GAP_RTOL * scale
    assert abs(lo.variance - ref.variance) <= tol
    for rep in reps:
        assert np.isfinite(rep.sigma_lo) and rep.holds is not False


@pytest.mark.parametrize("seed", [60, 269, 348])
def test_collinear_assets_of_integer_loadings(seed):
    # rank 3, and a riskless long-only mix exists; a collinear asset's Schur
    # complement is rounding even where its own variance is zero
    B = np.random.default_rng(seed).integers(-2, 3, size=(30, 3)).astype(float)
    u = drf.validate_universe(B @ B.T)
    assert u.long_only_mvp.variance <= MVP_GAP_RTOL * u.variances.max()
    rep = drf.sandwich_check(u, 0.5)
    assert np.isfinite(rep.sigma_lo) and rep.holds is not False


@pytest.mark.parametrize(
    "seed, fold_every",
    [
        pytest.param(seed, every, id=str(seed) if every == 32 else f"{seed}-fold{every}")
        for seed in (52, 331, 428)
        for every in (32, 3, 1)
    ],
)
def test_lines_of_integer_loadings_answer_through_their_ties_at_lambda_0(
    monkeypatch, seed, fold_every
):
    # the eta line of each ties at lambda = 0 with rounding slopes (52, 331)
    # or with weights that its swaps leave at a rounding of zero (428): each
    # was once a cycle or a negative corner weight, and is now an answer.
    # The tie scale reads M with every correction aside folded in, whenever
    # the corrections are folded
    monkeypatch.setattr(mdp, "FOLD_EVERY", fold_every)
    u = drf.validate_universe(_singular_cov("integer", seed))
    scale = float(u.variances.max())
    lo = u.long_only_mvp
    assert abs(lo.variance - long_only_min_variance(u).variance) <= MVP_GAP_RTOL * scale
    for f in (0.0, 0.3, 0.7, 1.0):
        rep = drf.sandwich_check(u, f * np.sqrt(scale))
        assert rep.holds is True
    for line, _ in _lines(u).values():
        line.at(math.inf)
        assert line.corners[0] == 0.0 and line.corners[-1] == np.inf


def _face_max(B, mu, w_lo):
    """max mu' w over the long-only budget portfolios w with B' w = B' w_lo,
    the minimum-variance face of V = B B', by the supports of its vertices."""
    n, k = B.shape
    A = np.vstack([np.ones(n), B.T])
    b = A @ w_lo
    best = -np.inf
    for size in range(1, k + 2):
        for S in itertools.combinations(range(n), size):
            w_S = np.linalg.lstsq(A[:, S], b, rcond=None)[0]
            if np.abs(A[:, S] @ w_S - b).max() <= 1e-12 and w_S.min() >= -1e-12:
                best = max(best, float(mu[list(S)] @ w_S))
    return best


@pytest.mark.parametrize(
    "B",
    [
        [[1], [-1], [2], [-2]],
        [[0, -1], [-1, -2], [-2, -2], [-2, 2], [1, 2], [0, 1]],
        [[2, 0], [2, 2], [2, -2], [0, 1], [-1, -1]],
        [[-1, -2], [0, -1], [-1, 1], [-2, 2], [2, -2]],
        [[-2, 1], [0, -2], [1, 0], [-1, 0], [-2, -2]],
        [[-1], [-1], [-1]],
    ],
)
@pytest.mark.parametrize("common", [0.0, 1.0])
def test_a_level_at_sigma_lo_reads_the_lines_past_their_swaps_at_lambda_0(B, common):
    # V = B B' + common 1 1' of fewer factors than assets: w_lo is not the
    # only portfolio of least risk, and at lambda = 0 each line swaps
    # collinear assets in, which keeps the risk and raises mu' w, before its
    # first segment of positive length; a level at or below sigma_lo reads
    # the maximum of mu' w over that face (copies of one asset: a lone free
    # asset swaps).  The common variance puts sigma_lo at 1 or more
    B = np.array(B, dtype=float)
    u = drf.validate_universe(B @ B.T + common)
    lo = u.long_only_mvp
    sigma_lo = float(np.sqrt(lo.variance))
    for line, _ in _lines(u).values():
        line.max_at(0.0)
        assert line.corners[1] == 0.0  # a segment that ends at lambda = 0
    exact = [_face_max(B, mu, lo.weights) for mu in (u.variances, u.volatilities)]
    for sigma in (sigma_lo / (1.0 + 0.5 * SHELL_BAND), sigma_lo):
        rep = drf.sandwich_check(u, sigma)
        assert not rep.empty and rep.holds is True
        assert rep.max_avg_variance == pytest.approx(exact[0], rel=1e-12)
        assert rep.max_avg_volatility_sq == pytest.approx(exact[1] ** 2, rel=1e-12)


def test_sigma_lo_of_a_riskless_long_only_mix_is_finite():
    # rank 2: w' V w of the riskless mix rounds to about -1e-16
    B = np.random.default_rng(0).normal(size=(10, 2))
    rep = drf.sandwich_check(drf.validate_universe(B @ B.T), 0.5)
    assert 0.0 <= rep.sigma_lo <= 1e-6 * rep.sigma_hi


def test_a_singular_kkt_matrix_is_a_typed_error(universe30):
    # an asset and its copy as the starting free set
    dup = np.concatenate([np.arange(30), [7]])
    V = universe30.cov[np.ix_(dup, dup)]
    with pytest.raises(SingularCovarianceError, match="singular KKT"):
        mdp._kkt_inverse(V, [7, 30])


def test_a_line_past_the_corner_cap_is_a_typed_error(monkeypatch, universe30):
    line = mdp.CriticalLine(universe30, universe30.variances)
    monkeypatch.setattr(mdp, "MAX_ITER", 3)
    with pytest.raises(SingularCovarianceError, match="corners"):
        line.at(math.inf)
    # the walk does not restart: a later read is the same typed error
    with pytest.raises(SingularCovarianceError, match="failed before"):
        line.max_at(0.3)


def test_an_uncertified_w_lo_is_a_typed_error(monkeypatch, universe30):
    # the most volatile asset alone as the active set's answer fails the certificate
    u = drf.validate_universe(universe30.cov)
    top = np.array([int(np.argmax(u.variances))])
    monkeypatch.setattr(mdp, "_active_set", lambda V, start: (top, np.ones(1)))
    with pytest.raises(SingularCovarianceError, match="certified to"):
        u.long_only_mvp


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 10**6),
    st.floats(0.0, 9.0),
    st.floats(0.0, 1.0),
)
def test_sandwich_lands_every_draw_on_the_shell(n, seed, log_cond, where):
    # the sampler that the critical line replaced lands every draw on the
    # shell where the band meets the long-only risk range, and its maxima
    # are at most the exact ones
    u = conditioned_universe(n, seed, log_cond)
    band = SHELL_BAND
    sigma_lo = np.sqrt(long_only_min_variance_enum(u.cov)[0])
    sigma_hi = float(np.sqrt(u.variances.max()))
    # a level from well below sigma_lo to well above sigma_hi
    edge_lo, edge_hi = sigma_lo / (1.0 + band), sigma_hi / (1.0 - band)
    sigma = (edge_lo / 1.2) * (1.44 * edge_hi / edge_lo) ** where
    near_edge = min(abs(sigma / edge_lo - 1.0), abs(sigma / edge_hi - 1.0))
    assume(near_edge > 1e-9)
    meets = edge_lo <= sigma <= edge_hi
    rep = drf.sandwich_check(u, sigma, samples=300, seed=seed)
    assert rep.sigma_hi == sigma_hi
    assert rep.sigma_lo == pytest.approx(sigma_lo, rel=1e-8)
    assert rep.empty == (not meets)
    if not meets:
        assert rep.accepted == 0 and rep.holds is None
        return
    assert rep.accepted == rep.requested == 300
    assert rep.holds is True
    landed, max_var, max_vol_sq = sandwich_landings(u, sigma, 300, seed=seed)
    assert landed == 300
    tau = min(max(sigma, rep.sigma_lo), sigma_hi)
    assert _at_most_exact(max_var, u.eta_line, tau)
    assert _at_most_exact(max_vol_sq, u.root_eta_line, tau, square=True)
    W, _, _ = sandwich_bisection(u, sigma, 300, seed=seed, band=band)
    assert len(W) == 300
    assert W.min() >= 0.0
    np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=0.0, atol=8 * n * EPS)


@pytest.mark.parametrize(
    "name, seed, factor",
    [("ex3", 3, 1.2), ("ex3", 3, 1.4), ("ex3", 11, 1.3), ("panel", 7, 1.05)],
)
def test_sandwich_maxima_match_bisection_route(ex3, universe30, name, seed, factor):
    # the sampler's quadratic roots land the draws where bisection on the
    # three-operand einsum risk does, and its maxima stay at most the exact
    # ones; sigma is a multiple of the equal-weight risk
    u = ex3 if name == "ex3" else universe30
    w = np.full(u.n, 1.0 / u.n)
    sigma = factor * float(np.sqrt(w @ u.cov @ w))
    landed, max_var, max_vol_sq = sandwich_landings(u, sigma, 5_000, seed=seed)
    W, ref_var, ref_vol_sq = sandwich_bisection(u, sigma, 5_000, seed=seed)
    assert landed == len(W) == 5_000
    assert max_var == pytest.approx(ref_var, rel=1e-12)
    assert max_vol_sq == pytest.approx(ref_vol_sq, rel=1e-12)
    rep = drf.sandwich_check(u, sigma, samples=5_000, seed=seed)
    assert rep.accepted == 5_000
    assert max_var <= rep.max_avg_variance * (1.0 + 1e-12)
    assert max_vol_sq <= rep.max_avg_volatility_sq * (1.0 + 1e-12)


def test_exact_maxima_bound_the_sampler_on_the_cli_fixtures(fixture_dir):
    # the `mdp` command's default levels and seed, 20 000 draws
    for name in ("example3_universe.json", "mini_prices.csv", "synthetic_panel_30.csv"):
        path = fixture_dir / name
        if path.suffix == ".json":
            u = drf.validate_universe(json.loads(path.read_text())["V"])
        else:
            u = drf.annualize(drf.load_panel(str(path)))
        sigma_mvp = drf.frontier_params(u).sigma_mvp
        for factor in (1.05, 1.15, 1.3):
            rep = drf.sandwich_check(u, factor * sigma_mvp, samples=20_000, seed=0)
            if rep.empty:
                continue
            assert rep.holds is True
            landed, max_var, max_vol_sq = sandwich_landings(u, rep.sigma, 20_000, seed=0)
            assert landed == 20_000
            assert max_var <= rep.max_avg_variance * (1.0 + 1e-12), (name, factor)
            assert max_vol_sq <= rep.max_avg_volatility_sq * (1.0 + 1e-12), (name, factor)


def test_sandwich_holds_three_asset(ex3):
    rep = drf.sandwich_check(ex3, sigma=1.2, samples=20_000, seed=3)
    assert not rep.empty
    assert rep.accepted >= 20_000
    assert rep.holds
    assert rep.gap >= -1e-12
    assert rep.gap <= 2.0 * rep.d_max_upper + 1e-12
    assert rep.max_avg_variance >= rep.max_avg_volatility_sq - 1e-12


def test_sandwich_gap_zero_for_equal_variances(identity3):
    rep = drf.sandwich_check(identity3, sigma=0.7, samples=20_000, seed=4)
    assert not rep.empty
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert rep.holds


def test_sandwich_empty_when_shell_unreachable(ex3):
    # long-only risk on this universe never drops below the uniform port
    rep = drf.sandwich_check(ex3, sigma=0.5, samples=1_000, seed=5)
    assert rep.empty
    assert rep.accepted == 0
    assert rep.holds is None


@pytest.mark.parametrize("samples", [0, -1])
def test_sandwich_rejects_samples_below_one(ex3, samples):
    with pytest.raises(DimensionMismatchError):
        drf.sandwich_check(ex3, sigma=1.2, samples=samples)


@pytest.mark.parametrize("samples", [np.nan, np.inf, "many", None])
def test_sandwich_rejects_samples_that_are_not_numbers(ex3, samples):
    with pytest.raises(ParseError, match="samples"):
        drf.sandwich_check(ex3, sigma=1.2, samples=samples)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_sandwich_rejects_a_non_finite_sigma(ex3, sigma):
    with pytest.raises(ParseError, match="sigma"):
        drf.sandwich_check(ex3, sigma=sigma, samples=100)


def test_sandwich_deterministic(ex3):
    a = drf.sandwich_check(ex3, sigma=1.3, samples=20_000, seed=11)
    b = drf.sandwich_check(ex3, sigma=1.3, samples=20_000, seed=11)
    assert a.gap == b.gap
    assert a.accepted == b.accepted


def test_ratio_audit_on_random_universes():
    # the closed form must survive its internal sigma-sweep audit
    rng = np.random.default_rng(149)
    for _ in range(5):
        u = random_universe(rng, int(rng.integers(2, 12)))
        p = drf.mdp_global(u)
        assert _ratio(u, drf.portfolio_stats(u, p.weights)) > 1.0
