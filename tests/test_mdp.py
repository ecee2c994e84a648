import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    ZeroVarianceError,
)
from drfrontier.mdp import GAP_RTOL, _d_max_of_d_eta

from .oracles import (
    circle_scan,
    conditioned_universe,
    exact_d_max,
    grid_max_half_quad,
    long_only_min_variance_enum,
    random_universe,
    ratio_sweep_audit,
    sandwich_bisection,
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
    assert drf.diversification_ratio(ex3, w) == pytest.approx(expected, rel=1e-12)


def test_diversification_ratio_single_asset_is_one(ex3):
    for i in range(3):
        w = np.zeros(3)
        w[i] = 1.0
        assert drf.diversification_ratio(ex3, w) == pytest.approx(1.0, rel=1e-12)


def test_diversification_ratio_zero_variance(degenerate3):
    with pytest.raises(ZeroVarianceError):
        drf.diversification_ratio(degenerate3, np.array([1.0, 0.0, 0.0]))


def test_mdp_global_identity(identity3):
    p = drf.mdp_global(identity3)
    np.testing.assert_allclose(p.weights, np.full(3, 1.0 / 3.0), atol=1e-12)
    assert drf.diversification_ratio(identity3, p.weights) == pytest.approx(
        np.sqrt(3.0), rel=1e-12
    )


def test_mdp_global_diagonal():
    # for any diagonal covariance the max ratio is sqrt(n)
    u = drf.validate_universe(np.diag([1.0, 4.0, 9.0]))
    p = drf.mdp_global(u)
    np.testing.assert_allclose(p.weights, [6.0 / 11.0, 3.0 / 11.0, 2.0 / 11.0], atol=1e-12)
    assert drf.diversification_ratio(u, p.weights) == pytest.approx(
        np.sqrt(3.0), rel=1e-12
    )


def test_mdp_global_three_asset(ex3):
    p = drf.mdp_global(ex3)
    root = np.sqrt(ex3.variances)
    # direction check against a plain linear solve
    x = np.linalg.solve(ex3.cov, root)
    np.testing.assert_allclose(p.weights, x / x.sum(), atol=1e-10)
    # ratio value from the quadratic form
    ratio = drf.diversification_ratio(ex3, p.weights)
    assert ratio**2 == pytest.approx(float(root @ x), rel=1e-10)


def test_mdp_global_beats_sampling(ex3):
    p = drf.mdp_global(ex3)
    best = drf.diversification_ratio(ex3, p.weights)
    rng = np.random.default_rng(113)
    for _ in range(5_000):
        v = rng.normal(0.0, 1.0, 3)
        w = np.full(3, 1.0 / 3.0) + (v - v.mean())
        assert drf.diversification_ratio(ex3, w) <= best + 1e-12


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
        total = float(np.ones(n) @ u.solver.inv_root_eta)
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
        assert float(np.sqrt(u.variances) @ p.weights) / p.sigma == best


def test_mdp_at_sigma_snaps_to_mvp(ex3):
    sol = drf.mdp_at_sigma(ex3, 1.0)
    np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_mdp_at_sigma_degenerate(identity3):
    sol = drf.mdp_at_sigma(identity3, 1.0)
    assert sol.degenerate


def test_mdp_at_sigma_matches_circle_scan(ex3):
    root = np.sqrt(ex3.variances)
    for sigma in (1.1, 1.5, 2.0):
        sol = drf.mdp_at_sigma(ex3, sigma)
        val = float(root @ sol.weights)
        _, ref = circle_scan(np.array(ex3.cov), lambda w: float(root @ w), sigma)
        assert val == pytest.approx(ref, abs=1e-7)
        assert val >= ref - 1e-7


def test_mdp_at_global_risk_recovers_global(ex3):
    p = drf.mdp_global(ex3)
    sol = drf.mdp_at_sigma(ex3, p.sigma)
    np.testing.assert_allclose(sol.weights, p.weights, atol=1e-9)


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
        a = drf.analyze_mdp(u)
        assert a.d_max_lower == a.d_max_upper == d_max
        assert a.starts_used == 1 and a.converged


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
        drf.diversification_ratio(ex3, a.portfolio.weights), rel=1e-12
    )
    assert a.d_max_lower <= a.d_max_upper + 1e-12
    assert a.d_max_lower == pytest.approx((17.0 - np.sqrt(253.0)) / 36.0, rel=1e-9)
    assert a.converged
    np.testing.assert_allclose(a.d_eta, drf.build_d_eta(ex3), atol=0.0)


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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 10**6),
    st.floats(0.0, 9.0),
    st.floats(0.0, 1.0),
)
def test_sandwich_lands_every_draw_on_the_shell(n, seed, log_cond, where):
    u = conditioned_universe(n, seed, log_cond)
    band = 0.01
    sigma_lo = np.sqrt(long_only_min_variance_enum(u.cov)[0])
    sigma_hi = float(np.sqrt(u.variances.max()))
    # a level from well below sigma_lo to well above sigma_hi
    edge_lo, edge_hi = sigma_lo / (1.0 + band), sigma_hi / (1.0 - band)
    sigma = (edge_lo / 1.2) * (1.44 * edge_hi / edge_lo) ** where
    near_edge = min(abs(sigma / edge_lo - 1.0), abs(sigma / edge_hi - 1.0))
    assume(near_edge > 1e-9)
    meets = edge_lo <= sigma <= edge_hi
    rep = drf.sandwich_check(u, sigma, samples=300, seed=seed, band=band)
    assert rep.sigma_hi == sigma_hi
    assert rep.sigma_lo == pytest.approx(sigma_lo, rel=1e-8)
    assert rep.empty == (not meets)
    if not meets:
        assert rep.accepted == 0 and rep.holds is None
        return
    assert rep.accepted == rep.requested == 300
    assert rep.holds is True
    W, max_var, max_vol_sq = sandwich_bisection(u, sigma, 300, seed=seed, band=band)
    assert len(W) == 300
    assert W.min() >= 0.0
    np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=0.0, atol=8 * n * EPS)


@pytest.mark.parametrize(
    "name, seed, factor",
    [("ex3", 3, 1.2), ("ex3", 3, 1.4), ("ex3", 11, 1.3), ("panel", 7, 1.05)],
)
def test_sandwich_maxima_match_bisection_route(ex3, universe30, name, seed, factor):
    # the quadratic roots must land the draws where bisection on the
    # three-operand einsum risk does; sigma is a multiple of the
    # equal-weight risk
    u = ex3 if name == "ex3" else universe30
    w = np.full(u.n, 1.0 / u.n)
    sigma = factor * float(np.sqrt(w @ u.cov @ w))
    rep = drf.sandwich_check(u, sigma, samples=5_000, seed=seed)
    W, max_var, max_vol_sq = sandwich_bisection(u, sigma, 5_000, seed=seed)
    assert rep.accepted == len(W) == 5_000
    assert rep.max_avg_variance == pytest.approx(max_var, rel=1e-12)
    assert rep.max_avg_volatility_sq == pytest.approx(max_vol_sq, rel=1e-12)


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
        assert drf.diversification_ratio(u, p.weights) > 1.0
