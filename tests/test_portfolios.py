import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier.errors import (
    DegenerateReturnsError,
    MissingReturnsError,
    NotSPDError,
    SingularCovarianceError,
    TangencyInfeasibleError,
)
from drfrontier.frontiers import FrontierKind, _ray
from drfrontier.model import PYTHAGORAS_ATOL, EfShape, proportional_to_ones

from .conftest import FIXTURES, R0_3, RBAR3, V3
from .oracles import (
    MDRP_AGREEMENT_ATOL,
    conditioned_universe,
    distance_route,
    forward_error,
    mdrp_route_gap,
    projected_gradient_max_dr,
    projected_gradient_min_variance,
    pythagoras_gaps,
    random_universe,
    rotated_spectrum_cov,
)


def test_proportional_to_ones():
    assert proportional_to_ones(np.array([2.0, 2.0, 2.0]))
    assert proportional_to_ones(np.array([2.0, 2.0 + 1e-14, 2.0]))
    assert not proportional_to_ones(np.array([2.0, 2.1, 2.0]))


def test_mvp_three_asset(ex3):
    p = drf.special_portfolios(ex3).mvp
    np.testing.assert_allclose(p.weights, np.full(3, 1.0 / 3.0), atol=1e-12)
    assert p.variance == pytest.approx(1.0, abs=1e-12)
    assert p.dr == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_mvp_identity_cov():
    for n in (2, 4, 7):
        u = drf.validate_universe(np.eye(n))
        p = drf.special_portfolios(u).mvp
        np.testing.assert_allclose(p.weights, np.full(n, 1.0 / n), atol=1e-12)
        assert p.variance == pytest.approx(1.0 / n, abs=1e-12)


def test_mvp_matches_projected_gradient():
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = random_universe(rng, int(rng.integers(2, 10)))
        p = drf.special_portfolios(u).mvp
        w_ref = projected_gradient_min_variance(u.cov)
        np.testing.assert_allclose(p.weights, w_ref, atol=1e-6)


def test_mvp_expected_return_is_b_over_a(ex3_returns):
    p = drf.special_portfolios(ex3_returns).mvp
    assert p.expected_return == pytest.approx(0.08, abs=1e-12)


def test_mdrp_three_asset(ex3):
    p = drf.special_portfolios(ex3).mdrp
    np.testing.assert_allclose(p.weights, [-1.0, 1.0, 1.0], atol=1e-8)
    assert p.dr == pytest.approx(1.0, abs=1e-10)
    assert p.variance == pytest.approx(17.0 / 9.0, abs=1e-8)


def test_mdrp_equals_mvp_for_equal_variances(identity3):
    sp = drf.special_portfolios(identity3)
    np.testing.assert_allclose(sp.mdrp.weights, sp.mvp.weights, atol=1e-10)


def test_mdrp_matches_projected_gradient():
    rng = np.random.default_rng(37)
    for _ in range(6):
        u = random_universe(rng, int(rng.integers(2, 8)))
        p = drf.special_portfolios(u).mdrp
        w_ref, val_ref = projected_gradient_max_dr(u.cov, u.variances, starts=20)
        np.testing.assert_allclose(p.weights, w_ref, atol=1e-6)
        assert p.dr == pytest.approx(val_ref, abs=1e-8)


def test_mdrp_dr_is_embedding_peak():
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = random_universe(rng, int(rng.integers(2, 20)))
        p = drf.special_portfolios(u).mdrp
        emb = drf.embed(u)
        assert p.dr == pytest.approx(emb.q_max, abs=1e-10 * max(1.0, emb.q_max))


def test_special_portfolio_identities():
    # the fixed relations between mvp, mdrp, rho: displacement is
    # V-orthogonal to the mvp, with squared V-norm rho^2 / 4
    rng = np.random.default_rng(43)
    for _ in range(20):
        u = random_universe(rng, int(rng.integers(2, 16)))
        sp, rho = drf.special_portfolios(u), u.solver.rho
        d = sp.mdrp.weights - sp.mvp.weights
        scale = max(1.0, float(np.abs(u.cov).max()))
        assert abs(d.sum()) < 1e-10
        assert abs(d @ u.cov @ sp.mvp.weights) < 1e-10 * scale
        assert d @ u.cov @ d == pytest.approx(rho**2 / 4.0, abs=1e-10 * scale)
        assert sp.mdrp.variance - sp.mvp.variance == pytest.approx(
            rho**2 / 4.0, abs=1e-10 * scale
        )
        assert sp.mdrp.dr - sp.mvp.dr == pytest.approx(
            rho**2 / 8.0, abs=1e-10 * scale
        )


def test_rho_exactly_zero_for_equal_variances(identity3):
    assert identity3.solver.rho == 0.0


def test_solver_rejects_singular(degenerate3):
    with pytest.raises(SingularCovarianceError):
        drf.special_portfolios(degenerate3).mvp


def test_solver_cache_reuse(ex3):
    assert ex3.solver is ex3.solver


def test_self_financing_direction_two_asset():
    u = drf.validate_universe(np.eye(2), expected_returns=np.array([0.0, 1.0]))
    w_o = drf.self_financing_direction(u)
    np.testing.assert_allclose(w_o, [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], atol=1e-12)


def test_self_financing_direction_invariants():
    rng = np.random.default_rng(47)
    for _ in range(100):
        u = random_universe(rng, int(rng.integers(2, 12)), with_returns=True)
        w_o = drf.self_financing_direction(u)
        scale = max(1.0, float(np.abs(u.cov).max()))
        assert abs(w_o.sum()) < 1e-8
        assert w_o @ u.cov @ w_o == pytest.approx(1.0, abs=1e-8 * scale)
        # Cauchy-Schwarz caps the variance slope at rho
        assert abs(u.variances @ w_o) <= u.solver.rho + 1e-8


def test_self_financing_direction_affine_invariance():
    rng = np.random.default_rng(53)
    u = random_universe(rng, 6, with_returns=True)
    w_o = drf.self_financing_direction(u)
    shifted = drf.validate_universe(
        u.cov, expected_returns=3.0 * u.expected_returns + 0.4
    )
    np.testing.assert_allclose(drf.self_financing_direction(shifted), w_o, atol=1e-10)
    flipped = drf.validate_universe(u.cov, expected_returns=-u.expected_returns)
    np.testing.assert_allclose(drf.self_financing_direction(flipped), -w_o, atol=1e-10)


def test_self_financing_direction_errors(ex3):
    with pytest.raises(MissingReturnsError):
        drf.self_financing_direction(ex3)
    u = drf.validate_universe(V3, expected_returns=np.array([0.07, 0.07, 0.07]))
    with pytest.raises(DegenerateReturnsError):
        drf.self_financing_direction(u)


def test_mean_variance_readers_refuse_as_self_financing_direction(ex3):
    # every reader of w_o raises the type self_financing_direction raises;
    # special_portfolios leaves w_o's fields out and still builds the
    # tangency, which is w_mvp for constant returns
    constant = drf.validate_universe(V3, expected_returns=np.full(3, 0.05), risk_free_rate=0.01)
    for u, error in ((ex3, MissingReturnsError), (constant, DegenerateReturnsError)):
        for call in (
            lambda: drf.sweep(u, FrontierKind.MV_EFFICIENT_DR),
            lambda: drf.sweep(u, FrontierKind.MV_MEAN_RETURN),
            lambda: drf.point(u, FrontierKind.MV_EFFICIENT_DR, 2.0),
            lambda: drf.point(u, "mv_mean_return", 2.0),
            lambda: drf.inflection_report(u),
            lambda: drf.self_financing_direction(u),
            lambda: drf.q_portfolio(u),
        ):
            with pytest.raises(error):
                call()
    sp = drf.special_portfolios(constant)
    assert constant.solver.w_o is None and sp.q_pf is None and constant.solver.eta_wo is None
    np.testing.assert_array_equal(sp.tangent.weights, sp.mvp.weights)


def test_eta_wo_three_asset(ex3_returns):
    m = ex3_returns.solver.eta_wo
    assert m * m == pytest.approx(24.0 / 7.0, rel=1e-12)
    assert m > 0.0


def test_eta_wo_sign_negative():
    # returns anti-aligned with variances put the DR peak on the other branch
    u = drf.validate_universe(V3, expected_returns=1.0 - np.array(np.diag(V3)))
    assert u.solver.eta_wo < 0.0


def _zero_band_universe(rng, n):
    # build returns whose frontier direction is exactly variance-neutral:
    # remove the eta component of a random vector in the V^-1 inner product
    u = random_universe(rng, n)
    Vinv = np.linalg.inv(u.cov)
    eta = u.variances
    ones = np.ones(n)
    g = lambda x, y: float(x @ Vinv @ y)
    proj = lambda x: x - (g(ones, x) / g(ones, ones)) * ones
    y = proj(rng.normal(0.0, 1.0, n))
    eta_p = proj(eta)
    z = y - (g(eta_p, y) / g(eta_p, eta_p)) * eta_p
    rbar = z + 0.1
    return drf.validate_universe(u.cov, expected_returns=rbar)


def test_eta_wo_sign_zero_band():
    rng = np.random.default_rng(59)
    u = _zero_band_universe(rng, 5)
    assert u.solver.eta_wo == 0.0
    q_pf = drf.q_portfolio(u)
    np.testing.assert_allclose(
        q_pf.weights, drf.special_portfolios(u).mvp.weights, atol=1e-10
    )
    # the one edge where the two sign classifications group differently: a
    # zero eta' w_o is its own sign, but a strongly concave curve, so it has
    # no inflection
    assert u.solver.ef_shape is EfShape.STRONGLY_CONCAVE
    report = drf.inflection_report(u)
    assert report["shape"] == "strongly_concave"
    assert report["tau_o_formula"] is None
    assert report["inflection_empirical"] is None


def test_q_portfolio_three_asset(ex3_returns):
    p = drf.q_portfolio(ex3_returns)
    assert p.variance == pytest.approx(13.0 / 7.0, rel=1e-12)
    assert p.dr == pytest.approx(62.0 / 63.0, rel=1e-12)


def test_q_portfolio_maximizes_dr_along_frontier(ex3_returns):
    # dense scan over the frontier line w_mvp + t * w_o
    w_mvp = drf.special_portfolios(ex3_returns).mvp.weights
    w_o = drf.self_financing_direction(ex3_returns)
    best = max(
        drf.diversification_return(ex3_returns, w_mvp + t * w_o)
        for t in np.linspace(-3.0, 3.0, 20_001)
    )
    p = drf.q_portfolio(ex3_returns)
    assert p.dr == pytest.approx(best, abs=1e-8)
    assert p.dr >= best - 1e-12


def test_q_portfolio_collapses_to_mdrp_for_proportional_returns():
    rng = np.random.default_rng(61)
    u = random_universe(rng, 7)
    prop = drf.validate_universe(u.cov, expected_returns=0.05 * u.variances)
    q_pf = drf.q_portfolio(prop)
    mdrp = drf.special_portfolios(prop).mdrp
    np.testing.assert_allclose(q_pf.weights, mdrp.weights, atol=1e-8)


def test_tangent_three_asset(ex3_returns):
    t = drf.tangent_portfolio(ex3_returns)
    np.testing.assert_allclose(t.weights, np.array([-11.0, 17.0, 15.0]) / 21.0, atol=1e-12)
    assert t.variance == pytest.approx(29.0 / 21.0, rel=1e-12)
    assert t.expected_return == pytest.approx(8.0 / 75.0, rel=1e-12)


def test_tangent_two_asset_identity():
    u = drf.validate_universe(
        np.eye(2), expected_returns=np.array([0.1, 0.2]), risk_free_rate=0.05
    )
    t = drf.tangent_portfolio(u)
    np.testing.assert_allclose(t.weights, [0.25, 0.75], atol=1e-12)


def test_tangent_maximizes_sharpe(ex3_returns):
    t = drf.tangent_portfolio(ex3_returns)
    r0 = ex3_returns.risk_free_rate
    best = (t.expected_return - r0) / t.sigma
    rng = np.random.default_rng(67)
    for _ in range(2_000):
        v = rng.normal(0.0, 1.0, 3)
        w = np.full(3, 1.0 / 3.0) + (v - v.mean())
        p = drf.portfolio_stats(ex3_returns, w)
        assert (p.expected_return - r0) / p.sigma <= best + 1e-12


def test_tangent_infeasible_riskfree():
    u = drf.validate_universe(
        V3, expected_returns=RBAR3, risk_free_rate=0.08  # equals b / a
    )
    with pytest.raises(TangencyInfeasibleError):
        drf.tangent_portfolio(u)
    u2 = drf.validate_universe(V3, expected_returns=RBAR3, risk_free_rate=0.3)
    with pytest.raises(TangencyInfeasibleError):
        drf.tangent_portfolio(u2)


def test_tangent_missing_inputs(ex3):
    with pytest.raises(MissingReturnsError):
        drf.tangent_portfolio(ex3)
    u = drf.validate_universe(V3, expected_returns=RBAR3)
    with pytest.raises(MissingReturnsError):
        drf.tangent_portfolio(u)


def test_special_portfolios_full_bundle(ex3_returns):
    sp, s = drf.special_portfolios(ex3_returns), ex3_returns.solver
    assert s.a == pytest.approx(1.0, abs=1e-12)
    assert s.rho**2 == pytest.approx(32.0 / 9.0, rel=1e-12)
    assert s.a * s.ret_mvp == pytest.approx(0.08, abs=1e-12)  # b = 1' V^-1 rbar
    assert s.eta_wo > 0.0
    d = sp.mdrp.weights - sp.mvp.weights
    np.testing.assert_allclose(d, [-4.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-8)
    # centralities come from the kernel, without an embedding
    assert sp.mvp.centrality_sq == pytest.approx(4.0 / 9.0, abs=1e-8)
    assert sp.mdrp.centrality_sq == pytest.approx(0.0, abs=1e-8)
    assert sp.q_pf.centrality_sq is not None
    assert sp.tangent.centrality_sq is not None


def test_mdrp_centrality_is_exactly_zero(ex3_returns, universe30):
    # c^2 = 0.5 (w - s)' V (w - s) about the kernel's w_mdrp: no rounding
    # residual at the centre, where w' B w left about sqrt(eps)
    mini = drf.annualize(drf.load_panel(FIXTURES / "mini_prices.csv", format="prices"))
    for u in (ex3_returns, mini, universe30):
        sp = drf.special_portfolios(u)
        assert sp.mdrp.centrality_sq == 0.0


def test_special_portfolios_without_returns(ex3):
    sp, s = drf.special_portfolios(ex3), ex3.solver
    assert s.ret_mvp is None
    assert s.w_o is None
    assert s.eta_wo is None
    assert sp.q_pf is None
    assert sp.tangent is None


def test_special_portfolios_flat_returns():
    u = drf.validate_universe(V3, expected_returns=np.array([0.07, 0.07, 0.07]))
    sp = drf.special_portfolios(u)
    assert u.solver.ret_mvp is not None
    assert u.solver.w_o is None
    assert sp.q_pf is None


def test_special_portfolios_infeasible_tangent():
    u = drf.validate_universe(V3, expected_returns=RBAR3, risk_free_rate=0.5)
    sp = drf.special_portfolios(u)
    assert u.solver.w_o is not None
    assert sp.tangent is None


def test_special_portfolios_pass_pythagoras_at_cond_1e5():
    # B formed from V keeps c^2 + q = q_max within PYTHAGORAS_ATOL where the
    # D-form Gram missed it by 2.1e-7 on the Q portfolio
    V, rbar = rotated_spectrum_cov()
    u = drf.validate_universe(V, expected_returns=rbar)
    assert np.linalg.cond(u.cov) == pytest.approx(1e5, rel=1e-6)
    emb = drf.embed(u)
    sp = drf.special_portfolios(u, embedding=emb)
    q_max = distance_route(u)[1]
    for pf in (sp.mvp, sp.mdrp, sp.q_pf):
        assert pf.centrality_sq + pf.dr == pytest.approx(q_max, rel=1e-10)


def _formed(sp):
    return [p for p in (sp.mvp, sp.mdrp, sp.q_pf, sp.tangent) if p is not None]


def _row_fields(curve) -> list:
    return [(r.sigma, r.q, r.ret, r.centrality, r.alpha, r.status) for r in curve.rows]


def test_embedding_keyword_changes_no_output(ex3_returns, identity3):
    # special_portfolios and sweep still take an embedding, which is unused:
    # its own, another universe's or none give the same output
    sp = drf.special_portfolios(ex3_returns)
    kind = FrontierKind.EFFICIENT_DR
    plain = _row_fields(drf.sweep(ex3_returns, kind))
    for emb in (drf.embed(ex3_returns), drf.embed(identity3)):
        with_emb = drf.special_portfolios(ex3_returns, embedding=emb)
        for a, b in zip(_formed(sp), _formed(with_emb)):
            assert np.array_equal(a.weights, b.weights)
            stats = (a.variance, a.dr, a.centrality_sq)
            assert stats == (b.variance, b.dr, b.centrality_sq)
        assert _row_fields(drf.sweep(ex3_returns, kind, embedding=emb)) == plain


def _route_universes():
    mini = drf.annualize(drf.load_panel(FIXTURES / "mini_prices.csv", format="prices"))
    panel = drf.annualize(
        drf.load_panel(FIXTURES / "synthetic_panel_30.csv", format="prices")
    )
    V, rbar = rotated_spectrum_cov()
    rng = np.random.default_rng(71)
    return [
        drf.validate_universe(V3),
        drf.validate_universe(V3, expected_returns=RBAR3, risk_free_rate=R0_3),
        drf.validate_universe(mini.cov, mini.expected_returns, risk_free_rate=0.01),
        drf.validate_universe(panel.cov, panel.expected_returns, risk_free_rate=0.01),
        drf.validate_universe(V, expected_returns=rbar),
    ] + [random_universe(rng, n, with_riskfree=True) for n in (2, 5, 12, 30)]


def test_special_portfolios_meet_the_embedding_routes():
    # Pythagoras c^2 + q = q_max with w' B w about the distance route's s and
    # with the kernel's centrality, and the max-DR portfolio against the
    # normalized D^-1 1, each to the tolerance the production checks had
    for u in _route_universes():
        atol = PYTHAGORAS_ATOL * max(1.0, abs(u.solver.q_max))
        for p in _formed(drf.special_portfolios(u)):
            gram, kernel = pythagoras_gaps(u, p)
            assert gram <= atol and kernel <= atol, (gram, kernel)
        assert mdrp_route_gap(u) <= MDRP_AGREEMENT_ATOL


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 10**6),
    st.floats(0.0, 9.0),
    st.booleans(),
)
def test_embedding_routes_across_conditioning(n, seed, log_cond, with_riskfree):
    # the conditioning allowance of the sweep oracle: the kernel's forward
    # error bound, on the scale of the weights and of |B| ~ q_max
    u = conditioned_universe(n, seed, log_cond, with_riskfree)
    rel_tol = forward_error(u)
    sp = drf.special_portfolios(u)
    scale = max(1.0, float(np.abs(u.cov).max()))
    for p in _formed(sp):
        w_size = max(1.0, float(np.abs(p.weights).max()))
        size = max(scale, p.centrality_sq, abs(u.solver.q_max)) * w_size**2
        gram, kernel = pythagoras_gaps(u, p)
        tol = max(PYTHAGORAS_ATOL, rel_tol) * size
        assert gram <= tol and kernel <= tol, (gram, kernel, tol)
    assert mdrp_route_gap(u) <= max(MDRP_AGREEMENT_ATOL, rel_tol)


def _sum_rounding(x):
    """4 n eps sum|x_i|, the rounding bound of a float sum of x."""
    return 4 * len(x) * np.finfo(float).eps * float(np.abs(x).sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 9.0))
def test_two_asset_max_dr_portfolio_is_the_midpoint(seed, log_cond):
    # q(w) = D12 w1 w2 for two assets, so s = (1/2, 1/2) exactly; all the
    # named portfolios are formed, as the portfolios command forms them
    u = conditioned_universe(2, seed, log_cond)
    w = drf.special_portfolios(u).mdrp.weights
    assert float(np.abs(w - 0.5).max()) <= forward_error(u)


def test_two_asset_max_dr_portfolio_is_the_midpoint_at_cond_4e6():
    # without the kernel's budget projection the Q weights sum to
    # 0.9999999998981275 here, and special_portfolios refuses the universe
    u = conditioned_universe(2, 1278992882, 6.133)
    w = drf.special_portfolios(u).mdrp.weights
    assert float(np.abs(w - 0.5).max()) <= forward_error(u)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 9.0),
    st.booleans(),
)
@example(2, 958895565, 5.828462093606521, True)  # sum|w_mvp| = 64, sum|w_mdrp| = 1
def test_kernel_directions_and_portfolios_are_on_budget(n, seed, log_cond, with_riskfree):
    # every kernel direction is zero-budget up to the rounding of its own
    # sum, and every named portfolio w = w_mvp + t d sums to one up to the
    # rounding of the terms that form it: w carries the miss of w_mvp's sum,
    # which exceeds 4 n eps sum|w_i| where w_mvp is levered and w is not
    u = conditioned_universe(n, seed, log_cond, with_riskfree)
    s = u.solver
    for d in (s.d_eta, s.d_root, s.w_o):
        if d is not None:
            assert abs(float(d.sum())) <= _sum_rounding(d)
    formed = _formed(drf.special_portfolios(u))
    try:
        formed.append(drf.mdp_global(u))
    except NotSPDError:  # 1' V^-1 sqrt(eta) < 0: no budget maximizer
        pass
    for p in formed:
        terms = _sum_rounding(s.w_mvp) + _sum_rounding(p.weights - s.w_mvp)
        assert abs(float(p.weights.sum()) - 1.0) <= terms


def _mdrp_at_50_digits(mpmath, u):
    """(s, q_max) of the float V at 50 digits, by the geometric route:
    y = D^-1 1 with D[i, j] = (eta_i + eta_j) / 2 - V[i, j], s = y / (1' y)
    and q_max = 1 / (2 * 1' y)."""
    n = u.n
    with mpmath.workdps(50):
        V = mpmath.matrix(u.cov.tolist())
        D = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    D[i, j] = (V[i, i] + V[j, j]) / 2 - V[i, j]
        y = mpmath.lu_solve(D, mpmath.matrix([1] * n))
        total = sum(y)
        return np.array([float(v / total) for v in y]), float(1 / (2 * total))


def _kernel_portfolios_at_50_digits(mpmath, u):
    """{name: weights} of the float V, eta, rbar and r0 at 50 digits, for the
    portfolios the inputs define: the Q portfolio w_mvp + (eta' w_o / 2) w_o,
    the tangency V^-1 (rbar - r0 1) / 1' V^-1 (rbar - r0 1), the
    most-diversified V^-1 sqrt(eta) / 1' V^-1 sqrt(eta) (where that sum is
    positive) and the risk-free sleeve V^-1 eta / sqrt(eta' V^-1 eta)."""
    n = u.n
    with mpmath.workdps(50):
        V = mpmath.matrix(u.cov.tolist())

        def at50(c):
            y = mpmath.lu_solve(V, mpmath.matrix(c))
            return [y[i] for i in range(n)]

        eta = [V[i, i] for i in range(n)]
        x = at50(eta)
        gain = mpmath.sqrt(sum(eta[i] * x[i] for i in range(n)))
        refs = {"sleeve": [xi / gain for xi in x]}
        y = at50([mpmath.sqrt(e) for e in eta])
        if sum(y) > 0:
            refs["mdp"] = [yi / sum(y) for yi in y]
        if u.expected_returns is not None:
            rbar = [mpmath.mpf(float(r)) for r in u.expected_returns]
            inv_ones, inv_r = at50([1] * n), at50(rbar)
            a, b = sum(inv_ones), sum(inv_r)
            k = mpmath.sqrt(sum(rbar[i] * inv_r[i] for i in range(n)) - b * b / a)
            w_mvp = [v / a for v in inv_ones]
            w_o = [(inv_r[i] - b * w_mvp[i]) / k for i in range(n)]
            eta_wo = sum(eta[i] * w_o[i] for i in range(n))
            refs["q"] = [w_mvp[i] + eta_wo / 2 * w_o[i] for i in range(n)]
            if u.risk_free_rate is not None:
                r0 = mpmath.mpf(u.risk_free_rate)
                t = at50([r - r0 for r in rbar])
                refs["tangent"] = [ti / sum(t) for ti in t]
        return {name: np.array(w, dtype=float) for name, w in refs.items()}


def test_kernel_mdrp_meets_a_50_digit_reference(ex3, ex3_returns, universe30):
    # the kernel is the one production route to s and q_max, and to the Q,
    # tangency and most-diversified portfolios and the risk-free sleeve; each
    # lies within its forward-error bound of the 50-digit value, up to cond 1e6
    mpmath = pytest.importorskip("mpmath")
    mini = drf.annualize(drf.load_panel(FIXTURES / "mini_prices.csv", format="prices"))
    rng = np.random.default_rng(83)
    draws = [
        conditioned_universe(
            int(rng.integers(2, 9)), seed, rng.uniform(0.0, 6.0), with_riskfree=True
        )
        for seed in range(30)
    ]
    for u in [ex3, ex3_returns, mini, universe30, *draws]:
        s_ref, q_ref = _mdrp_at_50_digits(mpmath, u)
        rel_tol = forward_error(u)
        w = u.solver.w_mdrp
        assert float(np.abs(w - s_ref).max()) <= rel_tol * float(np.abs(s_ref).max())
        assert abs(u.solver.q_max - q_ref) <= rel_tol * abs(q_ref)
        refs = _kernel_portfolios_at_50_digits(mpmath, u)
        # the risk-free efficient sleeve needs only eta; its ray asks for an r0
        cash = dataclasses.replace(u, risk_free_rate=0.0)
        kernel = {"sleeve": _ray(cash, FrontierKind.EFFICIENT_DR_RISKFREE).d}
        if "mdp" in refs:
            kernel["mdp"] = drf.mdp_global(u).weights
        else:
            with pytest.raises(NotSPDError):
                drf.mdp_global(u)
        if u.expected_returns is not None:
            kernel["q"] = drf.q_portfolio(u).weights
        if u.risk_free_rate is not None:
            kernel["tangent"] = drf.tangent_portfolio(u).weights
        assert kernel.keys() == refs.keys()
        for name, ref in refs.items():
            gap = float(np.abs(kernel[name] - ref).max())
            assert gap <= rel_tol * float(np.abs(ref).max()), name


def _directions_at_50_digits(mpmath, u):
    """(rho, d_eta, w_o, eta' w_o, k_root, d_root) of the float V, eta and
    rbar at 50 digits, with exact roots sqrt(eta): d = (V^-1 c0 - g w_mvp) / k
    for c0 = c - mean(c) 1, g = 1' V^-1 c0 and k^2 = c0' V^-1 c0 - g^2 / a."""
    n = u.n
    with mpmath.workdps(50):
        V = mpmath.matrix(u.cov.tolist())
        inv_ones = mpmath.lu_solve(V, mpmath.matrix([1] * n))
        a = sum(inv_ones)
        eta = [V[i, i] for i in range(n)]

        def direction(c):
            mean = sum(c) / n
            c0 = mpmath.matrix([x - mean for x in c])
            y = mpmath.lu_solve(V, c0)
            g = sum(y)
            k = mpmath.sqrt(sum(c0[i] * y[i] for i in range(n)) - g * g / a)
            return k, [(y[i] - g * inv_ones[i] / a) / k for i in range(n)]

        rho, d_eta = direction(eta)
        _, w_o = direction([mpmath.mpf(float(r)) for r in u.expected_returns])
        eta_wo = sum(eta[i] * w_o[i] for i in range(n))
        k_root, d_root = direction([mpmath.sqrt(e) for e in eta])
    d_eta, w_o, d_root = (np.array(x, dtype=float) for x in (d_eta, w_o, d_root))
    return float(rho), d_eta, w_o, float(eta_wo), float(k_root), d_root


def _near_equal_universes(count=60):
    # vols and returns spread 1e-9 to 1e-3 about a common level, on the
    # sample correlation of 2n normal draws
    rng = np.random.default_rng(11)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        spread = 10.0 ** rng.uniform(-9.0, -3.0)
        G = rng.normal(size=(n, 2 * n))
        C = G @ G.T
        root = np.sqrt(np.diag(C))
        vols = 0.3 * (1.0 + spread * rng.normal(size=n))
        rbar = 0.05 + 0.05 * spread * rng.normal(size=n)
        yield drf.validate_universe(C / np.outer(root, root) * np.outer(vols, vols), rbar)


def test_kernel_directions_meet_a_50_digit_reference_at_near_equal_inputs():
    # eta and rbar close to multiples of ones: the kernel solves them centred,
    # so rho, d_eta, w_o and eta' w_o keep full accuracy where the uncentred
    # k^2 = c' V^-1 c - (1' V^-1 c)^2 / a cancelled to rounding; sqrt(eta)
    # centred from variance differences, not from rounded roots, keeps k_root
    # and d_root there too
    mpmath = pytest.importorskip("mpmath")
    for u in _near_equal_universes():
        rho, d_eta, w_o, eta_wo, k_root, d_root = _directions_at_50_digits(mpmath, u)
        s = u.solver
        assert abs(s.rho - rho) <= 1e-14 * rho
        assert abs(s.k_root - k_root) <= 1e-14 * k_root
        for got, ref in ((s.d_eta, d_eta), (s.w_o, w_o), (s.d_root, d_root)):
            assert got is not None
            assert float(np.abs(got - ref).max()) <= 1e-14 * float(np.abs(ref).max())
        assert abs(s.eta_wo - eta_wo) <= 1e-13 * abs(eta_wo)
    # returns (0.05, 0.05 + delta, 0.05) on ex3's V: affine invariance fixes
    # eta' w_o at 4 / sqrt(6) for every delta > 0
    for delta in (1e-11, 3e-10, 1e-9, 1e-8):
        u = drf.validate_universe(V3, expected_returns=[0.05, 0.05 + delta, 0.05])
        assert abs(u.solver.eta_wo - 4.0 / np.sqrt(6.0)) <= 1e-14 * (4.0 / np.sqrt(6.0))
