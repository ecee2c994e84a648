import dataclasses

import numpy as np
import pytest

import drfrontier as drf
from drfrontier.errors import (
    DimensionMismatchError,
    DrFrontierError,
    MissingReturnsError,
    RiskBelowMvpError,
    TangencyInfeasibleError,
)
from drfrontier.frontiers import FrontierKind, _ray
from drfrontier.model import EfShape

from .conftest import R0_3, RBAR3, V3
from .oracles import (
    block_riskfree_dr,
    circle_scan,
    locate_inflection,
    random_universe,
    second_divided,
    swept_inflection,
)

RHO3 = np.sqrt(32.0) / 3.0
M3 = np.sqrt(24.0 / 7.0)


def test_frontier_params_three_asset(ex3):
    p = drf.frontier_params(ex3)
    assert p is ex3.solver  # the kernel is the one record of these scalars
    assert p.sigma2_mvp == pytest.approx(1.0, abs=1e-12)
    assert p.q_mvp == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert p.rho**2 == pytest.approx(32.0 / 9.0, rel=1e-12)
    assert p.sigma2_mdrp == pytest.approx(17.0 / 9.0, rel=1e-12)
    assert p.q_max == pytest.approx(1.0, abs=1e-12)
    assert p.eta_wo is None
    assert p.ef_shape is EfShape.DEGENERATE


def test_frontier_params_with_returns(ex3_returns):
    p = drf.frontier_params(ex3_returns)
    assert p.eta_wo == pytest.approx(M3, rel=1e-12)
    assert p.ef_shape is EfShape.STRONGLY_CONCAVE
    assert drf.inflection_report(ex3_returns)["tau_o_formula"] is None


def test_frontier_peak_matches_embedding():
    rng = np.random.default_rng(71)
    for _ in range(20):
        u = random_universe(rng, int(rng.integers(2, 20)))
        p = drf.frontier_params(u)
        emb = drf.embed(u)
        assert p.q_max == pytest.approx(emb.q_max, abs=1e-8 * max(1.0, emb.q_max))
        assert drf.point(u, "efficient_dr", p.sigma_mdrp).q == pytest.approx(
            emb.q_max, abs=1e-10 * max(1.0, emb.q_max)
        )


def _q_dr(u, sigma):
    return drf.point(u, "efficient_dr", sigma).q


def _q_ef(u, sigma):
    return drf.point(u, "mv_efficient_dr", sigma).q


def _gap(u, sigma):
    """q_dr - q_ef at sigma by the gap law: 0.5 (rho - eta' w_o) times the
    mv_efficient_dr row's alpha, u = sqrt(sigma^2 - sigma_mvp^2)."""
    s = u.solver
    return 0.5 * (s.rho - s.eta_wo) * drf.point(u, "mv_efficient_dr", sigma).alpha


def test_q_dr_values(ex3):
    assert _q_dr(ex3, 1.0) == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert _q_dr(ex3, np.sqrt(1.5)) == pytest.approx(35.0 / 36.0, rel=1e-12)
    assert _q_dr(ex3, np.sqrt(17.0 / 9.0)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RiskBelowMvpError):
        _q_dr(ex3, 0.9)


def test_q_dr_flat_for_equal_variances(identity3):
    p = drf.frontier_params(identity3)
    assert p.rho == 0.0
    for sigma in (p.sigma_mvp, 0.8, 1.5):
        assert _q_dr(identity3, sigma) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # a flat frontier has no DR-efficient mix
    assert drf.point(identity3, "efficient_dr", 1.0).alpha is None


def test_two_fund_mix(ex3):
    at_mvp = drf.point(ex3, "efficient_dr", 1.0)
    assert at_mvp.alpha == 0.0
    np.testing.assert_allclose(at_mvp.weights, np.full(3, 1.0 / 3.0), atol=1e-10)

    halfway = drf.point(ex3, "efficient_dr", np.sqrt(13.0 / 9.0))
    assert halfway.alpha**2 == pytest.approx(0.5, rel=1e-12)
    assert halfway.alpha <= 1.0  # not beyond the maximum-DR portfolio

    at_peak = drf.point(ex3, "efficient_dr", np.sqrt(17.0 / 9.0))
    assert at_peak.alpha == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(at_peak.weights, [-1.0, 1.0, 1.0], atol=1e-8)

    past = drf.point(ex3, "efficient_dr", 2.0)
    assert past.alpha > 1.0


def test_mix_variance_matches_sigma():
    rng = np.random.default_rng(73)
    for _ in range(10):
        u = random_universe(rng, int(rng.integers(2, 12)))
        p = drf.frontier_params(u)
        if p.rho == 0.0:
            continue
        for factor in (1.0001, 1.3, 2.0, 4.0):
            sigma = p.sigma_mvp * factor
            row = drf.point(u, "efficient_dr", sigma)
            var = float(row.weights @ u.cov @ row.weights)
            assert var == pytest.approx(sigma * sigma, rel=1e-8)
            assert drf.diversification_return(u, row.weights) == pytest.approx(
                row.q, abs=1e-10 * max(1.0, p.q_max)
            )


def test_engine_matches_two_fund_mix():
    rng = np.random.default_rng(79)
    for _ in range(10):
        u = random_universe(rng, int(rng.integers(3, 10)))
        p = drf.frontier_params(u)
        if p.rho == 0.0:
            continue
        for factor in (1.001, 1.5, 2.5):
            sigma = p.sigma_mvp * factor
            mix = drf.point(u, "efficient_dr", sigma)
            sol = drf.max_linear_over_ellipsoid(u, 2.0 * u.variances, sigma)
            np.testing.assert_allclose(sol.weights, mix.weights, atol=1e-8)


def test_engine_scale_invariance(ex3):
    sigma = 1.4
    base = drf.max_linear_over_ellipsoid(ex3, ex3.variances, sigma)
    for scale in (0.25, 7.3):
        other = drf.max_linear_over_ellipsoid(ex3, scale * ex3.variances, sigma)
        np.testing.assert_allclose(other.weights, base.weights, atol=1e-12)


def test_engine_degenerate_objective(ex3):
    sol = drf.max_linear_over_ellipsoid(ex3, np.ones(3), 1.5)
    assert sol.status == "degenerate"
    np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_engine_at_mvp_risk(ex3):
    sol = drf.max_linear_over_ellipsoid(ex3, ex3.variances, 1.0)
    np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-12)
    # a hair below the boundary is snapped up, further below raises
    drf.max_linear_over_ellipsoid(ex3, ex3.variances, 1.0 - 1e-14)
    with pytest.raises(RiskBelowMvpError):
        drf.max_linear_over_ellipsoid(ex3, ex3.variances, 0.9)


def test_engine_input_mismatch(ex3):
    with pytest.raises(DimensionMismatchError):
        drf.max_linear_over_ellipsoid(ex3, np.ones(4), 1.5)


def test_engine_against_circle_scan(ex3):
    rng = np.random.default_rng(83)
    for _ in range(5):
        c = rng.normal(0.0, 1.0, 3)
        for sigma in (1.05, 1.3, 1.8):
            sol = drf.max_linear_over_ellipsoid(ex3, c, sigma)
            val = float(c @ sol.weights)
            _, ref = circle_scan(V3, lambda w: float(c @ w), sigma)
            assert val == pytest.approx(ref, abs=1e-7 * max(1.0, abs(ref)))
            assert val >= ref - 1e-7


def test_q_ef_values(ex3_returns):
    at_mvp = drf.point(ex3_returns, "mv_efficient_dr", 1.0)
    assert at_mvp.q == pytest.approx(5.0 / 9.0, abs=1e-12)
    np.testing.assert_allclose(at_mvp.weights, np.full(3, 1.0 / 3.0), atol=1e-12)
    # the curve peaks at the Q portfolio
    peak = drf.point(ex3_returns, "mv_efficient_dr", np.sqrt(13.0 / 7.0))
    assert peak.q == pytest.approx(62.0 / 63.0, rel=1e-12)
    q_pf = drf.q_portfolio(ex3_returns)
    np.testing.assert_allclose(peak.weights, q_pf.weights, atol=1e-10)


def test_q_ef_consistent_with_direct_dr():
    rng = np.random.default_rng(89)
    for _ in range(10):
        u = random_universe(rng, int(rng.integers(2, 10)), with_returns=True)
        p = drf.frontier_params(u)
        if p.eta_wo is None:
            continue
        for factor in (1.0, 1.2, 2.0, 3.5):
            sigma = p.sigma_mvp * factor
            row = drf.point(u, "mv_efficient_dr", sigma)
            q, w = row.q, row.weights
            assert drf.diversification_return(u, w) == pytest.approx(
                q, abs=1e-10 * max(1.0, abs(q))
            )
            var = float(w @ u.cov @ w)
            assert var == pytest.approx(sigma * sigma, rel=1e-8)


def test_q_ef_maximizes_return_at_risk(ex3_returns):
    # the weights behind q_ef carry the highest mean return at that risk
    rng = np.random.default_rng(97)
    for sigma in (1.1, 1.5, 2.0):
        w = drf.point(ex3_returns, "mv_efficient_dr", sigma).weights
        ret = float(ex3_returns.expected_returns @ w)
        sol = drf.max_linear_over_ellipsoid(
            ex3_returns, ex3_returns.expected_returns, sigma
        )
        assert ret == pytest.approx(
            float(ex3_returns.expected_returns @ sol.weights), abs=1e-10
        )
        for _ in range(500):
            v = rng.normal(0.0, 1.0, 3)
            cand = np.full(3, 1.0 / 3.0) + (v - v.mean())
            var = float(cand @ ex3_returns.cov @ cand)
            if var <= sigma * sigma:
                assert float(ex3_returns.expected_returns @ cand) <= ret + 1e-10


def test_dr_gap(ex3_returns):
    p = drf.frontier_params(ex3_returns)
    assert _gap(ex3_returns, p.sigma_mvp) == pytest.approx(0.0, abs=1e-12)
    expected = 0.5 * (RHO3 - M3)
    assert _gap(ex3_returns, np.sqrt(2.0)) == pytest.approx(expected, rel=1e-12)
    # gap equals the curve difference and grows linearly in u
    for sigma in (1.05, 1.4, 2.2):
        direct = _q_dr(ex3_returns, sigma) - _q_ef(ex3_returns, sigma)
        assert _gap(ex3_returns, sigma) == pytest.approx(direct, abs=1e-10)
        u = np.sqrt(sigma * sigma - 1.0)
        assert _gap(ex3_returns, sigma) / u == pytest.approx(
            0.5 * (RHO3 - M3), rel=1e-10
        )


def test_gap_vanishes_for_proportional_returns():
    rng = np.random.default_rng(101)
    u = random_universe(rng, 6)
    prop = drf.validate_universe(u.cov, expected_returns=0.2 * u.variances)
    p = drf.frontier_params(prop)
    for factor in (1.0, 1.3, 2.0, 3.0):
        sigma = p.sigma_mvp * factor
        assert _gap(prop, sigma) == pytest.approx(0.0, abs=1e-10)
        q_dr = _q_dr(prop, sigma)
        q_ef = _q_ef(prop, sigma)
        assert q_dr == pytest.approx(q_ef, abs=1e-10)


def test_concavity_of_closed_forms(ex3_returns):
    p = drf.frontier_params(ex3_returns)
    sigmas = np.linspace(p.sigma_mvp * 1.001, 3.0 * p.sigma_mdrp, 400)
    q_dr = np.array([_q_dr(ex3_returns, s) for s in sigmas])
    q_ef = np.array([_q_ef(ex3_returns, s) for s in sigmas])
    assert np.all(second_divided(sigmas, q_dr) < 0.0)
    assert np.all(second_divided(sigmas, q_ef) < 0.0)


def _negative_slope_universe():
    # returns anti-aligned with variances: the mean-variance DR curve only
    # falls as risk grows
    return drf.validate_universe(V3, expected_returns=1.0 - np.diag(V3))


def test_strictly_decreasing_shape():
    u = _negative_slope_universe()
    p = drf.frontier_params(u)
    assert p.ef_shape is EfShape.STRICTLY_DECREASING
    assert p.eta_wo == pytest.approx(-RHO3, rel=1e-10)
    assert drf.inflection_report(u)["tau_o_formula"] is not None
    sigmas = np.linspace(p.sigma_mvp * 1.0001, 3.0 * p.sigma_mdrp, 300)
    values = np.array([_q_ef(u, s) for s in sigmas])
    assert np.all(np.diff(values) < 0.0)


def test_inflection_empirical_location():
    # the report gives the true curvature change of
    # q(sigma) = -(u - m/2)^2 / 2 + ..., which sits at u^3 = |m| sigma_mvp^2 / 2
    u = _negative_slope_universe()
    report = drf.inflection_report(u)
    star = np.sqrt(1.0 + (RHO3 / 2.0) ** (2.0 / 3.0))
    assert report["shape"] == "strictly_decreasing"
    assert report["inflection_empirical"] == pytest.approx(star, abs=1e-12)
    # the paper's tau_o = sigma_mvp sqrt(1 + |m|^(4/3) / sigma_mvp^(2/3)), sigma_mvp = 1
    assert report["tau_o_formula"] == pytest.approx(np.sqrt(1.0 + RHO3 ** (4.0 / 3.0)), rel=1e-12)
    assert report["abs_gap"] is not None
    # the reported closed-form scale is not the curvature root here; the
    # report keeps both visible
    assert report["abs_gap"] > 0.1


def test_swept_inflection_finds_the_exact_root():
    # a second-difference locator on a 1600-point sweep lands on the root
    u = _negative_slope_universe()
    root = drf.inflection_report(u)["inflection_empirical"]
    assert swept_inflection(u, points=1600) == pytest.approx(root, abs=5e-3)


def test_inflection_root_is_the_curvature_sign_change():
    # on random universes with m < 0 the closed-form root separates convex
    # from concave second differences of q_ef
    rng = np.random.default_rng(61)
    found = 0
    for _ in range(40):
        u = random_universe(rng, int(rng.integers(2, 8)), with_returns=True)
        p = drf.frontier_params(u)
        report = drf.inflection_report(u)
        if p.eta_wo >= 0.0:
            assert report["inflection_empirical"] is None
            continue
        found += 1
        root = report["inflection_empirical"]
        for side, sign in ((0.99, 1.0), (1.01, -1.0)):
            sigmas = root * side * np.array([0.9999, 1.0, 1.0001])
            if sigmas[0] <= p.sigma_mvp:
                continue
            q = [_q_ef(u, s) for s in sigmas]
            assert sign * second_divided(sigmas, q)[0] > 0.0
    assert found > 0


def _one_point_readers(u):
    """(kind, reader, exact) for the one-point readers of a universe: point of
    every kind, read by its value, which is the kind's sweep row bit for bit
    (exact), and max_linear_over_ellipsoid of eta, whose weights are the
    efficient_dr row's within the solve's rounding."""
    readers = [(k, lambda s, k=k: drf.point(u, k.value, s), True) for k in FrontierKind]
    eta = (lambda s: drf.max_linear_over_ellipsoid(u, u.variances, s), False)
    return readers + [(FrontierKind.EFFICIENT_DR, *eta)]


def _outcome(call):
    """call(), or the type of the DrFrontierError it raises."""
    try:
        return call()
    except DrFrontierError as exc:
        return type(exc)


def _assert_readers_are_sweep_rows(u, sigmas):
    for kind, reader, exact in _one_point_readers(u):
        for sigma in sigmas:
            got = _outcome(lambda: reader(sigma))
            curve = _outcome(lambda: drf.sweep(u, kind, [sigma], include_weights=True))
            if isinstance(curve, type):
                # a grid (ParseError) or curve the sweep refuses, the reader refuses
                assert got is curve, (kind, sigma, got, curve)
                continue
            (row,) = curve.rows
            if row.status == "risk_below_mvp":
                assert got is RiskBelowMvpError, (kind, sigma, got)
            elif exact:
                for f in dataclasses.fields(row):
                    a, b = getattr(got, f.name), getattr(row, f.name)
                    assert np.array_equal(a, b), (kind, sigma, f.name)
            else:
                atol = 1e-12 * float(np.abs(row.weights).max())
                np.testing.assert_allclose(got.weights, row.weights, rtol=0, atol=atol)


def test_curves_at_sigma_mvp_are_their_u0_values(ex3, universe30, identity3):
    # sigma_mvp squared can round a few ulps above sigma_mvp^2; the snap
    # keeps that from turning into u ~ 1e-8 sigma_mvp, and squaring by
    # multiplication makes the u = 0 value q_mvp exactly.  Every point is
    # its kind's one-point sweep row bit for bit, and refuses a sigma
    # exactly where the sweep flags risk_below_mvp or raises ParseError
    rng = np.random.default_rng(0)
    for i in range(2000):
        n = int(rng.integers(2, 8))
        A = rng.normal(size=(n, n))
        V = A @ A.T + 0.1 * np.eye(n)
        rbar = rng.uniform(0.01, 0.2, n)
        w_mvp = np.linalg.solve(V, np.ones(n))
        # a risk-free rate below the minimum-variance return: both cash curves
        r0 = float(rbar @ w_mvp / w_mvp.sum()) - 0.05
        u = drf.validate_universe(V, expected_returns=rbar, risk_free_rate=r0)
        p = drf.frontier_params(u)
        assert _q_dr(u, p.sigma_mvp) == p.q_mvp
        ef = drf.point(u, "mv_efficient_dr", p.sigma_mvp)
        assert ef.q == p.q_mvp
        np.testing.assert_array_equal(ef.weights, u.solver.w_mvp)
        sigma = 1.5 * p.sigma_mvp
        for kind in (FrontierKind.EFFICIENT_DR, FrontierKind.MV_EFFICIENT_DR):
            at_mvp, row = drf.sweep(u, kind, [p.sigma_mvp, sigma]).rows
            assert at_mvp.status == "ok" and at_mvp.alpha == 0.0
            assert at_mvp.q == p.q_mvp
            # the point and the sweep route agree bit for bit
            assert row.q == drf.point(u, kind, sigma).q
        if i % 10 == 0:
            _assert_readers_are_sweep_rows(u, [p.sigma_mvp, sigma])
    for u in (ex3, universe30, identity3):
        p = drf.frontier_params(u)
        sigmas = [p.sigma_mvp, p.sigma_mvp * (1.0 - 1e-14), 1.5 * p.sigma_mvp, 4.0 * p.sigma_mdrp]
        sigmas += [0.5 * p.sigma_mvp, -1.0, np.nan, np.inf, "x", "1.2", None]
        if u is not identity3:
            # the ratio-maximizing portfolio's own risk
            sigmas.append(drf.mdp_global(u).sigma)
        _assert_readers_are_sweep_rows(u, sigmas)


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8])
def test_sigma_mvp_is_on_the_frontier_at_every_variance_scale(scale):
    # sigma_mvp * sigma_mvp can round an ulp below sigma_mvp^2, and from
    # variances near 1e4 one ulp exceeds 1e-12: the snap band is relative
    rng = np.random.default_rng(41)
    for _ in range(200):
        A = rng.normal(size=(4, 4))
        u = drf.validate_universe((A @ A.T + 4.0 * np.eye(4)) * scale)
        p = drf.frontier_params(u)
        for sigma in (p.sigma_mvp, p.sigma_mvp * (1.0 - 1e-14)):
            assert _q_dr(u, sigma) == p.q_mvp
            w = drf.point(u, "mdp_at_sigma", sigma).weights
            np.testing.assert_array_equal(w, u.solver.w_mvp)
        with pytest.raises(RiskBelowMvpError):
            _q_dr(u, 0.9 * p.sigma_mvp)
        with pytest.raises(RiskBelowMvpError):
            drf.point(u, "mdp_at_sigma", 0.9 * p.sigma_mvp)


def test_inflection_absent_when_concave(ex3_returns):
    report = drf.inflection_report(ex3_returns)
    assert report["shape"] == "strongly_concave"
    assert report["tau_o_formula"] is None
    assert report["inflection_empirical"] is None


def test_locate_inflection_on_synthetic_cubic():
    xs = np.linspace(0.0, 2.0, 400)
    ys = (xs - 1.3) ** 3
    found = locate_inflection(xs, ys)
    assert found == pytest.approx(1.3, abs=1e-6)
    assert locate_inflection(xs, xs**2) is None


def _gain(u, kind):
    """The gain eta' x of a cash kind's unit-risk sleeve x: its DR is
    sigma (gain - sigma) / 2, which peaks at sigma = gain / 2."""
    return _ray(u, FrontierKind(kind)).m


def test_cml_curve_three_asset(ex3_returns):
    gain = _gain(ex3_returns, "cml")
    peak_sigma = 0.5 * gain
    eta_wt = 615.0 / 189.0
    sigma_t = np.sqrt(29.0 / 21.0)
    assert gain == pytest.approx(eta_wt / sigma_t, rel=1e-12)
    assert peak_sigma == pytest.approx(0.5 * eta_wt / sigma_t, rel=1e-12)
    eps = 1e-4
    sigmas = [0.0, peak_sigma, peak_sigma - eps, peak_sigma + eps, sigma_t]
    at_zero, at_peak, before, after, at_t = drf.sweep(ex3_returns, FrontierKind.CML, sigmas).rows
    # the cml row's alpha is the risky fraction
    assert at_peak.alpha == pytest.approx(eta_wt / (2.0 * 29.0 / 21.0), rel=1e-12)
    assert at_zero.q == 0.0
    # peak value and location
    assert at_peak.q == pytest.approx(gain**2 / 8.0, rel=1e-12)
    assert before.q < at_peak.q
    assert after.q < at_peak.q
    # at the tangency risk the line is fully invested, so the DR is the
    # plain diversification return of the tangency portfolio
    q_t = drf.diversification_return(ex3_returns, drf.tangent_portfolio(ex3_returns).weights)
    assert at_t.q == pytest.approx(q_t, rel=1e-10)
    with pytest.raises(RiskBelowMvpError):
        drf.point(ex3_returns, "cml", -0.5)


def test_cml_matches_blockwise_oracle(ex3_returns):
    tangent = drf.tangent_portfolio(ex3_returns)
    for mix in (0.0, 0.25, 0.6, 1.0, 1.7):
        sigma = mix * tangent.sigma
        ref = block_riskfree_dr(
            ex3_returns.cov,
            ex3_returns.variances,
            mix * tangent.weights,
            1.0 - mix,
        )
        assert drf.point(ex3_returns, "cml", sigma).q == pytest.approx(ref, abs=1e-10)


def _with_cash(u):
    """u with a risk-free rate, which the rows of both cash curves need."""
    return dataclasses.replace(u, risk_free_rate=0.01)


def _q_cash(u, kind, sigma):
    """q of a cash kind's point."""
    return drf.point(u, kind, sigma).q


def test_riskfree_curve_three_asset(ex3):
    gain = _gain(_with_cash(ex3), "efficient_dr_riskfree")
    assert gain**2 == pytest.approx(649.0 / 81.0, rel=1e-12)
    # the cheapest sleeve with unit weighted-average variance has risk 1 / gain
    cheapest, row = drf.sweep(
        _with_cash(ex3), FrontierKind.EFFICIENT_DR_RISKFREE, [1.0 / gain, 1.2],
        include_weights=True,
    ).rows
    assert float(ex3.variances @ cheapest.weights) == pytest.approx(1.0, rel=1e-12)
    w, cash = row.weights, row.cash
    assert float(w @ ex3.cov @ w) == pytest.approx(1.44, rel=1e-10)
    assert cash == pytest.approx(1.0 - w.sum(), abs=1e-12)
    ref = block_riskfree_dr(ex3.cov, ex3.variances, w, cash)
    assert row.q == pytest.approx(ref, abs=1e-10)


def test_riskfree_beats_cml(ex3_returns):
    # dropping the full-investment constraint can only help
    assert _gain(ex3_returns, "efficient_dr_riskfree") >= _gain(ex3_returns, "cml") - 1e-12
    for sigma in (0.2, 0.8, 1.5, 3.0):
        rf = _q_cash(ex3_returns, "efficient_dr_riskfree", sigma)
        assert rf >= _q_cash(ex3_returns, "cml", sigma) - 1e-12


def test_riskfree_optimality_by_sampling(ex3):
    # no risky sleeve of the same risk has a larger weighted-average variance
    sigmas = (0.5, 1.0, 2.0)
    rows = drf.sweep(
        _with_cash(ex3), FrontierKind.EFFICIENT_DR_RISKFREE, sigmas, include_weights=True
    ).rows
    rng = np.random.default_rng(103)
    L = np.linalg.cholesky(np.array(ex3.cov))
    for sigma, row in zip(sigmas, rows):
        w_star = row.weights
        best = float(ex3.variances @ w_star)
        z = rng.normal(0.0, 1.0, (5_000, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        W = sigma * np.linalg.solve(L.T, z.T).T
        vals = W @ ex3.variances
        assert float(vals.max()) <= best + 1e-9


@pytest.mark.parametrize("kind", [FrontierKind.CML, FrontierKind.EFFICIENT_DR_RISKFREE])
def test_cash_rays_start_at_all_cash(ex3_returns, kind):
    # u is sigma itself on a cash ray: sqrt(sigma * sigma) would underflow
    # to 0 below about 1.5e-154 and lose the 1e-200 row
    gain = _gain(ex3_returns, kind)
    sigmas = [0.0, 1e-200, 1e-12, 1e-6]
    rows = drf.sweep(ex3_returns, kind, sigmas, include_weights=True).rows
    assert rows[0].q == 0.0
    assert rows[0].ret == R0_3 and rows[0].cash == 1.0
    np.testing.assert_array_equal(rows[0].weights, np.zeros(3))
    for sigma, row in zip(sigmas, rows):
        assert row.status == "ok" and row.centrality is None
        want = 0.5 * sigma * (gain - sigma)
        assert abs(row.q - want) <= 4.0 * np.spacing(want), sigma
    assert rows[1].q > 0.0
    # a negative sigma is below the all-cash base risk 0, not below sigma_mvp
    with pytest.raises(RiskBelowMvpError, match=r"below all-cash risk 0$"):
        _q_cash(ex3_returns, kind, -1.0)


def test_cml_collapses_when_variances_track_excess_returns():
    rng = np.random.default_rng(107)
    base = random_universe(rng, 5)
    r0 = 0.02
    rbar = base.variances / 4.0 + r0
    u = drf.validate_universe(base.cov, expected_returns=rbar, risk_free_rate=r0)
    assert _gain(u, "cml") == pytest.approx(_gain(u, "efficient_dr_riskfree"), rel=1e-10)
    for sigma in (0.1, 0.5, 1.0, 2.0):
        assert _q_cash(u, "cml", sigma) == pytest.approx(
            _q_cash(u, "efficient_dr_riskfree", sigma), abs=1e-10
        )


def test_default_sigma_grid(ex3):
    p = drf.frontier_params(ex3)
    grid = drf.default_sigma_grid(p)
    assert len(grid) == 200
    assert np.all(np.diff(grid) > 0.0)
    assert grid[0] > p.sigma_mvp
    assert grid[0] < p.sigma_mvp * 1.000001
    # endpoint in excess-variance terms: u^2 runs out to (3 sigma_mdrp)^2
    assert grid[-1] ** 2 - p.sigma2_mvp == pytest.approx(
        (3.0 * p.sigma_mdrp) ** 2, rel=1e-12
    )
    assert grid[-1] >= 3.0 * p.sigma_mdrp


def test_sweep_efficient_dr(ex3):
    emb = drf.embed(ex3)
    curve = drf.sweep(ex3, FrontierKind.EFFICIENT_DR, embedding=emb)
    assert all(r.status == "ok" for r in curve.rows)
    qs = np.array([r.q for r in curve.rows])
    sigmas = np.array([r.sigma for r in curve.rows])
    peak = int(np.argmax(qs))
    # grid points straddle the exact peak; test_q_dr_values pins the exact value
    assert qs[peak] == pytest.approx(1.0, abs=1e-3)
    assert sigmas[peak] == pytest.approx(np.sqrt(17.0 / 9.0), rel=2e-2)
    # rises to the peak, falls after it
    assert np.all(np.diff(qs[: peak + 1]) > 0.0)
    assert np.all(np.diff(qs[peak:]) < 0.0)
    # centrality and DR stay Pythagoras-consistent along the sweep
    cs = np.array([r.centrality for r in curve.rows])
    np.testing.assert_allclose(cs * cs + qs, 1.0, atol=1e-8)
    assert all(r.ret is None for r in curve.rows)


def test_sweep_flags_risk_below_mvp(ex3):
    curve = drf.sweep(ex3, FrontierKind.EFFICIENT_DR, sigma_grid=[0.5, 0.9, 1.1])
    statuses = [r.status for r in curve.rows]
    assert statuses == ["risk_below_mvp", "risk_below_mvp", "ok"]
    flagged = curve.rows[0]
    assert flagged.sigma == 0.5
    assert (flagged.q, flagged.ret, flagged.centrality, flagged.alpha) == (None,) * 4


def test_sweep_mv_kinds_match(ex3_returns):
    grid = [1.05, 1.3, 1.9]
    a = drf.sweep(ex3_returns, FrontierKind.MV_EFFICIENT_DR, sigma_grid=grid)
    b = drf.sweep(ex3_returns, FrontierKind.MV_MEAN_RETURN, sigma_grid=grid)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.q == pytest.approx(rb.q, abs=1e-15)
        assert ra.ret == pytest.approx(rb.ret, abs=1e-15)
    # mean return rises along the efficient branch
    rets = [r.ret for r in a.rows]
    assert rets == sorted(rets)


def test_sweep_requires_returns(ex3):
    with pytest.raises(MissingReturnsError):
        drf.sweep(ex3, FrontierKind.MV_EFFICIENT_DR)
    with pytest.raises(MissingReturnsError):
        drf.sweep(ex3, FrontierKind.CML)
    # both cash curves need a risk-free rate, and are refused alike without one
    no_rate = dataclasses.replace(ex3, expected_returns=RBAR3)
    for kind in (FrontierKind.CML, FrontierKind.EFFICIENT_DR_RISKFREE):
        with pytest.raises(MissingReturnsError, match="risk-free rate"):
            drf.sweep(no_rate, kind)
        with pytest.raises(MissingReturnsError, match="risk-free rate"):
            _q_cash(no_rate, kind, 1.0)


def test_sweep_cml_infeasible_rate():
    u = drf.validate_universe(V3, expected_returns=RBAR3, risk_free_rate=0.5)
    with pytest.raises(TangencyInfeasibleError):
        drf.sweep(u, FrontierKind.CML)


def test_sweep_mdp_degenerate_for_equal_variances(identity3):
    curve = drf.sweep(identity3, FrontierKind.MDP_AT_SIGMA, sigma_grid=[0.7, 1.0])
    assert all(r.status == "degenerate" for r in curve.rows)
    for r in curve.rows:
        assert r.q == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_sweep_mdp_tracks_engine(ex3):
    grid = [1.01, 1.2, 1.5]
    curve = drf.sweep(ex3, FrontierKind.MDP_AT_SIGMA, sigma_grid=grid, include_weights=True)
    root_eta = np.sqrt(ex3.variances)
    for r in curve.rows:
        sol = drf.max_linear_over_ellipsoid(ex3, root_eta, r.sigma)
        np.testing.assert_allclose(r.weights, sol.weights, atol=1e-12)
        assert r.q == pytest.approx(
            drf.diversification_return(ex3, sol.weights), abs=1e-12
        )


def test_sweep_includes_weights_and_cash(ex3_returns):
    curve = drf.sweep(
        ex3_returns, FrontierKind.CML, sigma_grid=[0.5, 1.0], include_weights=True
    )
    for r in curve.rows:
        assert r.weights is not None
        assert r.cash == pytest.approx(1.0 - r.weights.sum(), abs=1e-12)
    plain = drf.sweep(ex3_returns, FrontierKind.EFFICIENT_DR, sigma_grid=[1.1])
    assert plain.rows[0].weights is None


def test_sweep_deterministic(ex3_returns):
    a, b = (drf.sweep(ex3_returns, FrontierKind.EFFICIENT_DR).rows for _ in range(2))
    fields = ("sigma", "q", "ret", "centrality", "alpha", "status")
    assert all(getattr(ra, f) == getattr(rb, f) for ra, rb in zip(a, b) for f in fields)
    assert len(a) == len(b)


def test_sigma_q_bound_for_concave_shapes():
    # the Q portfolio never needs more risk than the maximum-DR portfolio
    rng = np.random.default_rng(109)
    checked = 0
    for _ in range(40):
        u = random_universe(rng, int(rng.integers(2, 10)), with_returns=True)
        p = drf.frontier_params(u)
        if p.eta_wo is None:
            continue
        sigma2_q = p.sigma2_mvp + p.eta_wo**2 / 4.0
        assert sigma2_q <= p.sigma2_mdrp + 1e-10
        checked += 1
    assert checked > 20


@pytest.mark.parametrize(
    "call",
    [
        lambda u, s: _q_dr(u, s),
        lambda u, s: _q_ef(u, s),
        lambda u, s: _gap(u, s),
        lambda u, s: drf.point(u, "efficient_dr", s).weights,
        lambda u, s: drf.point(u, "mdp_at_sigma", s).weights,
    ],
    # each id names the quantity read: q_dr and q_ef, their gap, and the
    # weights of the DR-efficient and the ratio-maximizing portfolios
    ids=["q_dr_at", "q_ef_at", "dr_gap_at", "efficient_dr_portfolio", "mdp_at_sigma"],
)
def test_a_negative_sigma_is_below_the_frontier(ex3_returns, call):
    # sigma^2 is the same at -1.2 and 1.2; only the latter is a risk level
    call(ex3_returns, 1.2)
    for sigma in (-1.2, -ex3_returns.solver.sigma_mvp):
        with pytest.raises(RiskBelowMvpError):
            call(ex3_returns, sigma)


@pytest.mark.parametrize(
    "kind",
    [
        FrontierKind.EFFICIENT_DR,
        FrontierKind.MV_EFFICIENT_DR,
        FrontierKind.MV_MEAN_RETURN,
        FrontierKind.MDP_AT_SIGMA,
    ],
)
def test_sweeps_flag_a_negative_sigma(ex3_returns, kind):
    sigma_mvp = drf.frontier_params(ex3_returns).sigma_mvp
    grid = [-1.2, 1.2, -sigma_mvp, sigma_mvp]
    curve = drf.sweep(ex3_returns, kind, grid, include_weights=True)
    assert [r.status for r in curve.rows] == ["risk_below_mvp", "ok"] * 2
    for row in curve.rows[::2]:
        assert (row.q, row.centrality, row.weights) == (None, None, None)
    assert [r.sigma for r in curve.rows] == grid
