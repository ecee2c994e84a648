import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier import model
from drfrontier.errors import (
    AsymmetricError,
    BudgetViolationError,
    DimensionMismatchError,
    NonSquareError,
    NotPSDError,
    ParseError,
    SingularCovarianceError,
    SingularDistanceError,
)
from drfrontier.model import BUDGET_ATOL, PSD_RTOL, PYTHAGORAS_ATOL

from .conftest import R0_3, RBAR3, V3
from .oracles import (
    MDRP_AGREEMENT_ATOL,
    SINGULAR_KINDS,
    centre_at_digits,
    centred_rhs,
    conditioned_universe,
    distance_route,
    forward_error,
    lu_route,
    random_universe,
    singular_cov,
    with_spectrum,
)

# Residual of a kernel image within this multiple of n eps |V| |x| (inf norms);
# about 0.6 is the worst seen on conditioned universes up to cond 1e9.
KERNEL_RESIDUAL_C = 4.0


def test_dr_two_asset_split():
    # one riskless and two identical risky assets, half in cash
    u = drf.validate_universe(np.diag([0.0, 1.0, 1.0]))
    w = np.array([0.5, 0.25, 0.25])
    assert drf.diversification_return(u, w) == pytest.approx(3.0 / 16.0, abs=1e-15)


def test_dr_two_asset_merged():
    # merging the two identical risky sleeves halves their variance share
    u = drf.validate_universe(np.diag([0.0, 0.5]))
    w = np.array([0.5, 0.5])
    assert drf.diversification_return(u, w) == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_dr_uniform_three_asset(ex3):
    w = np.full(3, 1.0 / 3.0)
    assert drf.diversification_return(ex3, w) == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_dr_single_asset_portfolio_is_zero():
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = random_universe(rng, 6)
        for i in range(u.n):
            w = np.zeros(u.n)
            w[i] = 1.0
            assert abs(drf.diversification_return(u, w)) < 1e-14


def test_dr_matches_distance_quadratic_form():
    # 0.5 (eta'w - w'Vw) == 0.5 w'Dw with D_ij = (eta_i + eta_j)/2 - V_ij
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = random_universe(rng, rng.integers(2, 9))
        n = u.n
        D = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                D[i, j] = 0.5 * (u.variances[i] + u.variances[j]) - u.cov[i, j]
        for _ in range(100):
            v = rng.normal(0.0, 1.0, n)
            w = np.full(n, 1.0 / n) + (v - v.mean())
            direct = 0.5 * float(u.variances @ w - w @ u.cov @ w)
            via_d = 0.5 * float(w @ D @ w)
            assert direct == pytest.approx(via_d, abs=1e-10)


def test_validate_universe_basic(ex3):
    assert ex3.n == 3
    assert ex3.nonsingular
    np.testing.assert_allclose(ex3.variances, [11.0 / 9.0, 23.0 / 9.0, 23.0 / 9.0])
    assert ex3.names == ("a", "b", "c")


def test_validate_universe_rejects_non_square():
    with pytest.raises(NonSquareError):
        drf.validate_universe(np.ones((3, 2)))


def test_validate_universe_rejects_single_asset():
    with pytest.raises(DimensionMismatchError):
        drf.validate_universe(np.array([[1.0]]))


def test_validate_universe_rejects_indefinite():
    with pytest.raises(NotPSDError):
        drf.validate_universe(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_validate_universe_rejects_gross_asymmetry():
    V = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(AsymmetricError):
        drf.validate_universe(V)


def test_validate_universe_symmetrizes_roundoff():
    V = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
    u = drf.validate_universe(V)
    np.testing.assert_array_equal(u.cov, u.cov.T)


def _skewed(V):
    # an ulp-scale asymmetry, within SYMMETRY_RTOL
    V = V.copy()
    V[0, 1] += 1e-15 * abs(V[0, 1])
    assert V[0, 1] != V[1, 0]
    return V


@pytest.mark.parametrize(
    "route, cov",
    [
        ("certificate", random_universe(np.random.default_rng(3), 12).cov),
        ("certificate", _skewed(random_universe(np.random.default_rng(3), 12).cov)),
        ("certificate", np.asfortranarray(random_universe(np.random.default_rng(3), 12).cov)),
        ("eigenvalues", with_spectrum([1.0, 0.5, 0.0])),
        ("clamp", with_spectrum([1.0, 0.5, -1e-12])),
    ],
    ids=["certificate", "certificate-asymmetric", "certificate-fortran", "eigenvalues", "clamp"],
)
@pytest.mark.parametrize("writeable", [True, False])
def test_validate_universe_factors_a_private_copy(route, cov, writeable):
    # the certificate shifts and factors one private copy of V, restores its
    # diagonal and keeps it as cov: the caller's array is never written
    V = np.array(cov, order="K")
    V.setflags(write=writeable)
    before = V.tobytes(order="A")
    u = drf.validate_universe(V)
    assert V.tobytes(order="A") == before and V.flags.writeable == writeable
    assert not u.cov.flags.writeable and u.cov is not V
    assert (u.factor is not None) == (route == "certificate")
    assert u.nonsingular == (route == "certificate")
    np.testing.assert_array_equal(u.variances, np.diag(u.cov))
    if route == "clamp":
        assert np.linalg.eigvalsh(u.cov)[0] > -1e-15
        return
    sym = V if np.array_equal(V, V.T) else 0.5 * (V + V.T)
    assert u.cov.tobytes() == sym.tobytes()
    if route == "certificate":
        # the factor of V - delta I, delta as in _certified_nonsingular
        n, eps = V.shape[0], float(np.finfo(float).eps)
        delta = PSD_RTOL * float(np.linalg.norm(sym, np.inf)) + 4 * (n + 1) * eps * float(
            np.trace(sym)
        )
        expected = model._shifted_cholesky(np.array(sym), -delta)
        assert u.factor.tobytes() == expected.tobytes()
        assert not u.factor.flags.writeable


def test_validate_universe_singular_flag(degenerate3):
    assert not degenerate3.nonsingular


def test_validate_universe_mismatched_names():
    with pytest.raises(DimensionMismatchError):
        drf.validate_universe(np.eye(3), names=("a", "b"))


@pytest.mark.parametrize("names", [5, "abc", {"a": 1, "b": 2, "c": 3}])
def test_validate_universe_rejects_names_that_are_not_a_sequence(names):
    # a string is not split into one name per character
    with pytest.raises(ParseError, match="names"):
        drf.validate_universe(np.eye(3), names=names)
    assert drf.validate_universe(np.eye(3), names=["a", "b", "c"]).names == ("a", "b", "c")


def test_validate_universe_rejects_a_name_holding_a_carriage_return():
    # csv.writer quotes a name holding "\n" but not one holding "\r"
    with pytest.raises(ParseError, match="carriage return"):
        drf.validate_universe(np.eye(3), names=["a\rb", "c", "d"])
    assert drf.validate_universe(np.eye(3), names=["a\nb", "c", "d"]).names[0] == "a\nb"


def test_validate_universe_mismatched_returns():
    with pytest.raises(DimensionMismatchError):
        drf.validate_universe(np.eye(3), expected_returns=np.array([0.1, 0.2]))


def test_check_budget_tolerance():
    drf.check_budget(np.array([0.5, 0.5 + 9e-11]))
    for w in ([0.5, 0.5 + 1e-6], [0.5, 0.5 + 2e-10]):
        with pytest.raises(BudgetViolationError, match=r"outside 1 \+/- 1e-10"):
            drf.check_budget(np.array(w))
    # levered weights are held to their sum's rounding, 4 n eps sum|w_i|:
    # a miss of 1e-6 is far past it
    w = np.array([1e7, -1e7 + 1 + 1e-6])
    tol = 4 * 2 * np.finfo(float).eps * 2e7
    with pytest.raises(BudgetViolationError, match=f"outside 1 \\+/- {tol:.3g}"):
        drf.check_budget(w)
    # the budget projection of levered weights, on budget but for rounding
    # that no sum can resolve to BUDGET_ATOL
    x = np.random.default_rng(0).normal(size=8) * 1e7
    w = x - (x.sum() - 1.0) / 8
    assert abs(w.sum() - 1.0) > BUDGET_ATOL
    drf.check_budget(w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_universe_reads_expected_returns_as_finite(bad):
    # one reader for rbar, r0 and sigma: a non-finite entry is a ParseError
    with pytest.raises(ParseError, match="expected_returns"):
        drf.validate_universe(np.eye(3), expected_returns=[0.1, bad, 0.2])


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, -np.inf], [np.inf, 1.0]])
def test_check_budget_rejects_a_non_finite_sum(weights):
    with pytest.raises(BudgetViolationError):
        drf.check_budget(np.array(weights))


@pytest.mark.parametrize("r0", [np.nan, np.inf, -np.inf, "abc", [0.01]])
def test_validate_universe_rejects_a_bad_risk_free_rate(r0):
    with pytest.raises(ParseError):
        drf.validate_universe(np.eye(3), risk_free_rate=r0)


@pytest.mark.parametrize("r0", [np.nan, -np.inf, "abc"])
def test_replacing_the_risk_free_rate_checks_it(ex3_returns, r0):
    # the panel route sets the rate on a validated universe this way
    with pytest.raises(ParseError):
        dataclasses.replace(ex3_returns, risk_free_rate=r0)
    u = dataclasses.replace(ex3_returns, risk_free_rate=np.float32(0.02))
    assert type(u.risk_free_rate) is float and u.risk_free_rate == pytest.approx(0.02)
    assert u.cov is ex3_returns.cov


def test_validate_universe_rejects_non_numeric_input():
    with pytest.raises(ParseError, match="covariance"):
        drf.validate_universe([["a", 0.0], [0.0, 1.0]])
    with pytest.raises(ParseError, match="covariance"):
        drf.validate_universe([[1.0, 0.0], [0.0]])
    with pytest.raises(ParseError, match="expected_returns"):
        drf.validate_universe(np.eye(2), expected_returns=["x", 0.1])


TEXT3 = ["a", "b", "c"]


def _cash(u):
    return drf.validate_universe(u.cov, expected_returns=RBAR3, risk_free_rate=R0_3)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda u: drf.assert_edm(np.zeros((0, 0))), DimensionMismatchError),
        (lambda u: drf.d_max_bounds(np.zeros((0, 0))), DimensionMismatchError),
        (lambda u: drf.assert_edm([["a"]]), ParseError),
        (lambda u: drf.d_max_bounds([["a"]]), ParseError),
        (lambda u: drf.check_budget(TEXT3), ParseError),
        (lambda u: drf.portfolio_stats(u, TEXT3), ParseError),
        (lambda u: drf.diversification_return(u, TEXT3), ParseError),
        (lambda u: drf.norm_dr_bound(drf.embed(u), [TEXT3] * 3, 1.0), ParseError),
        (lambda u: drf.max_linear_over_ellipsoid(u, TEXT3, 1.2), ParseError),
        (lambda u: drf.sweep(u, "efficient_dr", sigma_grid=["x", 1.2]), ParseError),
        (lambda u: drf.sweep(u, "cml", 1.5), DimensionMismatchError),
        (lambda u: drf.sweep(u, "efficient_dr", [[1.5, 2.0]]), DimensionMismatchError),
        (lambda u: drf.sweep(u, "efficient_dr", [1.5, np.nan]), ParseError),
        (lambda u: drf.sweep(u, "efficient_dr", [np.inf]), ParseError),
        (lambda u: drf.sweep(u, "mdp_at_sigma", [-np.inf, 1.5]), ParseError),
        (lambda u: drf.point(u, "efficient_dr", np.nan), ParseError),
        (lambda u: drf.point(u, drf.FrontierKind.EFFICIENT_DR, np.inf), ParseError),
        (lambda u: drf.point(u, "mdp_at_sigma", np.nan), ParseError),
        (lambda u: drf.max_linear_over_ellipsoid(u, [1.0, 2.0, 3.0], -np.inf), ParseError),
        (lambda u: drf.point(_cash(u), "cml", np.nan), ParseError),
        (lambda u: drf.point(_cash(u), "efficient_dr_riskfree", np.inf), ParseError),
        (lambda u: drf.sweep(_cash(u), "cml", [np.nan], include_weights=True), ParseError),
        (lambda u: drf.sweep(_cash(u), "efficient_dr_riskfree", [0.5, -np.inf]), ParseError),
        (lambda u: drf.sandwich_check(u, None), ParseError),
        (lambda u: drf.sandwich_check(u, "x"), ParseError),
        (lambda u: drf.sandwich_check(u, np.array([1.2, 1.3])), ParseError),
        (lambda u: drf.point(_cash(u), "cml", [1.2, 1.3]), ParseError),
        (lambda u: drf.point(_cash(u), "efficient_dr_riskfree", None), ParseError),
        (lambda u: drf.sweep(_cash(u), "cml", [None], include_weights=True), ParseError),
        (lambda u: drf.point(u, "mdp_at_sigma", None), ParseError),
        (lambda u: drf.point(u, "efficient_dr", np.array([1.2, 1.3])), ParseError),
        (lambda u: drf.sweep(_cash(u), "efficient_dr_riskfree", [None]), ParseError),
        (lambda u: drf.sweep(_cash(u), "cml", [None]), ParseError),
        (lambda u: drf.sweep(_cash(u), "cml", ["x"]), ParseError),
        (lambda u: drf.sweep(_cash(u), "cml", [np.nan]), ParseError),
        (lambda u: drf.sweep(_cash(u), "cml", [-np.inf]), ParseError),
        (lambda u: drf.norm_dr_bound(drf.embed(u), np.eye(3), None), ParseError),
        (lambda u: drf.norm_dr_bound(drf.embed(u), np.eye(3), np.array([1.0, 2.0])), ParseError),
        (lambda u: drf.norm_dr_bound(drf.embed(u), np.eye(3), "x"), ParseError),
        (lambda u: drf.norm_dr_bound(drf.embed(u), np.eye(3), np.inf), ParseError),
        (lambda u: drf.portfolio_stats(u, [0.5, 0.5]), DimensionMismatchError),
        (lambda u: drf.diversification_return(u, [0.25] * 4), DimensionMismatchError),
    ],
    ids=[
        "assert_edm-empty", "d_max_bounds-empty", "assert_edm-text",
        "d_max_bounds-text", "check_budget", "portfolio_stats",
        "diversification_return", "norm_dr_bound",
        "max_linear_over_ellipsoid", "sweep", "sweep-scalar", "sweep-2d",
        "sweep-nan", "sweep-inf", "sweep-minus-inf", "q_dr_at-nan",
        "efficient_dr_portfolio-inf", "mdp_at_sigma-nan",
        "max_linear_over_ellipsoid-minus-inf", "q_cml_at-nan",
        "q_dr_riskfree_at-inf", "risky_weights-nan", "cash-value-minus-inf",
        "sandwich_check-none", "sandwich_check-text", "sandwich_check-array",
        "q_cml_at-list", "q_dr_riskfree_at-none", "risky_weights-none",
        "mdp_at_sigma-none", "q_dr_at-array", "cash-value-none",
        "mix-none", "mix-text", "mix-nan", "mix-minus-inf", "norm_dr_bound-tau-none",
        "norm_dr_bound-tau-array", "norm_dr_bound-tau-text", "norm_dr_bound-tau-inf",
        "portfolio_stats-length", "diversification_return-length",
    ],
)
def test_library_entry_points_type_empty_and_non_numeric_arrays(ex3, call, error):
    with pytest.raises(error):
        call(ex3)


def test_scalar_sigma_entry_points_read_numeric_text_as_its_float(ex3):
    # every scalar sigma goes through float(), so "1.2" is 1.2 everywhere
    cash = _cash(ex3)
    for call in (
        lambda u, s: drf.sandwich_check(u, s),
        lambda u, s: drf.point(u, "mdp_at_sigma", s).weights.tolist(),
        lambda u, s: drf.point(u, "efficient_dr", s).q,
        lambda u, s: drf.point(cash, "cml", s).q,
        lambda u, s: drf.point(cash, "efficient_dr_riskfree", s).q,
        lambda u, s: drf.sweep(cash, "cml", [s]).rows[0].q,
        lambda u, s: drf.sweep(cash, "cml", [s]).rows[0].alpha,
        lambda u, s: drf.norm_dr_bound(drf.embed(u), np.eye(3), s),
    ):
        assert call(ex3, "1.2") == call(ex3, 1.2)


def test_portfolio_stats_and_budget(ex3):
    w = np.full(3, 1.0 / 3.0)
    p = drf.portfolio_stats(ex3, w)
    assert p.variance == pytest.approx(1.0, abs=1e-12)
    assert p.sigma == pytest.approx(1.0, abs=1e-12)
    assert p.dr == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert p.centrality_sq == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert p.expected_return is None
    with pytest.raises(BudgetViolationError):
        drf.portfolio_stats(ex3, np.array([0.6, 0.6, 0.6]))


def test_portfolio_stats_expected_return(ex3_returns):
    w = np.array([0.2, 0.3, 0.5])
    p = drf.portfolio_stats(ex3_returns, w)
    assert p.expected_return == pytest.approx(0.2 * 0.06 + 0.3 * 0.10 + 0.5 * 0.08)


def test_portfolio_stats_reads_a_riskless_mix_at_percent_scale():
    # vols 12.05 and 10.83 with correlation 1 (percent units): the mix
    # (b, -a) / (b - a) is riskless, and w' V w rounds to -1.24e-12
    a, b = 12.048676196809733, 10.826381776426455
    u = drf.validate_universe([[a * a, a * b], [a * b, b * b]])
    p = drf.portfolio_stats(u, np.array([b, -a]) / (b - a))
    assert p.variance == 0.0 and p.sigma == 0.0
    with pytest.raises(NotPSDError):  # a Portfolio built directly is still checked
        drf.Portfolio(weights=p.weights, variance=-1.24e-12, dr=p.dr)


def test_portfolio_stats_with_embedding(ex3, universe30, degenerate3):
    # the kernel's centrality meets the embedding's Gram form and q_max
    w = np.full(3, 1.0 / 3.0)
    emb = drf.embed(ex3)
    p = drf.portfolio_stats(ex3, w)
    assert p.centrality_sq == pytest.approx(4.0 / 9.0, abs=1e-10)
    assert p.centrality_sq + p.dr == pytest.approx(emb.q_max, abs=1e-8)
    # one centre: the embedding's s and q_max are the universe's, bit for
    # bit, and the centrality about it is exactly 0 at s
    rng = np.random.default_rng(41)
    for u in [ex3, universe30] + [random_universe(rng, n) for n in (2, 5, 12)]:
        e = drf.embed(u)
        assert e.mdrp_weights is u.centre[0] and e.q_max == u.centre[1]
        for x in [e.mdrp_weights, np.full(u.n, 1.0 / u.n)] + [
            rng.dirichlet(np.ones(u.n)) * 3.0 - 2.0 / u.n for _ in range(10)
        ]:
            c = math.sqrt(drf.portfolio_stats(u, x).centrality_sq)
            assert c * c + drf.diversification_return(u, x) == pytest.approx(
                e.q_max, abs=1e-8 * max(1.0, e.q_max)
            )
            if x is e.mdrp_weights:
                assert c == 0.0
    # a singular universe has its centre too, from the bordered KKT solve
    p = drf.portfolio_stats(degenerate3, w)
    emb = drf.embed(degenerate3)
    c = math.sqrt(p.centrality_sq)
    assert c * c == pytest.approx(1.0 / 36.0, abs=1e-12)
    assert c * c + p.dr == pytest.approx(emb.q_max, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SINGULAR_KINDS), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_centre_of_a_singular_universe(kind, n, seed):
    # u.centre where V is singular: none exactly where DR is unbounded, and
    # where it answers, the distance matrix's route, the deduplicated
    # universe's kernel and Pythagoras agree with it
    assume(kind != "unbounded" or n >= 3)
    rng = np.random.default_rng(seed)
    u = drf.validate_universe(singular_cov(rng, kind, n))
    assume(not u.nonsingular)  # a conditioned draw near cond 1e10 may certify
    if u.centre is None:
        # refused: unbounded DR, or a centre that rounding cannot resolve
        reason = "DR unbounded" if kind == "unbounded" else "centre ill-conditioned"
        with pytest.raises(SingularDistanceError, match=reason):
            drf.embed(u)
        return
    assert kind != "unbounded"
    s, q_max = u.centre
    tol = PYTHAGORAS_ATOL * max(1.0, q_max)
    assert abs(float(s.sum()) - 1.0) <= 4 * n * np.finfo(float).eps * float(np.abs(s).sum())
    D = drf.build_distance_matrix(u)
    if np.linalg.cond(D) < 1e8:  # D nonsingular: its own route to s and q_max
        s_d, q_d = distance_route(u)
        assert abs(q_d - q_max) <= tol
        assert float(np.abs(s_d - s).max()) <= MDRP_AGREEMENT_ATOL * max(1.0, float(np.abs(s).max()))
    if kind == "duplicate":
        # the clones share their weight, and q_max is the deduplicated
        # universe's (0 for two clones: q = 0 on the budget hyperplane)
        assert abs(s[0] - s[-1]) <= MDRP_AGREEMENT_ATOL * max(1.0, float(np.abs(s).max()))
        deduplicated = 0.0 if n == 2 else drf.validate_universe(u.cov[:-1, :-1]).centre[1]
        assert abs(q_max - deduplicated) <= 1e-12 * max(1.0, q_max)
    for w in [s, np.full(n, 1.0 / n), *(rng.dirichlet(np.ones(n)) * 3.0 - 2.0 / n for _ in range(10))]:
        p = drf.portfolio_stats(u, w)
        assert abs(p.centrality_sq + p.dr - q_max) <= tol


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**31 - 1), st.floats(0.0, 9.0))
@example(2, 1501142508, 8.96958637060581)  # q_mvp + rho^2 / 8 was 1.4e7 bounds off
@example(2, 1888967019, 3.767166472944971)  # s sums to 1 + 1.8e-15
def test_q_max_is_within_its_rounding_bound_of_60_digits(n, seed, log_cond):
    # q_max is q at the centre s, stationary there: its error is the
    # rounding of its own evaluation, n eps (eta' |s| + |s|' |V| |s|), and
    # the first-order move mu (1' s - 1) off the budget hyperplane along the
    # gradient mu 1 = eta / 2 - V s, where the float s sums to one only up
    # to rounding.  The closed form q_mvp + rho^2 / 8 carried k^2's
    # cancellation instead.
    pytest.importorskip("mpmath")
    u = conditioned_universe(n, seed, log_cond)
    s, q_max = u.centre
    size = np.abs(s)
    evaluation = n * np.finfo(float).eps * float(u.variances @ size + size @ np.abs(u.cov) @ size)
    mu = float(np.mean(0.5 * u.variances - u.cov @ s))
    budget = abs(mu) * abs(math.fsum(s) - 1.0)
    q_ref = float(centre_at_digits(u.cov, 60)[1])
    assert abs(q_max - q_ref) <= evaluation + budget, (q_max, q_ref, evaluation, budget)
    assert q_max == drf.special_portfolios(u).mdrp.dr


@pytest.mark.parametrize("c", [1.0, 1e-9, 1e-6, 1e6])
def test_centre_of_a_small_eigenvalue_is_scale_free(c):
    # V = c 1e-6 diag(0, 1, 1e-6) has its unique maximum at (0, 1/2, 1/2):
    # V's eigenvalue c 1e-12 must survive the cut however small V is
    u = drf.validate_universe(c * 1e-6 * np.diag([0.0, 1.0, 1e-6]))
    s, q_max = u.centre
    np.testing.assert_allclose(s, [0.0, 0.5, 0.5], rtol=0.0, atol=1e-12)
    assert q_max == pytest.approx(c * 0.125e-6 * (1.0 + 1e-6), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SINGULAR_KINDS), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_centre_is_scale_equivariant(kind, n, seed):
    # u.centre of c V is (s, c q_max) for c from 1e-9 to 1e6: the SVD's cut
    # and the KKT residual's bound scale with V, so unbounded DR is refused
    # at every scale and a bounded one never reads as unbounded.  Only the
    # rounding rule, PYTHAGORAS_ATOL * max(1, q_max), is absolute below
    # q_max = 1, so an ill-conditioned centre may be answered at small c.
    assume(kind != "unbounded" or n >= 3)
    V = singular_cov(np.random.default_rng(seed), kind, n)
    u = drf.validate_universe(V)
    assume(not u.nonsingular)
    for c in (1e-9, 1e-6, 1e6):
        scaled = drf.validate_universe(c * V)
        if kind == "unbounded":
            assert u.centre is None and scaled.centre is None
            with pytest.raises(SingularDistanceError, match="DR unbounded"):
                drf.embed(scaled)
            continue
        if kind == "duplicate":
            assert u.centre is not None and scaled.centre is not None
        if scaled.centre is None:
            with pytest.raises(SingularDistanceError, match="centre ill-conditioned"):
                drf.embed(scaled)
        if u.centre is None or scaled.centre is None:
            continue
        (s, q_max), (s_c, q_c) = u.centre, scaled.centre
        assert abs(q_c / c - q_max) <= PYTHAGORAS_ATOL * max(1.0, q_max)
        if kind != "conditioned":  # s itself is ill conditioned there
            gap = float(np.abs(s_c - s).max())
            assert gap <= MDRP_AGREEMENT_ATOL * max(1.0, float(np.abs(s).max()))


def test_universe_and_portfolio_are_frozen(ex3):
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex3.nonsingular = False
    p = drf.portfolio_stats(ex3, np.full(3, 1.0 / 3.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.variance = 0.0


def test_arrays_are_write_protected(ex3):
    with pytest.raises(ValueError):
        ex3.cov[0, 0] = 99.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(0, 10**6),
    st.floats(0.0, 9.0),
    st.booleans(),
)
def test_kernel_images_are_backward_stable(n, seed, log_cond, with_returns):
    u = conditioned_universe(n, seed, log_cond)
    if not with_returns:
        u = drf.validate_universe(u.cov)
    if not u.nonsingular:
        with pytest.raises(SingularCovarianceError):
            u.solver
        return
    with pytest.MonkeyPatch.context() as mp:
        # the factor's route at every size, as from FACTOR_SOLVE_FROM assets
        mp.setattr(model, "FACTOR_SOLVE_FROM", 1)
        s = u.solver
    # the kernel's batch, the same solve of the same columns as its build
    rhs = centred_rhs(u)
    images = s.solve(np.column_stack(rhs)).T
    np.testing.assert_array_equal(images[0], s.inv_ones)
    pairs = list(zip(rhs, images))
    fresh = np.linspace(-1.0, 2.0, n)  # not in the batch: a solve of its own
    for c, x in pairs + [(fresh, s.solve(fresh))]:
        _assert_backward_stable(u.cov, x, c)
    # the refined images agree with the LU route within the forward error
    rel_tol = forward_error(u)
    for (_, image), reference in zip(pairs, lu_route(u)):
        gap = float(np.abs(image - reference).max())
        assert gap <= rel_tol * float(np.abs(reference).max())


def _assert_backward_stable(V, x, c):
    bound = KERNEL_RESIDUAL_C * len(c) * np.finfo(float).eps
    bound *= float(np.abs(V).sum(axis=1).max()) * float(np.abs(x).max())
    assert float(np.abs(V @ x - c).max()) <= bound


def _kernel_lu_solves(monkeypatch, u):
    """Number of LU solves that building u's kernel takes."""
    count = []
    inner = model.lu_solve

    def counting(*args):
        count.append(1)
        return inner(*args)

    monkeypatch.setattr(model, "lu_solve", counting)
    u.solver
    return len(count)


def test_kernel_falls_back_to_lu_where_refinement_cannot_contract(monkeypatch):
    # lambda_min(V) = 1.5 delta: the certificate accepts V, but each step of
    # the refinement multiplies the error by delta / (lambda_min - delta) = 2
    n = model.FACTOR_SOLVE_FROM
    evals = np.linspace(1.0, 0.2, n)
    evals[-1] = 0.0
    for _ in range(3):  # delta moves with lambda_min through ||V||_inf and tr(V)
        V = with_spectrum(evals)
        delta = PSD_RTOL * float(np.abs(V).sum(axis=1).max())
        delta += 4 * (n + 1) * np.finfo(float).eps * float(np.trace(V))
        evals[-1] = 1.5 * delta
    u = drf.validate_universe(with_spectrum(evals), expected_returns=np.linspace(0.02, 0.1, n))
    assert u.factor is not None
    assert _kernel_lu_solves(monkeypatch, u) == 1
    rhs = centred_rhs(u)
    images = u.solver.solve(np.column_stack(rhs)).T
    np.testing.assert_array_equal(images[0], u.solver.inv_ones)
    for c, image in zip(rhs, images):
        _assert_backward_stable(u.cov, image, c)


def test_eigenvalue_certified_universe_takes_the_lu_route(monkeypatch):
    # just above the nonsingular threshold the eigenvalues decide: no factor
    evals = np.linspace(1.0, 0.3, model.FACTOR_SOLVE_FROM)
    evals[-1] = 1.1 * PSD_RTOL
    u = drf.validate_universe(with_spectrum(evals))
    assert u.nonsingular and u.factor is None
    assert _kernel_lu_solves(monkeypatch, u) == 1
    _assert_backward_stable(u.cov, u.solver.inv_ones, np.ones(u.n))


def _records(u):
    """One of each record that holds an array, or a record holding one."""
    return [
        u,
        drf.special_portfolios(u).mvp,
        drf.special_portfolios(u),
        u.solver,
        drf.point(u, "efficient_dr", 1.5),
        drf.embed(u),
        drf.d_max_bounds(drf.build_d_eta(u)),
        drf.analyze_mdp(u),
        u.eta_line,
        u.long_only_mvp,
    ]


def test_records_holding_arrays_compare_by_identity():
    # value equality of an array is an array, not a bool: == would raise
    # and hash fail, so these records compare, and hash, as objects
    def build():
        return drf.validate_universe(V3, expected_returns=RBAR3, risk_free_rate=R0_3)

    first, second = _records(build()), _records(build())
    assert len({type(r) for r in first}) == len(first) == 10
    for a, b in zip(first, second):
        assert a == a and not a != a, type(a).__name__
        assert not a == b and a != b, type(a).__name__
        assert len({a, b, a}) == 2 and a in {a} and b not in {a}, type(a).__name__
    # records of scalars keep value equality
    u, v = build(), build()
    assert drf.assert_edm(drf.build_d_eta(u)) == drf.assert_edm(drf.build_d_eta(v))
    assert drf.sandwich_check(u, 1.2) == drf.sandwich_check(v, 1.2)
