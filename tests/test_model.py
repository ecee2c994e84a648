import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier.errors import (
    AsymmetricError,
    BudgetViolationError,
    DimensionMismatchError,
    NonSquareError,
    NotPSDError,
    ParseError,
    SingularCovarianceError,
)

from .oracles import conditioned_universe, random_universe

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
    assert len(ex3.fingerprint) == 64


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


def test_validate_universe_mismatched_returns():
    with pytest.raises(DimensionMismatchError):
        drf.validate_universe(np.eye(3), expected_returns=np.array([0.1, 0.2]))


def test_fingerprint_tracks_cov_and_names_only():
    V = np.eye(3)
    u1 = drf.validate_universe(V, expected_returns=np.array([0.1, 0.2, 0.3]))
    u2 = drf.validate_universe(V, expected_returns=np.array([0.3, 0.2, 0.1]))
    u3 = drf.validate_universe(V, names=("x", "y", "z"))
    assert u1.fingerprint == u2.fingerprint
    assert u1.fingerprint != u3.fingerprint


def test_check_budget_tolerance():
    drf.check_budget(np.array([0.5, 0.5 + 9e-11]))
    with pytest.raises(BudgetViolationError):
        drf.check_budget(np.array([0.5, 0.5 + 1e-6]))


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, -np.inf]])
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


def test_portfolio_stats_with_embedding(ex3, degenerate3):
    # the kernel's centrality meets the embedding's Gram form and q_max
    w = np.full(3, 1.0 / 3.0)
    emb = drf.embed(ex3)
    p = drf.portfolio_stats(ex3, w)
    assert p.centrality_sq == pytest.approx(4.0 / 9.0, abs=1e-10)
    assert p.centrality_sq == pytest.approx(drf.centrality(emb, w) ** 2, abs=1e-12)
    assert p.centrality_sq + p.dr == pytest.approx(emb.q_max, abs=1e-8)
    # a singular universe has no kernel: the embedding gives centrality there
    p = drf.portfolio_stats(degenerate3, w)
    assert p.centrality_sq is None
    emb = drf.embed(degenerate3)
    c = drf.centrality(emb, w)
    assert c * c == pytest.approx(1.0 / 36.0, abs=1e-12)
    assert c * c + p.dr == pytest.approx(emb.q_max, abs=1e-12)


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
    s = u.solver
    V = u.cov
    root_eta = np.sqrt(u.variances)
    pairs = [
        (np.ones(n), s.inv_ones),
        (u.variances, s.inv_eta),
        (root_eta, s.inv_root_eta),
        (np.linspace(-1.0, 2.0, n), None),  # not in the batch: a fresh solve
    ]
    if with_returns:
        pairs.append((u.expected_returns, s.inv_r))
    for c, image in pairs:
        x = s.solve(c)
        if image is not None:
            # a right-hand side of the batch reads its cached image
            assert np.array_equal(x, image)
        bound = KERNEL_RESIDUAL_C * n * np.finfo(float).eps
        bound *= float(np.abs(V).sum(axis=1).max()) * float(np.abs(x).max())
        assert float(np.abs(V @ x - c).max()) <= bound
