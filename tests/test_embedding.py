import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier.embedding import _canonical_axes
from drfrontier.errors import (
    AsymmetricError,
    DimensionMismatchError,
    NonPositiveQmaxError,
    NonZeroDiagonalError,
    NotSPDError,
    SingularDistanceError,
)

from .oracles import conditioned_cov, hyperplane_basis, random_universe

D3 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
GRAM3 = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, -0.5], [0.5, -0.5, 1.0]])


def test_distance_matrix_three_asset(ex3):
    np.testing.assert_allclose(drf.build_distance_matrix(ex3), D3, atol=1e-12)


def test_distance_matrix_identity_cov():
    for n in (2, 3, 5):
        u = drf.validate_universe(np.eye(n))
        D = drf.build_distance_matrix(u)
        np.testing.assert_allclose(D, np.ones((n, n)) - np.eye(n), atol=1e-15)


def test_distance_matrix_with_riskless_asset(degenerate3):
    expected = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 1.0], [0.5, 1.0, 0.0]])
    np.testing.assert_allclose(
        drf.build_distance_matrix(degenerate3), expected, atol=1e-15
    )


def test_assert_edm_accepts_three_asset(ex3):
    cert = drf.assert_edm(drf.build_distance_matrix(ex3))
    assert cert.is_edm
    assert cert.min_eigenvalue > -1e-12


def test_assert_edm_rejects_negated(ex3):
    cert = drf.assert_edm(-drf.build_distance_matrix(ex3))
    assert not cert.is_edm
    assert cert.reason == "negative entries"


def test_assert_edm_rejects_non_edm_positive_matrix():
    # violates the four-point condition: one huge distance in a tight cluster
    D = np.array(
        [
            [0.0, 1.0, 100.0],
            [1.0, 0.0, 1.0],
            [100.0, 1.0, 0.0],
        ]
    )
    cert = drf.assert_edm(D)
    assert not cert.is_edm
    assert cert.min_eigenvalue < 0.0


def test_assert_edm_precondition_errors():
    with pytest.raises(NonZeroDiagonalError):
        drf.assert_edm(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(AsymmetricError):
        drf.assert_edm(np.array([[0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        drf.assert_edm(np.ones((2, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_assert_edm_accepts_any_covariance_distance(n, seed):
    rng = np.random.default_rng(seed)
    u = random_universe(rng, n)
    assert drf.assert_edm(drf.build_distance_matrix(u)).is_edm


def test_embed_three_asset(ex3):
    emb = drf.embed(ex3)
    np.testing.assert_allclose(emb.mdrp_weights, [-1.0, 1.0, 1.0], atol=1e-10)
    assert emb.q_max == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(emb.gram, GRAM3, atol=1e-10)
    assert emb.dim == 2
    assert emb.eigvals.shape == (2,)
    # all assets on the sphere of radius sqrt(q_max)
    radii = np.linalg.norm(emb.coords, axis=0)
    np.testing.assert_allclose(radii, np.ones(3), atol=1e-10)
    # the centre is the image of the centering weights
    np.testing.assert_allclose(emb.coords @ emb.mdrp_weights, 0.0, atol=1e-10)


def test_embed_reads_s_and_q_max_from_the_kernel(ex3, ex3_returns, identity3, universe30):
    # one route to the maximum-DR portfolio on a nonsingular universe: s
    # from the kernel's directions, and q_max the DR of s, bit for bit
    rng = np.random.default_rng(29)
    draws = [random_universe(rng, n, with_returns=True) for n in (2, 5, 12, 30)]
    for u in [ex3, ex3_returns, identity3, universe30, *draws]:
        emb, k = drf.embed(u), u.solver
        to_s = 0.0 if k.d_eta is None else 0.5 * k.rho * k.d_eta
        assert np.array_equal(emb.mdrp_weights, k.w_mvp + to_s)
        assert emb.q_max == u.centre[1] == drf.special_portfolios(u).mdrp.dr


def _csv_cells(emb):
    return [[f"{v:.12g}" for v in col] for col in emb.coords.T]


def test_embed_three_asset_canonical_basis(ex3):
    # B has the repeated eigenvalue 1.5: the cluster's axes put asset 1 on the
    # first axis and asset 2 in the upper half plane
    emb = drf.embed(ex3)
    half_root3 = np.sqrt(3.0) / 2.0
    np.testing.assert_allclose(
        emb.coords, [[1.0, 0.5, 0.5], [0.0, half_root3, -half_root3]], atol=1e-15
    )
    assert emb.coords[1, 0] == 0.0 and not np.signbit(emb.coords[1, 0])
    assert _csv_cells(emb) == [
        ["1", "0"],
        ["0.5", "0.866025403784"],
        ["0.5", "-0.866025403784"],
    ]
    # the same cells whichever route built s: the kernel's, or the
    # bordered KKT solve that a universe flagged singular takes
    k = ex3.solver
    assert np.array_equal(emb.mdrp_weights, k.w_mvp + 0.5 * k.rho * k.d_eta)
    pinv_emb = drf.embed(dataclasses.replace(ex3, nonsingular=False))
    assert not np.array_equal(pinv_emb.mdrp_weights, emb.mdrp_weights)
    assert _csv_cells(pinv_emb) == _csv_cells(emb)


def test_canonical_axes_ignore_the_eigensolver_basis(ex3):
    rng = np.random.default_rng(11)
    # any rotation inside a cluster of equal eigenvalues: ex3's pair, and the
    # four-fold 1/2 of the five-asset identity
    for u in (ex3, drf.validate_universe(np.eye(5))):
        emb = drf.embed(u)
        k = len(emb.eigvals)
        for _ in range(20):
            Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
            rotated = _canonical_axes(emb.eigvals, Q @ emb.coords)
            np.testing.assert_allclose(rotated, emb.coords, atol=1e-14)
    # any sign of a lone axis
    for n in (2, 5, 12):
        emb = drf.embed(random_universe(rng, n))
        X, lam = emb.coords, emb.eigvals
        assert np.array_equal(_canonical_axes(lam, X), X)
        flip = rng.choice([-1.0, 1.0], size=(len(lam), 1))
        assert np.array_equal(_canonical_axes(lam, flip * X), X)


def test_embed_identity_cov(identity3):
    emb = drf.embed(identity3)
    np.testing.assert_allclose(emb.mdrp_weights, np.full(3, 1.0 / 3.0), atol=1e-12)
    assert emb.q_max == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_embed_riskless_asset_universe(degenerate3):
    # D is invertible even though V is singular
    emb = drf.embed(degenerate3)
    np.testing.assert_allclose(emb.mdrp_weights, [0.0, 0.5, 0.5], atol=1e-10)
    assert emb.q_max == pytest.approx(0.25, abs=1e-12)
    assert drf.diversification_return(degenerate3, emb.mdrp_weights) == pytest.approx(
        0.25, abs=1e-12
    )


def test_embed_duplicated_asset_pseudoinverse_path():
    # two perfectly correlated clones make D singular; the least-norm KKT
    # solution splits the clone weight evenly
    V = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    u = drf.validate_universe(V)
    assert not u.nonsingular
    emb = drf.embed(u)
    np.testing.assert_allclose(emb.mdrp_weights, [0.25, 0.25, 0.5], atol=1e-8)
    assert emb.q_max == pytest.approx(3.0 / 8.0, abs=1e-10)
    assert drf.diversification_return(u, emb.mdrp_weights) == pytest.approx(
        emb.q_max, abs=1e-10
    )


def test_embed_refuses_dr_unbounded_on_the_budget_hyperplane():
    # rank n - 2: some z in null(V) with 1' z = 0 has eta' z != 0, and
    # q(w + t z) = q(w) + t eta' z / 2 has no maximum
    A = np.random.default_rng(5).standard_normal((4, 2))
    u = drf.validate_universe(A @ A.T)
    assert not u.nonsingular
    with pytest.raises(SingularDistanceError, match="DR unbounded on the budget hyperplane"):
        drf.embed(u)


def test_embed_refuses_an_ill_conditioned_centre_as_such():
    # cond 10^11.5: q has its maximum, 4.5536e7 at 60 digits with
    # max|s| = 1.6e9, too far out for rounding to resolve; the refusal says
    # so, and not that DR is unbounded or has no positive peak
    u = drf.validate_universe(conditioned_cov(np.random.default_rng(9), 7, 11.5))
    assert u.centre is None
    with pytest.raises(SingularDistanceError, match="centre ill-conditioned"):
        drf.embed(u)


def test_embed_all_clones_rejected():
    # q = 0 on the whole budget hyperplane: a centre, but no positive peak
    V = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NonPositiveQmaxError):
        drf.embed(drf.validate_universe(V))


def test_embedding_reproduces_distances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = random_universe(rng, int(rng.integers(2, 15)))
        emb = drf.embed(u)
        X = emb.coords
        diff = X[:, :, None] - X[:, None, :]
        sq = np.einsum("kij,kij->ij", diff, diff)
        np.testing.assert_allclose(sq, emb.dist, atol=1e-8 * max(1.0, emb.dist.max()))


def test_pythagoras_identity(ex3):
    emb = drf.embed(ex3)
    rng = np.random.default_rng(5)
    Z = hyperplane_basis(3)
    for _ in range(200):
        w = np.full(3, 1.0 / 3.0) + Z @ rng.normal(0.0, 2.0, 2)
        c = math.sqrt(drf.portfolio_stats(ex3, w).centrality_sq)
        q = drf.diversification_return(ex3, w)
        assert c * c + q == pytest.approx(emb.q_max, abs=1e-8)


def test_centrality_of_mvp(ex3):
    c_sq = drf.portfolio_stats(ex3, np.full(3, 1.0 / 3.0)).centrality_sq
    assert math.sqrt(c_sq) == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_centrality_is_zero_at_the_centre(ex3, ex3_returns, universe30, degenerate3, fixture_dir):
    # 0.5 (w - s)' V (w - s) vanishes exactly at s, where w' B w left a
    # rounding residual (1.5e-8 on mini, 7.5e-9 on panel-30)
    mini = drf.annualize(drf.load_panel(fixture_dir / "mini_prices.csv", format="prices"))
    clones = drf.validate_universe([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    for u in (ex3, ex3_returns, mini, universe30, degenerate3, clones):
        emb = drf.embed(u)
        assert math.sqrt(drf.portfolio_stats(u, emb.mdrp_weights).centrality_sq) == 0.0


def test_centrality_sign_equivalence():
    # q(w) >= 0 exactly when the portfolio sits inside the asset sphere
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = random_universe(rng, 5)
        emb = drf.embed(u)
        Z = hyperplane_basis(5)
        r = np.sqrt(emb.q_max)
        for _ in range(200):
            w = np.full(5, 0.2) + Z @ rng.normal(0.0, 1.0, 4)
            c = math.sqrt(drf.portfolio_stats(u, w).centrality_sq)
            q = drf.diversification_return(u, w)
            if abs(q) > 1e-9:
                assert (q > 0.0) == (c < r)


def test_norm_bound_identity_norm(ex3):
    emb = drf.embed(ex3)
    lam_top = float(emb.eigvals[0])
    for tau in (0.0, 0.3, 0.7):
        bound = drf.norm_dr_bound(emb, np.eye(3), tau)
        assert bound == pytest.approx(emb.q_max - tau * tau * lam_top, abs=1e-12)


def test_norm_bound_small_tau_is_vacuously_safe(ex3):
    # tau = 0.5 admits no budget portfolio at all: the hyperplane point of
    # least Euclidean norm is the uniform portfolio with norm 1/sqrt(3)
    assert 0.5 < 1.0 / np.sqrt(3.0)
    emb = drf.embed(ex3)
    bound = drf.norm_dr_bound(emb, np.eye(3), 0.5)
    assert np.isfinite(bound)


def test_norm_bound_holds_on_feasible_ball(ex3):
    emb = drf.embed(ex3)
    tau = 0.7
    bound = drf.norm_dr_bound(emb, np.eye(3), tau)
    rng = np.random.default_rng(3)
    Z = hyperplane_basis(3)
    r_max = np.sqrt(tau * tau - 1.0 / 3.0)
    dirs = rng.normal(0.0, 1.0, (20_000, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = r_max * np.sqrt(rng.uniform(0.0, 1.0, 20_000))
    W = np.full(3, 1.0 / 3.0) + (dirs * radii[:, None]) @ Z.T
    assert float(np.abs(W.sum(axis=1) - 1.0).max()) < 1e-9
    for w in W[:2_000]:
        assert drf.diversification_return(ex3, w) >= bound - 1e-10


def test_norm_bound_rejects_singular_norm(ex3):
    emb = drf.embed(ex3)
    # the Gram matrix itself is PSD of rank 2, so it is not a valid norm
    with pytest.raises(NotSPDError):
        drf.norm_dr_bound(emb, emb.gram, 0.5)


def test_norm_bound_ridge_regularized_gram(ex3):
    emb = drf.embed(ex3)
    A = emb.gram + 1e-3 * float(emb.eigvals[0]) * np.eye(3)
    bound = drf.norm_dr_bound(emb, A, 0.5)
    assert np.isfinite(bound)
    assert bound < emb.q_max


def test_norm_bound_input_errors(ex3):
    emb = drf.embed(ex3)
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(NotSPDError):
        drf.norm_dr_bound(emb, asym, 0.5)
    # tau is read first: with a bad A as well, the tau error is raised
    with pytest.raises(drf.errors.BudgetViolationError):
        drf.norm_dr_bound(emb, asym, -0.1)
    with pytest.raises(drf.errors.ParseError):
        drf.norm_dr_bound(emb, np.eye(4), "x")
    with pytest.raises(DimensionMismatchError):
        drf.norm_dr_bound(emb, np.eye(4), 0.5)
    with pytest.raises(drf.errors.BudgetViolationError):
        drf.norm_dr_bound(emb, np.eye(3), -0.1)
    with pytest.raises(drf.errors.ParseError):
        drf.norm_dr_bound(emb, np.eye(3), float("nan"))
    for bad in (float("nan"), float("inf")):
        A = np.eye(3)
        A[0, 1] = A[1, 0] = bad
        with pytest.raises(NotSPDError, match="non-finite"):
            drf.norm_dr_bound(emb, A, 0.5)
    nan_diagonal = np.eye(3)
    nan_diagonal[1, 1] = float("nan")
    with pytest.raises(NotSPDError, match="non-finite"):
        drf.norm_dr_bound(emb, nan_diagonal, 0.5)
