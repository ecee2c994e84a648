"""The Cholesky certificates decide as the eigenvalues do.

`validate_universe` and `assert_edm` answer from one shifted Cholesky
factorization when it succeeds and from the eigenvalues otherwise.  The
eigenvalue decisions are kept as oracles in tests/oracles.py; here both
routes meet across conditioning (through the PSD_RTOL threshold),
rank-deficient and cloned covariances, their distance matrices and D_eta, and
perturbed matrices that are no longer distance matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier.embedding import EDM_RTOL
from drfrontier.errors import AsymmetricError, NotPSDError, ParseError
from drfrontier.model import PSD_RTOL, SYMMETRY_RTOL

from .oracles import (
    conditioned_cov,
    eigen_covariance_decision,
    eigen_is_edm,
    random_universe,
    with_spectrum,
)


def _perturbed(D, rel, rng):
    """D plus symmetric noise of size rel * max D, diagonal kept at 0 and
    entries kept nonnegative: in general no longer a distance matrix."""
    P = rng.normal(size=D.shape) * rel * float(D.max())
    P = P + P.T
    np.fill_diagonal(P, 0.0)
    return np.clip(D + P, 0.0, None)


def _jittered(D, rng):
    """D plus nonnegative noise of 1e-12 max D on every entry, diagonal
    included: asymmetric and off zero within assert_edm's preconditions."""
    return D + rng.uniform(size=D.shape) * 1e-12 * float(D.max())


def _check_covariance(cov):
    """validate_universe decides as the eigenvalues do; returns the universe,
    or None where both refuse."""
    want = eigen_covariance_decision(cov)
    if want is None:
        with pytest.raises(NotPSDError):
            drf.validate_universe(cov)
        return None
    u = drf.validate_universe(cov)
    assert u.nonsingular is want
    if want:
        # a nonsingular V is stored as given: no clamp
        assert np.array_equal(u.cov, 0.5 * (cov + cov.T))
    return u


def _check_distances(u, rel, seed):
    rng = np.random.default_rng(seed)
    for D in (drf.build_distance_matrix(u), drf.build_d_eta(u)):
        for M in (D, _perturbed(D, rel, rng), _jittered(D, rng)):
            cert = drf.assert_edm(M)
            assert cert.is_edm == eigen_is_edm(M)
            if not cert.is_edm:
                assert cert.min_eigenvalue < 0.0 or np.isnan(cert.min_eigenvalue)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 39),
    st.integers(0, 10**6),
    st.floats(0.0, 13.0),
    st.floats(-14.0, -4.0),
)
def test_certificates_agree_across_conditioning(n, seed, log_cond, log_rel):
    V = conditioned_cov(np.random.default_rng(seed), n, log_cond)
    u = _check_covariance(V)
    if u is not None:
        _check_distances(u, 10.0**log_rel, seed)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 20),
    st.integers(1, 19),
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.floats(-14.0, -4.0),
)
def test_certificates_agree_on_rank_deficient_and_cloned(n, rank, clones, seed, log_rel):
    rng = np.random.default_rng(seed)
    if clones:
        # n assets and copies of the first ones, perfectly correlated
        W = rng.normal(size=(n, n)) * 0.1
        take = np.r_[np.arange(n), np.arange(clones) % n]
        V = (W @ W.T)[np.ix_(take, take)]
    else:
        F = rng.normal(size=(n, min(rank, n - 1))) * rng.uniform(0.1, 0.5, (n, 1))
        V = F @ F.T
    V = 0.5 * (V + V.T)
    u = _check_covariance(V)
    assert u is not None and not u.nonsingular
    _check_distances(u, 10.0**log_rel, seed)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(0, 10**6),
    st.floats(0.0, 6.0),
    st.integers(-8, 8),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_one_pass_symmetry_checks_decide_and_store_as_two_passes(
    n, seed, log_cond, log_scale, factor
):
    # the checks read max|M| from max(M) and min(M), and the asymmetry from
    # the largest entry of the antisymmetric M - M'; the two passes over
    # |M| and |M - M'| are the oracle
    rng = np.random.default_rng(seed)
    V = conditioned_cov(rng, n, log_cond) * 10.0**log_scale
    V = 0.5 * (V + V.T)
    D = drf.build_distance_matrix(drf.validate_universe(V))

    def perturbed(M, rtol):
        """M plus an antisymmetric P with max|P - P'| = factor * rtol * max|M|."""
        P = rng.normal(size=M.shape)
        P = P - P.T
        P *= 0.5 * factor * rtol * np.abs(M).max() / np.abs(P).max()
        W = M + P
        return W, np.abs(W - W.T).max() > rtol * np.abs(W).max()

    W, refused = perturbed(V, SYMMETRY_RTOL)
    if refused:
        with pytest.raises(AsymmetricError):
            drf.validate_universe(W)
    else:
        u = drf.validate_universe(W)
        assert u.nonsingular
        assert np.array_equal(u.cov, 0.5 * (W + W.T))
        if np.array_equal(W, W.T):
            assert np.array_equal(u.cov, W)

    W, refused = perturbed(D, EDM_RTOL)
    if refused:
        with pytest.raises(AsymmetricError):
            drf.assert_edm(W)
    else:
        assert drf.assert_edm(W).is_edm == eigen_is_edm(W)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("where", [(0, 2), (1, 1)])
def test_non_finite_distance_matrix_is_not_certified(bad, where):
    # numpy's Cholesky returns a NaN factor instead of failing, and every
    # comparison with NaN is False: finiteness is tested first, and a number
    # that is not finite is a ParseError wherever it is read
    D = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    D[where] = D[where[::-1]] = bad
    with pytest.raises(ParseError, match="distance matrix contains non-finite entries"):
        drf.assert_edm(D)


def test_psd_clamp_accepts_a_small_negative_eigenvalue():
    V = with_spectrum([1.0, 0.6, 0.3, -1e-12])
    assert eigen_covariance_decision(V) is False
    u = drf.validate_universe(V)
    assert not u.nonsingular
    # the clamp rebuilt V with the negative eigenvalue set to zero
    assert not np.array_equal(u.cov, V)
    assert np.array_equal(u.cov, u.cov.T)
    assert abs(float(np.linalg.eigvalsh(u.cov)[0])) < 1e-15
    np.testing.assert_allclose(u.cov, V, atol=2e-12)


def test_psd_refuses_an_eigenvalue_beyond_the_allowance():
    V = with_spectrum([1.0, 0.6, 0.3, -1e-9])
    assert eigen_covariance_decision(V) is None
    with pytest.raises(NotPSDError):
        drf.validate_universe(V)


def test_small_positive_eigenvalue_is_nonsingular_by_cholesky(monkeypatch):
    V = with_spectrum([1.0, 0.6, 0.3, 1e-9])
    assert eigen_covariance_decision(V) is True

    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalue route taken")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    u = drf.validate_universe(V)
    assert u.nonsingular
    assert np.array_equal(u.cov, V)
    assert PSD_RTOL * np.abs(V).sum(axis=1).max() < 1e-9


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_decisions_agree_at_the_nonsingular_threshold(factor):
    # lambda_max = 1, and ||V||_inf > lambda_max: the certificate needs more
    # room than the eigenvalue test just above the threshold, and the
    # eigenvalues decide there
    V = with_spectrum([1.0, 0.6, 0.3, factor * PSD_RTOL])
    assert eigen_covariance_decision(V) is (factor > 1.0)
    assert drf.validate_universe(V).nonsingular is (factor > 1.0)


def test_certified_edm_reports_an_exact_zero():
    # J 1 = 0: a PSD centered form has smallest eigenvalue exactly 0
    u = drf.validate_universe(np.array([[11.0, 8, 8], [8, 23, -4], [8, -4, 23]]) / 9)
    for D in (drf.build_distance_matrix(u), drf.build_d_eta(u)):
        cert = drf.assert_edm(D)
        assert cert.is_edm and cert.min_eigenvalue == 0.0 and cert.reason is None


def test_certificate_with_a_negative_shift_at_large_n():
    # beyond n ~ 330 the Cholesky backward-error allowance exceeds
    # EIG_RTOL * max|D|, so the anchored Gram matrix must be certified
    # positive definite with room to spare; a covariance distance matrix is
    u = random_universe(np.random.default_rng(8), 400)
    D = drf.build_distance_matrix(u)
    cert = drf.assert_edm(D)
    assert cert.is_edm and cert.min_eigenvalue == 0.0
    assert eigen_is_edm(D)
    bad = _perturbed(D, 1e-2, np.random.default_rng(9))
    assert not eigen_is_edm(bad)
    assert not drf.assert_edm(bad).is_edm


def test_large_rank_one_gram_falls_back_to_the_eigenvalues(monkeypatch):
    # D_eta's anchored Gram matrix has rank one.  At n = 400 the backward-error
    # allowance 4 n (n + 1) eps exceeds EIG_RTOL, so no factorization can
    # certify a singular Gram matrix; the eigenvalues accept it
    u = random_universe(np.random.default_rng(8), 400)
    D = drf.build_d_eta(u)
    count = []
    inner = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        count.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert drf.assert_edm(D).is_edm
    assert len(count) == 1
