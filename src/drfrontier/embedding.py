"""Distance-matrix geometry of a covariance universe.

The matrix D with entries

    D[i, j] = 0.5 * (eta[i] + eta[j]) - V[i, j]

is a Euclidean squared-distance matrix whenever V is PSD, and the
diversification return becomes the quadratic form q(w) = 0.5 * w' D w on the
budget hyperplane.  Centering D at the weight vector s proportional to
D^-1 1 (the maximum-DR portfolio) yields a PSD Gram matrix

    B = -0.5 * Js' D Js = 0.5 * Js' V Js,      Js = I - s 1'

(Js annihilates the eta 1' terms of D because 1' s = 1)

whose factorization B = X' X places every asset on a sphere of radius
sqrt(q_max) around the origin; the origin itself is the image of s.  The
distance of a portfolio's image from the origin, c(w) = ||X w||, satisfies

    c(w)^2 + q(w) = q_max

for every budget portfolio, so DR maximization is a nearest-point problem in
this geometry.

The centre s and q_max are the universe's own
(:attr:`~drfrontier.model.AssetUniverse.centre`): the covariance kernel's
maximum-DR portfolio and its DR on a nonsingular universe, read from the
eigendecomposition that validated a singular one, so :func:`embed` solves
nothing, and the library reads centrality from the same centre
(:func:`~drfrontier.model.portfolio_stats`) without building an embedding.
The embedding serves the asset coordinates (column i of ``coords`` is asset
i, which the ``embed`` command writes beside its name) and
:func:`norm_dr_bound`.  Neither runs in :func:`embed`: D and B are formed
on their first reads, and B's eigendecomposition, which only the
coordinates need, on theirs.

:func:`assert_edm` decides Schoenberg's criterion (1935), that D is a
Euclidean distance matrix exactly when -0.5 J D J is PSD, by one Cholesky
factorization of the Gram matrix anchored at asset 0, and by eigenvalues
only where that factorization fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AsymmetricError,
    BudgetViolationError,
    DimensionMismatchError,
    NonPositiveQmaxError,
    NonZeroDiagonalError,
    NotSPDError,
    ParseError,
)
from .model import (
    AssetUniverse,
    _finite_float,
    _float_array,
    _shifted_cholesky,
)

# Eigenvalues of B below EIG_RTOL * lambda_1 are treated as zero.
EIG_RTOL = 1e-10
# A distance matrix's diagonal, asymmetry and negative entries within
# EDM_RTOL * max|D| are rounding (assert_edm).
EDM_RTOL = 1e-10
# Eigenvalues within BASIS_RTOL * lambda_1 share a canonical cluster, and a
# coordinate below BASIS_RTOL times its axis's largest cannot orient the axis.
BASIS_RTOL = 1e-8
# Off-diagonal D entries in [-DIST_CLAMP_TOL, 0) are rounding debris: clamp.
DIST_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class EdmCertificate:
    """Outcome of the Euclidean-distance-matrix test.

    min_eigenvalue is the smallest eigenvalue of the doubly centered Gram
    form -0.5 * J D J; nonnegative (within tolerance) certifies an EDM.  It
    is exactly 0.0 when the Cholesky certificate of :func:`assert_edm`
    holds: J 1 = 0 makes 0 the smallest eigenvalue of every PSD centered
    form, and the factorization proves the true value lies between
    -EIG_RTOL * max|D| and 0.  A certificate from the eigenvalue route
    carries the computed value, one refused for negative entries NaN.
    """

    is_edm: bool
    min_eigenvalue: float
    reason: Optional[str] = None


@dataclass(frozen=True, eq=False)
class EdmEmbedding:
    """Spherical embedding of an asset universe.

    Attributes:
        universe: the universe embedded, whose V forms D and B.
        mdrp_weights: the centering weights s, the maximum-DR portfolio of
            the universe's ``centre``.
        q_max: top of the DR frontier, 1 / (2 * 1' D^-1 1) where D is
            nonsingular: the DR of s, from the same ``centre``.
        dist: the squared-distance matrix D.
        gram: B = X' X, PSD of rank <= n - 1.
        eigvals: positive eigenvalues of B, descending.
        coords: k x n array X; column i is the image of asset i.

    D and B (from V and s) are formed on their first reads, and eigvals and
    coords (and dim) from one eigendecomposition of B on the first read of
    either; an embedding only asked for s or q_max forms none of them.
    """

    universe: AssetUniverse = field(repr=False)
    mdrp_weights: np.ndarray
    q_max: float

    @property
    def n(self) -> int:
        return len(self.mdrp_weights)

    @functools.cached_property
    def dist(self) -> np.ndarray:
        return build_distance_matrix(self.universe)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        # the rank-2 update B = 0.5 (V - v 1' - 1 v' + (s' v) 1 1'), v = V s;
        # v_i + v_j is commutative, so B comes out exactly symmetric
        s, V = self.mdrp_weights, self.universe.cov
        v = V @ s
        return 0.5 * (V - (v[:, None] + v[None, :]) + float(s @ v))

    @functools.cached_property
    def _axes(self):
        evals, evecs = np.linalg.eigh(self.gram)
        lam_top = max(float(evals[-1]), 0.0)
        keep = evals > EIG_RTOL * lam_top
        lam = evals[keep][::-1]
        P = evecs[:, keep][:, ::-1]
        return lam, _canonical_axes(lam, np.sqrt(lam)[:, None] * P.T)

    @property
    def eigvals(self) -> np.ndarray:
        return self._axes[0]

    @property
    def coords(self) -> np.ndarray:
        return self._axes[1]

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def build_distance_matrix(universe: AssetUniverse) -> np.ndarray:
    """Squared-distance matrix D[i, j] = 0.5 * (eta[i] + eta[j]) - V[i, j],
    summed, halved and differenced in its one n x n array."""
    eta = universe.variances
    D = eta[:, None] + eta[None, :]
    D *= 0.5
    D -= universe.cov
    np.fill_diagonal(D, 0.0)
    low = float(D.min())
    tol = DIST_CLAMP_TOL * max(1.0, float(D.max()), -low)
    if low < -tol:
        raise NotSPDError(
            f"distance entry {low:.3e} below clamp tolerance; covariance and "
            "variances are inconsistent"
        )
    np.clip(D, 0.0, None, out=D)
    return D


def _certified_edm(D: np.ndarray, scale: float) -> bool:
    """True when one Cholesky factorization proves that the symmetric D
    passes the eigenvalue test of :func:`assert_edm`.

    Anchoring at asset 0 gives Schoenberg's (1935) Gram matrix
    G_a[i, j] = 0.5 (D[i, 0] + D[0, j] - D[i, j] - D[0, 0]) for i, j >= 1, in
    O(n^2).  With K = I - 1 e_0' the full anchored form -0.5 K D K' has a zero
    row and column 0 and G_a as the rest, and J K = J (J 1 = 0), so
    -0.5 J D J = J P' G_a P J, where P drops index 0.  As ||P J|| <= 1,
    lambda_min(-0.5 J D J) >= min(lambda_min(G_a), 0).

    The factorization is of 2 (G_a + delta I), formed in two passes over D
    as h_i + h_j - D[i, j] + 2 delta [i = j], h_i = D[i, 0] - D[0, 0] / 2, with

        delta = EIG_RTOL * scale - 4 n (n + 1) eps * scale,

    negative beyond n ~ 330.  Every |D[i, j]| <= scale, so |h_i| <= 1.5 scale
    and rounding (u = eps / 2 on h_i, h_j, their sum and the difference)
    moves each entry by under 5 eps * scale, the matrix by under
    5 n eps * scale in the 2-norm with the diagonal, and a Cholesky
    factorization that completes is exact for a matrix within
    gamma_n / (1 - gamma_n) tr(2 (G_a + delta I)) <= n^2 eps * scale
    (Demmel 1989, as in :func:`~drfrontier.model._certified_nonsingular`):
    together under 8 n (n + 1) eps * scale, twice delta's allowance.  Success
    therefore proves lambda_min(G_a) > -EIG_RTOL * scale, hence
    lambda_min(-0.5 J D J) >= -EIG_RTOL * max(lambda_top, scale), the
    eigenvalue test.  False only means the factorization failed.
    """
    n = D.shape[0]
    h = D[1:, 0] - 0.5 * D[0, 0]
    # h_i + h_j is commutative, so 2 G_a comes out exactly symmetric
    G2 = h[:, None] + h[None, :]
    G2 -= D[1:, 1:]
    eps = float(np.finfo(float).eps)
    shift = 2.0 * (EIG_RTOL - 4 * n * (n + 1) * eps) * scale
    return _shifted_cholesky(G2, shift) is not None


def assert_edm(dist) -> EdmCertificate:
    """Certify that a matrix is a Euclidean squared-distance matrix.

    Preconditions (a nonempty square matrix, zero diagonal, symmetry) raise,
    and an entry that is not a finite number raises ParseError, as wherever
    a number is read; a negative entry or a negative eigenvalue of the
    centered Gram form yields a failing certificate instead.

    The test is lambda_min(-0.5 J D J) >= -EIG_RTOL * max(lambda_top,
    max|D|), J = I - 1 1' / n.  One Cholesky factorization of the anchored
    Gram matrix decides it when it succeeds (see :func:`_certified_edm`),
    and the certificate reports min_eigenvalue 0.0.  When it fails, the
    eigenvalues of the centered form decide, and a failing certificate
    carries its smallest one.
    """
    D = _float_array(dist, "distance matrix")
    if D.ndim != 2 or D.shape[0] != D.shape[1] or D.size == 0:
        raise DimensionMismatchError(
            f"distance matrix must be square and nonempty, got {D.shape}"
        )
    low = float(D.min())
    # max|D| from max and min, NaN or inf when any entry is
    scale = max(float(D.max()), -low, np.finfo(float).tiny)
    if not math.isfinite(scale):
        raise ParseError("distance matrix contains non-finite entries")
    if float(np.abs(np.diag(D)).max()) > EDM_RTOL * scale:
        raise NonZeroDiagonalError("distance matrix has a nonzero diagonal")
    # D - D' is antisymmetric: its largest entry is its largest magnitude
    asym = 0.0 if np.array_equal(D, D.T) else float((D - D.T).max())
    if asym > EDM_RTOL * scale:
        raise AsymmetricError("distance matrix is asymmetric")

    if low < -EDM_RTOL * scale:
        return EdmCertificate(False, float("nan"), "negative entries")

    if _certified_edm(D if asym == 0.0 else 0.5 * (D + D.T), scale):
        return EdmCertificate(True, 0.0, None)

    # J D J with J = I - 11'/n, from the row means r of the symmetric D in
    # O(n^2): D - r 1' - 1 r' + mean(r)
    r = D.mean(axis=1)
    G = -0.5 * (D - r[:, None] - r[None, :] + r.mean())
    G = 0.5 * (G + G.T)
    evals = np.linalg.eigvalsh(G)
    lam_min = float(evals[0])
    lam_top = max(float(evals[-1]), 0.0)
    ok = lam_min >= -EIG_RTOL * max(lam_top, scale)
    return EdmCertificate(ok, lam_min, None if ok else "centered form not PSD")


def _canonical_axes(lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Coordinates X (k x n) rotated to the canonical basis of :func:`embed`."""
    X = np.array(X)
    k = X.shape[0]
    if k == 0:
        return X
    edges = np.flatnonzero(lam[:-1] - lam[1:] > BASIS_RTOL * lam[0]) + 1
    for lo, hi in zip([0, *edges], [*edges, k]):
        if hi - lo > 1:
            # R = Q' X_c is upper trapezoidal: asset 1 on the first axis,
            # asset 2 in the first two, ...; numpy returns exact zeros below
            X[lo:hi] = np.linalg.qr(X[lo:hi], mode="r")
    mag = np.abs(X)
    lead = np.argmax(mag > BASIS_RTOL * mag.max(axis=1, keepdims=True), axis=1)
    X[X[np.arange(k), lead] < 0.0] *= -1.0
    return X + 0.0  # a flipped structural zero reads 0, not -0


def embed(universe: AssetUniverse) -> EdmEmbedding:
    """Build the spherical embedding of a universe.

    The centre s and q_max = q(s) are the universe's
    (:attr:`~drfrontier.model.AssetUniverse.centre`), so the embedding and
    every closed form share their bits.  Where the universe refuses its
    centre, SingularDistanceError says why: DR unbounded on the budget
    hyperplane, or an ill-conditioned centre.  A q_max <= 0 (q = 0 on the
    whole budget hyperplane, as for two clones) raises NonPositiveQmaxError.
    D and the recentred Gram matrix are formed on their first reads, B as the
    rank-2 update B = 0.5 (V - v 1' - 1 v' + (s' v) 1 1') with v = V s
    (equal to -0.5 Js' D Js, without its cancellation of the eta 1' terms).
    B's eigendecomposition runs on the first read of ``eigvals`` or
    ``coords``; eigenvalues below EIG_RTOL times the leading one are dropped.

    The coordinates are canonical, fixed by the math and not by rounding:
    kept eigenvalues within BASIS_RTOL * lambda_1 of their neighbour form one
    cluster, whose axes are rotated so that asset 1 lies on the cluster's
    first axis, asset 2 in its first two, and so on (a QR of the cluster's
    coordinate rows, whose structural zeros are exactly 0).  Each axis is
    then oriented so that the first asset whose coordinate exceeds BASIS_RTOL
    times the axis's largest in magnitude has a positive coordinate.
    """
    s, q_max = universe.require_centre()
    if q_max <= 0.0:
        raise NonPositiveQmaxError(
            f"q_max = {q_max:.3e} <= 0; universe admits no positive DR peak"
        )

    return EdmEmbedding(universe=universe, mdrp_weights=s, q_max=q_max)


def norm_dr_bound(embedding: EdmEmbedding, norm_matrix, tau: float) -> float:
    """Lower bound on DR from a norm budget ||w||_A <= tau.

    With beta = sqrt(lambda_min(A) / lambda_max(B)) the A-ball of radius tau
    maps into the centrality ball of radius tau / beta, hence

        q(w) >= q_max - (tau / beta)^2.

    tau >= 0 is checked first (a tau that is not a finite number raises
    ParseError), then A: finite, symmetric and positive definite.  The bound
    is valid but can be weak when A is ill conditioned relative to B.
    """
    tau = _finite_float(tau, "norm budget tau")
    if tau < 0.0:
        raise BudgetViolationError("norm budget tau must be nonnegative")
    A = _float_array(norm_matrix, "norm matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSPDError(f"norm matrix must be square, got {A.shape}")
    if A.shape[0] != embedding.n:
        raise DimensionMismatchError(
            f"norm matrix of size {A.shape[0]} vs embedding of {embedding.n} assets"
        )
    scale = max(float(A.max()), -float(A.min()), np.finfo(float).tiny)
    if not math.isfinite(scale):
        raise ParseError("norm matrix contains non-finite entries")
    if float((A - A.T).max()) > 1e-10 * scale:
        raise NotSPDError("norm matrix is asymmetric")
    evals = np.linalg.eigvalsh(A)
    lam_min = float(evals[0])
    if lam_min <= 1e-12 * max(float(evals[-1]), 0.0) or lam_min <= 0.0:
        raise NotSPDError(
            f"norm matrix smallest eigenvalue {lam_min:.3e} is not strictly positive"
        )
    lam_b = float(embedding.eigvals[0]) if embedding.eigvals.size else 0.0
    if lam_b <= 0.0:
        return embedding.q_max
    beta_sq = lam_min / lam_b
    return embedding.q_max - tau * tau / beta_sq
