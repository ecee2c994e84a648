"""Core domain objects: validated asset universes and budget portfolios.

The central quantity is the diversification return of a fully invested
portfolio w (weights summing to one) against a covariance matrix V with
diagonal eta:

    q(w) = 0.5 * (eta' w - w' V w)

i.e. half the spread between the weighted average of asset variances and the
portfolio variance.  Everything downstream (embeddings, frontiers, bounds)
is built on this functional, so validation lives here, together with the
covariance kernel that every closed form reads.  The centrality of a
portfolio, c(w)^2 = q_max - q(w), is its V-distance from the maximum-DR
portfolio s, 0.5 (w - s)' V (w - s), so it too is a kernel product: no
embedding is needed for it.

Note that q depends on the asset decomposition, not just on the final return
stream: merging several assets into one composite asset and re-weighting
changes q.  That is intended behaviour and is regression-tested.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import solve as lu_solve

from .errors import (
    AsymmetricError,
    BudgetViolationError,
    DimensionMismatchError,
    NonSquareError,
    NotPSDError,
    ParseError,
    SingularCovarianceError,
)

# Relative tolerance for accepting (and then exactly symmetrizing) V.
SYMMETRY_RTOL = 1e-12
# Eigenvalues of V down to -PSD_RTOL * lambda_max are accepted and clamped to 0.
PSD_RTOL = 1e-10
# Absolute tolerance on |sum(w) - 1|.
BUDGET_ATOL = 1e-10
# Absolute tolerance of the identity centrality^2 + q = q_max, checked against
# the embedding's Gram matrix by tests/oracles.py::pythagoras_gaps.
PYTHAGORAS_ATOL = 1e-8
# Relative residual below which a vector counts as proportional to ones.
PROPORTIONALITY_RTOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _float_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{what} is not a numeric array") from None


def proportional_to_ones(vec: np.ndarray) -> bool:
    """True when vec is (numerically) a multiple of the ones vector."""
    v = np.asarray(vec, dtype=float)
    resid = v - v.mean()
    scale = max(float(np.abs(v).max()), 1e-300)
    return float(np.abs(resid).max()) <= PROPORTIONALITY_RTOL * scale


@dataclass(frozen=True)
class AssetUniverse:
    """Validated covariance model for n >= 2 assets.

    Attributes:
        names: asset labels, one per row of cov.
        cov: annualized covariance matrix (symmetric PSD, read-only).
        variances: diagonal of cov, kept separately because the DR
            functional weights it directly.
        expected_returns: optional annualized mean returns.
        risk_free_rate: optional annualized risk-free rate, a finite float
            (anything else raises ParseError, also through
            ``dataclasses.replace``).
        nonsingular: True when cov is numerically strictly positive definite.
        fingerprint: hash of (cov, names); embeddings are keyed on it.
    """

    names: tuple
    cov: np.ndarray
    variances: np.ndarray
    expected_returns: Optional[np.ndarray]
    risk_free_rate: Optional[float]
    nonsingular: bool
    fingerprint: str

    def __post_init__(self):
        if self.risk_free_rate is None:
            return
        try:
            r0 = float(self.risk_free_rate)
        except (TypeError, ValueError):
            r0 = math.nan
        if not math.isfinite(r0):
            raise ParseError(
                f"risk-free rate {self.risk_free_rate!r} is not a finite number"
            )
        object.__setattr__(self, "risk_free_rate", r0)

    @property
    def n(self) -> int:
        return len(self.names)

    @functools.cached_property
    def solver(self) -> "CovarianceSolver":
        """The covariance kernel, built on first access and kept with the universe."""
        return CovarianceSolver(self)

    @functools.cached_property
    def long_only_mvp(self):
        """The long-only minimum-variance portfolio with its certificate
        (:class:`~drfrontier.mdp.LongOnlyMvp`), found on first access and
        kept with the universe."""
        from .mdp import long_only_min_variance

        return long_only_min_variance(self)


class CovarianceSolver:
    """One batched LU solve V^-1 [1, eta, sqrt(eta), rbar] per universe.

    Every closed form afterwards is dot products with these images.  w_mdrp
    is the maximum-DR portfolio (1 - 1' V^-1 eta / 2) w_mvp + V^-1 eta / 2.
    d_eta, d_root and w_o are the unit directions (see :meth:`direction`) along which
    the DR-efficient, ratio-maximizing and mean-variance portfolios leave
    w_mvp.  Cached arrays are read-only because every caller shares them.
    V is certified strictly positive definite by :func:`validate_universe`
    (``nonsingular``), so no second factorization checks it again.
    """

    def __init__(self, universe: AssetUniverse):
        if not universe.nonsingular:
            raise SingularCovarianceError(
                "universe covariance is singular; closed forms need strict PD"
            )
        self._cov = universe.cov
        ones = np.ones(universe.n)
        eta = universe.variances
        root_eta = np.sqrt(eta)
        rbar = universe.expected_returns
        self._rhs = [ones, eta, root_eta] + ([] if rbar is None else [rbar])
        images = np.ascontiguousarray(self._lu_solve(np.column_stack(self._rhs)).T)
        images.setflags(write=False)
        self._images = images
        self.inv_ones, self.inv_eta, self.inv_root_eta = images[:3]
        self.a = float(ones @ self.inv_ones)
        self.sigma2_mvp = 1.0 / self.a
        self.w_mvp = _frozen(self.inv_ones * self.sigma2_mvp)
        self.ones_inv_eta = float(ones @ self.inv_eta)  # 1' V^-1 eta
        self.eta_inv_eta = float(eta @ self.inv_eta)
        self.w_mdrp = _frozen(
            (1.0 - 0.5 * self.ones_inv_eta) * self.w_mvp + 0.5 * self.inv_eta
        )
        self.d_eta, self.rho = self.direction(eta, self.inv_eta)
        self.d_root = self.direction(root_eta, self.inv_root_eta)[0]
        self.inv_r = None if rbar is None else images[3]
        self.b = None if rbar is None else float(ones @ self.inv_r)
        self.w_o = None if rbar is None else self.direction(rbar, self.inv_r)[0]

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        try:
            return lu_solve(self._cov, rhs)
        except LinAlgError as exc:
            raise SingularCovarianceError(f"covariance solve failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """V^-1 rhs.  A right-hand side of the kernel's batch returns its
        cached image, so every route to V^-1 sqrt(eta) (say) reads the same
        bits: a lone solve differs from a batched column in the last bits."""
        c = np.asarray(rhs, dtype=float)
        for known, image in zip(self._rhs, self._images):
            if np.array_equal(c, known):
                return image
        return self._lu_solve(c)

    def direction(self, c: np.ndarray, inv_c: np.ndarray):
        """(d, k) with d = (V^-1 c - (1' V^-1 c / a) V^-1 1) / k and
        k^2 = c' V^-1 c - (1' V^-1 c)^2 / a, so 1' d = 0 and d' V d = 1;
        (None, 0.0) when c is proportional to ones or k^2 <= 0."""
        g = float(np.ones(len(c)) @ inv_c)
        k_sq = float(c @ inv_c) - g * g / self.a
        if proportional_to_ones(c) or k_sq <= 0.0:
            return None, 0.0
        k = float(np.sqrt(k_sq))
        return _frozen((inv_c - (g / self.a) * self.inv_ones) / k), k


@dataclass(frozen=True)
class Portfolio:
    """A fully invested portfolio with its basic statistics.

    centrality_sq is c^2 = q_max - dr, the squared distance (in the embedded
    geometry) between the portfolio point and the maximum-DR portfolio.
    :func:`portfolio_stats` sets it from the covariance kernel on every
    nonsingular universe and leaves it None on a singular one.
    """

    weights: np.ndarray
    variance: float
    dr: float
    centrality_sq: Optional[float] = None
    expected_return: Optional[float] = None

    def __post_init__(self):
        w = _frozen(self.weights)
        object.__setattr__(self, "weights", w)
        check_budget(w)
        if self.variance < -1e-12:
            raise NotPSDError(f"portfolio variance {self.variance} is negative")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))


def check_budget(weights: np.ndarray) -> np.ndarray:
    """Coerce weights to a float vector and enforce sum(w) == 1 within
    BUDGET_ATOL; a non-finite sum fails."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatchError(f"weights must be 1-D, got shape {w.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf: the test below fails it
        total = float(w.sum())
    if not abs(total - 1.0) <= BUDGET_ATOL:
        raise BudgetViolationError(
            f"weights sum to {total!r}, outside 1 +/- {BUDGET_ATOL}"
        )
    return w


def _certified_nonsingular(V: np.ndarray) -> bool:
    """True when one Cholesky factorization proves that the symmetric V has
    lambda_min > PSD_RTOL * lambda_max.

    It factorizes A = V - delta I with

        delta = PSD_RTOL * ||V||_inf + 4 (n + 1) eps tr(V).

    A Cholesky factorization that completes is the exact factorization of
    A + E with ||E||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr(A), gamma_k =
    k u / (1 - k u) and u = eps / 2 (Demmel 1989, "On floating point errors
    in Cholesky").  With the rounding of the shifted diagonal that stays
    under 4 (n + 1) eps tr(V), so lambda_min(V) > PSD_RTOL * ||V||_inf >=
    PSD_RTOL * lambda_max(V): the eigenvalue test's own threshold, so V
    needs no clamp and is nonsingular.  (A negative diagonal entry fails the
    factorization, so tr(V) > 0 on success.)  False only means the
    factorization failed; the eigenvalues decide then.  The factor is
    discarded.
    """
    n = V.shape[0]
    eps = float(np.finfo(float).eps)
    norm_inf = float(np.linalg.norm(V, np.inf))
    delta = PSD_RTOL * norm_inf + 4 * (n + 1) * eps * max(float(np.trace(V)), 0.0)
    shifted = V.copy()
    shifted.flat[:: n + 1] -= delta
    try:
        np.linalg.cholesky(shifted)
    except LinAlgError:
        return False
    return True


def validate_universe(
    cov,
    expected_returns=None,
    risk_free_rate: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
) -> AssetUniverse:
    """Validate raw covariance input and build an :class:`AssetUniverse`.

    Checks, in order: squareness, n >= 2, symmetry within a relative
    tolerance (then exact symmetrization), positive semidefiniteness with a
    small negative eigenvalue allowance (offenders are clamped to zero), and
    dimension agreement of optional expected returns.  Non-numeric cov or
    expected returns, a risk-free rate that is not a finite number, and
    names given as a string or as anything but a sequence raise ParseError.

    Definiteness is decided by one shifted Cholesky factorization when it
    succeeds (see :func:`_certified_nonsingular`): V is then strictly
    positive definite beyond PSD_RTOL * lambda_max and is stored as given.
    Otherwise the eigenvalues decide: below -PSD_RTOL * lambda_max raises
    NotPSDError, a negative one within that allowance clamps V through its
    eigendecomposition, and one at or below PSD_RTOL * lambda_max leaves
    ``nonsingular`` False.  The certificate answers only where the
    eigenvalue test gives the same answer.

    Returns a frozen universe whose variances vector is exactly the diagonal
    of the stored covariance.
    """
    V = _float_array(cov, "covariance")
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise NonSquareError(f"covariance must be square, got shape {V.shape}")
    if not np.all(np.isfinite(V)):
        raise NotPSDError("covariance contains non-finite entries")
    n = V.shape[0]
    if n < 2:
        raise DimensionMismatchError("universe needs at least 2 assets")

    scale = max(float(np.abs(V).max()), np.finfo(float).tiny)
    asym = float(np.abs(V - V.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise AsymmetricError(
            f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    V = 0.5 * (V + V.T)

    if _certified_nonsingular(V):
        nonsingular = True
    else:
        evals = np.linalg.eigvalsh(V)
        lam_max = max(float(evals[-1]), 0.0)
        lam_min = float(evals[0])
        if lam_min < -PSD_RTOL * lam_max:
            raise NotPSDError(
                f"smallest eigenvalue {lam_min:.3e} below -{PSD_RTOL:.0e} * {lam_max:.3e}"
            )
        if lam_min < 0.0:
            # within tolerance: clamp the offending eigenvalues to zero
            evals, evecs = np.linalg.eigh(V)
            V = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
            V = 0.5 * (V + V.T)
        nonsingular = lam_min > PSD_RTOL * lam_max

    if names is None:
        names = tuple(f"A{i + 1}" for i in range(n))
    else:
        if isinstance(names, str) or not isinstance(names, (Sequence, np.ndarray)):
            raise ParseError(f"names must be a sequence of asset names, got {names!r}")
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise DimensionMismatchError(
                f"{len(names)} names for {n} assets"
            )

    rbar = None
    if expected_returns is not None:
        rbar = _float_array(expected_returns, "expected_returns")
        if rbar.shape != (n,):
            raise DimensionMismatchError(
                f"expected_returns shape {rbar.shape}, need ({n},)"
            )
        if not np.all(np.isfinite(rbar)):
            raise DimensionMismatchError("expected_returns contain non-finite entries")
        rbar = _frozen(rbar)

    digest = hashlib.sha256()
    digest.update(V.tobytes())
    digest.update("|".join(names).encode())
    fingerprint = digest.hexdigest()

    return AssetUniverse(
        names=names,
        cov=_frozen(V),
        variances=_frozen(np.diag(V)),
        expected_returns=rbar,
        risk_free_rate=risk_free_rate,
        nonsingular=nonsingular,
        fingerprint=fingerprint,
    )


def diversification_return(universe: AssetUniverse, weights) -> float:
    """Diversification return q(w) = 0.5 * (eta' w - w' V w) of a budget portfolio."""
    w = check_budget(weights)
    if w.shape != (universe.n,):
        raise DimensionMismatchError(
            f"weights shape {w.shape} does not match universe of {universe.n} assets"
        )
    return 0.5 * float(universe.variances @ w - w @ universe.cov @ w)


def portfolio_stats(universe: AssetUniverse, weights) -> Portfolio:
    """Bundle variance, DR, centrality and expected return into a Portfolio.

    On a nonsingular universe the squared centrality is
    0.5 (w - s)' V (w - s) about the kernel's w_mdrp s, the weights of
    :func:`~drfrontier.portfolios.max_dr_portfolio`, whose centrality is
    therefore exactly 0.  It equals q_max - q(w) and the embedding's
    w' B w on budget portfolios, without their cancellation near s.  On a
    singular universe it is None; :func:`~drfrontier.embedding.centrality`
    reads it from an embedding there.
    """
    w = check_budget(weights)
    if w.shape != (universe.n,):
        raise DimensionMismatchError(
            f"weights shape {w.shape} does not match universe of {universe.n} assets"
        )
    variance = float(w @ universe.cov @ w)
    dr = 0.5 * float(universe.variances @ w) - 0.5 * variance

    centrality_sq = None
    if universe.nonsingular:
        offset = w - universe.solver.w_mdrp
        centrality_sq = max(0.5 * float(offset @ universe.cov @ offset), 0.0)

    expected_return = None
    if universe.expected_returns is not None:
        expected_return = float(universe.expected_returns @ w)

    return Portfolio(
        weights=w,
        variance=variance,
        dr=dr,
        centrality_sq=centrality_sq,
        expected_return=expected_return,
    )
