"""Core domain objects: validated asset universes and budget portfolios.

The central quantity is the diversification return of a fully invested
portfolio w (weights summing to one) against a covariance matrix V with
diagonal eta:

    q(w) = 0.5 * (eta' w - w' V w)

i.e. half the spread between the weighted average of asset variances and the
portfolio variance.  Everything downstream (embeddings, frontiers, bounds)
is built on this functional, so validation lives here.

Note that q depends on the asset decomposition, not just on the final return
stream: merging several assets into one composite asset and re-weighting
changes q.  That is intended behaviour and is regression-tested.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    AsymmetricError,
    BudgetViolationError,
    DimensionMismatchError,
    EmbeddingMismatchError,
    NonSquareError,
    NotPSDError,
    SingularCovarianceError,
)

# Relative tolerance for accepting (and then exactly symmetrizing) V.
SYMMETRY_RTOL = 1e-12
# Eigenvalues of V down to -PSD_RTOL * lambda_max are accepted and clamped to 0.
PSD_RTOL = 1e-10
# Absolute tolerance on |sum(w) - 1|.
BUDGET_ATOL = 1e-10
# Absolute tolerance for the centrality/DR decomposition identity.
PYTHAGORAS_ATOL = 1e-8
# Relative residual below which a vector counts as proportional to ones.
PROPORTIONALITY_RTOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def proportional_to_ones(vec: np.ndarray, rtol: float = PROPORTIONALITY_RTOL) -> bool:
    """True when vec is (numerically) a multiple of the ones vector."""
    v = np.asarray(vec, dtype=float)
    resid = v - v.mean()
    return float(np.abs(resid).max()) <= rtol * max(float(np.abs(v).max()), 1e-300)


@dataclass(frozen=True)
class AssetUniverse:
    """Validated covariance model for n >= 2 assets.

    Attributes:
        names: asset labels, one per row of cov.
        cov: annualized covariance matrix (symmetric PSD, read-only).
        variances: diagonal of cov, kept separately because the DR
            functional weights it directly.
        expected_returns: optional annualized mean returns.
        risk_free_rate: optional annualized risk-free rate.
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

    @property
    def n(self) -> int:
        return len(self.names)

    @functools.cached_property
    def solver(self) -> "CovarianceSolver":
        """The covariance kernel, built on first access and kept with the universe."""
        return CovarianceSolver(self)


class CovarianceSolver:
    """One Cholesky factorization and one batched solve V^-1 [1, eta, sqrt(eta), rbar].

    Every closed form afterwards is dot products with these images.  d_eta,
    d_root and w_o are the unit directions (see :meth:`direction`) along which
    the DR-efficient, ratio-maximizing and mean-variance portfolios leave
    w_mvp.  Cached arrays are read-only because every caller shares them.
    """

    def __init__(self, universe: AssetUniverse):
        if not universe.nonsingular:
            raise SingularCovarianceError(
                "universe covariance is singular; closed forms need strict PD"
            )
        try:
            self._factor = cho_factor(np.array(universe.cov), lower=True)
        except LinAlgError as exc:
            raise SingularCovarianceError(f"Cholesky failed: {exc}") from exc
        ones = np.ones(universe.n)
        eta = universe.variances
        root_eta = np.sqrt(eta)
        rbar = universe.expected_returns
        rhs = [ones, eta, root_eta] + ([] if rbar is None else [rbar])
        # the solution is Fortran-ordered, so its transpose has contiguous rows
        images = self.solve(np.column_stack(rhs)).T
        images.setflags(write=False)
        self.inv_ones, self.inv_eta, self.inv_root_eta = images[:3]
        self.a = float(ones @ self.inv_ones)
        self.sigma2_mvp = 1.0 / self.a
        self.w_mvp = _frozen(self.inv_ones * self.sigma2_mvp)
        self.ones_inv_eta = float(ones @ self.inv_eta)  # 1' V^-1 eta
        self.eta_inv_eta = float(eta @ self.inv_eta)
        self.d_eta, self.rho = self.direction(eta, self.inv_eta)
        self.d_root = self.direction(root_eta, self.inv_root_eta)[0]
        self.inv_r = None if rbar is None else images[3]
        self.b = None if rbar is None else float(ones @ self.inv_r)
        self.w_o = None if rbar is None else self.direction(rbar, self.inv_r)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._factor, np.asarray(rhs, dtype=float))

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

    centrality_sq is the squared distance (in the embedded geometry) between
    the portfolio point and the most diversified portfolio; it is only set
    when the caller supplied an embedding.
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


def check_budget(weights: np.ndarray, atol: float = BUDGET_ATOL) -> np.ndarray:
    """Coerce weights to a float vector and enforce sum(w) == 1 within atol."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatchError(f"weights must be 1-D, got shape {w.shape}")
    total = float(w.sum())
    if abs(total - 1.0) > atol:
        raise BudgetViolationError(
            f"weights sum to {total!r}, outside 1 +/- {atol}"
        )
    return w


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
    dimension agreement of optional expected returns.

    Returns a frozen universe whose variances vector is exactly the diagonal
    of the stored covariance.
    """
    V = np.asarray(cov, dtype=float)
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

    evals, evecs = np.linalg.eigh(V)
    lam_max = max(float(evals[-1]), 0.0)
    lam_min = float(evals[0])
    if lam_min < -PSD_RTOL * lam_max:
        raise NotPSDError(
            f"smallest eigenvalue {lam_min:.3e} below -{PSD_RTOL:.0e} * {lam_max:.3e}"
        )
    if lam_min < 0.0:
        # within tolerance: clamp the offending eigenvalues to zero
        V = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
        V = 0.5 * (V + V.T)
    nonsingular = lam_min > PSD_RTOL * lam_max

    if names is None:
        names = tuple(f"A{i + 1}" for i in range(n))
    else:
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise DimensionMismatchError(
                f"{len(names)} names for {n} assets"
            )

    rbar = None
    if expected_returns is not None:
        rbar = np.asarray(expected_returns, dtype=float)
        if rbar.shape != (n,):
            raise DimensionMismatchError(
                f"expected_returns shape {rbar.shape}, need ({n},)"
            )
        if not np.all(np.isfinite(rbar)):
            raise DimensionMismatchError("expected_returns contain non-finite entries")
        rbar = _frozen(rbar)

    r0 = None if risk_free_rate is None else float(risk_free_rate)

    digest = hashlib.sha256()
    digest.update(V.tobytes())
    digest.update("|".join(names).encode())
    fingerprint = digest.hexdigest()

    return AssetUniverse(
        names=names,
        cov=_frozen(V),
        variances=_frozen(np.diag(V)),
        expected_returns=rbar,
        risk_free_rate=r0,
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


def portfolio_stats(universe: AssetUniverse, weights, embedding=None) -> Portfolio:
    """Bundle variance, DR and optional centrality/return into a Portfolio.

    When an embedding is passed it must have been built from the same
    covariance universe; its Gram matrix provides the squared centrality and
    the identity centrality_sq + dr = q_max is verified as a consistency
    check.
    """
    w = check_budget(weights)
    if w.shape != (universe.n,):
        raise DimensionMismatchError(
            f"weights shape {w.shape} does not match universe of {universe.n} assets"
        )
    variance = float(w @ universe.cov @ w)
    dr = 0.5 * float(universe.variances @ w) - 0.5 * variance

    centrality_sq = None
    if embedding is not None:
        if embedding.universe_fingerprint != universe.fingerprint:
            raise EmbeddingMismatchError(
                "embedding was built from a different universe"
            )
        centrality_sq = float(max(w @ embedding.gram @ w, 0.0))
        gap = abs(centrality_sq + dr - embedding.q_max)
        if gap > PYTHAGORAS_ATOL * max(1.0, abs(embedding.q_max)):
            raise EmbeddingMismatchError(
                f"centrality/DR decomposition violated by {gap:.3e}"
            )

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
