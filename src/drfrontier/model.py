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
import math
from dataclasses import dataclass, field
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
# the distance matrix's route to s and q_max by tests/oracles.py::pythagoras_gaps.
PYTHAGORAS_ATOL = 1e-8
# Relative residual below which a vector counts as proportional to ones.
PROPORTIONALITY_RTOL = 1e-12
# |eta' w_o| <= ZERO_BAND_RTOL * rho is the knife-edge zero case, read as 0.
ZERO_BAND_RTOL = 1e-12
# The kernel's rows per diagonal block, refinement steps before LU, and the
# fewest assets it substitutes for (below, LU is faster).
SOLVE_BLOCK, REFINE_STEPS, FACTOR_SOLVE_FROM = 64, 8, 288


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _float_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{what} is not a numeric array") from None


def _finite_float(value, what: str) -> float:
    """float(value); a value that is not a finite number raises ParseError."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ParseError(f"{what} {value!r} is not a finite number")
    return x


def _finite_array(values, what: str) -> np.ndarray:
    """A float array of values; a non-numeric or non-finite entry raises
    ParseError, which names the input but not its entries."""
    a = _float_array(values, what)
    if not np.isfinite(a).all():
        raise ParseError(f"{what} contains non-finite entries")
    return a


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
        factor: the read-only Cholesky factor of cov - delta I that
            certified it (:func:`_certified_nonsingular`), None where the
            eigenvalues decided; ``dataclasses.replace`` keeps it.
    """

    names: tuple
    cov: np.ndarray
    variances: np.ndarray
    expected_returns: Optional[np.ndarray]
    risk_free_rate: Optional[float]
    nonsingular: bool
    factor: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.risk_free_rate is None:
            return
        r0 = _finite_float(self.risk_free_rate, "risk-free rate")
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
        (:class:`~drfrontier.mdp.LongOnlyMvp`), the last corner of eta_line.
        A certificate gap above MVP_GAP_RTOL * max eta raises
        SingularCovarianceError."""
        from .mdp import MVP_GAP_RTOL, LongOnlyMvp

        w = np.clip(self.eta_line.alpha[-1], 0.0, None)
        w /= w.sum()
        g = self.cov @ w
        # a riskless mix of a singular V can round below zero, as in Portfolio.sigma
        variance = max(float(w @ g), 0.0)
        lower = max(2.0 * float(g.min()) - variance, 0.0)
        if variance - lower > MVP_GAP_RTOL * float(self.variances.max()):
            raise SingularCovarianceError(f"w_lo variance {variance:.3e} certified to {lower:.3e}")
        return LongOnlyMvp(w, variance, lower)

    @functools.cached_property
    def eta_line(self):
        """The long-only critical line (:func:`~drfrontier.mdp.critical_line`)
        of mu = eta, built on first access and kept with the universe."""
        from .mdp import critical_line

        return critical_line(self.cov, np.clip(self.variances, 0.0, None))

    @functools.cached_property
    def root_eta_line(self):
        """The long-only critical line of mu = sqrt(eta), kept likewise."""
        from .mdp import critical_line

        return critical_line(self.cov, np.sqrt(np.clip(self.variances, 0.0, None)))

    @functools.cached_property
    def sigma_grid(self) -> np.ndarray:
        """The read-only :func:`~drfrontier.frontiers.default_sigma_grid` of
        every sweep, computed on first access and kept with the universe."""
        from .frontiers import default_sigma_grid, frontier_params

        return _frozen(default_sigma_grid(frontier_params(self)))


class CovarianceSolver:
    """V^-1 [1, eta, sqrt(eta), sqrt(eta) - mean, rbar], solved once per
    universe with the factor.

    Every closed form afterwards is dot products with these images.  w_mdrp
    is the maximum-DR portfolio (1 - 1' V^-1 eta / 2) w_mvp + V^-1 eta / 2,
    the sphere centre s of the embedding, and q_max = q_mvp + rho^2 / 8 its
    DR, with q_mvp = (1' V^-1 eta - 1) sigma_mvp^2 / 2.  d_eta, d_root and
    w_o are the unit directions (see :meth:`direction`) along which the
    DR-efficient, ratio-maximizing and mean-variance portfolios leave w_mvp;
    d_root is the :meth:`centred_direction` of sqrt(eta), as any objective of
    :func:`~drfrontier.frontiers.max_linear_over_ellipsoid` is.
    eta_wo is eta' w_o, 0.0 within ZERO_BAND_RTOL * rho of zero, and None
    exactly when w_o is: without returns, or with returns proportional to
    ones in the V^-1 metric.  Cached arrays are read-only because every
    caller shares them.
    V is certified strictly positive definite by :func:`validate_universe`
    (``nonsingular``), so no second factorization checks it again.

    From FACTOR_SOLVE_FROM assets it substitutes with the universe's factor L
    of V - delta I (SOLVE_BLOCK-row diagonal blocks inverted once, matmuls
    for the rest) and refines against V, x <- x + (L L')^-1 (c - V x): each
    step shrinks the error by about rho = delta / (lambda_min - delta)
    (Higham 2002, ch. 12) down to LU's accuracy, ~ n eps cond(V), where the
    corrections stall.  A column is done at a correction of 4 n eps ||x||_inf,
    or at a stall after a first contraction rho <= 1/8, which bounds its
    error by a few times that accuracy.  A slower first contraction,
    REFINE_STEPS steps, no factor or fewer assets take an LU solve of V.
    """

    def __init__(self, universe: AssetUniverse):
        if not universe.nonsingular:
            raise SingularCovarianceError(
                "universe covariance is singular; closed forms need strict PD"
            )
        self._cov = universe.cov
        L = self._factor = universe.factor if universe.n >= FACTOR_SOLVE_FROM else None
        if L is not None:
            edges = [*range(0, universe.n, SOLVE_BLOCK), universe.n]
            self._blocks = [(a, b, np.linalg.inv(L[a:b, a:b])) for a, b in zip(edges, edges[1:])]
        ones = np.ones(universe.n)
        eta = universe.variances
        root_eta = np.sqrt(eta)
        rbar = universe.expected_returns
        rhs = [ones, eta, root_eta, root_eta - root_eta.mean()] + ([] if rbar is None else [rbar])
        images = np.ascontiguousarray(self.solve(np.column_stack(rhs)).T)
        images.setflags(write=False)
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
        self.q_mvp = 0.5 * (self.ones_inv_eta - 1.0) * self.sigma2_mvp
        self.q_max = self.q_mvp + 0.125 * self.rho * self.rho
        self.d_root = self.centred_direction(root_eta, images[3])[0]
        self.inv_r = None if rbar is None else images[4]
        self.b = None if rbar is None else float(ones @ self.inv_r)
        self.w_o = None if rbar is None else self.direction(rbar, self.inv_r)[0]
        self.eta_wo = None if self.w_o is None else float(eta @ self.w_o)
        if self.eta_wo is not None and abs(self.eta_wo) <= ZERO_BAND_RTOL * self.rho:
            self.eta_wo = 0.0

    def _substitute(self, c: np.ndarray) -> np.ndarray:
        """(L L')^-1 c by blocked forward and back substitution."""
        L = self._factor
        y = np.empty_like(c)
        for a, b, inv in self._blocks:
            y[a:b] = inv @ (c[a:b] - L[a:b, :a] @ y[:a])
        x = np.empty_like(c)
        for a, b, inv in reversed(self._blocks):
            x[a:b] = inv.T @ (y[a:b] - L[b:, a:b].T @ x[b:])
        return x

    def solve(self, c: np.ndarray) -> np.ndarray:
        """V^-1 c, for a vector or for columns (see the class docstring)."""
        c = np.asarray(c, dtype=float)  # substitution writes into arrays like c
        if self._factor is not None:
            fp = np.finfo(float)
            x, last, rate, done = self._substitute(c), np.inf, 1.0, False
            for step in range(REFINE_STEPS):
                dx = self._substitute(c - self._cov @ x)
                x += dx
                size = abs(dx).max(axis=0)  # per column
                done = done | (size <= 4 * len(c) * fp.eps * abs(x).max(axis=0))
                stall = size > 0.5 * np.maximum(last, fp.tiny)
                rate = (size / np.maximum(last, fp.tiny)).max() if step == 1 else rate
                if (stall & ~done).any() and rate > 0.125:
                    break
                if np.all(done | stall):
                    return x
                done, last = done | stall, size
        try:
            return lu_solve(self._cov, c)
        except LinAlgError as exc:
            raise SingularCovarianceError(f"covariance solve failed: {exc}") from exc

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

    def centred_direction(self, c: np.ndarray, inv_c: Optional[np.ndarray] = None):
        """:meth:`direction` of c - mean(c) 1, from inv_c = V^-1 (c - mean(c) 1),
        solved here when None.  A multiple of ones does not change d, and
        without one k^2 does not cancel when c is close to a multiple of ones
        (sqrt(eta) at near-equal vols)."""
        if proportional_to_ones(c):
            return None, 0.0
        c = c - c.mean()
        return self.direction(c, self.solve(c) if inv_c is None else inv_c)


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


def check_budget(weights: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """Coerce weights to a float vector and enforce sum(w) == 1 within
    BUDGET_ATOL; a non-finite sum fails.  With n, a vector of another length
    then raises DimensionMismatchError."""
    w = _float_array(weights, "weights")
    if w.ndim != 1:
        raise DimensionMismatchError(f"weights must be 1-D, got shape {w.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf: the test below fails it
        total = float(w.sum())
    if not abs(total - 1.0) <= BUDGET_ATOL:
        raise BudgetViolationError(
            f"weights sum to {total!r}, outside 1 +/- {BUDGET_ATOL}"
        )
    if n is not None and len(w) != n:
        raise DimensionMismatchError(f"{len(w)} weights for {n} assets")
    return w


def _shifted_cholesky(A: np.ndarray, shift: float) -> Optional[np.ndarray]:
    """The Cholesky factor of the symmetric A + shift I, formed in place in A,
    or None when it fails.  A.T gives the same factor with less copying."""
    A.flat[:: A.shape[0] + 1] += shift
    try:
        return np.linalg.cholesky(A.T)
    except LinAlgError:
        return None


def _certified_nonsingular(V: np.ndarray) -> Optional[np.ndarray]:
    """The Cholesky factor of V - delta I when it proves that the symmetric
    V has lambda_min > PSD_RTOL * lambda_max, else None.

    It factorizes A = V - delta I with

        delta = PSD_RTOL * ||V||_inf + 4 (n + 1) eps tr(V).

    A Cholesky factorization that completes is the exact factorization of
    A + E with ||E||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr(A), gamma_k =
    k u / (1 - k u) and u = eps / 2 (Demmel 1989, "On floating point errors
    in Cholesky").  With the rounding of the shifted diagonal that stays
    under 4 (n + 1) eps tr(V), so lambda_min(V) > PSD_RTOL * ||V||_inf >=
    PSD_RTOL * lambda_max(V): the eigenvalue test's own threshold, so V
    needs no clamp and is nonsingular.  (A negative diagonal entry fails the
    factorization, so tr(V) > 0 on success.)  None only means the
    factorization failed; the eigenvalues decide then.  A is formed in V, and
    V's saved diagonal is written back afterwards, bit for bit.
    """
    n = V.shape[0]
    eps = float(np.finfo(float).eps)
    norm_inf = float(np.linalg.norm(V, np.inf))
    delta = PSD_RTOL * norm_inf + 4 * (n + 1) * eps * max(float(np.trace(V)), 0.0)
    diagonal = V.diagonal().copy()
    factor = _shifted_cholesky(V, -delta)
    V.flat[:: n + 1] = diagonal  # the shift undone exactly
    return factor


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
    positive definite beyond PSD_RTOL * lambda_max and is stored as given,
    with the factor that certified it.
    Otherwise the eigenvalues decide: below -PSD_RTOL * lambda_max raises
    NotPSDError, a negative one within that allowance clamps V through its
    eigendecomposition, and one at or below PSD_RTOL * lambda_max leaves
    ``nonsingular`` False.  The certificate answers only where the
    eigenvalue test gives the same answer.

    Returns a frozen universe whose ``cov`` is one private copy of V (or its
    symmetrization), which the certificate factors in place and restores, and
    whose variances vector is exactly its diagonal.
    """
    V = _float_array(cov, "covariance")
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise NonSquareError(f"covariance must be square, got shape {V.shape}")
    n = V.shape[0]
    # max|V| from max and min, NaN or inf when any entry is
    scale = max(float(V.max()), -float(V.min()), np.finfo(float).tiny) if n else 0.0
    if not math.isfinite(scale):
        raise NotPSDError("covariance contains non-finite entries")
    if n < 2:
        raise DimensionMismatchError("universe needs at least 2 assets")

    # V - V' is antisymmetric: its largest entry is its largest magnitude
    asym = 0.0 if np.array_equal(V, V.T) else float((V - V.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise AsymmetricError(
            f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    # the one private copy: the certificate factors it, and cov keeps it
    V = 0.5 * (V + V.T) if asym else np.array(V)

    factor = _certified_nonsingular(V)
    if factor is not None:
        nonsingular = True
        factor.setflags(write=False)
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

    V.setflags(write=False)
    return AssetUniverse(
        names=names,
        cov=V,
        variances=_frozen(np.diag(V)),
        expected_returns=rbar,
        risk_free_rate=risk_free_rate,
        nonsingular=nonsingular,
        factor=factor,
    )


def diversification_return(universe: AssetUniverse, weights) -> float:
    """Diversification return q(w) = 0.5 * (eta' w - w' V w) of a budget portfolio."""
    w = check_budget(weights, universe.n)
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
    w = check_budget(weights, universe.n)
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
