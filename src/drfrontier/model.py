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
portfolio s, 0.5 (w - s)' V (w - s), so no embedding is needed for it.
The identity needs only the KKT point of q on the budget hyperplane, not
V^-1, so every universe owns its centre (s, q_max = q(s)): s from the kernel
on a nonsingular V, from the eigendecomposition that validated a singular
one, and none where q has no maximum there.

Note that q depends on the asset decomposition, not just on the final return
stream: merging several assets into one composite asset and re-weighting
changes q.  That is intended behaviour and is regression-tested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
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
    SingularDistanceError,
)

# Relative tolerance for accepting (and then exactly symmetrizing) V.
SYMMETRY_RTOL = 1e-12
# Eigenvalues of V down to -PSD_RTOL * lambda_max are accepted and clamped to 0.
PSD_RTOL = 1e-10
# Tolerance on |sum(w) - 1|, widened by check_budget to a float sum's rounding.
BUDGET_ATOL = 1e-10
# Absolute tolerance of the identity centrality^2 + q = q_max, checked against
# the distance matrix's route to s and q_max by tests/oracles.py::pythagoras_gaps.
PYTHAGORAS_ATOL = 1e-8
# Eigenvalues of a singular V up to CENTRE_RCOND max(lam_max, max|V|) are null to _eigen_centre:
# cut at PSD_RTOL, 9 of 6795 seeded draws of cond 1e10 to 1e12 would answer or refuse otherwise.
CENTRE_RCOND = 1e-12
# Relative residual below which a vector counts as proportional to ones.
PROPORTIONALITY_RTOL = 1e-12
# |eta' w_o| <= ZERO_BAND_RTOL * rho is the knife-edge zero case, read as 0.
ZERO_BAND_RTOL = 1e-12
# The kernel's rows per diagonal block, refinement steps before LU, and the
# fewest assets it substitutes for (below, LU is faster).
SOLVE_BLOCK, REFINE_STEPS, FACTOR_SOLVE_FROM = 64, 8, 288
# the default sigma grid reaches this multiple of sigma_mdrp
GRID_SPAN = 3.0


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _root_gap(a, b):
    """sqrt(a) - sqrt(b) of variances (clipped at 0) as (a - b) / (sqrt(a) +
    sqrt(b)), free of the roots' cancellation; 0 where both are 0."""
    a, b = np.clip(a, 0.0, None), np.clip(b, 0.0, None)
    total = np.sqrt(a) + np.sqrt(b)
    return np.divide(a - b, total, out=np.zeros(np.shape(total)), where=total > 0.0)


def _scaled(x) -> tuple:
    """(x / 2^e, e), 2^e near max |x|: an exact scaling whose squares cannot overflow."""
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e), e


def _float_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:  # an integer past the float range
        raise ParseError(f"{what} contains non-finite entries") from None
    except (TypeError, ValueError):
        raise ParseError(f"{what} is not a numeric array") from None


def _finite_float(value, what: str) -> float:
    """float(value); a value that is not a finite number raises ParseError,
    whose message shows the value (an integer too long to print by its bits)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        try:
            shown = repr(value)
        except ValueError:  # an integer past Python's digit limit for str
            shown = f"<an integer of {value.bit_length()} bits>"
        raise ParseError(f"{what} {shown} is not a finite number")
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


@dataclass(frozen=True, eq=False)
class AssetUniverse:
    """Validated covariance model for n >= 2 assets.

    Attributes:
        names: asset labels, one per row of cov.
        cov: annualized covariance matrix (symmetric PSD, read-only).
        variances: diagonal of cov, kept separately because the DR
            functional weights it directly.
        volatilities: sqrt(max(variances, 0)), read-only, formed once.
        expected_returns: optional annualized mean returns.
        risk_free_rate: optional annualized risk-free rate, a finite float
            (anything else raises ParseError, also through
            ``dataclasses.replace``).
        nonsingular: True when cov is numerically strictly positive definite.
        factor: the read-only Cholesky factor of cov - delta I that
            certified it (:func:`_certified_nonsingular`), None where the
            eigenvalues decided; ``dataclasses.replace`` keeps it, and eigen.
        eigen: the read-only (Q, lam) of cov = Q diag(lam) Q', lam >= 0, where they decided.
    """

    names: tuple
    cov: np.ndarray
    variances: np.ndarray
    expected_returns: Optional[np.ndarray]
    risk_free_rate: Optional[float]
    nonsingular: bool
    factor: Optional[np.ndarray] = field(default=None, repr=False)
    eigen: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        if self.risk_free_rate is None:
            return
        r0 = _finite_float(self.risk_free_rate, "risk-free rate")
        object.__setattr__(self, "risk_free_rate", r0)

    @property
    def n(self) -> int:
        return len(self.names)

    @functools.cached_property
    def volatilities(self) -> np.ndarray:
        return _frozen(np.sqrt(np.clip(self.variances, 0.0, None)))

    @functools.cached_property
    def solver(self) -> "CovarianceSolver":
        """The covariance kernel, built on first access and kept with the universe."""
        return CovarianceSolver(self)

    @functools.cached_property
    def _centre(self) -> tuple:
        """(centre, reason): the centre below, or None with the reason why, formed once."""
        if not self.nonsingular:
            return _eigen_centre(self)
        k = self.solver
        s = _frozen(k.w_mvp + (0.0 if k.d_eta is None else 0.5 * k.rho * k.d_eta))
        return (s, _variance_and_dr(self, s)[1]), ""

    @property
    def centre(self) -> Optional[tuple]:
        """(s, q_max), the maximum-DR portfolio and its DR q(s), as
        :func:`portfolio_stats` evaluates it: s from the kernel on a
        nonsingular universe, :func:`_eigen_centre`'s on a singular one,
        None where that refuses it (DR unbounded, or ill-conditioned)."""
        return self._centre[0]

    def require_centre(self) -> tuple:
        """``centre``, or SingularDistanceError saying why there is none."""
        centre, reason = self._centre
        if centre is None:
            raise SingularDistanceError(reason)
        return centre

    @functools.cached_property
    def long_only_mvp(self):
        """w_lo with its certificate (:func:`~drfrontier.mdp.long_only_mvp`),
        solved once and kept with the universe."""
        from .mdp import long_only_mvp

        return long_only_mvp(self)

    @functools.cached_property
    def eta_line(self):
        """The long-only critical line (:class:`~drfrontier.mdp.CriticalLine`)
        of mu = eta, kept with the universe and walked as far as it is read."""
        from .mdp import CriticalLine

        return CriticalLine(self, np.clip(self.variances, 0.0, None))

    @functools.cached_property
    def root_eta_line(self):
        """The long-only critical line of mu = sqrt(eta), kept likewise and paired with eta_line."""
        from .mdp import CriticalLine

        return CriticalLine(self, self.volatilities, self.eta_line)

    @functools.cached_property
    def sigma_grid(self) -> np.ndarray:
        """The read-only :func:`default_sigma_grid` of the kernel, the grid of
        every sweep, computed on first access and kept with the universe."""
        return _frozen(default_sigma_grid(self.solver))


class EfShape(str, Enum):
    """Shape class of the mean-variance DR curve q_ef."""

    STRONGLY_CONCAVE = "strongly_concave"
    STRICTLY_DECREASING = "strictly_decreasing"
    DEGENERATE = "degenerate"


class CovarianceSolver:
    """V^-1 [1, eta0, sqrt(eta)0, rbar0], x0 = x - mean(x) 1, solved once per
    universe with the factor; every closed form afterwards is dot products.
    sqrt(eta)0 centres (eta_i - eta_1) / (sqrt(eta_i) + sqrt(eta_1)), free of
    the roots' cancellation; eta0 and rbar0 (None without returns) are kept.

    w_mvp = V^-1 1 / a has variance sigma2_mvp = 1 / a and risk sigma_mvp.
    d_eta, d_root and w_o, with k = rho, k_root and k_r, are the
    :meth:`direction` of eta, sqrt(eta) and rbar: the unit directions along
    which the DR-efficient, ratio-maximizing and mean-variance portfolios
    leave w_mvp, of DR q_mvp = (eta_mvp - sigma_mvp^2) / 2, towards the
    universe's ``centre`` w_mvp + (rho / 2) d_eta, of variance sigma2_mdrp =
    sigma2_mvp + rho^2 / 4 and risk sigma_mdrp.  eta_mvp = eta' w_mvp and
    ret_mvp = rbar' w_mvp (None without returns) are the average variance
    and the return of w_mvp, formed here only.  eta_wo is eta0' w_o,
    0.0 within ZERO_BAND_RTOL * rho of zero, and None exactly when w_o is:
    without returns, or with returns proportional to ones in the V^-1
    metric.  ef_shape is the :class:`EfShape` of the mean-variance DR curve:
    degenerate where eta_wo is None, strongly concave where eta_wo >= 0 (the
    zero band included) and strictly decreasing below it.  Cached arrays are
    read-only because every caller shares them.
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
        eta, root, rbar = universe.variances, universe.volatilities, universe.expected_returns
        near = _root_gap(eta, eta[0])  # sqrt(eta_i) - sqrt(eta_1), exact to rounding
        rhs = [ones] + [_frozen(c - c.mean()) for c in (eta, near, rbar) if c is not None]
        self.eta0, self.rbar0 = rhs[1], None if rbar is None else rhs[3]
        x, e = zip((ones, 0), *map(_scaled, rhs[1:]))
        inv = np.ascontiguousarray(self.solve(np.column_stack(x)).T)
        inv.setflags(write=False)
        self.inv_ones = inv[0]
        self.a = float(ones @ self.inv_ones)
        self.sigma2_mvp = 1.0 / self.a
        self.sigma_mvp = float(np.sqrt(self.sigma2_mvp))
        self.w_mvp = _frozen(self.inv_ones * self.sigma2_mvp)
        self.d_eta, self.rho = self.direction(eta, x[1], inv[1], e[1])
        self.eta_mvp = float(eta @ self.w_mvp)
        self.ret_mvp = None if rbar is None else float(rbar @ self.w_mvp)
        self.q_mvp = 0.5 * (self.eta_mvp - self.sigma2_mvp)
        self.sigma2_mdrp = self.sigma2_mvp + 0.25 * self.rho * self.rho
        self.sigma_mdrp = float(np.sqrt(self.sigma2_mdrp))
        self.d_root, self.k_root = self.direction(root, x[2], inv[2], e[2])
        self.w_o, self.k_r = (
            (None, 0.0) if rbar is None else self.direction(rbar, x[3], inv[3], e[3])
        )
        self.eta_wo = None if self.w_o is None else float(self.eta0 @ self.w_o)
        if self.eta_wo is not None and abs(self.eta_wo) <= ZERO_BAND_RTOL * self.rho:
            self.eta_wo = 0.0
        self.ef_shape = EfShape.DEGENERATE if self.eta_wo is None else (
            EfShape.STRONGLY_CONCAVE if self.eta_wo >= 0.0 else EfShape.STRICTLY_DECREASING
        )

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

    def direction(self, c: np.ndarray, c0: Optional[np.ndarray] = None, inv_c=None, e=0):
        """(d, 2^e k) with d = (V^-1 c0 - (1' V^-1 c0 / a) V^-1 1) / k and k^2 =
        c0' V^-1 c0 - (1' V^-1 c0)^2 / a, c0 = (c - mean(c) 1) / 2^e by :func:`_scaled`
        unless given (any c + t 1 centred: t 1 changes neither d nor k) and inv_c =
        V^-1 c0, solved when None; 1' d = 0, d' V d = 1.  (None, 0.0) when k^2 <= 0
        or c is proportional to ones.  Centring keeps k^2 from cancelling when c is
        close to a multiple of ones (near-equal vols or returns), and the scaling
        from overflowing.  Returning d - (1' d) w_mvp puts each w_mvp + t d on budget
        up to rounding, and adds no V-norm error: w_mvp' V z = 1' z / a = 0 if 1' z = 0."""
        if proportional_to_ones(c):
            return None, 0.0
        if c0 is None:
            c0, e = _scaled(c - c.mean())
        inv_c = self.solve(c0) if inv_c is None else inv_c
        g = float(np.ones(len(c0)) @ inv_c)
        k_sq = float(c0 @ inv_c) - g * g / self.a
        if k_sq <= 0.0:
            return None, 0.0
        k = float(np.sqrt(k_sq))
        d = (inv_c - (g / self.a) * self.inv_ones) / k
        return _frozen(d - float(d.sum()) * self.w_mvp), math.ldexp(k, e)


def _eigen_centre(universe: AssetUniverse):
    """((s, q_max), "") of a singular universe from the stationarity of q on
    the budget hyperplane, V s + mu 1 = eta / 2 with 1' s = 1, or (None,
    reason) when it refuses them.

    In validation's eigenbasis V = Q diag(lam) Q', g = Q' 1, t = max|V|:
    Q' s = (Q' eta / 2 - mu g) / lam on eigenvalues above CENTRE_RCOND
    max(lam_max, t), alpha g on the rest, N, with mu fitted to N's rows, or
    alpha = 0 and mu from the budget where t ||g_N|| is below that cut (1 is
    orthogonal to null(V)); two refinement steps against V follow.  s, the
    maximizer orthogonal to Z = null(V) with 1' z = 0 (clones share their
    weight equally), is put on budget and q_max = q(s).  Refused:

    - a KKT residual above 1e-8 (t max|s| + |mu| + max eta + t): DR is
      unbounded on the budget hyperplane when eta / 2 - mu 1 has a part
      beyond that bound on eigenvalues at rounding level, up to (n + 1) eps
      max(lam_max, t) (some z in Z has eta' z != 0: q(w + t z) = q(w) + t
      eta' z / 2); otherwise V is near singular and the centre ill conditioned;
    - a rounding bound of q(s), n eps (eta' |s| + |s|' |V| |s|), above
      PYTHAGORAS_ATOL * max(1, q_max): the centre lies too far out for any
      evaluation of q to resolve q_max.  A q_max within it of 0 reads 0.
    """
    n, V, eta = universe.n, universe.cov, universe.variances
    Q, lam = universe.eigen or np.linalg.eigh(V)[::-1]  # None where flagged singular by hand
    t = float(np.abs(V).max()) or 1.0
    top = max(float(lam[-1]), t)
    keep, g = lam > CENTRE_RCOND * top, np.ones(n) @ Q
    g_k, g_n, inv_g = g[keep], g[~keep], g[keep] / lam[keep]  # inv_g: Q' V^+ 1, kept rows
    coupled = t * math.sqrt(g_n @ g_n) > CENTRE_RCOND * top
    s, mu = np.zeros(n), 0.0
    for _ in range(3):  # the solve, then two refinement steps: c, b the KKT and budget residuals
        c, y, b = Q.T @ (0.5 * eta - V @ s - mu), np.zeros(n), 1.0 - float(s.sum())
        step = g_n @ c[~keep] / (g_n @ g_n) if coupled else (inv_g @ c[keep] - b) / (inv_g @ g_k)
        y[keep] = (c[keep] - step * g_k) / lam[keep]
        y[~keep] = g_n * (b - g_k @ y[keep]) / (g_n @ g_n) if coupled else 0.0
        s, mu = s + Q @ y, mu + float(step)
    resid = max(float(np.abs(0.5 * eta - V @ s - mu).max()), t * abs(1.0 - float(s.sum())))
    tol = 1e-8 * (t * float(np.abs(s).max()) + abs(mu) + float(eta.max()) + t)
    rounding = lam <= (n + 1) * np.finfo(float).eps * top
    if not resid <= tol and float(np.linalg.norm(Q[:, rounding].T @ (0.5 * eta - mu))) > tol:
        return None, f"DR unbounded on the budget hyperplane: KKT residual {resid:.3e} > {tol:.3e}"
    s = _frozen(s + (1.0 - float(s.sum())) / n)
    size = np.abs(s)
    q_max = _variance_and_dr(universe, s)[1]
    noise = n * np.finfo(float).eps * float(eta @ size + size @ np.abs(V) @ size)
    if not resid <= tol or noise > PYTHAGORAS_ATOL * max(1.0, q_max):
        return None, (f"maximum-DR centre ill-conditioned: KKT residual {resid:.3e} (bound "
                      f"{tol:.3e}), q = {q_max:.6e} at the centre, max|s| = "
                      f"{float(size.max()):.3e}, rounding bound {noise:.3e}")
    return (s, 0.0 if abs(q_max) <= noise else q_max), ""


def default_sigma_grid(solver: CovarianceSolver, points: int = 200) -> np.ndarray:
    """Geometric grid in excess variance, from near sigma_mvp out to
    GRID_SPAN * sigma_mdrp, of a universe's covariance kernel (``u.solver``)."""
    lo = 1e-6 * solver.sigma2_mvp
    hi = (GRID_SPAN * solver.sigma_mdrp) ** 2
    u2 = np.geomspace(lo, max(hi, lo * 10.0), int(points))
    return np.sqrt(solver.sigma2_mvp + u2)


@dataclass(frozen=True, eq=False)
class Portfolio:
    """A fully invested portfolio with its basic statistics.

    centrality_sq is c^2 = q_max - dr, the squared distance (in the embedded
    geometry) between the portfolio point and the maximum-DR portfolio.
    :func:`portfolio_stats` sets it about the universe's ``centre`` and
    leaves it None where the universe has none.
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
    max(BUDGET_ATOL, 4 n eps sum|w_i|), a float sum's rounding bound (Higham
    2002, sec. 4.2); a weight that is not a finite number raises ParseError.
    With n, a vector of another length then raises DimensionMismatchError."""
    w = _finite_array(weights, "weights")
    if w.ndim != 1:
        raise DimensionMismatchError(f"weights must be 1-D, got shape {w.shape}")
    total = float(w.sum())
    tol = max(BUDGET_ATOL, 4 * len(w) * np.finfo(float).eps * float(np.abs(w).sum()))
    if not abs(total - 1.0) <= tol < math.inf:  # finite weights whose sum overflows fail
        raise BudgetViolationError(f"weights sum to {total!r}, outside 1 +/- {tol:.3g}")
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
    dimension agreement of optional expected returns.  A cov, expected
    returns or a risk-free rate that are not all finite numbers, and names
    that are a string, not a sequence or hold a carriage return raise
    ParseError.

    Definiteness is decided by one shifted Cholesky factorization when it
    succeeds (see :func:`_certified_nonsingular`): V is then strictly
    positive definite beyond PSD_RTOL * lambda_max and is stored as given,
    with the factor that certified it.
    Otherwise one eigendecomposition decides, and is kept (``eigen``): an
    eigenvalue below -PSD_RTOL * lambda_max raises NotPSDError, a negative
    one within that allowance clamps V through it, and one at or below
    PSD_RTOL * lambda_max leaves ``nonsingular`` False.  The certificate
    answers only where the eigenvalue test gives the same answer.

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
        raise ParseError("covariance contains non-finite entries")
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

    factor, eigen = _certified_nonsingular(V), None
    if factor is not None:
        nonsingular = True
        factor.setflags(write=False)
    else:
        evals, evecs = np.linalg.eigh(V)
        lam_max, lam_min = max(float(evals[-1]), 0.0), float(evals[0])
        if lam_min < -PSD_RTOL * lam_max:
            raise NotPSDError(
                f"smallest eigenvalue {lam_min:.3e} below -{PSD_RTOL:.0e} * {lam_max:.3e}"
            )
        eigen = (_frozen(evecs), _frozen(np.clip(evals, 0.0, None)))
        if lam_min < 0.0:  # within tolerance: clamp the offending eigenvalues to zero
            V = (evecs * eigen[1]) @ evecs.T
            V = 0.5 * (V + V.T)
        nonsingular = lam_min > PSD_RTOL * lam_max

    if names is None:
        names = tuple(f"A{i + 1}" for i in range(n))
    else:
        if isinstance(names, str) or not isinstance(names, (Sequence, np.ndarray)):
            raise ParseError(f"names must be a sequence of asset names, got {names!r}")
        names = tuple(str(s) for s in names)
        if any("\r" in s for s in names):  # csv.writer leaves "\r" unquoted
            raise ParseError("an asset name holds a carriage return")
        if len(names) != n:
            raise DimensionMismatchError(f"{len(names)} names for {n} assets")

    rbar = None
    if expected_returns is not None:
        rbar = _finite_array(expected_returns, "expected_returns")
        if rbar.shape != (n,):
            raise DimensionMismatchError(f"expected_returns shape {rbar.shape}, need ({n},)")
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
        eigen=eigen,
    )


def _variance_and_dr(universe: AssetUniverse, w: np.ndarray) -> tuple:
    """(w' V w clamped at 0, as V is PSD, and q(w)): the one evaluation of q."""
    variance = max(float(w @ universe.cov @ w), 0.0)
    return variance, 0.5 * float(universe.variances @ w) - 0.5 * variance


def diversification_return(universe: AssetUniverse, weights) -> float:
    """Diversification return q(w) = 0.5 * (eta' w - w' V w) of a budget portfolio."""
    return _variance_and_dr(universe, check_budget(weights, universe.n))[1]


def portfolio_stats(universe: AssetUniverse, weights) -> Portfolio:
    """Bundle variance, DR, centrality and expected return into a Portfolio.

    The squared centrality is 0.5 (w - s)' V (w - s) about the universe's
    centre s (:attr:`AssetUniverse.centre`, the weights of
    ``special_portfolios(u).mdrp``, whose centrality is therefore exactly 0
    and whose DR is q_max bit for bit).  It equals q_max - q(w) and
    the embedding's w' B w on budget portfolios, without their cancellation
    near s.  It is None where the universe has no centre.
    """
    w = check_budget(weights, universe.n)
    variance, dr = _variance_and_dr(universe, w)

    centrality_sq, centre = None, universe.centre
    if centre is not None:
        offset = w - centre[0]  # exactly 0 at s, where w' B w and q_max - q(w) round
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
