"""The array-expression sweep against the row-by-row reference loop."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier.errors import DrFrontierError
from drfrontier.frontiers import FrontierKind

from .oracles import conditioned_universe, forward_error, sweep_rowwise
from .test_portfolios import _near_equal_universes

# q, ret and alpha agree to REL_TOL times the row's scale; centrality to
# CENTRALITY_ATOL, because the reference's sqrt(w' B w) is noisy near c = 0;
# weights to WEIGHTS_TOL times their size.
REL_TOL = 1e-10
CENTRALITY_ATOL = 1e-8
WEIGHTS_TOL = 1e-12


def _kinds(universe):
    kinds = [FrontierKind.EFFICIENT_DR, FrontierKind.MDP_AT_SIGMA]
    if drf.frontier_params(universe).eta_wo is not None:
        kinds += [FrontierKind.MV_EFFICIENT_DR, FrontierKind.MV_MEAN_RETURN]
        if universe.risk_free_rate is not None:
            kinds += [FrontierKind.CML, FrontierKind.EFFICIENT_DR_RISKFREE]
    return kinds


def _grid(universe, points=60):
    # below sigma_mvp, exactly at it, then the default grid
    p = drf.frontier_params(universe)
    return np.concatenate(
        [[0.5 * p.sigma_mvp, p.sigma_mvp], drf.default_sigma_grid(p, points=points)]
    )


def _assert_matches_reference(universe, embedding, grid, ill_conditioned=False):
    """Compare every kind on `grid`, with and without weights.

    ill_conditioned widens REL_TOL, and WEIGHTS_TOL, to the forward-error
    bound of the directions (see oracles.forward_error).  A centrality outside CENTRALITY_ATOL
    then still passes when c^2 agrees to that tolerance times
    max(scale, c^2, q_max) * |w|^2: the embedding's Gram matrix B, and with
    it the reference's w' B w, carries rounding that grows with |B| ~ q_max
    and with the size of the weights (as does the reference's
    0.5 (w - s)' V (w - s) when no embedding is passed).  At cond(V) = 1.1e7 on two assets the
    reference is 1.7e-7 off in c where the closed form is within 1e-11 of
    the 60-digit value.
    """
    scale = max(1.0, float(np.abs(universe.cov).max()))
    q_max = drf.frontier_params(universe).q_max if embedding is None else embedding.q_max
    rel_tol, weights_tol = REL_TOL, WEIGHTS_TOL
    if ill_conditioned:
        rel_tol = max(REL_TOL, forward_error(universe))
        weights_tol = max(WEIGHTS_TOL, forward_error(universe))
    for kind in _kinds(universe):
        sized = sweep_rowwise(universe, kind, grid, embedding, include_weights=True)
        for include_weights in (False, True):
            new = drf.sweep(universe, kind, grid, embedding, include_weights)
            ref = sweep_rowwise(universe, kind, grid, embedding, include_weights)
            assert len(new.rows) == len(ref.rows)
            for a, b, s in zip(new.rows, ref.rows, sized.rows):
                assert (a.sigma, a.status) == (b.sigma, b.status), kind
                w_size = 1.0 if s.weights is None else float(np.abs(s.weights).max())
                for name in ("q", "ret", "alpha"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert (x is None) == (y is None), (kind, name)
                    if x is not None:
                        tol = rel_tol * max(scale, abs(y), w_size)
                        assert abs(x - y) <= tol, (kind, name, a.sigma, x, y)
                assert (a.centrality is None) == (b.centrality is None)
                if a.centrality is not None:
                    close = abs(a.centrality - b.centrality) <= CENTRALITY_ATOL
                    if ill_conditioned and not close:
                        c_sq = b.centrality**2
                        size = max(scale, c_sq, q_max) * max(1.0, w_size) ** 2
                        close = abs(a.centrality**2 - c_sq) <= rel_tol * size
                    assert close, (kind, a.sigma, a.centrality, b.centrality)
                if include_weights and b.weights is not None:
                    atol = weights_tol * max(1.0, w_size)
                    np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=atol)
                    # cash is the weight of the riskless asset
                    assert (a.cash is None) == (b.cash is None)
                    if a.cash is not None:
                        assert abs(a.cash - b.cash) <= atol, (kind, a.sigma, a.cash, b.cash)
                else:
                    assert a.weights is None and b.weights is None


def test_sweep_matches_reference_ex3(ex3):
    _assert_matches_reference(ex3, drf.embed(ex3), _grid(ex3))


def test_sweep_matches_reference_ex3_returns(ex3_returns):
    _assert_matches_reference(ex3_returns, drf.embed(ex3_returns), _grid(ex3_returns))


def test_sweep_matches_reference_panel30(universe30):
    _assert_matches_reference(universe30, drf.embed(universe30), _grid(universe30))


def test_sweep_matches_reference_without_embedding(ex3_returns):
    _assert_matches_reference(ex3_returns, None, _grid(ex3_returns))


def test_sweep_matches_reference_at_near_equal_inputs():
    # vols and returns 1e-9 to 1e-3 apart: the reference forms its
    # right-hand sides as the kernel does, sqrt(eta)0 from variance
    # differences, so it needs no objective the caller rounded
    for u in _near_equal_universes():
        _assert_matches_reference(u, drf.embed(u), _grid(u))


def _grid_or_none(universe):
    try:
        return _grid(universe, points=40)
    except DrFrontierError:
        return None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 10**6),
    st.floats(0.0, 9.0),
    st.booleans(),
)
# cond(V) = 4.2e8: the cml weights of the two routes differ by 1.8e-12
# relative, 3.5e-11 at |w| = 19, while both lie 5.05e-9 from a 50-digit
# reference, within the forward-error bound of 2.6e-3
@example(n=2, seed=510509, log_cond=9.0, with_riskfree=True)
# a levered cash row whose weights sum to 1 only within their own rounding,
# 4 n eps sum|w_i|, beyond a fixed 1e-9
@example(n=7, seed=0, log_cond=9.0, with_riskfree=True)
def test_sweep_matches_reference_across_conditioning(n, seed, log_cond, with_riskfree):
    u = conditioned_universe(n, seed, log_cond, with_riskfree)
    grid = _grid_or_none(u)
    if grid is None:
        # a typed refusal (returns numerically proportional to ones) must be
        # the same on both routes
        for sweeper in (drf.sweep, sweep_rowwise):
            with pytest.raises(DrFrontierError):
                sweeper(u, FrontierKind.EFFICIENT_DR)
        return
    try:
        emb = drf.embed(u)
    except DrFrontierError:
        emb = None
    _assert_matches_reference(u, emb, grid, ill_conditioned=True)


def test_equal_variances_collapse_onto_mvp(identity3):
    # sqrt(eta) is proportional to ones: every ratio-maximizing point is
    # w_mvp, flagged degenerate, and no step divides by the zero norm
    p = drf.frontier_params(identity3)
    w_mvp = drf.special_portfolios(identity3).mvp.weights
    grid = [0.5 * p.sigma_mvp, p.sigma_mvp, 0.7, 1.0, 5.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mdp = drf.mdp_global(identity3)
        curve = drf.sweep(
            identity3,
            FrontierKind.MDP_AT_SIGMA,
            grid,
            embedding=drf.embed(identity3),
            include_weights=True,
        )
        flat = drf.sweep(identity3, FrontierKind.EFFICIENT_DR, grid, include_weights=True)
    np.testing.assert_allclose(mdp.weights, w_mvp, atol=1e-12)
    statuses = [r.status for r in curve.rows]
    assert statuses == ["risk_below_mvp"] + ["degenerate"] * 4
    for r in curve.rows[1:]:
        np.testing.assert_allclose(r.weights, w_mvp, atol=1e-15)
        assert r.q == pytest.approx(p.q_mvp, abs=1e-15)
        assert r.centrality == pytest.approx(0.0, abs=1e-15)
    assert [r.status for r in flat.rows] == ["risk_below_mvp"] + ["ok"] * 4
    assert all(r.alpha is None for r in flat.rows)


def test_grid_point_exactly_at_sigma_mvp(ex3_returns):
    p = drf.frontier_params(ex3_returns)
    w_mvp = drf.special_portfolios(ex3_returns).mvp.weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in (
            FrontierKind.EFFICIENT_DR,
            FrontierKind.MV_EFFICIENT_DR,
            FrontierKind.MDP_AT_SIGMA,
        ):
            (row,) = drf.sweep(
                ex3_returns, kind, [p.sigma_mvp], include_weights=True
            ).rows
            assert row.status == "ok"
            assert row.q == p.q_mvp
            np.testing.assert_array_equal(row.weights, w_mvp)
