"""Operation-count gates: one factorization per universe, then no solves.

Counts are deterministic, so these gates pin the complexity shape that wall
times can only suggest: from FACTOR_SOLVE_FROM assets, the Cholesky
factorization that certifies a universe is its only factorization of V and
its kernel solves with that factor (LU only as the fallback), while a
smaller universe's kernel is one LU solve; the benchmark's frontier chain
factors twice (the universe and the distance matrix's certificate) and makes no
full-size solve, inverse or eigendecomposition, nor forms the embedding's
Gram matrix, which is built when first read; after the kernel, every sweep,
the inflection report and the ratio-maximizing portfolio are dot products,
whatever the number of grid points, and the default-grid sweeps of a universe
compute its grid once and call no np.linalg function; the special portfolios and the
`portfolios` and `frontier` commands read centrality about the universe's
centre and build no embedding, and an embedding of a nonsingular universe
reads its centre from the kernel and q_max as q there, solving nothing, and
forms no distance matrix unless its D is read; validating a universe
and certifying a distance matrix take one Cholesky factorization and no
eigendecomposition unless the factorization fails, where a universe's one
eigendecomposition of V decides, clamps and serves its centre, and an embedding
decomposes its Gram matrix only when its coordinates are read; d_max of a distance matrix is one ascent, and a
matrix that is not one is refused before any; d_max of D_eta is a closed
form; a bad norm budget tau is refused before any eigendecomposition of
the norm matrix; the sandwich check draws nothing, each universe solves its
w_lo once, with one inverse of its KKT matrix, builds its two critical lines
once across levels from w_lo's free set and that inverse (an empty level
builds none), jumps each to the segment that holds the first level (on
panel-30 walking that one segment) and walks each only up to the segment
that holds a higher level, starts a line again only for a level below its
landing (jumping again to one inside the long-only risks), and the whole
check makes no other np.linalg inverse when no residual asks for a
refresh; a walk of a critical line allocates a
fixed number of arrays with np.zeros, whatever its number of corners, and
calls no np.flatnonzero, np.eye, np.append or np.outer.  A CLI run
validates its universe once, --riskfree or not, and executes only the
library modules its command uses: `mdp` runs `model` and
`mdp` (and `ingest` on a panel), never `frontiers`, `portfolios` or
`embedding`, `portfolios` runs `model` and `portfolios`, never `frontiers`,
and a universe's kernel and default grid execute `model` alone.  The
package keeps no exported name, only modules.  numpy is the only runtime
dependency: a CLI run loads no scipy, and importing the CLI or running
`ingest-check` loads no numpy either.
"""

import argparse
import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import drfrontier as drf
from drfrontier import embedding, mdp, model
from drfrontier.cli import main
from drfrontier.errors import (
    BudgetViolationError,
    NotPSDError,
    ParseError,
    SingularDistanceError,
)
from drfrontier.frontiers import FrontierKind

from .conftest import FIXTURES, R0_3, RBAR3, V3
from .oracles import random_universe, with_spectrum


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(model, "lu_solve")
    counting(embedding, "embed")
    counting(mdp, "_pairwise_frank_wolfe")
    counting(embedding, "assert_edm")
    counting(mdp, "d_max_bounds")
    counting(mdp, "build_d_eta")
    return counts


def _fresh_universes():
    # built inside each test, so no kernel is cached on them yet
    rng = np.random.default_rng(5)
    return [
        drf.validate_universe(V3, expected_returns=RBAR3, risk_free_rate=R0_3),
        random_universe(rng, 30, with_riskfree=True),
    ]


@pytest.fixture
def choleskys(monkeypatch):
    """Number of np.linalg.cholesky calls."""
    return _count_linalg(monkeypatch, "cholesky")


def test_one_factorization_and_one_solve_per_universe(calls, choleskys):
    # the certificate's factor serves the batched right-hand sides from
    # FACTOR_SOLVE_FROM assets; a smaller universe takes one LU solve
    big = random_universe(np.random.default_rng(6), model.FACTOR_SOLVE_FROM, with_riskfree=True)
    universes = _fresh_universes() + [big]
    assert choleskys["cholesky"] == len(universes)
    for u in universes:
        before = calls["lu_solve"]
        assert u.factor is not None
        assert u.solver is u.solver
        assert calls["lu_solve"] - before == (u.n < model.FACTOR_SOLVE_FROM)
    assert choleskys["cholesky"] == len(universes)


def _solves(counts):
    return counts["lu_solve"]


@pytest.mark.parametrize("points", [200, 2000])
def test_sweeps_make_no_solve(calls, points):
    for u in _fresh_universes():
        emb = drf.embed(u)
        grid = drf.default_sigma_grid(drf.frontier_params(u), points=points)
        before = _solves(calls)
        for kind in FrontierKind:
            curve = drf.sweep(u, kind, grid, embedding=emb, include_weights=True)
            assert len(curve.rows) == points
        assert _solves(calls) == before
        # the point of every kind reads the kernel's rays; the generic
        # objective alone solves, once
        sigma = float(grid[points // 2])
        for kind in FrontierKind:
            drf.point(u, kind, sigma)
        assert _solves(calls) == before
        drf.max_linear_over_ellipsoid(u, u.variances, sigma)
        assert _solves(calls) == before + 1


def test_default_sweeps_share_one_grid_per_universe(monkeypatch):
    # the six default-grid sweeps compute one grid and call no np.linalg
    # function; a replaced universe computes its own
    grids = Counter()
    geomspace = np.geomspace

    def counting(*args, **kwargs):
        grids["geomspace"] += 1
        return geomspace(*args, **kwargs)

    universes = _fresh_universes()
    for u in universes:
        u.solver
    monkeypatch.setattr(np, "geomspace", counting)
    linalg = _count_linalg(monkeypatch, *LINALG)
    for u in universes:
        grids.clear()
        before = sum(linalg.values())
        for kind in FrontierKind:
            drf.sweep(u, kind)
        assert grids["geomspace"] == 1
        assert sum(linalg.values()) == before
        assert not u.sigma_grid.flags.writeable
        v = dataclasses.replace(u, names=tuple(f"B{i}" for i in range(u.n)))
        drf.sweep(v, FrontierKind.EFFICIENT_DR)
        assert grids["geomspace"] == 2
        assert v.sigma_grid is not u.sigma_grid
        np.testing.assert_array_equal(v.sigma_grid, u.sigma_grid)


def test_inflection_audit_and_portfolios_make_no_solve(calls):
    for u in _fresh_universes():
        emb = drf.embed(u)
        u.solver
        before = _solves(calls)
        drf.inflection_report(u)
        drf.mdp_global(u)
        drf.special_portfolios(u, embedding=emb)
        assert _solves(calls) == before


# every np.linalg function
LINALG = [
    name for name in np.linalg.__all__
    if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type)
]


def _count_linalg(monkeypatch, *names):
    """Counter of the calls of each named np.linalg function."""
    count = Counter()

    def counting(name):
        inner = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            count[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in names:
        counting(name)
    return count


@pytest.fixture
def d_solves(monkeypatch):
    """Calls of np.linalg.solve, pinv, svd and eigh.  The kernel's LU solve is
    model.lu_solve, bound at import, so only other solves count here."""
    return _count_linalg(monkeypatch, "solve", "pinv", "svd", "eigh")


def test_embed_reads_s_and_q_max_from_the_kernel(calls, d_solves, degenerate3):
    # embed, the special portfolios, every sweep, the inflection report and
    # the ratio-maximizing portfolio share the kernel's one solve (an LU
    # solve below FACTOR_SOLVE_FROM assets); no solve or pseudoinverse of D
    # runs on a nonsingular universe
    universes = _fresh_universes()
    d_solves.clear()  # random_universe solves for its risk-free rate
    for u in universes:
        before = calls["lu_solve"]
        drf.embed(u)
        drf.special_portfolios(u)
        for kind in FrontierKind:
            drf.sweep(u, kind)
        drf.inflection_report(u)
        drf.mdp_global(u)
        assert calls["lu_solve"] - before == 1
    assert sum(d_solves.values()) == 0
    # singular V (a riskless asset): the centre reads the eigendecomposition
    # that validation kept, solves nothing and is kept with the universe; the
    # Gram matrix's eigendecomposition runs only for coords
    riskless = drf.validate_universe(degenerate3.cov)
    unbounded = drf.validate_universe(with_spectrum([1.0, 0.5, 0.0, 0.0]))
    d_solves.clear()
    emb = drf.embed(riskless)
    drf.embed(riskless)
    drf.portfolio_stats(riskless, np.full(3, 1.0 / 3.0))
    assert d_solves == Counter() and calls["lu_solve"] == 2
    assert emb.q_max == pytest.approx(0.25, abs=1e-12)
    emb.coords
    assert d_solves == Counter(eigh=1)
    # a refused centre is kept too
    for _ in range(2):
        with pytest.raises(SingularDistanceError):
            drf.embed(unbounded)
    assert drf.portfolio_stats(unbounded, np.full(4, 0.25)).centrality_sq is None
    assert d_solves == Counter(eigh=1)


@pytest.fixture
def linalg_calls(monkeypatch):
    """(name, matrix shape) of each np.linalg factorization, solve, inverse
    and eigendecomposition, in call order."""
    calls = []

    def recording(name):
        inner = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in ("cholesky", "solve", "inv", "pinv", "eigh", "eigvalsh"):
        recording(name)
    return calls


def test_the_frontier_chain_factors_twice_and_forms_no_gram(calls, linalg_calls):
    # the benchmark's frontier_large chain on an n = 300 universe
    n = 300
    x = random_universe(np.random.default_rng(12), n, with_returns=True)
    r0 = float(x.expected_returns @ x.solver.w_mvp) - 0.05
    del linalg_calls[:]
    u = drf.validate_universe(x.cov, expected_returns=x.expected_returns, risk_free_rate=r0)
    emb = drf.embed(u)
    assert drf.assert_edm(emb.dist).is_edm
    drf.special_portfolios(u, embedding=emb)
    params = drf.frontier_params(u)
    for kind in FrontierKind:
        curve = drf.sweep(u, kind, include_weights=kind is FrontierKind.EFFICIENT_DR)
        assert len(curve.rows) == len(drf.default_sigma_grid(params))
    drf.inflection_report(u)
    drf.mdp_global(u)
    # one Cholesky in validate_universe, one in assert_edm (of G_a, n - 1)
    assert [c for c in linalg_calls if c[0] == "cholesky"] == [
        ("cholesky", (n, n)),
        ("cholesky", (n - 1, n - 1)),
    ]
    # nothing larger than the substitution's diagonal blocks is solved,
    # inverted or decomposed, and no LU solve falls back
    big = [c for c in linalg_calls if c[0] != "cholesky" and max(c[1]) > model.SOLVE_BLOCK]
    assert big == []
    assert calls["lu_solve"] == 0
    # the Gram matrix is formed on its first read, once
    assert "gram" not in vars(emb)
    assert emb.gram is emb.gram and emb.gram.shape == (n, n)
    # a new risk-free rate keeps the factor: the new kernel solves with it
    v = dataclasses.replace(u, risk_free_rate=r0 - 0.01)
    assert v.factor is u.factor and v.solver is not u.solver
    drf.sweep(v, FrontierKind.CML)
    assert calls["lu_solve"] == 0
    assert len([c for c in linalg_calls if c[0] == "cholesky"]) == 2


def test_special_portfolios_reuses_the_passed_embedding(calls):
    for u in _fresh_universes():
        emb = drf.embed(u)
        embeds = calls["embed"]
        sp = drf.special_portfolios(u, embedding=emb)
        assert calls["embed"] == embeds
        assert sp.mdrp.dr == pytest.approx(emb.q_max, abs=1e-10)
    # without one, none is built: centrality comes from the kernel
    u = _fresh_universes()[0]
    embeds = calls["embed"]
    drf.special_portfolios(u)
    assert calls["embed"] == embeds


def test_a_bad_norm_budget_costs_no_eigendecomposition(monkeypatch):
    # norm_dr_bound reads tau before the norm matrix, so a bad tau is
    # refused in O(1), without eigvalsh of A
    n = 300
    emb = drf.embed(random_universe(np.random.default_rng(13), n))
    eigs = _count_linalg(monkeypatch, "eigvalsh")
    for tau, error in (("x", ParseError), (-1.0, BudgetViolationError)):
        with pytest.raises(error):
            drf.norm_dr_bound(emb, np.eye(n), tau)
    assert eigs["eigvalsh"] == 0


def test_d_max_of_an_edm_is_one_ascent(calls, ex3, universe30):
    edms = {
        "d_eta ex3": drf.build_d_eta(ex3),
        "d_eta panel-30": drf.build_d_eta(universe30),
        "distance panel-30": drf.build_distance_matrix(universe30),
    }
    for k, (name, D) in enumerate(edms.items(), start=1):
        b = drf.d_max_bounds(D)
        assert calls["_pairwise_frank_wolfe"] == k, name
        assert b.starts_used == 1 and b.converged, name
        assert b.steps < 10 * D.shape[0], name
    for u in (ex3, universe30):
        drf.analyze_mdp(u)
        sigma = 2.0 * float(np.sqrt(u.cov.max()))
        drf.sandwich_check(u, sigma, samples=10)
    assert calls["_pairwise_frank_wolfe"] == len(edms)


def test_d_max_of_d_eta_is_its_start(ex3, universe30):
    # the farthest-pair midpoint is optimal for D_eta: no ascent step
    for u in (ex3, universe30):
        b = drf.d_max_bounds(drf.build_d_eta(u))
        assert b.steps == 0 and b.converged


def test_mdp_analysis_reads_d_max_in_closed_form(calls, ex3, universe30):
    # d_max of D_eta needs neither D_eta, nor the EDM certificate, nor an ascent
    for u in (ex3, universe30):
        drf.analyze_mdp(u)
        sigma = 2.0 * float(np.sqrt(u.cov.max()))
        drf.sandwich_check(u, sigma, samples=10)
    assert calls["build_d_eta"] == calls["assert_edm"] == calls["d_max_bounds"] == 0
    # the counters see D_eta and the general bracket, which certifies its input
    mdp.d_max_bounds(mdp.build_d_eta(ex3))
    assert calls["build_d_eta"] == calls["assert_edm"] == calls["d_max_bounds"] == 1


@pytest.fixture
def validations(monkeypatch):
    """Number of validate_universe calls, under every name a module binds
    (the package itself binds none: drf.validate_universe reads model's)."""
    count = Counter()
    inner = model.validate_universe

    def counting(*args, **kwargs):
        count["validate_universe"] += 1
        return inner(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("drfrontier."):
            if getattr(module, "validate_universe", None) is inner:
                monkeypatch.setattr(module, "validate_universe", counting)
    return count


@pytest.mark.parametrize("riskfree", [[], ["--riskfree", "0.01"]])
@pytest.mark.parametrize("fixture", ["example3_with_returns.json", "synthetic_panel_30.csv"])
def test_a_cli_run_validates_its_universe_once(validations, fixture, riskfree, tmp_path):
    # --riskfree is applied in that one validation, not by a second one
    runs = [
        ["portfolios"],
        ["frontier", "--svg"],
        ["mdp", "--samples", "100"],
        ["embed"],
    ]
    for k, args in enumerate(runs, start=1):
        out = str(tmp_path / str(k))
        src = str(FIXTURES / fixture)
        assert main(args + riskfree + ["--input", src, "--out", out]) == 0
        assert validations["validate_universe"] == k, args


@pytest.fixture
def draws(monkeypatch):
    """Row counts of the Dirichlet calls of every np.random.default_rng."""
    rows = []
    make = np.random.default_rng

    class Counting:
        def __init__(self, seed=None):
            self._rng = make(seed)

        def dirichlet(self, alpha, size=None):
            out = self._rng.dirichlet(alpha, size=size)
            rows.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    return rows


def test_sandwich_draws_nothing_and_builds_each_line_once_per_universe(
    draws, monkeypatch, ex3, universe30
):
    starts, walks, solving = [], [], Counter()
    active_set, walk = mdp._active_set, mdp._walk

    def counting_active_set(V, start):  # its own np.linalg calls go to solving
        before = Counter(linalg)
        out = active_set(V, start)
        made = linalg - before
        starts.append(1)
        solving.update(made)
        linalg.subtract(made)
        return out

    monkeypatch.setattr(mdp, "_active_set", counting_active_set)
    monkeypatch.setattr(
        mdp, "_walk", lambda V, mu, *start: walks.append(start) or walk(V, mu, *start)
    )
    linalg = _count_linalg(monkeypatch, *LINALG)
    big = random_universe(np.random.default_rng(7), 60)
    # the active set's solves: one for the minimum on w_mvp's positive
    # support, one more after each drop of its nonpositive weights, and those
    # of its moves (2, 6, 2, 5 and 6 from the least volatile asset alone)
    solves = (1, 1, 1, 3, 2)
    for u, solved in zip(_fresh_universes() + [ex3, universe30, big], solves):
        panel = u is universe30
        u = drf.validate_universe(u.cov)  # no line cached yet
        starts.clear()
        walks.clear()
        linalg.clear()
        solving.clear()
        w = np.full(u.n, 1.0 / u.n)
        sigma_eq = float(np.sqrt(w @ u.cov @ w))
        rep = drf.sandwich_check(u, 1e-3 * sigma_eq, samples=500)
        # an empty level reads w_lo, started from the kernel's w_mvp (the
        # kernel is built, by model.lu_solve, which np.linalg does not count)
        # and solved once with the inverse of its KKT matrix, and builds no line
        assert rep.empty and len(starts) == 1 and walks == [] and "solver" in vars(u)
        assert +linalg == Counter(inv=1)
        rep = drf.sandwich_check(u, sigma_eq, samples=500, seed=3)
        assert not rep.empty and rep.accepted == rep.requested == 500
        # each line walks (or jumps) from w_lo to the segment that holds
        # tau, no further, and reading that segment's free set and pair
        # walks nothing; no step forms an inverse
        tau = min(max(rep.sigma, rep.sigma_lo), rep.sigma_hi)
        lines = (u.eta_line, u.root_eta_line)
        walked = [len(line.free) for line in lines]
        at = [line.at(tau)[0] for line in lines]
        assert walked == [k + 1 for k in at]
        for line, k in zip(lines, at):
            line.free[k], line.pairs[k]
        assert [len(line.free) for line in lines] == walked
        assert linalg["inv"] == 1
        jumped = [line.corners[0] > 0.0 for line in lines]
        # the root line's jump starts from the eta line's landing at tau, the
        # free set of its last segment and that set's KKT inverse, handed
        # over without forming one
        (*_, eta_tau, handed), (*_, root_tau, landing) = walks
        assert handed is None and eta_tau == root_tau
        if root_tau is not None and at[0] == walked[0] - 1:
            free, inverse = landing
            np.testing.assert_array_equal(free, u.eta_line.free[at[0]])
            K = mdp._kkt(u.cov, free)
            assert np.abs(K @ inverse - np.eye(len(free) + 1)).max() < 1e-9
        else:
            assert landing is None
        landings = [(line.corners[0], sorted(line.free[0])) for line in lines]
        if panel:
            # panel-30's level lies on segment 11 of each line's 30: each
            # line lands there, at corners[0] = lambda(tau) > 0, and walks
            # that one segment
            assert jumped == [True, True] and walked == [1, 1]
            for line in lines:
                risk_sq = line.var0[0] + line.corners[0] ** 2 * line.k2[0]
                assert risk_sq == pytest.approx(tau * tau, rel=1e-12)
        for factor in (1.1, 1.2):
            rep = drf.sandwich_check(u, factor * sigma_eq, samples=500, seed=3)
            assert not rep.empty and rep.accepted == rep.requested == 500
        # higher levels extend the lines from where they are
        assert len(walks) == 2 and [line.corners[0] for line in lines] == [c for c, _ in landings]
        # a level strictly between sigma_lo and sigma_eq reads below each
        # landing: a line that jumped starts again, once, and jumps to it
        inside = 0.5 * (rep.sigma_lo + sigma_eq)
        rep = drf.sandwich_check(u, inside, samples=500, seed=3)
        assert not rep.empty and rep.holds is True
        assert [tau for _, _, tau, _ in walks[2:]] == [inside] * sum(jumped)
        again = [line.corners[0] > 0.0 for line in lines]
        restarts = sum(jumped) + sum(again)
        if panel:
            assert again == [True, True]
        # a level at sigma_lo reads below each landing: a line that jumped
        # again starts again from w_lo, once
        rep = drf.sandwich_check(u, rep.sigma_lo, samples=500, seed=3)
        assert not rep.empty and rep.holds is True
        assert len(walks) == 2 + restarts
        assert all(tau is None for _, _, tau, _ in walks[2 + sum(jumped) :])
        for sigma in (0.5 * rep.sigma_lo, 2.0 * rep.sigma_hi):
            rep = drf.sandwich_check(u, sigma, samples=500, seed=3)
            assert rep.empty and rep.accepted == 0
        # the levels share w_lo and the universe's two lines: each walk
        # starts at w_lo's free set from its one KKT inverse (a root line's
        # jump from the eta line's landing, and from w_lo again if it
        # declines), and each line is extended, never rebuilt, with no
        # np.linalg call when no residual asks for a refresh but a jump's
        # triangular solves and Cholesky tests; the active set makes only its
        # solves and Cholesky tests
        assert len(starts) == 1 and (u.eta_line, u.root_eta_line) == lines
        lo = u.long_only_mvp
        assert all(free is lo.free and inverse is lo.kkt_inverse for free, inverse, *_ in walks)
        for line in lines:
            line.at(math.inf)
            assert line.corners[0] == 0.0
        if panel:  # on the free set of segment 11 of the whole line
            assert [len(line.free) for line in lines] == [30, 30]
            assert [sorted(line.free[11]) for line in lines] == [free for _, free in landings]
        assert len(walks) == 2 + restarts
        assert linalg["inv"] == 1 and set(+linalg) <= {"inv", "solve", "cholesky"}
        assert solving["solve"] == solved and set(+solving) <= {"solve", "cholesky"}
    assert draws == []


def test_a_walk_of_the_critical_line_allocates_nothing_per_corner(monkeypatch, ex3, universe30):
    # ex3's eta line (2 segments), panel-30's (30 segments) and that of a
    # 60-asset universe (68 segments, more corrections than FOLD_EVERY, so
    # the walk folds) make the same calls in each walk
    big = random_universe(np.random.default_rng(7), 60)
    counts = _count_linalg(monkeypatch, "inv")
    for name in ("zeros", "flatnonzero", "eye", "append", "outer"):
        inner = getattr(np, name)
        monkeypatch.setattr(
            np, name, lambda *a, _f=inner, _name=name, **k: counts.update([_name]) or _f(*a, **k)
        )
    walk, walks = mdp._walk, []

    def counting_walk(*args):
        before = Counter(counts)
        out = list(walk(*args))
        walks.append((len(out), counts - before))
        yield from out

    monkeypatch.setattr(mdp, "_walk", counting_walk)
    for u in (ex3, universe30, big):
        mdp.CriticalLine(u, u.variances).at(math.inf)
    assert [segments for segments, _ in walks] == [2, 30, 68]
    for _, made in walks:
        assert made == Counter(zeros=walks[0][1]["zeros"])


def test_non_edm_is_refused_before_any_ascent(calls):
    # a nonnegative matrix that is not an EDM raises after its certificate
    n = 5
    A = np.ones((n, n)) - np.eye(n)
    A[0, 1] = A[1, 0] = 100.0  # sqrt(A) breaks the triangle inequality
    assert not drf.assert_edm(A).is_edm
    certified = calls["assert_edm"]
    with pytest.raises(NotPSDError):
        drf.d_max_bounds(A)
    assert calls["assert_edm"] - certified == 1
    assert calls["_pairwise_frank_wolfe"] == 0


@pytest.fixture
def eigen(monkeypatch):
    """Number of np.linalg.eigh and np.linalg.eigvalsh calls."""
    return _count_linalg(monkeypatch, "eigh", "eigvalsh")


@pytest.mark.parametrize("fixture", ["synthetic_panel_30.csv", "example3_with_returns.json"])
def test_portfolios_and_frontier_make_no_eigendecomposition(calls, eigen, fixture, tmp_path):
    # centrality and q_max come from the covariance kernel: no embedding
    src = str(FIXTURES / fixture)
    runs = [
        ["portfolios"],
        ["frontier", "--svg", "--riskfree", "0.01"],
    ]
    for k, args in enumerate(runs):
        out = str(tmp_path / str(k))
        assert main(args + ["--input", src, "--out", out]) == 0
    assert (tmp_path / "1" / "sigma_c.svg").exists()
    assert calls["embed"] == 0
    assert eigen["eigh"] == eigen["eigvalsh"] == 0


def test_certificates_and_embed_make_no_eigendecomposition(eigen):
    # validate_universe and assert_edm certify by Cholesky; embed defers eigh
    u = random_universe(np.random.default_rng(5), 30, with_riskfree=True)
    emb = drf.embed(u)
    for D in (emb.dist, drf.build_d_eta(u)):
        cert = drf.assert_edm(D)
        assert cert.is_edm and cert.min_eigenvalue == 0.0
    assert emb.q_max > 0.0 and emb.gram.shape == (30, 30)
    assert eigen["eigh"] == eigen["eigvalsh"] == 0


def test_embed_and_coords_form_no_distance_matrix(monkeypatch, degenerate3):
    # the embed command reads s, q_max and the coordinates, none of which
    # needs D (n^2 floats); D is formed once, on the first read of dist
    built = []
    inner = embedding.build_distance_matrix
    monkeypatch.setattr(embedding, "build_distance_matrix", lambda u: built.append(u) or inner(u))
    for u in [*_fresh_universes(), drf.validate_universe(degenerate3.cov)]:
        emb = drf.embed(u)
        emb.coords, emb.eigvals, emb.gram, emb.n
        assert not built
        assert emb.dist is emb.dist and built == [u]
        np.testing.assert_array_equal(emb.dist, inner(u))
        built.clear()


@pytest.mark.parametrize("first", ["coords", "eigvals", "dim"])
def test_embedding_decomposes_once_on_first_read(eigen, first):
    u = random_universe(np.random.default_rng(6), 30)
    emb = drf.embed(u)
    assert eigen["eigh"] == 0
    getattr(emb, first)
    assert eigen["eigh"] == 1
    X, lam = emb.coords, emb.eigvals
    assert X.shape == (emb.dim, 30) and lam.shape == (emb.dim,)
    assert emb.coords is X and emb.eigvals is lam
    assert eigen["eigh"] == 1 and eigen["eigvalsh"] == 0


def test_eigenvalues_only_where_cholesky_cannot_certify(eigen):
    # an indefinite V: one eigendecomposition, then the refusal
    with pytest.raises(NotPSDError):
        drf.validate_universe(with_spectrum([1.0, 0.5, -0.5]))
    assert (eigen["eigvalsh"], eigen["eigh"]) == (0, 1)
    # an eigenvalue of -1e-12 lambda_max: the same eigendecomposition clamps
    u = drf.validate_universe(with_spectrum([1.0, 0.5, -1e-12]))
    assert not u.nonsingular
    assert (eigen["eigvalsh"], eigen["eigh"]) == (0, 2)
    # a nonnegative matrix that is not an EDM: one eigenvalue test
    A = np.ones((5, 5)) - np.eye(5)
    A[0, 1] = A[1, 0] = 100.0
    assert not drf.assert_edm(A).is_edm
    assert (eigen["eigvalsh"], eigen["eigh"]) == (1, 2)


@pytest.mark.parametrize(
    "evals, answered",
    [([1.0, 0.5, 0.25, 0.0], True), ([1.0, 0.5, 0.25, -1e-12], True), ([1.0, 0.5, 0.0, 0.0], False)],
    ids=["riskless", "clamped", "unbounded"],
)
def test_one_eigendecomposition_per_singular_universe(monkeypatch, evals, answered):
    # where the certificate fails, validation's one eigh of V decides, clamps
    # and is kept: the centre, portfolio_stats and embed read it, and no SVD
    # or second eigendecomposition of V runs, whether the centre is answered
    # or refused
    V = with_spectrum(evals)
    linalg = _count_linalg(monkeypatch, *LINALG)
    u = drf.validate_universe(V)
    assert not u.nonsingular
    w = np.full(u.n, 1.0 / u.n)
    for _ in range(2):
        assert (drf.portfolio_stats(u, w).centrality_sq is None) == (u.centre is None)
        if u.centre is None:
            with pytest.raises(SingularDistanceError, match="DR unbounded"):
                drf.embed(u)
        else:
            assert drf.embed(u).mdrp_weights is u.centre[0]
    assert (u.centre is not None) == answered
    # the certificate's Cholesky and one eigh; np.linalg.norm is O(n^2)
    assert {k: c for k, c in linalg.items() if k != "norm"} == {"cholesky": 1, "eigh": 1}


def _fresh_interpreter(*lines) -> list:
    """Run the lines in a new interpreter that imports drfrontier from the
    tested checkout; the lines it prints."""
    src = str(Path(drf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(["import sys", *lines])],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded(package: str) -> str:
    return f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"


def test_cli_run_loads_no_scipy(tmp_path):
    args = ["portfolios", "--input", str(FIXTURES / "example3_universe.json")]
    printed = _fresh_interpreter(
        "from drfrontier.cli import main",
        f"assert main({args + ['--out', str(tmp_path)]!r}) == 0",
        _loaded("scipy"),
    )
    assert printed == ["[]"]
    assert (tmp_path / "portfolios.json").exists()


@pytest.mark.parametrize("fixture", ["synthetic_panel_30.csv", "mini_prices.csv"])
def test_ingest_check_loads_no_numpy(fixture, tmp_path):
    args = ["ingest-check", "--input", str(FIXTURES / fixture), "--out", str(tmp_path)]
    printed = _fresh_interpreter(
        "from drfrontier.cli import main", f"assert main({args!r}) == 0", _loaded("numpy")
    )
    # the provenance record, then the numpy modules loaded
    assert printed[-1] == "[]"
    assert (tmp_path / "provenance.json").exists()


_JSON, _PANEL = "example3_with_returns.json", "synthetic_panel_30.csv"
_BASE = {"cli", "errors", "model"}


@pytest.mark.parametrize(
    "args, fixture, executed",
    [
        (["portfolios"], _JSON, _BASE | {"portfolios"}),
        (["frontier", "--svg"], _JSON, _BASE | {"portfolios", "frontiers", "svg"}),
        (["mdp"], _JSON, _BASE | {"mdp"}),
        (["mdp"], _PANEL, _BASE | {"mdp", "ingest"}),
        (["embed"], _JSON, _BASE | {"embedding"}),
        (["ingest-check"], _PANEL, {"cli", "errors", "ingest"}),
    ],
    ids=["portfolios", "frontier-svg", "mdp-ex3", "mdp-panel30", "embed", "ingest-check"],
)
def test_each_command_executes_only_the_modules_it_uses(args, fixture, executed, tmp_path):
    # a module the package registered but nobody imported is a lazy module,
    # not yet a types.ModuleType
    args = args + ["--input", str(FIXTURES / fixture), "--out", str(tmp_path)]
    printed = _fresh_interpreter(
        "import types",
        "from drfrontier.cli import main",
        f"assert main({args!r}) == 0",
        "print(sorted(m for m, v in sys.modules.items()"
        " if m.startswith('drfrontier.') and type(v) is types.ModuleType))",
    )
    assert printed[-1] == str(sorted(f"drfrontier.{m}" for m in executed))


def test_importing_the_cli_loads_no_numpy_and_registers_the_traced_modules(tmp_path):
    # the benchmark's traced runs wrap tracing.TARGETS right after this import,
    # looking each module up in sys.modules
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    args = ["portfolios", "--input", str(FIXTURES / "example3_universe.json")]
    numpy_loaded, spans = _fresh_interpreter(
        "import drfrontier.cli",
        _loaded("numpy"),
        f"sys.path.insert(0, {bench!r})",
        "import tracing",
        "for m, f in tracing.TARGETS:",
        "    assert callable(getattr(sys.modules['drfrontier.' + m], f)), (m, f)",
        "tracer = tracing.Tracer()",
        "tracing.instrument(tracer)",
        f"assert drfrontier.cli.main({args + ['--out', str(tmp_path)]!r}) == 0",
        "print(sorted({s['name'] for s in tracer.spans}))",
    )
    assert numpy_loaded == "[]"
    assert spans == str(["model.validate_universe", "portfolios.special_portfolios"])


def test_model_runs_without_frontiers():
    # the kernel owns sigma_mdrp and model the default grid, so a universe's
    # grid needs no other library module
    path = str(FIXTURES / "example3_universe.json")
    printed = _fresh_interpreter(
        "import json, types",
        "from drfrontier import model",
        f"u = model.validate_universe(json.load(open({path!r}))['V'])",
        "u.sigma_grid, u.solver.sigma_mdrp",
        "print(sorted(m for m, v in sys.modules.items()"
        " if m.startswith('drfrontier.') and type(v) is types.ModuleType))",
    )
    assert printed == [str(["drfrontier.errors", "drfrontier.model"])]


def test_package_names_follow_their_module(monkeypatch):
    # a name read through the package while its module is patched is not
    # kept: once the patch is undone the package gives the module's again
    from drfrontier import frontiers

    sweep = frontiers.sweep
    monkeypatch.delitem(vars(drf), "sweep", raising=False)  # as before a first read
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frontiers, "sweep", lambda *args, **kwargs: None)
        assert drf.sweep is not sweep
    assert drf.sweep is frontiers.sweep is sweep


def test_package_names_resolve_to_executed_modules():
    # what a library user (and the benchmark's set-up) imports runs at once
    printed = _fresh_interpreter(
        "import types",
        "from drfrontier import embedding, frontiers, mdp, model, portfolios",
        "mods = (embedding, frontiers, mdp, model, portfolios)",
        "print(all(type(m) is types.ModuleType for m in mods))",
    )
    assert printed == ["True"]
    for name in drf.__all__:
        assert getattr(drf, name) is not None, name
    assert drf.mdp.sandwich_check is drf.sandwich_check


def test_frontier_kind_choices_are_the_frontier_kinds():
    # cli.py writes the list out so that building the parser loads no numpy
    from drfrontier.cli import build_parser

    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    (kind,) = [a for a in commands.choices["frontier"]._actions if a.dest == "kind"]
    assert kind.choices == [k.value for k in FrontierKind]
