"""Operation-count gates: one factorization per universe, then no solves.

Counts are deterministic, so these gates pin the complexity shape that wall
times can only suggest: after the universe's kernel is built, every sweep,
the inflection report and the ratio audit are dot products, whatever the
number of grid points.
"""

from collections import Counter

import numpy as np
import pytest

import drfrontier as drf
from drfrontier import embedding, model
from drfrontier.frontiers import FrontierKind

from .conftest import R0_3, RBAR3, V3
from .oracles import random_universe


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(model, "cho_factor")
    counting(model, "cho_solve")
    counting(embedding, "embed")
    return counts


def _fresh_universes():
    # built inside each test, so no kernel is cached on them yet
    rng = np.random.default_rng(5)
    return [
        drf.validate_universe(V3, expected_returns=RBAR3, risk_free_rate=R0_3),
        random_universe(rng, 30, with_riskfree=True),
    ]


def test_one_factorization_and_one_solve_per_universe(calls):
    for u in _fresh_universes():
        before = dict(calls)
        assert u.solver is drf.portfolios.solver_for(u)
        assert calls["cho_factor"] - before.get("cho_factor", 0) == 1
        assert calls["cho_solve"] - before.get("cho_solve", 0) == 1


def _solves(counts):
    return counts["cho_factor"], counts["cho_solve"]


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


def test_inflection_audit_and_portfolios_make_no_solve(calls):
    for u in _fresh_universes():
        emb = drf.embed(u)
        u.solver
        before = _solves(calls)
        drf.inflection_report(u, points=1600)
        drf.mdp_global(u)
        drf.special_portfolios(u, embedding=emb)
        assert _solves(calls) == before


def test_special_portfolios_reuses_the_passed_embedding(calls):
    for u in _fresh_universes():
        emb = drf.embed(u)
        embeds = calls["embed"]
        sp = drf.special_portfolios(u, embedding=emb)
        assert calls["embed"] == embeds
        assert sp.mdrp.dr == pytest.approx(emb.q_max, abs=1e-10)
    # without an embedding the two-route check still builds its own
    u = _fresh_universes()[0]
    embeds = calls["embed"]
    drf.special_portfolios(u)
    assert calls["embed"] == embeds + 1
