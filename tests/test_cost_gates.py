"""Operation-count gates: one factorization per universe, then no solves.

Counts are deterministic, so these gates pin the complexity shape that wall
times can only suggest: after the universe's kernel is built, every sweep,
the inflection report and the ratio-maximizing portfolio are dot products,
whatever the number of grid points; the special portfolios and the
`portfolios` and `frontier` commands read centrality from the kernel and
build no embedding; validating a universe and certifying a distance matrix
take one Cholesky factorization and no eigendecomposition unless the
factorization fails, and an embedding decomposes its Gram matrix only when
its coordinates are read; d_max of a distance matrix is one ascent, and a
matrix that is not one is refused before any; d_max of D_eta is a closed
form; the sandwich check draws once per level, nothing on a level it proves
empty, and finds its long-only anchor once per universe.  A CLI run
validates its universe once, --riskfree or not.  numpy is the only runtime
dependency: a CLI run loads no scipy, and importing the CLI or running
`ingest-check` loads no numpy either.
"""

import argparse
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
from drfrontier.errors import NotPSDError
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
    counting(mdp, "long_only_min_variance")
    counting(mdp, "assert_edm")
    counting(mdp, "d_max_bounds")
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
        before = calls["lu_solve"]
        assert u.solver is u.solver
        # one LU factorization, shared by the batched right-hand sides
        assert calls["lu_solve"] - before == 1


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


def test_inflection_audit_and_portfolios_make_no_solve(calls):
    for u in _fresh_universes():
        emb = drf.embed(u)
        u.solver
        before = _solves(calls)
        drf.inflection_report(u)
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
    # without one, none is built: centrality comes from the kernel
    u = _fresh_universes()[0]
    embeds = calls["embed"]
    drf.special_portfolios(u)
    assert calls["embed"] == embeds


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
    # d_max of D_eta needs neither the EDM certificate nor an ascent
    for u in (ex3, universe30):
        drf.analyze_mdp(u)
        sigma = 2.0 * float(np.sqrt(u.cov.max()))
        drf.sandwich_check(u, sigma, samples=10)
    assert calls["assert_edm"] == calls["d_max_bounds"] == 0
    # the counters see the general bracket, which certifies its input
    mdp.d_max_bounds(drf.build_d_eta(ex3))
    assert calls["assert_edm"] == calls["d_max_bounds"] == 1


@pytest.fixture
def validations(monkeypatch):
    """Number of validate_universe calls, under every name the package binds."""
    count = Counter()
    inner = model.validate_universe

    def counting(*args, **kwargs):
        count["validate_universe"] += 1
        return inner(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "drfrontier":
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


def test_sandwich_draws_once_per_level_and_finds_w_lo_once_per_universe(
    calls, draws, ex3, universe30
):
    for u in _fresh_universes() + [ex3, universe30]:
        u = drf.validate_universe(u.cov)  # no anchor cached yet
        found = calls["long_only_min_variance"]
        w = np.full(u.n, 1.0 / u.n)
        sigma_eq = float(np.sqrt(w @ u.cov @ w))
        for factor in (1.0, 1.1, 1.2):
            before = len(draws)
            rep = drf.sandwich_check(u, factor * sigma_eq, samples=500, seed=3)
            assert not rep.empty
            assert draws[before:] == [500]
        # the three levels share the universe's long-only anchor
        assert calls["long_only_min_variance"] - found == 1
        # levels outside the long-only risk range draw nothing
        before = len(draws)
        for sigma in (0.5 * rep.sigma_lo, 2.0 * rep.sigma_hi):
            rep = drf.sandwich_check(u, sigma, samples=500, seed=3)
            assert rep.empty and rep.accepted == 0
        assert len(draws) == before
        assert calls["long_only_min_variance"] - found == 1


def test_non_edm_is_refused_before_any_ascent(calls):
    # a nonnegative matrix that is not an EDM raises after its certificate
    n = 5
    A = np.ones((n, n)) - np.eye(n)
    A[0, 1] = A[1, 0] = 100.0  # sqrt(A) breaks the triangle inequality
    assert not drf.assert_edm(A).is_edm
    with pytest.raises(NotPSDError):
        drf.d_max_bounds(A)
    assert calls["assert_edm"] == 1
    assert calls["_pairwise_frank_wolfe"] == 0


@pytest.fixture
def eigen(monkeypatch):
    """Number of np.linalg.eigh and np.linalg.eigvalsh calls."""
    count = Counter()

    def counting(name):
        inner = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            count[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    counting("eigh")
    counting("eigvalsh")
    return count


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
    # an indefinite V: one eigenvalue test, then the refusal
    with pytest.raises(NotPSDError):
        drf.validate_universe(with_spectrum([1.0, 0.5, -0.5]))
    assert (eigen["eigvalsh"], eigen["eigh"]) == (1, 0)
    # an eigenvalue of -1e-12 lambda_max: the test, then the clamp's eigh
    u = drf.validate_universe(with_spectrum([1.0, 0.5, -1e-12]))
    assert not u.nonsingular
    assert (eigen["eigvalsh"], eigen["eigh"]) == (2, 1)
    # a nonnegative matrix that is not an EDM: one eigenvalue test
    A = np.ones((5, 5)) - np.eye(5)
    A[0, 1] = A[1, 0] = 100.0
    assert not drf.assert_edm(A).is_edm
    assert (eigen["eigvalsh"], eigen["eigh"]) == (3, 1)


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
    assert spans == str(
        ["frontiers.frontier_params", "model.validate_universe", "portfolios.special_portfolios"]
    )


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
