"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single [PASS]/[FAIL]
line with its runtime; run with `pytest -s` to see the lines as they
happen.  Tolerances here are the contract, not suggestions; do not loosen
them to make a red criterion green.
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np

import drfrontier as drf
from drfrontier.frontiers import FrontierKind, _ray
from drfrontier.mdp import _ratio

from .conftest import R0_3, RBAR3, V3
from .oracles import (
    block_riskfree_dr,
    circle_scan,
    grid_max_half_quad,
    random_universe,
    simplex_grid,
)


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d} {label} ({time.perf_counter() - t0:.2f} s)")
        raise
    print(f"[PASS] criterion {num:02d} {label} ({time.perf_counter() - t0:.2f} s)")


def _sigma_grid(params, count, lo_frac=1e-2, span=3.0):
    u = np.geomspace(lo_frac * params.sigma_mvp, span * params.sigma_mdrp, count)
    return np.sqrt(params.sigma2_mvp + u * u)


def test_criterion_01_worked_example():
    with criterion(1, "worked 3-asset example"):
        t0 = time.perf_counter()
        u = drf.validate_universe(V3)
        dist = drf.build_distance_matrix(u)
        np.testing.assert_allclose(
            dist, [[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]], atol=1e-8
        )
        emb = drf.embed(u)
        np.testing.assert_allclose(emb.mdrp_weights, [-1.0, 1.0, 1.0], atol=1e-8)
        assert abs(emb.q_max - 1.0) <= 1e-8
        np.testing.assert_allclose(emb.coords.T @ emb.coords, emb.gram, atol=1e-8)
        radii = np.linalg.norm(emb.coords, axis=0)
        np.testing.assert_allclose(radii, 1.0, atol=1e-8)
        w_mvp = np.full(3, 1.0 / 3.0)
        assert abs(math.sqrt(drf.portfolio_stats(u, w_mvp).centrality_sq) - 2.0 / 3.0) <= 1e-8
        assert abs(drf.diversification_return(u, w_mvp) - 5.0 / 9.0) <= 1e-8
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_size_pair():
    with criterion(2, "split vs merged sleeves"):
        split = drf.validate_universe(np.diag([0.0, 1.0, 1.0]))
        merged = drf.validate_universe(np.diag([0.0, 0.5]))
        q_split = drf.diversification_return(split, np.array([0.5, 0.25, 0.25]))
        q_merged = drf.diversification_return(merged, np.array([0.5, 0.5]))
        assert abs(q_split - 3.0 / 16.0) <= 1e-12
        assert abs(q_merged - 1.0 / 16.0) <= 1e-12


def test_criterion_03_pythagoras_suite():
    with criterion(3, "centrality Pythagoras, 100 universes x 1000 portfolios"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(100):
            n = 2 + trial % 29
            u = random_universe(rng, n)
            emb = drf.embed(u)
            raw = rng.normal(0.0, 0.5, size=(1000, n))
            W = 1.0 / n + raw - raw.mean(axis=1, keepdims=True)
            q = 0.5 * (
                W @ u.variances - np.einsum("ij,jk,ik->i", W, u.cov, W)
            )
            c2 = ((W @ emb.coords.T) ** 2).sum(axis=1)
            worst = max(worst, float(np.abs(c2 + q - emb.q_max).max()))
        assert worst <= 1e-8, worst
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_separation_suite():
    with criterion(4, "two-fund mix equals constrained engine"):
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = random_universe(rng, int(rng.integers(2, 13)))
            p = drf.frontier_params(u)
            for sigma in _sigma_grid(p, 50):
                mix = drf.point(u, "efficient_dr", sigma)
                sol = drf.max_linear_over_ellipsoid(u, u.variances, sigma)
                np.testing.assert_allclose(mix.weights, sol.weights, atol=1e-8)
                q_mix = drf.diversification_return(u, mix.weights)
                q_sol = drf.diversification_return(u, sol.weights)
                assert abs(q_mix - q_sol) <= 1e-10
                assert abs(q_mix - mix.q) <= 1e-10


def test_criterion_05_frontier_identity_suite():
    with criterion(5, "risk/value offsets and the frontier gap law"):
        rng = np.random.default_rng(37)
        for _ in range(40):
            u = random_universe(rng, int(rng.integers(2, 13)), with_returns=True)
            p = drf.frontier_params(u)
            mdrp = drf.special_portfolios(u).mdrp
            assert abs(mdrp.variance - (p.sigma2_mvp + p.rho**2 / 4.0)) <= 1e-10
            assert abs(mdrp.dr - (p.q_mvp + p.rho**2 / 8.0)) <= 1e-10
            m = p.eta_wo
            ratios = []
            for sigma in _sigma_grid(p, 25):
                q_dr = drf.point(u, "efficient_dr", sigma).q
                ef = drf.point(u, "mv_efficient_dr", sigma)
                q_ef = ef.q
                assert q_dr >= q_ef - 1e-12
                gap = q_dr - q_ef
                uu = np.sqrt(sigma * sigma - p.sigma2_mvp)
                assert abs(gap - 0.5 * (p.rho - m) * uu) <= 1e-10
                # the gap law, read off the mv_efficient_dr row, whose alpha is u
                assert abs(0.5 * (p.rho - m) * ef.alpha - gap) <= 1e-10
                ratios.append(gap / uu)
            assert max(ratios) - min(ratios) <= 1e-10


def test_criterion_06_proportional_collapse():
    with criterion(6, "proportional returns collapse the gap"):
        rng = np.random.default_rng(41)
        for _ in range(10):
            base = random_universe(rng, int(rng.integers(3, 10)))
            gamma = float(rng.uniform(0.5, 8.0))
            u = drf.validate_universe(base.cov, expected_returns=base.variances / gamma)
            p = drf.frontier_params(u)
            for sigma in _sigma_grid(p, 50):
                q_dr = drf.point(u, "efficient_dr", sigma).q
                q_ef = drf.point(u, "mv_efficient_dr", sigma).q
                assert abs(q_dr - q_ef) <= 1e-10

            r0 = float(rng.uniform(0.005, 0.03))
            u2 = drf.validate_universe(
                base.cov,
                expected_returns=base.variances / gamma + r0,
                risk_free_rate=r0,
            )
            sigma_t = float(np.sqrt(drf.tangent_portfolio(u2).variance))
            sigmas = np.linspace(0.1 * sigma_t, 2.0 * sigma_t, 50)
            cml = drf.sweep(u2, drf.FrontierKind.CML, sigmas)
            rf = drf.sweep(u2, drf.FrontierKind.EFFICIENT_DR_RISKFREE, sigmas)
            for cml_row, rf_row in zip(cml.rows, rf.rows):
                assert abs(cml_row.q - rf_row.q) <= 1e-10


def test_criterion_07_riskfree_suite():
    with criterion(7, "cash-line parabolas vs block oracle, ordering law"):
        rng = np.random.default_rng(43)
        for _ in range(100):
            u = random_universe(
                rng, int(rng.integers(2, 10)), with_returns=True, with_riskfree=True
            )
            tangent = drf.tangent_portfolio(u)
            sigma_t = float(np.sqrt(tangent.variance))
            # the two rays: a unit-risk sleeve d and its gain m = eta' d
            cml, rf = (_ray(u, k) for k in (FrontierKind.CML, FrontierKind.EFFICIENT_DR_RISKFREE))
            sigmas = [frac * sigma_t for frac in (0.0, 0.4, 1.0, 1.6)]
            cml_rows, rf_rows = (
                drf.sweep(u, kind, sigmas, include_weights=True).rows
                for kind in (drf.FrontierKind.CML, drf.FrontierKind.EFFICIENT_DR_RISKFREE)
            )
            for sigma, cml_row, rf_row in zip(sigmas, cml_rows, rf_rows):
                # the cml row's alpha is its risky fraction
                mix = cml_row.alpha
                oracle = block_riskfree_dr(
                    u.cov, u.variances, mix * tangent.weights, 1.0 - mix
                )
                assert abs(cml_row.q - oracle) <= 1e-10
                # one contract for both cash curves: a risky sleeve of
                # variance sigma^2, its mix, and the DR of sleeve and cash
                for curve, row in ((cml, cml_row), (rf, rf_row)):
                    risky, cash = row.weights, row.cash
                    variance = float(risky @ u.cov @ risky)
                    assert abs(variance - sigma * sigma) <= 1e-9 * sigma * sigma
                    mix = sigma * float(curve.d.sum())
                    assert abs(mix - (1.0 - cash)) <= 1e-12
                    oracle2 = block_riskfree_dr(u.cov, u.variances, risky, cash)
                    assert abs(row.q - oracle2) <= 1e-10
            margin = rf.m * sigma_t - float(u.variances @ tangent.weights)
            assert margin >= -1e-12


def test_criterion_08_mdp_suite(ex3):
    with criterion(8, "vol-spread EDM, simplex max bracket, sandwich"):
        rng = np.random.default_rng(47)
        for trial in range(100):
            n = 2 + trial % 9
            vols = rng.uniform(0.05, 0.6, n)
            d_eta = drf.build_d_eta(drf.validate_universe(np.diag(vols**2)))
            cert = drf.assert_edm(d_eta)
            assert cert.is_edm

        grid_m = {2: 400, 3: 400, 4: 60, 5: 36, 6: 24, 7: 18, 8: 14}
        for n, m in grid_m.items():
            vols = rng.uniform(0.1, 0.5, n)
            u = drf.validate_universe(np.diag(vols**2))
            d_eta = drf.build_d_eta(u)
            bounds = drf.d_max_bounds(d_eta)
            grid_val = grid_max_half_quad(d_eta, simplex_grid(n, m))
            assert abs(bounds.lower - grid_val) <= 1e-6
            assert bounds.lower <= bounds.upper + 1e-15

        for factor in (1.02, 1.08, 1.15, 1.25, 1.35):
            rep = drf.sandwich_check(ex3, factor, samples=100_000)
            assert not rep.empty
            assert rep.accepted >= 100_000
            assert rep.holds is True


def test_criterion_09_thirty_asset_qualitative(fixture_dir, tmp_path):
    with criterion(9, "30-asset fixture curve properties"):
        t0 = time.perf_counter()
        from drfrontier.cli import main

        rc = main(
            [
                "frontier",
                "--input",
                str(fixture_dir / "synthetic_panel_30.csv"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0

        def rows_of(name):
            with open(tmp_path / name) as fh:
                return list(csv.DictReader(fh))

        dr_rows = rows_of("frontier_efficient_dr.csv")
        ef_rows = rows_of("frontier_mv_efficient_dr.csv")
        mdp_rows = rows_of("frontier_mdp_at_sigma.csv")

        u = drf.annualize(drf.load_panel(fixture_dir / "synthetic_panel_30.csv"))
        params = drf.frontier_params(u)
        d_upper = 0.5 * float(drf.build_d_eta(u).max())

        ef_q = [float(r["q"]) for r in ef_rows if r["status"] == "ok"]
        assert min(ef_q) < 0.0
        for r in dr_rows:
            if r["status"] == "ok" and float(r["sigma"]) <= params.sigma_mdrp + 1e-12:
                assert float(r["q"]) > 0.0
        checked = 0
        for r_dr, r_mdp in zip(dr_rows, mdp_rows):
            assert r_dr["sigma"] == r_mdp["sigma"]
            if r_dr["status"] == "ok" and r_mdp["status"] == "ok":
                assert abs(float(r_dr["q"]) - float(r_mdp["q"])) <= 2.0 * d_upper
                checked += 1
        assert checked > 100
        assert time.perf_counter() - t0 < 10.0


def test_criterion_10_circle_oracle(ex3_returns):
    with criterion(10, "closed forms vs dense circle scan"):
        u = ex3_returns
        p = drf.frontier_params(u)
        eta = u.variances
        root = np.sqrt(eta)
        uu = np.geomspace(0.15, 2.5, 20)
        for sigma in np.sqrt(p.sigma2_mvp + uu * uu):
            _, best_q = circle_scan(
                u.cov, lambda w: drf.diversification_return(u, w), sigma
            )
            assert abs(best_q - drf.point(u, "efficient_dr", sigma).q) <= 1e-5

            w_ret, _ = circle_scan(u.cov, lambda w: float(RBAR3 @ w), sigma)
            q_ef = drf.point(u, "mv_efficient_dr", sigma).q
            assert abs(drf.diversification_return(u, w_ret) - q_ef) <= 1e-5

            _, best_lin = circle_scan(u.cov, lambda w: float(root @ w), sigma)
            w = drf.point(u, "mdp_at_sigma", sigma).weights
            engine = _ratio(u, drf.portfolio_stats(u, w))
            assert abs(best_lin / sigma - engine) <= 1e-5
