import csv
import functools
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drfrontier as drf
from drfrontier.cli import main
from drfrontier.mdp import _ratio

from .conftest import RBAR3, V3, strict_json
from .oracles import rotated_spectrum_cov


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_universe_json(path, V, rbar=None, r0=None, names=None):
    data = {"V": np.asarray(V).tolist()}
    if rbar is not None:
        data["rbar"] = np.asarray(rbar).tolist()
    if r0 is not None:
        data["r0"] = r0
    if names is not None:
        data["names"] = list(names)
    path.write_text(json.dumps(data))
    return path


def test_portfolios_on_example_universe(fixture_dir, tmp_path):
    rc = main(
        [
            "portfolios",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    data = _read_json(tmp_path / "portfolios.json")
    assert data["scalars"]["q_max"] == pytest.approx(1.0, abs=1e-10)
    assert data["scalars"]["sigma_mvp"] == pytest.approx(1.0, abs=1e-10)
    assert data["scalars"]["rho"] == pytest.approx(np.sqrt(32.0) / 3.0, rel=1e-10)
    assert data["scalars"]["b"] is None
    assert data["scalars"]["ef_shape"] == "degenerate"
    np.testing.assert_allclose(data["mvp"]["weights"], np.full(3, 1 / 3), atol=1e-8)
    np.testing.assert_allclose(data["mdrp"]["weights"], [-1.0, 1.0, 1.0], atol=1e-6)
    assert data["mvp"]["centrality"] == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert data["tangent"] is None
    assert data["q_portfolio"] is None
    # covariance JSON input produces no provenance record
    assert not (tmp_path / "provenance.json").exists()


def test_portfolios_with_returns(fixture_dir, tmp_path):
    rc = main(
        [
            "portfolios",
            "--input",
            str(fixture_dir / "example3_with_returns.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    data = _read_json(tmp_path / "portfolios.json")
    assert data["scalars"]["b"] == pytest.approx(0.08, abs=1e-10)
    assert data["scalars"]["eta_wo"] == pytest.approx(np.sqrt(24.0 / 7.0), rel=1e-10)
    assert data["scalars"]["eta_wo_sign"] == "positive"
    assert data["scalars"]["ef_shape"] == "strongly_concave"
    np.testing.assert_allclose(
        data["tangent"]["weights"], np.array([-11.0, 17.0, 15.0]) / 21.0, atol=1e-9
    )
    assert data["q_portfolio"]["variance"] == pytest.approx(13.0 / 7.0, rel=1e-9)
    assert data["q_portfolio"]["q"] == pytest.approx(62.0 / 63.0, rel=1e-9)


@pytest.mark.parametrize(
    "rbar, sign",
    [
        (None, None),  # no returns, no direction w_o
        ([0.05, 0.06, 0.04], "zero"),  # w_o antisymmetric in the twin assets 2 and 3
        ((1.0 - np.diag(V3)).tolist(), "negative"),  # returns anti-aligned with variances
    ],
)
def test_portfolios_eta_wo_sign_cell(tmp_path, rbar, sign):
    # the cell reads the sign of the kernel's eta' w_o, its zero band included
    src = _write_universe_json(tmp_path / "u.json", V3, rbar=rbar)
    assert main(["portfolios", "--input", str(src), "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "portfolios.json")["scalars"]["eta_wo_sign"] == sign


def test_portfolios_on_ill_conditioned_universe(tmp_path):
    # cond(V) = 1e5: the embedding's Pythagoras check used to refuse it
    V, rbar = rotated_spectrum_cov()
    src = _write_universe_json(tmp_path / "u.json", V, rbar=rbar)
    assert main(["portfolios", "--input", str(src), "--out", str(tmp_path)]) == 0
    data = _read_json(tmp_path / "portfolios.json")
    assert data["q_portfolio"]["centrality"] is not None


# the two-asset universe of scripts/cli_artifacts.py, cond(V) = 4.3e6
TWO_ASSETS_V = [
    [0.24671167963129925, -0.05000930994942807],
    [-0.05000930994942807, 0.01013712273722854],
]
TWO_ASSETS_RBAR = [0.12813823780813746, 0.04365469787233788]


@pytest.mark.parametrize(
    "fixture",
    [
        "example3_universe.json", "example3_with_returns.json", "mini_prices.csv",
        "synthetic_panel_30.csv", "two assets",
    ],
)
def test_portfolios_q_max_cell_is_the_mdrp_q_cell(fixture_dir, tmp_path, fixture):
    # one number, one cell: q_max is the DR of the maximum-DR portfolio, so
    # both cells print the same bits (on two assets q_mvp + rho^2 / 8 printed
    # 0.0446084277829 beside the DR 0.0446084277834)
    if fixture == "two assets":
        src = _write_universe_json(tmp_path / "u.json", TWO_ASSETS_V, rbar=TWO_ASSETS_RBAR)
    else:
        src = fixture_dir / fixture
    assert main(["portfolios", "--input", str(src), "--out", str(tmp_path)]) == 0
    data = _read_json(tmp_path / "portfolios.json")
    assert data["scalars"]["q_max"] == data["mdrp"]["q"]


def test_riskfree_override(tmp_path):
    src = _write_universe_json(tmp_path / "u.json", V3, rbar=RBAR3)
    out = tmp_path / "out"
    rc = main(
        ["portfolios", "--input", str(src), "--out", str(out), "--riskfree", "0.01"]
    )
    assert rc == 0
    data = _read_json(out / "portfolios.json")
    assert data["tangent"] is not None
    np.testing.assert_allclose(
        data["tangent"]["weights"], np.array([-11.0, 17.0, 15.0]) / 21.0, atol=1e-9
    )


def test_riskfree_override_on_panel_input(fixture_dir, tmp_path):
    # the annualized universe takes the rate as a second validation would
    src = fixture_dir / "synthetic_panel_30.csv"
    out = tmp_path / "out"
    rc = main(
        ["portfolios", "--input", str(src), "--out", str(out), "--riskfree", "0.01"]
    )
    assert rc == 0
    u = drf.annualize(drf.load_panel(src, format="prices"))
    ref = drf.special_portfolios(
        drf.validate_universe(
            u.cov, expected_returns=u.expected_returns, risk_free_rate=0.01, names=u.names
        )
    )
    data = _read_json(out / "portfolios.json")
    np.testing.assert_allclose(
        data["tangent"]["weights"], ref.tangent.weights, rtol=1e-10, atol=1e-12
    )
    assert data["tangent"]["sigma"] == pytest.approx(ref.tangent.sigma, rel=1e-10)
    assert (out / "provenance.json").exists()
    # the panel alone carries no risk-free rate
    rc = main(["portfolios", "--input", str(src), "--out", str(tmp_path / "none")])
    assert rc == 0
    assert _read_json(tmp_path / "none" / "portfolios.json")["tangent"] is None


@pytest.mark.parametrize(
    "flag", [["--riskfree", "nan"], ["--riskfree=-inf"], ["--riskfree", "inf"]]
)
@pytest.mark.parametrize("fixture", ["example3_with_returns.json", "synthetic_panel_30.csv"])
def test_non_finite_riskfree_exits_2(fixture_dir, tmp_path, capsys, fixture, flag):
    out = tmp_path / "out"
    src = str(fixture_dir / fixture)
    for command in ("portfolios", "frontier"):
        rc = main([command, "--input", src, "--out", str(out)] + flag)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "risk-free rate" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"r0": float("nan")}, "risk-free rate"),
        ({"r0": float("inf")}, "risk-free rate"),
        ({"r0": "abc"}, "risk-free rate"),
        ({"rbar": ["x", 0.1, 0.1]}, "expected_returns"),
        ({"V": [["a", 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, "covariance"),
        ({"rbar": [float("nan"), 0.1, 0.1]}, "expected_returns"),
    ],
)
def test_bad_json_fields_exit_2(tmp_path, capsys, fields, named):
    data = {"V": V3.tolist(), "rbar": RBAR3.tolist(), **fields}
    src = tmp_path / "u.json"
    src.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = main(["portfolios", "--input", str(src), "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParseError" and named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("names", [5, "abc"])
def test_json_names_that_are_not_a_list_exit_2(tmp_path, capsys, names):
    src = tmp_path / "u.json"
    src.write_text(json.dumps({"V": V3.tolist(), "names": names}))
    out = tmp_path / "out"
    assert main(["portfolios", "--input", str(src), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParseError" and "names" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_mdp_non_finite_sigma_exits_2(fixture_dir, tmp_path, capsys, sigma):
    out = tmp_path / "out"
    src = str(fixture_dir / "example3_universe.json")
    rc = main(["mdp", "--input", src, "--out", str(out), f"--sigma={sigma}"])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParseError" and "sigma" in err["message"]
    assert not out.exists()


def test_near_constant_returns_get_their_curves(tmp_path):
    # returns 1e-11 apart still have a mean-variance direction: the kernel
    # solves them centred, so eta' w_o is 4 / sqrt(6) for every gap, as a
    # 50-digit solve gives, and the return curves are written
    src = _write_universe_json(tmp_path / "u.json", V3, rbar=[0.05, 0.05 + 1e-11, 0.05])
    for cmd in (["portfolios"], ["frontier"], ["mdp", "--samples", "100"]):
        out = tmp_path / cmd[0]
        assert main(cmd + ["--input", str(src), "--out", str(out)]) == 0, cmd
    scalars = _read_json(tmp_path / "portfolios" / "portfolios.json")["scalars"]
    assert scalars["eta_wo"] == 1.63299316186 and scalars["eta_wo_sign"] == "positive"
    assert scalars["ef_shape"] == "strongly_concave"
    written = sorted(p.name for p in (tmp_path / "frontier").iterdir())
    assert written == [
        "frontier_efficient_dr.csv",
        "frontier_mdp_at_sigma.csv",
        "frontier_mv_efficient_dr.csv",
        "frontier_mv_mean_return.csv",
    ]


def test_riskfree_flag_replaces_a_bad_json_rate(tmp_path):
    src = _write_universe_json(tmp_path / "u.json", V3, rbar=RBAR3, r0="abc")
    out = tmp_path / "out"
    rc = main(
        ["portfolios", "--input", str(src), "--out", str(out), "--riskfree", "0.01"]
    )
    assert rc == 0
    assert _read_json(out / "portfolios.json")["tangent"] is not None


def test_require_returns_flag(fixture_dir, tmp_path, capsys):
    rc = main(
        [
            "portfolios",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--out",
            str(tmp_path),
            "--require-returns",
        ]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MissingReturnsError"


def test_missing_input_file(tmp_path, capsys):
    rc = main(
        ["portfolios", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("OSError", "FileNotFoundError")


def test_json_missing_covariance(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"names": ["a", "b"]}))
    rc = main(["portfolios", "--input", str(src), "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "V" in err["message"]
    src.write_text("5")
    rc = main(["portfolios", "--input", str(src), "--out", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_invalid_covariance_exits_2(tmp_path, capsys):
    src = _write_universe_json(tmp_path / "u.json", [[1.0, 2.0], [2.0, 1.0]])
    rc = main(["portfolios", "--input", str(src), "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotPSDError"


def test_format_override_for_extensionless_json(tmp_path):
    src = tmp_path / "universe.txt"
    _write_universe_json(src, np.eye(3))
    out = tmp_path / "out"
    rc = main(
        ["portfolios", "--input", str(src), "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    data = _read_json(out / "portfolios.json")
    assert data["scalars"]["rho"] == 0.0


def test_frontier_all_kinds_with_svg(fixture_dir, tmp_path):
    rc = main(
        [
            "frontier",
            "--input",
            str(fixture_dir / "example3_with_returns.json"),
            "--out",
            str(tmp_path),
            "--svg",
        ]
    )
    assert rc == 0
    expected = [
        "frontier_efficient_dr.csv",
        "frontier_mdp_at_sigma.csv",
        "frontier_mv_efficient_dr.csv",
        "frontier_mv_mean_return.csv",
        "frontier_cml.csv",
        "frontier_efficient_dr_riskfree.csv",
    ]
    for name in expected:
        assert (tmp_path / name).exists(), name
    for name in ("sigma_q.svg", "sigma_c.svg", "sigma_R.svg"):
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg") or "<svg" in text
    with open(tmp_path / "frontier_efficient_dr.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    assert rows[0]["kind"] == "efficient_dr"


@pytest.mark.parametrize(
    "fixture, args",
    [
        (
            "example3_with_returns.json",
            ["frontier", "--riskfree", "10", "--kind", "efficient_dr", "--kind", "cml"],
        ),
        ("example3_universe.json", ["frontier", "--kind", "mv_efficient_dr"]),
        (
            "example3_universe.json",
            ["frontier", "--kind", "efficient_dr", "--kind", "efficient_dr_riskfree"],
        ),
    ],
    ids=["cml-without-tangency", "mv-without-returns", "riskfree-without-r0"],
)
def test_a_failed_run_writes_nothing(fixture_dir, tmp_path, capsys, fixture, args):
    out = tmp_path / "out"
    assert main(args + ["--input", str(fixture_dir / fixture), "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_default_frontier_kinds_skip_cml_without_a_tangency(fixture_dir, tmp_path):
    # r0 = 10 lies above the minimum-variance return, so the capital-market
    # line has no tangency; the risk-free DR curve needs none
    src = str(fixture_dir / "example3_with_returns.json")
    args = ["frontier", "--svg", "--riskfree", "10", "--input", src, "--out", str(tmp_path)]
    assert main(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "frontier_efficient_dr.csv",
        "frontier_efficient_dr_riskfree.csv",
        "frontier_mdp_at_sigma.csv",
        "frontier_mv_efficient_dr.csv",
        "frontier_mv_mean_return.csv",
        "sigma_R.svg",
        "sigma_c.svg",
        "sigma_q.svg",
    ]


def test_frontier_custom_grid_and_kind(fixture_dir, tmp_path):
    rc = main(
        [
            "frontier",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "1.0:2.0:5",
            "--kind",
            "efficient_dr",
        ]
    )
    assert rc == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["frontier_efficient_dr.csv"]
    with open(tmp_path / "frontier_efficient_dr.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert [float(r["sigma"]) for r in rows] == pytest.approx([1.0, 1.25, 1.5, 1.75, 2.0])


def test_frontier_round_trip(fixture_dir, tmp_path):
    rc = main(
        [
            "frontier",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--out",
            str(tmp_path),
            "--kind",
            "efficient_dr",
        ]
    )
    assert rc == 0
    u = drf.validate_universe(V3)
    with open(tmp_path / "frontier_efficient_dr.csv") as fh:
        for row in csv.DictReader(fh):
            assert row["status"] == "ok"
            sigma = float(row["sigma"])
            q = float(row["q"])
            # sigma itself is rounded to 12 significant digits and the curve is
            # steep next to the minimum-variance point, so allow a little slack
            assert q == pytest.approx(drf.point(u, "efficient_dr", sigma).q, abs=1e-8)


def test_frontier_grid_below_mvp_flags_rows(fixture_dir, tmp_path):
    rc = main(
        [
            "frontier",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--out",
            str(tmp_path),
            "--grid",
            "0.4:1.5:3",
            "--kind",
            "efficient_dr",
        ]
    )
    assert rc == 0
    with open(tmp_path / "frontier_efficient_dr.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["kind", "sigma", "q", "ret", "centrality", "alpha", "status"]
    # sigma grid is 0.4, 0.95, 1.5 and the minimum-variance risk is 1.0
    assert [r[-1] for r in rows] == ["risk_below_mvp", "risk_below_mvp", "ok"]
    # a flagged row keeps its kind and sigma; q, ret, centrality and alpha are empty
    assert rows[0] == ["efficient_dr", "0.4", "", "", "", "", "risk_below_mvp"]
    # the ok row has every number but ret, which needs expected returns
    assert [f for f, cell in zip(header, rows[2]) if cell == ""] == ["ret"]


def test_frontier_bad_grid_spec(fixture_dir, tmp_path, capsys):
    specs = ("1:2", "2.0:1.0:5", "1:2:one", "1:2:5:lin", "0:2:5:log")
    for spec in specs + ("nan:2:5", "1:inf:5", "-inf:1:5", "1:nan:5:log"):
        rc = main(
            [
                "frontier",
                "--input",
                str(fixture_dir / "example3_universe.json"),
                "--out",
                str(tmp_path),
                f"--grid={spec}",
            ]
        )
        assert rc == 2, spec
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"


@pytest.mark.parametrize(
    "args, what",
    [
        (["frontier", "--grid", "-1:3:10"], "--grid"),  # read as an option
        (["frontier", "--kind", "bogus"], "--kind"),
        (["frontier"], "--input"),
    ],
)
def test_refused_arguments_print_one_json_line(fixture_dir, tmp_path, capsys, args, what):
    # the parser's refusals exit 2 with one JSON line, like every other
    # refused input, and not with argparse's usage text
    src = [] if what == "--input" else ["--input", str(fixture_dir / "example3_universe.json")]
    rc = main([*args, *src, "--out", str(tmp_path / "out")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ParseError" and what in err["message"], err
    assert not (tmp_path / "out").exists()


def test_frontier_deterministic(fixture_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(
            [
                "frontier",
                "--input",
                str(fixture_dir / "example3_with_returns.json"),
                "--out",
                str(out),
                "--svg",
            ]
        )
        assert rc == 0
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


def test_mdp_command(fixture_dir, tmp_path):
    rc = main(
        [
            "mdp",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--out",
            str(tmp_path),
            "--samples",
            "5000",
            "--sigma",
            "1.2",
            "--sigma",
            "1.4",
        ]
    )
    assert rc == 0
    data = _read_json(tmp_path / "mdp.json")
    assert data["d_max_upper"] == pytest.approx((17.0 - np.sqrt(253.0)) / 36.0, rel=1e-9)
    assert data["d_max_lower"] == data["d_max_upper"]
    # the multistart era's cells are gone: d_max is a closed form, and no seed is used
    assert not {"starts_used", "converged", "seed"} & data.keys()
    assert len(data["sandwich"]) == 2
    for rep in data["sandwich"]:
        assert rep["holds"] is True
        assert rep["accepted"] >= 5000
    u = drf.validate_universe(V3)
    expected_ratio = _ratio(u, drf.portfolio_stats(u, np.array(data["weights"])))
    assert data["ratio"] == pytest.approx(expected_ratio, rel=1e-9)


def test_mdp_deterministic(fixture_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(
            [
                "mdp",
                "--input",
                str(fixture_dir / "example3_universe.json"),
                "--out",
                str(out),
                "--samples",
                "2000",
                "--seed",
                "7",
            ]
        )
        assert rc == 0
    assert (out_a / "mdp.json").read_bytes() == (out_b / "mdp.json").read_bytes()


def test_mdp_on_panel_lands_every_default_level(fixture_dir, tmp_path):
    # the default levels 1.05, 1.15 and 1.3 sigma_mvp all lie above the
    # panel's long-only minimum risk (1.028 sigma_mvp)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        args = ["mdp", "--input", str(fixture_dir / "synthetic_panel_30.csv")]
        assert main(args + ["--out", str(out)]) == 0
    assert (outs[0] / "mdp.json").read_bytes() == (outs[1] / "mdp.json").read_bytes()
    data = _read_json(outs[0] / "mdp.json")
    assert len(data["sandwich"]) == 3
    for rep in data["sandwich"]:
        assert rep["empty"] is False
        assert rep["holds"] is True
        assert rep["accepted"] == rep["requested"] == 20_000
        assert rep["sigma_lo"] == pytest.approx(0.145493457267, rel=1e-11)
        assert rep["sigma_lo"] < rep["sigma"] < rep["sigma_hi"]


def test_every_shipped_json_artifact_isstrict_json(tmp_path, capsys):
    # every run of scripts/cli_artifacts.py that exits 0, in this process:
    # an empty sandwich level wrote NaN for its maxima and gap
    root = Path(__file__).resolve().parents[1]
    path = root / "scripts" / "cli_artifacts.py"
    spec = importlib.util.spec_from_file_location("cli_artifacts", path)
    artifacts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(artifacts)
    parsed = {}
    for name, (args, text) in artifacts.runs().items():
        if "--input" not in args:
            continue
        run, args = tmp_path / name, list(args)
        run.mkdir()
        at = args.index("--input") + 1
        if text is not None:
            (run / args[at]).write_text(text)
        args[at] = str((root if text is None else run) / args[at])
        if main(args + ["--out", str(run / "out")]) == 0:
            for path in (run / "out").glob("*.json"):
                parsed[f"{name}/{path.name}"] = strict_json(path.read_text(encoding="utf-8"))
    capsys.readouterr()
    assert len(parsed) >= 40
    levels = parsed["ex3-mdp-empty-levels/mdp.json"]["sandwich"]
    assert [rep["sigma"] for rep in levels] == [0.1, 100.0]
    for rep in levels:
        assert rep["empty"] is True and rep["accepted"] == 0
        assert rep["gap"] is rep["holds"] is None
        assert rep["max_avg_variance"] is rep["max_avg_volatility_sq"] is None


def test_embed_command(fixture_dir, tmp_path):
    rc = main(
        [
            "embed",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    with open(tmp_path / "embedding.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["asset", "dim1", "dim2"]
    # one row per asset, its name first, then one cell per dimension
    assert [row[0] for row in rows] == ["A1", "A2", "A3"]
    assert all(len(row) == len(header) for row in rows)
    data = _read_json(tmp_path / "embedding.json")
    assert data["q_max"] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(data["mdrp_weights"], [-1.0, 1.0, 1.0], atol=1e-6)
    # coordinates in the CSV replay the pairwise distances
    coords = np.array([[float(v) for v in row[1:]] for row in rows])
    d01 = float(((coords[0] - coords[1]) ** 2).sum())
    d12 = float(((coords[1] - coords[2]) ** 2).sum())
    assert d01 == pytest.approx(1.0, abs=1e-8)
    assert d12 == pytest.approx(3.0, abs=1e-8)


def _significant_digits(cell: str) -> int:
    mantissa = cell.lstrip("-").split("e")[0].replace(".", "").strip("0")
    return len(mantissa)


def _json_numbers(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _json_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v)


@pytest.mark.parametrize("fixture", ["example3_with_returns.json", "synthetic_panel_30.csv"])
def test_every_written_number_has_significant_digits(fixture_dir, tmp_path, monkeypatch, fixture):
    # both writers read cli.SIGNIFICANT_DIGITS: at 6, no CSV cell and no JSON
    # number of `frontier` or `embed` carries a seventh digit
    monkeypatch.setattr("drfrontier.cli.SIGNIFICANT_DIGITS", 6)
    src = str(fixture_dir / fixture)
    for cmd in ("frontier", "embed"):
        assert main([cmd, "--input", src, "--out", str(tmp_path / cmd)]) == 0
    cells = numbers = 0
    for path in (tmp_path / "frontier").glob("*.csv"):
        with open(path, newline="") as fh:
            _, *rows = list(csv.reader(fh))
        for row in rows:
            for cell in row[1:-1]:  # kind and status are words
                if cell:
                    cells += 1
                    assert _significant_digits(cell) <= 6, (path.name, cell)
    with open(tmp_path / "embed" / "embedding.csv", newline="") as fh:
        _, *rows = list(csv.reader(fh))
    for row in rows:
        for cell in row[1:]:  # the asset's name, then its coordinates
            cells += 1
            assert _significant_digits(cell) <= 6, ("embedding.csv", cell)
    for path in tmp_path.glob("*/*.json"):
        for x in _json_numbers(_read_json(path)):
            numbers += 1
            assert _significant_digits(repr(x)) <= 6, (path.name, x)
    assert cells > 0 and numbers > 0


def test_ingest_check(fixture_dir, tmp_path, capsys):
    src = fixture_dir / "mini_prices.csv"
    rc = main(["ingest-check", "--input", str(src), "--out", str(tmp_path)])
    assert rc == 0
    echoed = json.loads(capsys.readouterr().out)
    stored = _read_json(tmp_path / "provenance.json")
    assert echoed == stored
    assert stored["input"] == "mini_prices.csv"
    assert stored["calendar_days"] == 3
    assert stored["periods"] == 3
    assert stored["assets"] == 2
    assert stored["dropped_rows"] == 0
    assert stored["delta"] == pytest.approx(1.0 / 365.0, rel=1e-9)
    assert stored["input_sha256"] == hashlib.sha256(src.read_bytes()).hexdigest()


def test_ingest_check_rejects_json(fixture_dir, tmp_path, capsys):
    rc = main(
        [
            "ingest-check",
            "--input",
            str(fixture_dir / "example3_universe.json"),
            "--format",
            "json",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_panel_pipeline_writes_provenance(tmp_path):
    rows = ["date,P,Q,R"]
    rng = np.random.default_rng(163)
    prices = np.array([50.0, 80.0, 120.0])
    import datetime

    day = datetime.date(2021, 1, 4)
    for _ in range(60):
        prices = prices * np.exp(rng.normal(0.0002, 0.01, 3))
        rows.append(day.isoformat() + "," + ",".join(f"{p:.6f}" for p in prices))
        day += datetime.timedelta(days=1)
    src = tmp_path / "panel.csv"
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    rc = main(["portfolios", "--input", str(src), "--out", str(out)])
    assert rc == 0
    assert (out / "portfolios.json").exists()
    prov = _read_json(out / "provenance.json")
    assert prov["assets"] == 3
    assert prov["periods"] == 59
    data = _read_json(out / "portfolios.json")
    # panel input always carries sample means, so return fields are present
    assert data["mvp"]["expected_return"] is not None


def test_cli_entry_point_installed():
    # the entry point pyproject.toml declares, called in a fresh interpreter
    # as its console script calls it; and the script itself when installed
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["drfrontier"]
    module, func = target.split(":")
    call = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[1:] = ['--help']; sys.exit({func}())"
    )
    src = str(Path(drf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = functools.partial(subprocess.run, capture_output=True, text=True, timeout=60)
    procs = [run([sys.executable, "-c", call], env={**os.environ, "PYTHONPATH": path})]
    exe = shutil.which("drfrontier")
    if exe is not None:
        procs.append(run([exe, "--help"]))
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
        assert "portfolios" in proc.stdout


def test_readme_library_quick_start_runs():
    # the first python block of README.md, in a fresh interpreter on src/
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    q_max, weights, stats, radii = (
        np.array(line.strip("[]").split(), dtype=float) for line in proc.stdout.splitlines()[:4]
    )
    assert q_max == pytest.approx([1.0], abs=1e-12)
    np.testing.assert_allclose(weights, [-1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(stats, [5.0 / 9.0, 4.0 / 9.0], atol=1e-12)
    np.testing.assert_allclose(radii, [1.0, 1.0, 1.0], atol=1e-12)
