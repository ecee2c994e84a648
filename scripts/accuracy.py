"""Score the CLI's numeric artifacts against 50-digit references.

    python3 scripts/accuracy.py OUT_DIR

Every run of `scripts/cli_artifacts.py` whose command is `portfolios`,
`frontier`, `embed` or `mdp` runs again here, in this process, on the same
arguments and input (the repo root, or for a written input the run's own
directory in a temporary tree), and a run that exits 0 is scored.  Each cell
is compared with its value at 50 digits, formed with mpmath from the floats
of the universe that the command read (its covariance, returns and
risk-free rate, panels annualized as the CLI does):
`tests/oracles.py`'s `DigitKernel`, one LU factorization of V per universe,
and `centre_at_digits` for the maximum-DR portfolio (its least-norm KKT
solution on a singular V).

Scored, each cell as printed:

- `portfolios.json`: every number of `scalars` and of `mvp`, `mdrp`,
  `q_portfolio` and `tangent`;
- `embedding.json`: `q_max`, `mdrp_weights` and `eigvals`, the latter
  against the largest eigenvalues of B = (V - v 1' - 1 v' + (s' v) 1 1') / 2,
  v = V s, with s from `centre_at_digits`;
- `frontier_<kind>.csv`: `q`, `ret`, `centrality` and `alpha` of each row,
  at the row's float sigma (of the default grid or of `--grid`);
- `mdp.json`: the closed forms `weights`, `ratio`, `variance`, `q`,
  `d_max_lower` and `d_max_upper`, and of each sandwich level `sigma_hi`,
  `d_max_upper`, `sigma_lo` and, on a level that is not empty,
  `max_avg_variance`, `max_avg_volatility_sq` and `gap`.  A maximum's
  reference is the two-fund maximum on the free set F of the line's segment
  at the level's float risk tau (`CriticalLine.at`'s k, counted from the
  lambda = 0 end; the line is walked no further), mu_F' w_mvp,F +
  k_F sqrt(tau^2 - sigma_mvp,F^2), from `DigitKernel` of V_F; sigma_lo's is
  sigma_mvp,F on the free set of w_lo (`AssetUniverse.long_only_mvp`).
  Each counts only where its weights on F are nonnegative, and the gap only
  where both maxima count.

Counted as unscored: the `sigma` column (each row's input), the coordinates
of `embedding.csv`, each sandwich level's `sigma`, `requested` and
`accepted`, and the sandwich cells whose reference does not count.

A cell is off when it is not the correctly rounded value of its reference
at `cli.SIGNIFICANT_DIGITS` (12) significant digits.  Its relative error is
|x - r| / |r|, where x is the printed decimal and r the reference; a weight
or an eigenvalue is scaled by the largest |r| of its vector instead, and a
zero scale leaves the absolute error.  A squared centrality within
1e-40 max(1, q_max) of 0 (the references' own rounding) makes a centrality
of 0.

`OUT_DIR/BENCH_accuracy.json` holds:

- `commit` (`git rev-parse HEAD`, null outside a git checkout) and
  `source_sha256`, the SHA-256 of `src/drfrontier/*.py` in name order, each
  file's name, a NUL byte and its bytes;
- `digits` (12) and `reference_digits` (50);
- `files`: per `<run>/<file>` and column, `cells`, `off`, `median_rel_err`,
  `worst_rel_err` and `off_cells`, a list of [index, printed, correctly
  rounded] (the row of a CSV, the entry of a vector, 0 for a scalar);
- `by_file`: per file name, over every run, `cells`, `off` and
  `worst_rel_err`;
- `unscored`: per `<run>/<file>` and column, the count of unscored cells.

It prints the `by_file` table in Markdown.  It reports and does not gate;
on the shipped fixtures it takes about 6 s.
"""

from __future__ import annotations

import csv
import decimal
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import mpmath as mp  # noqa: E402  (a test extra: pip install ".[test]")

import cli_artifacts  # noqa: E402
from drfrontier import cli  # noqa: E402
from drfrontier.errors import DrFrontierError  # noqa: E402
from tests.oracles import DigitKernel, centre_at_digits  # noqa: E402

DPS = 50
COMMANDS = ("portfolios", "frontier", "embed", "mdp")
ROUND = decimal.Context(prec=cli.SIGNIFICANT_DIGITS, rounding=decimal.ROUND_HALF_EVEN)


class Ledger:
    """The scored cells, per `<run>/<file>` and column, and the unscored counts."""

    def __init__(self):
        self.scored, self.unscored = {}, {}

    def score(self, key, column, printed, ref, index=0, scale=None):
        """Score one printed cell (a decimal string) against its reference."""
        if ref is None:
            raise ValueError(f"{key} {column}[{index}]: a printed cell without a reference")
        with mp.workdps(DPS):
            x, r = mp.mpf(str(printed)), mp.mpf(ref)
            scale = abs(r) if scale is None else scale
            err = abs(x - r) / scale if scale else abs(x - r)
            rounded = ROUND.plus(decimal.Decimal(mp.nstr(r, 40)))
        cells = self.scored.setdefault(key, {}).setdefault(column, [])
        cells.append((index, str(printed), rounded, float(err)))

    def skip(self, key, column, count=1):
        col = self.unscored.setdefault(key, {})
        col[column] = col.get(column, 0) + count

    def vector(self, key, column, printed, refs):
        with mp.workdps(DPS):
            scale = max(abs(r) for r in refs)
        for i, (x, r) in enumerate(zip(printed, refs, strict=True)):
            self.score(key, column, x, r, i, scale)

    def report(self) -> tuple:
        files, by_file = {}, {}
        for key, columns in self.scored.items():
            files[key] = {}
            total = {"cells": 0, "off": 0, "worst_rel_err": 0.0}
            total = by_file.setdefault(key.split("/", 1)[1], total)
            for column, cells in columns.items():
                off = [[i, p, str(r)] for i, p, r, _ in cells if decimal.Decimal(p) != r]
                errs = [e for *_, e in cells]
                files[key][column] = {
                    "cells": len(cells),
                    "off": len(off),
                    "median_rel_err": statistics.median(errs),
                    "worst_rel_err": max(errs),
                    "off_cells": off,
                }
                total["cells"] += len(cells)
                total["off"] += len(off)
                total["worst_rel_err"] = max(total["worst_rel_err"], max(errs))
        return files, dict(sorted(by_file.items()))


def _centrality(k, c_sq):
    """sqrt(c^2); a c^2 within the references' rounding of 0 reads 0."""
    with mp.workdps(DPS):
        return 0 if c_sq <= mp.mpf(10) ** (10 - DPS) * max(1, abs(k.q_max)) else mp.sqrt(c_sq)


def _stats(k, w):
    """The numbers portfolios.json writes for weights w, at k's digits."""
    with mp.workdps(DPS):
        variance = k.variance(w)
        return {
            "variance": variance,
            "sigma": mp.sqrt(variance),
            "q": k.q(w),
            "centrality": _centrality(k, k.centrality_sq(w)),
            "expected_return": None if k.rbar is None else mp.fdot(k.rbar, w),
        }


def score_portfolios(led, key, data, k):
    with mp.workdps(DPS):
        scalars = {
            "a": k.a,
            "b": None if k.rbar is None else k.a * k.ret_mvp,
            "rho": k.rho,
            "sigma_mvp": mp.sqrt(k.sigma2_mvp),
            "sigma_mdrp": mp.sqrt(k.sigma2_mdrp),
            "q_mvp": k.q_mvp,
            "q_max": k.q_max,
            "eta_wo": k.eta_wo,
        }
    for name, value in data["scalars"].items():
        if isinstance(value, (int, float, decimal.Decimal)):
            led.score(key, f"scalars.{name}", value, scalars[name])
    pf = k.portfolios()
    weights = {"mvp": k.w_mvp, "mdrp": k.s, "q_portfolio": pf.get("q")}
    weights["tangent"] = pf.get("tangent")
    for name, w in weights.items():
        cell = data[name]
        if cell is None:
            continue
        led.vector(key, f"{name}.weights", cell["weights"], w)
        for field, value in _stats(k, w).items():
            if cell[field] is not None:
                led.score(key, f"{name}.{field}", cell[field], value)


def _gram_eigvals(cov, s) -> list:
    """Eigenvalues of B = (V - v 1' - 1 v' + (s' v) 1 1') / 2, v = V s, at
    DPS digits, descending."""
    with mp.workdps(DPS):
        V = mp.matrix(cov.tolist())
        n = V.rows
        v = [mp.fdot(V[i, :], s) for i in range(n)]
        sv = mp.fdot(s, v)
        B = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                B[i, j] = (V[i, j] - v[i] - v[j] + sv) / 2
        return sorted(mp.eigsy(B, eigvals_only=True), reverse=True)


def score_embedding(led, key, data, centre, cov):
    s, q_max = centre
    led.score(key, "q_max", data["q_max"], q_max)
    led.vector(key, "mdrp_weights", data["mdrp_weights"], s)
    eigvals = _gram_eigvals(cov, s)[: len(data["eigvals"])]
    led.vector(key, "eigvals", data["eigvals"], eigvals)


def _ray(k, kind):
    """(q0, ret0, d, m, slope, u_one, cash) of a kind's ray at k's digits,
    as `frontiers._ray` defines them."""
    with mp.workdps(DPS):
        if kind in ("cml", "efficient_dr_riskfree"):
            pf = k.portfolios()
            if kind == "cml":
                x = pf["tangent"]
                u_one = mp.sqrt(k.variance(x))
                x = [xi / u_one for xi in x]
            else:
                x, u_one = pf["sleeve"], None
            slope = None if k.rbar is None else mp.fdot([r - k.r0 for r in k.rbar], x)
            return 0, k.r0, x, mp.fdot(k.eta, x), slope, u_one, True
        d, u_one = {
            "efficient_dr": (k.d_eta, None if k.d_eta is None else k.rho / 2),
            "mdp_at_sigma": (k.d_root, None),
        }.get(kind, (k.w_o, 1))
        m = 0 if d is None else mp.fdot(k.eta, d)
        slope = None if k.rbar is None else 0 if d is None else mp.fdot(k.rbar, d)
        return k.q_mvp, k.ret_mvp, d, m, slope, u_one, False


def score_frontier(led, key, text, sigmas, k, kind):
    rows = list(csv.DictReader(text.splitlines()))
    if len(rows) != len(sigmas):
        raise ValueError(f"{key}: {len(rows)} rows for {len(sigmas)} grid points")
    q0, ret0, d, m, slope, u_one, cash = _ray(k, kind)
    for i, (row, sigma) in enumerate(zip(rows, sigmas)):
        if row["sigma"] != cli._digits(sigma):
            raise ValueError(f"{key} row {i}: sigma {row['sigma']} is not the grid's {sigma!r}")
        led.skip(key, "sigma")
        with mp.workdps(DPS):
            s = mp.mpf(sigma)
            u = s if cash else 0 if d is None else mp.sqrt(max(s * s - k.sigma2_mvp, 0))
            q = q0 + u * (m - u) / 2
            ref = {
                "q": q,
                "ret": None if slope is None else ret0 + u * slope,
                "centrality": None if cash else _centrality(k, k.q_max - q),
                "alpha": None if u_one is None else u / u_one,
            }
        for column, value in ref.items():
            if row[column] != "":
                led.score(key, column, row[column], value, i)


def _segment_kernel(u, free, kernels) -> DigitKernel:
    """DigitKernel of V_F, F the free set of a line's segment, kept in
    kernels by V_F."""
    ident = (len(free), u.cov[np.ix_(free, free)].tobytes())
    if ident not in kernels:
        kernels[ident] = DigitKernel.of_free_set(u.cov, free, DPS)
    return kernels[ident]


def score_sandwich(led, key, printed, reports, k, d_max, u, kernels):
    """Score each sandwich level; reports are the levels' unrounded fields."""
    lo = _segment_kernel(u, u.long_only_mvp.free, kernels)
    with mp.workdps(DPS):
        sigma_hi = mp.sqrt(max(k.eta))
        sigma_lo = mp.sqrt(lo.sigma2_mvp) if min(lo.w_mvp) >= 0 else None
    for cell, rep in zip(printed, reports, strict=True):
        refs = {"sigma_hi": sigma_hi, "d_max_upper": d_max, "sigma_lo": sigma_lo}
        if not rep["empty"]:
            tau = min(max(rep["sigma"], rep["sigma_lo"]), rep["sigma_hi"])
            maxima = []
            for line, root in ((u.eta_line, False), (u.root_eta_line, True)):
                kf = _segment_kernel(u, line.free[line.at(tau)[0]], kernels)
                value, counts = kf.two_fund_max(tau, root)
                maxima.append(value if counts else None)
            var, vol = maxima
            with mp.workdps(DPS):
                vol_sq = None if vol is None else vol**2
                gap = None if var is None or vol_sq is None else var - vol_sq
            refs.update(max_avg_variance=var, max_avg_volatility_sq=vol_sq, gap=gap)
        for field, value in cell.items():
            if isinstance(value, bool) or not isinstance(value, (int, decimal.Decimal)):
                continue
            if refs.get(field) is None:
                led.skip(key, f"sandwich.{field}")
            else:
                led.score(key, f"sandwich.{field}", value, refs[field])


def score_mdp(led, key, data, k, u, reports, kernels):
    w = k.portfolios()["mdp"]
    with mp.workdps(DPS):
        variance = k.variance(w)
        d_max = (max(k.root) - min(k.root)) ** 2 / 8
        refs = {
            "ratio": mp.fdot(k.root, w) / mp.sqrt(variance),
            "variance": variance,
            "q": k.q(w),
            "d_max_lower": d_max,
            "d_max_upper": d_max,
        }
    led.vector(key, "weights", data["weights"], w)
    for name, value in refs.items():
        led.score(key, name, data[name], value)
    score_sandwich(led, key, data["sandwich"], reports, k, d_max, u, kernels)


def _load(path: Path):
    return json.loads(path.read_text(), parse_float=decimal.Decimal)


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "drfrontier").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _run(name, argv, text, work: Path):
    """(args, universe, out, files) of one CLI run in this process, None if
    refused; files holds the artifacts before they are written."""
    run_dir = work / name
    run_dir.mkdir(parents=True)
    argv = list(argv)
    at = argv.index("--input") + 1
    if text is None:
        argv[at] = str(ROOT / argv[at])
    else:
        (run_dir / argv[at]).write_text(text)
        argv[at] = str(run_dir / argv[at])
    out = run_dir / "out"
    try:
        args = cli.build_parser().parse_args(argv + ["--out", str(out)])
        files = args.handler(args)
    except DrFrontierError:
        return None
    cli._write(str(out), files)
    return args, cli._load_universe(args)[0], out, files


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    out_root = Path(argv[0]).resolve()
    led, refs, kernels = Ledger(), {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, text) in cli_artifacts.runs().items():
            if args[0] not in COMMANDS or "--input" not in args:
                continue
            ran = _run(name, args, text, Path(tmp))
            if ran is None:
                continue
            args, u, out, files = ran
            rbar = u.expected_returns
            ident = (u.cov.tobytes(), None if rbar is None else rbar.tobytes(), u.risk_free_rate)
            if ident not in refs:
                k = DigitKernel(u, DPS) if u.nonsingular else None
                refs[ident] = k, (k.s, k.q_max) if k else centre_at_digits(u.cov, DPS)
            k, centre = refs[ident]
            for path in sorted(out.iterdir()):
                key = f"{name}/{path.name}"
                if path.name == "portfolios.json":
                    score_portfolios(led, key, _load(path), k)
                elif path.name == "embedding.json":
                    score_embedding(led, key, _load(path), centre, u.cov)
                elif path.name == "embedding.csv":
                    rows = list(csv.reader(path.read_text().splitlines()))[1:]
                    led.skip(key, "coords", sum(len(r) - 1 for r in rows))
                elif path.name == "mdp.json":
                    reports = files["mdp.json"]["sandwich"]
                    score_mdp(led, key, _load(path), k, u, reports, kernels)
                elif path.name.startswith("frontier_"):
                    grid = u.sigma_grid if args.grid is None else cli._parse_grid_spec(args.grid)
                    kind = path.name[len("frontier_"):-len(".csv")]
                    score_frontier(led, key, path.read_text(), grid.tolist(), k, kind)
    files, by_file = led.report()
    ledger = {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "digits": cli.SIGNIFICANT_DIGITS,
        "reference_digits": DPS,
        "files": files,
        "by_file": by_file,
        "unscored": led.unscored,
    }
    out_root.mkdir(parents=True, exist_ok=True)
    text = json.dumps(ledger, indent=1, sort_keys=True) + "\n"
    (out_root / "BENCH_accuracy.json").write_text(text)
    print("| file | cells | off | worst relative error |")
    print("|---|---:|---:|---:|")
    for name, t in by_file.items():
        print(f"| {name} | {t['cells']} | {t['off']} | {t['worst_rel_err']:.2e} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
