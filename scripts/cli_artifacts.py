"""Run the shipped CLI commands on the shipped fixtures and keep what each leaves.

    python3 scripts/cli_artifacts.py OUT_DIR

Every run starts `python -m drfrontier.cli` from this checkout's src/ in a
fresh interpreter, with the repo root as working directory, and writes under
OUT_DIR/<run>/ the files the command wrote (in out/), its stdout, its stderr
and its exit code.  The runs cover, on each of the four fixtures,
`portfolios`, `portfolios --riskfree 0.01`, `frontier --svg`,
`frontier --svg --riskfree 0.01` and `embed`; `ingest-check` on the two
price panels; `mdp` on ex3 (default, two seeded sigmas, and the sigmas
0.1 and 100, both levels empty), ex3 with returns, mini and panel-30 (one
seeded sigma, and the default sigmas); the README's
`frontier --grid 1.0:2.0:50 --kind efficient_dr`;
`frontier --svg` on ex3 with returns on the grid 1.5:1.5000000000000002:2,
one ulp wide, and on ex3 on the grid 0.1:1e17:2, whose sigma_c.svg has one
point, at 1e17, to which adding 1 is lost to rounding; the two cash
curves, `--kind cml --kind efficient_dr_riskfree`, on ex3 with returns on
the grid 0:3:7, which starts at sigma = 0 (all cash); on ex3 with
returns and `--riskfree 10`, above the minimum-variance return, the
default `frontier --svg` (no tangency, so no `cml`) and the refused
`frontier --kind cml`; the refused `frontier --kind mv_efficient_dr` on
ex3, which has no returns, and the refused
`frontier --kind efficient_dr_riskfree` on ex3, which has no risk-free
rate; `--log-returns` on mini; `--require-returns` on ex3; `--help` of the
program and of every subcommand; and the refused inputs: non-finite `--riskfree`, `--sigma` and
`--grid` values, on ex3 an empty `frontier --grid=`, `frontier --grid -1:3:10`
as two arguments (argparse reads the bound as an option) and
`frontier --kind bogus`, on ex3 with returns `frontier --grid=1e150:1e200:3`,
whose sigmas past 1.34e154 square to infinity, and covariance JSON with a
NaN or non-numeric field or with names that are not a list; `portfolios`, `frontier --svg` and
`mdp` on ex3's covariance with returns 1e-11 apart; `portfolios`,
`frontier --svg` and `mdp` on ex3's correlation with volatilities
0.3 (1, 1 + 1e-9, 1 - 1e-9); `portfolios` and `frontier --svg` on a
two-asset universe with cond(V) = 4.3e6, whose max-DR portfolio is
(1/2, 1/2); `portfolios`, `frontier --svg` and the refused
`frontier --kind mv_efficient_dr` on ex3's covariance with constant
returns 0.05 and r0 = 0.01, whose tangency is the minimum-variance
portfolio while its mean-variance curves have no direction; `embed` on
ex3's covariance with the asset names "a,b", 'c"d' and "e", which the CSV
quotes; `embed` on four singular covariances: diag(0, 1, 1), whose riskless
first asset leaves one maximum-DR portfolio, (0, 1/2, 1/2); two clones of
one asset beside a third, [[1, 1, 0], [1, 1, 0], [0, 0, 2]], whose clones
share their weight; the totality harness's UNBOUNDED_DR, a V of rank 2 on
four assets on which DR is unbounded on the budget hyperplane (refused);
and two clones alone, [[1, 1], [1, 1]], on which DR is 0 on the whole
budget hyperplane (refused); and the refused covariance JSON with a NaN
return.  The
script writes those covariance JSON inputs, and the CSV panels `ingest-check` reads to show each parse error
(a non-numeric cell, a nonpositive price, a NaN cell before a negative
price, dates out of order, a ragged row, fewer than two rows) and the
warning for a row with a blank cell, into the run's directory, and runs
the command there, so a message names the input by its file name only.

Whether two checkouts produce byte-identical artifacts is then one command:

    diff -r OUT_A OUT_B
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a run still going after this long has hung: subprocess.run raises
# TimeoutExpired, naming its command, and the script stops
RUN_TIMEOUT_SECONDS = 120

FIXTURES = {
    "ex3": "fixtures/example3_universe.json",
    "ex3r": "fixtures/example3_with_returns.json",
    "mini": "fixtures/mini_prices.csv",
    "panel": "fixtures/synthetic_panel_30.csv",
}

PER_FIXTURE = {
    "portfolios": ["portfolios"],
    "portfolios-rf": ["portfolios", "--riskfree", "0.01"],
    "frontier-svg": ["frontier", "--svg"],
    "frontier-svg-rf": ["frontier", "--svg", "--riskfree", "0.01"],
    "embed": ["embed"],
}

EXTRA = {
    "mini-ingest-check": ("mini", ["ingest-check"]),
    "panel-ingest-check": ("panel", ["ingest-check"]),
    "ex3-mdp": ("ex3", ["mdp"]),
    "ex3-mdp-sigmas": (
        "ex3",
        ["mdp", "--sigma", "1.2", "--sigma", "1.4", "--samples", "20000", "--seed", "3"],
    ),
    "ex3r-mdp": ("ex3r", ["mdp"]),
    "mini-mdp": ("mini", ["mdp"]),
    "panel-mdp-sigma": (
        "panel",
        ["mdp", "--sigma", "0.177032476371", "--samples", "20000", "--seed", "5"],
    ),
    "panel-mdp": ("panel", ["mdp"]),
    "ex3-mdp-empty-levels": ("ex3", ["mdp", "--sigma", "0.1", "--sigma", "100"]),
    "ex3-frontier-grid-kind": (
        "ex3",
        ["frontier", "--grid", "1.0:2.0:50", "--kind", "efficient_dr"],
    ),
    "ex3r-frontier-svg-ulp-grid": (
        "ex3r",
        ["frontier", "--svg", "--grid", "1.5:1.5000000000000002:2"],
    ),
    "ex3-frontier-svg-1e17-grid": ("ex3", ["frontier", "--svg", "--grid", "0.1:1e17:2"]),
    "ex3r-frontier-cash-grid": (
        "ex3r",
        ["frontier", "--grid", "0:3:7", "--kind", "cml", "--kind", "efficient_dr_riskfree"],
    ),
    "ex3r-frontier-svg-rf-above-mvp": ("ex3r", ["frontier", "--svg", "--riskfree", "10"]),
    "ex3r-frontier-cml-rf-above-mvp": ("ex3r", ["frontier", "--riskfree", "10", "--kind", "cml"]),
    "ex3-frontier-mv-kind": ("ex3", ["frontier", "--kind", "mv_efficient_dr"]),
    "ex3-frontier-riskfree-kind": ("ex3", ["frontier", "--kind", "efficient_dr_riskfree"]),
    "mini-portfolios-log-returns": ("mini", ["portfolios", "--log-returns"]),
    "mini-ingest-check-log-returns": ("mini", ["ingest-check", "--log-returns"]),
    "ex3-require-returns": ("ex3", ["portfolios", "--require-returns"]),
    "ex3r-portfolios-rf-nan": ("ex3r", ["portfolios", "--riskfree", "nan"]),
    "ex3r-frontier-rf-neginf": ("ex3r", ["frontier", "--riskfree=-inf"]),
    "panel-portfolios-rf-nan": ("panel", ["portfolios", "--riskfree", "nan"]),
    "panel-frontier-rf-inf": ("panel", ["frontier", "--riskfree", "inf"]),
    "ex3-mdp-sigma-nan": ("ex3", ["mdp", "--sigma", "nan", "--samples", "100"]),
    "ex3-frontier-grid-nan": ("ex3", ["frontier", "--grid", "nan:2:5"]),
    "ex3-frontier-grid-inf": ("ex3", ["frontier", "--grid", "1:inf:5"]),
    "ex3-frontier-grid-neginf": ("ex3", ["frontier", "--grid=-inf:1:5"]),
    "ex3-frontier-grid-empty": ("ex3", ["frontier", "--grid="]),
    "ex3-frontier-grid-two-args": ("ex3", ["frontier", "--grid", "-1:3:10"]),
    "ex3r-frontier-grid-overflow": ("ex3r", ["frontier", "--grid=1e150:1e200:3"]),
    "ex3-frontier-kind-bogus": ("ex3", ["frontier", "--kind", "bogus"]),
}

HELP = ["portfolios", "frontier", "mdp", "embed", "ingest-check"]

JSON_RUN = ["portfolios", "--input", "input.json"]
CSV_RUN = ["ingest-check", "--input", "input.csv"]

# ex3's V with returns 1e-11 apart: close to, but not, a multiple of ones,
# so the mean-variance direction rests on the centred returns
NEAR_CONSTANT_RETURNS = (
    '{"V": [[1.2222222222222223, 0.8888888888888888, 0.8888888888888888], '
    "[0.8888888888888888, 2.5555555555555554, -0.4444444444444444], "
    "[0.8888888888888888, -0.4444444444444444, 2.5555555555555554]], "
    '"rbar": [0.05, 0.05000000001, 0.05]}\n'
)

# ex3's correlation with volatilities 0.3 (1, 1 + 1e-9, 1 - 1e-9): variances
# close to equal, so rho (7.83e-10) rests on the centred variances
NEAR_EQUAL_VOLS = (
    '{"V": [[0.08999999999999998, 0.045266012214525066, 0.045266012123993046], '
    "[0.045266012214525066, 0.09000000018000001, -0.01565217391304348], "
    "[0.045266012123993046, -0.01565217391304348, 0.08999999982000001]]}\n"
)

# two assets with cond(V) = 4.3e6: the max-DR portfolio of any two assets is
# (1/2, 1/2), and every named portfolio sums to one only up to rounding
TWO_ASSETS = (
    '{"V": [[0.24671167963129925, -0.05000930994942807], '
    "[-0.05000930994942807, 0.01013712273722854]], "
    '"rbar": [0.12813823780813746, 0.04365469787233788]}\n'
)

# ex3's V with constant returns and r0 below them: the tangency portfolio is
# w_mvp, and the mean-variance curves are refused (DegenerateReturnsError)
CONSTANT_RETURNS = (
    '{"V": [[1.2222222222222223, 0.8888888888888888, 0.8888888888888888], '
    "[0.8888888888888888, 2.5555555555555554, -0.4444444444444444], "
    "[0.8888888888888888, -0.4444444444444444, 2.5555555555555554]], "
    '"rbar": [0.05, 0.05, 0.05], "r0": 0.01}\n'
)

# ex3's V with asset names that embedding.csv must quote: a comma and a quote
QUOTED_NAMES = (
    '{"V": [[1.2222222222222223, 0.8888888888888888, 0.8888888888888888], '
    "[0.8888888888888888, 2.5555555555555554, -0.4444444444444444], "
    "[0.8888888888888888, -0.4444444444444444, 2.5555555555555554]], "
    '"names": ["a,b", "c\\"d", "e"]}\n'
)

# singular covariances, each refused by the kernel, on which embed reads the
# universe's centre from the bordered KKT solve
EMBED_RUN = ["embed", "--input", "input.json"]
RISKLESS_ASSET = '{"V": [[0, 0, 0], [0, 1, 0], [0, 0, 1]]}\n'
CLONES_AND_ONE = '{"V": [[1, 1, 0], [1, 1, 0], [0, 0, 2]]}\n'
TWO_CLONES = '{"V": [[1, 1], [1, 1]]}\n'
# tests/test_cli_totality.py's UNBOUNDED_DR: A A' for a 4 x 2 normal A, seed 5
UNBOUNDED_DR = (
    '{"V": [[2.3970207601102143, -0.35765144361598955, -1.056322071773466, 1.482516176612567], '
    "[-0.35765144361598955, 0.23845769354175608, -0.23602482640464129, -0.19270077835689822], "
    "[-1.056322071773466, -0.23602482640464129, 1.302637218033897, -0.7139284992281889], "
    "[1.482516176612567, -0.19270077835689822, -0.7139284992281889, 0.9212992670301691]]}\n"
)

# run -> (CLI arguments, text of the --input file written into OUT_DIR/<run>/)
WRITTEN = {
    "json-r0-nan": (JSON_RUN, '{"V": [[1, 0], [0, 2]], "rbar": [0.1, 0.2], "r0": NaN}\n'),
    "json-r0-text": (JSON_RUN, '{"V": [[1, 0], [0, 2]], "rbar": [0.1, 0.2], "r0": "abc"}\n'),
    "json-rbar-text": (JSON_RUN, '{"V": [[1, 0], [0, 2]], "rbar": ["x", 0.2]}\n'),
    "json-rbar-nan": (JSON_RUN, '{"V": [[1, 0], [0, 2]], "rbar": [NaN, 0.2]}\n'),
    "json-V-text": (JSON_RUN, '{"V": [["a", 0], [0, 2]]}\n'),
    "json-names-number": (JSON_RUN, '{"V": [[1, 0], [0, 2]], "names": 5}\n'),
    "json-names-text": (JSON_RUN, '{"V": [[1, 0], [0, 2]], "names": "ab"}\n'),
    "csv-text-cell": (CSV_RUN, "date,X,Y\n2020-01-01,1,2\n2020-01-02,oops,3\n2020-01-03,4,5\n"),
    "csv-nonpositive-price": (CSV_RUN, "date,X,Y\n2020-01-01,5,2\n2020-01-02,4,0\n2020-01-03,4,5\n"),
    "csv-nan-then-negative": (
        CSV_RUN,
        "date,X,Y\n2020-01-01,5,2\n2020-01-02,nan,3\n2020-01-03,4,-1\n2020-01-06,4,5\n",
    ),
    "csv-dates-out-of-order": (CSV_RUN, "date,X\n2020-01-03,1\n2020-01-02,2\n2020-01-04,3\n"),
    "csv-ragged-row": (CSV_RUN, "date,X,Y\n2020-01-01,1,2\n2020-01-02,3\n2020-01-03,4,5\n"),
    "csv-blank-cell": (
        CSV_RUN,
        "date,X,Y\n2020-01-01,1,2\n2020-01-02,,2\n2020-01-03,3,4\n2020-01-06,4,5\n",
    ),
    "csv-one-row": (CSV_RUN, "date,X\n2020-01-01,1\n"),
    "json-rbar-near-constant-portfolios": (JSON_RUN, NEAR_CONSTANT_RETURNS),
    "json-rbar-near-constant-frontier": (
        ["frontier", "--svg", "--input", "input.json"],
        NEAR_CONSTANT_RETURNS,
    ),
    "json-rbar-near-constant-mdp": (["mdp", "--input", "input.json"], NEAR_CONSTANT_RETURNS),
    "json-vols-near-equal-portfolios": (JSON_RUN, NEAR_EQUAL_VOLS),
    "json-vols-near-equal-frontier": (
        ["frontier", "--svg", "--input", "input.json"],
        NEAR_EQUAL_VOLS,
    ),
    "json-vols-near-equal-mdp": (["mdp", "--input", "input.json"], NEAR_EQUAL_VOLS),
    "json-two-assets-portfolios": (JSON_RUN, TWO_ASSETS),
    "json-two-assets-frontier": (["frontier", "--svg", "--input", "input.json"], TWO_ASSETS),
    "json-rbar-constant-portfolios": (JSON_RUN, CONSTANT_RETURNS),
    "json-rbar-constant-frontier": (
        ["frontier", "--svg", "--input", "input.json"],
        CONSTANT_RETURNS,
    ),
    "json-rbar-constant-mv-kind": (
        ["frontier", "--kind", "mv_efficient_dr", "--input", "input.json"],
        CONSTANT_RETURNS,
    ),
    "json-names-quoted-embed": (EMBED_RUN, QUOTED_NAMES),
    "json-riskless-asset-embed": (EMBED_RUN, RISKLESS_ASSET),
    "json-clones-and-one-embed": (EMBED_RUN, CLONES_AND_ONE),
    "json-unbounded-dr-embed": (EMBED_RUN, UNBOUNDED_DR),
    "json-two-clones-embed": (EMBED_RUN, TWO_CLONES),
}


def runs() -> dict:
    """Run name -> (CLI arguments, --out left out; text of the input file or None).

    With a text, the --input argument names a file written into the run's
    directory, where the command runs.
    """
    table = {"help": (["--help"], None)}
    for cmd in HELP:
        table[f"{cmd}-help"] = ([cmd, "--help"], None)
    for fx, path in FIXTURES.items():
        for label, args in PER_FIXTURE.items():
            table[f"{fx}-{label}"] = (args + ["--input", path], None)
    for name, (fx, args) in EXTRA.items():
        table[name] = (args + ["--input", FIXTURES[fx]], None)
    table.update(WRITTEN)
    return table


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    out_root = Path(argv[0]).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    table = runs()
    for name, (args, text) in table.items():
        run_dir = out_root / name
        run_dir.mkdir(parents=True, exist_ok=True)
        if text is not None:
            (run_dir / args[args.index("--input") + 1]).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "drfrontier.cli", *args, "--out", str(run_dir / "out")],
            cwd=ROOT if text is None else run_dir,
            env=env,
            capture_output=True,
            timeout=RUN_TIMEOUT_SECONDS,
        )
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    print(f"{len(table)} runs under {out_root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
