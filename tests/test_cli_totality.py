"""Totality of the command line: every input ends in a result or a refusal.

Each run of ``cli.main``, in-process, must either exit 0 with well-formed
artifacts (every JSON file and stdout line parses, every CSV row has its
header's field count, every SVG parses as XML) or exit 2 with one JSON line
on stderr naming a DrFrontierError subclass, and it must finish within
RUN_SECONDS.  The inputs are covariance JSON universes (n = 2-8, cond(V) up
to 1e12, scales 1e-8 to 1e8, rank-deficient V, constant returns, r0 above
and below the minimum-variance return) and CSV panels (ragged rows, blank
and NaN cells, nonpositive prices, unsorted dates, no more rows than
assets).

On universes with a risk-free rate two consistencies are checked as well:
the default ``frontier`` writes exactly the kinds for which
``frontier --kind K`` exits 0, and ``portfolios.json`` has a null
``tangent`` exactly where ``tangent_portfolio`` raises.
"""

import contextlib
import csv
import datetime
import io
import json
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier import errors
from drfrontier.cli import main
from drfrontier.frontiers import FrontierKind

from .conftest import V3
from .oracles import conditioned_cov

RUN_SECONDS = 2.0
ERROR_NAMES = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.DrFrontierError)
}
COMMANDS = (["portfolios"], ["frontier", "--svg"], ["mdp", "--samples", "100"], ["embed"])
SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ex3's V with constant returns and r0 below them: the tangency is w_mvp,
# while the mean-variance curves have no direction
CONSTANT_RETURNS = {"V": V3.tolist(), "rbar": [0.05, 0.05, 0.05], "r0": 0.01}


def _assert_well_formed(out: Path, stdout: str) -> None:
    for line in stdout.splitlines():
        json.loads(line)
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text)
        elif path.suffix == ".csv":
            header, *rows = list(csv.reader(io.StringIO(text)))
            assert all(len(row) == len(header) for row in rows), path.name
        elif path.suffix == ".svg":
            ET.fromstring(text)
        else:
            raise AssertionError(f"unexpected artifact {path.name}")


def _run(args, out: Path):
    """Run the CLI on args into out; None on exit 0, else the error's name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(args + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    assert elapsed < RUN_SECONDS, (args, elapsed)
    if rc == 0:
        _assert_well_formed(out, stdout.getvalue())
        return None
    assert rc == 2, (args, rc)
    (line,) = stderr.getvalue().splitlines()
    name = json.loads(line)["error"]
    assert name in ERROR_NAMES, (args, line)
    assert not out.exists(), args
    return name


@st.composite
def json_universes(draw):
    """A covariance JSON input as a dict: V, and maybe rbar and r0."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-8, -4, 0, 2, 4, 8]))
    if draw(st.integers(0, 3)) == 0:
        # rank n - 1
        factors = rng.normal(size=(n, n - 1))
        V = factors @ factors.T
    else:
        V = conditioned_cov(rng, n, draw(st.floats(0.0, 12.0)))
    data = {"V": (scale * V).tolist()}
    returns = draw(st.sampled_from(["none", "random", "constant"]))
    rbar = None
    if returns != "none":
        rbar = np.full(n, 0.05) if returns == "constant" else rng.uniform(0.01, 0.2, n)
        data["rbar"] = rbar.tolist()
    r0 = draw(st.sampled_from(["none", "below", "above"]))
    if r0 != "none":
        # the minimum-variance return, or 0 without returns
        x = np.linalg.pinv(V) @ np.ones(n)
        ret = 0.0 if rbar is None or x.sum() == 0.0 else float(rbar @ x / x.sum())
        data["r0"] = ret - 0.01 if r0 == "below" else ret + 0.05
    return data


def _frontier_kinds(out: Path) -> set:
    if not out.exists():
        return set()
    return {p.name[len("frontier_"):-len(".csv")] for p in out.glob("frontier_*.csv")}


@SETTINGS
@given(json_universes())
@example(CONSTANT_RETURNS)
def test_cli_is_total_on_json_universes(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "u.json"
        src.write_text(json.dumps(data))
        outcome = {
            cmd[0]: _run(cmd + ["--input", str(src)], tmp / cmd[0]) for cmd in COMMANDS
        }
        if "r0" not in data:
            return
        accepted = {
            kind.value
            for kind in FrontierKind
            if _run(["frontier", "--kind", kind.value, "--input", str(src)], tmp / kind.value)
            is None
        }
        assert _frontier_kinds(tmp / "frontier") == accepted
        if outcome["portfolios"] is None:
            u = drf.validate_universe(
                data["V"], expected_returns=data.get("rbar"), risk_free_rate=data["r0"]
            )
            try:
                drf.tangent_portfolio(u)
                refused = False
            except errors.DrFrontierError:
                refused = True
            tangent = json.loads((tmp / "portfolios" / "portfolios.json").read_text())["tangent"]
            assert (tangent is None) == refused


@st.composite
def csv_panels(draw):
    """CSV text of a small price or return panel, maybe broken."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = datetime.date(2020, 1, 1)
    dates = [(start + datetime.timedelta(days=i)).isoformat() for i in range(rows)]
    cells = [[f"{x:.6g}" for x in row] for row in rng.uniform(50.0, 150.0, (rows, n))]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, n - 1))
        cells[i][j] = draw(st.sampled_from(["", "nan", "NaN", "0", "-3", "x"]))
    if rows > 1 and draw(st.booleans()):
        i = draw(st.integers(0, rows - 2))
        dates[i], dates[i + 1] = dates[i + 1], dates[i]
    lines = [",".join(["date"] + [f"A{k}" for k in range(n)])]
    lines += [",".join([d] + row) for d, row in zip(dates, cells)]
    if draw(st.booleans()):
        i = draw(st.integers(1, rows))
        lines[i] = lines[i].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


@SETTINGS
@given(csv_panels(), st.sampled_from([[], ["--format", "returns"], ["--log-returns"]]))
def test_cli_is_total_on_csv_panels(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "panel.csv"
        src.write_text(text)
        for cmd in (["ingest-check"],) + COMMANDS:
            _run(cmd + flags + ["--input", str(src)], tmp / cmd[0])
