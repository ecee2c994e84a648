"""Totality of the command line: every input ends in a result or a refusal.

Each run of ``cli.main``, in-process, must either exit 0 with well-formed
artifacts (every JSON file and stdout line parses, without NaN or
Infinity, every CSV row has its header's field count and finite numbers,
every SVG parses as XML) or exit 2 with one JSON line
on stderr naming a DrFrontierError subclass, and it must finish within
RUN_SECONDS.  The inputs are covariance JSON universes (n = 2-8, cond(V) up
to 1e12, scales 1e-8 to 1e8, rank-deficient V, constant returns, r0 above
and below the minimum-variance return, asset names holding commas, quotes,
spaces and newlines, which a CSV row must quote to keep its header's field
count, and carriage returns, with which no command succeeds) and CSV
panels (ragged rows, blank and NaN cells, nonpositive prices, unsorted
dates, no more rows than assets).

``frontier --grid`` runs on drawn grid specs as well: valid ones of at
most 200 points, malformed ones and ones over ``MAX_GRID_POINTS``, which
must be refused by ParseError before any grid is built, unless the universe
is refused first, and ones reaching past ``MAX_SIGMA``, whose squares
overflow, which must be refused by ParseError as well; any other valid spec
ends as the default grid does.

On every JSON universe three consistencies are checked as well: the
default ``frontier`` writes exactly the kinds for which ``frontier --kind K``
exits 0, ``portfolios.json`` has a null ``tangent`` exactly where
``tangent_portfolio`` raises, and on every V the DR of the centre that
``embed`` writes is the q_max it writes (of rank n - 2 and below, V leaves
DR unbounded on the budget hyperplane unless eta' z = 0 on its zero-budget
null space, and ``embed`` must refuse it).
"""

import contextlib
import csv
import datetime
import io
import json
import math
import signal
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import drfrontier as drf
from drfrontier import errors
from drfrontier.cli import MAX_GRID_POINTS, main
from drfrontier.frontiers import MAX_SIGMA, FrontierKind
from drfrontier.model import PYTHAGORAS_ATOL

from .conftest import FIXTURES, V3, strict_json
from .oracles import conditioned_cov

RUN_SECONDS = 2.0
# a run still going after this long has hung: the watchdog fails it
WATCHDOG_SECONDS = 10 * RUN_SECONDS
ERROR_NAMES = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.DrFrontierError)
}
COMMANDS = (["portfolios"], ["frontier", "--svg"], ["mdp", "--samples", "100"], ["embed"])
SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# the shipped three-asset fixtures, without and with returns
EX3 = json.loads((FIXTURES / "example3_universe.json").read_text())
EX3_RETURNS = json.loads((FIXTURES / "example3_with_returns.json").read_text())
# ex3's V with constant returns and r0 below them: the tangency is w_mvp,
# while the mean-variance curves have no direction
CONSTANT_RETURNS = {"V": V3.tolist(), "rbar": [0.05, 0.05, 0.05], "r0": 0.01}
# a V of rank n - 2 on which DR is unbounded on the budget hyperplane, and a
# near-singular V (cond 1e11) whose maximum-DR centre, max|s| = 1.7e7, lies
# too far out for rounding to resolve q_max: embed refuses both
_FACTORS = np.random.default_rng(5).standard_normal((4, 2))
UNBOUNDED_DR = {"V": (_FACTORS @ _FACTORS.T).tolist()}
ILL_CONDITIONED_CENTRE = {"V": conditioned_cov(np.random.default_rng(0), 6, 11.0).tolist()}
# names a CSV cell must quote: one holds a comma, one a quote
QUOTED_NAMES = {"V": V3.tolist(), "names": ["a,b", 'c"d', "e"]}
# a name csv.writer would leave unquoted, so every command refuses it
CARRIAGE_RETURN_NAME = {"V": V3.tolist(), "names": ["a\rb", "c", "d"]}
# the CSV columns that hold text, not numbers
TEXT_COLUMNS = ("asset", "kind", "status")
# the characters asset names are drawn from: in a CSV cell a comma, a quote
# and a newline need quoting, a space does not; a carriage return is refused
NAME_ALPHABET = 'ab, "\n\r'


def _assert_well_formed(out: Path, stdout: str) -> None:
    for line in stdout.splitlines():
        strict_json(line)
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            strict_json(text)
        elif path.suffix == ".csv":
            header, *rows = list(csv.reader(io.StringIO(text)))
            assert all(len(row) == len(header) for row in rows), path.name
            # every number printed is finite; names, kinds and statuses are text
            numeric = [i for i, h in enumerate(header) if h not in TEXT_COLUMNS]
            for row in rows:
                cells = [float(row[i]) for i in numeric if row[i] != ""]
                assert all(map(math.isfinite, cells)), (path.name, row)
        elif path.suffix == ".svg":
            ET.fromstring(text)
        else:
            raise AssertionError(f"unexpected artifact {path.name}")


def _hung(signum, frame):
    # an AssertionError, which main does not catch as it does an OSError
    raise AssertionError(f"a run went past the {WATCHDOG_SECONDS} s watchdog")


def _run(args, out: Path):
    """Run the CLI on args into out; None on exit 0, else the error's name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(args + ["--out", str(out)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
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
    """A covariance JSON input as a dict: V, and maybe rbar, r0 and names."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-8, -4, 0, 2, 4, 8]))
    if draw(st.integers(0, 3)) == 0:
        # rank n - 1 (a riskless budget portfolio) down to 1
        factors = rng.normal(size=(n, draw(st.integers(1, n - 1))))
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
    if draw(st.booleans()):
        name = st.text(alphabet=NAME_ALPHABET, max_size=4)
        data["names"] = draw(st.lists(name, min_size=n, max_size=n))
    return data


def _frontier_kinds(out: Path) -> set:
    if not out.exists():
        return set()
    return {p.name[len("frontier_"):-len(".csv")] for p in out.glob("frontier_*.csv")}


def _assert_embed_centre_has_q_max(data, out: Path) -> None:
    """The DR of the centre embed writes is the q_max it writes, on every
    V.  The 12-digit weights are put back on budget first, which moves q
    only to second order at its maximum."""
    u = drf.validate_universe(data["V"])
    emb = json.loads((out / "embedding.json").read_text())
    s, q_max = np.array(emb["mdrp_weights"]), emb["q_max"]
    s = s / s.sum()
    q = 0.5 * float(u.variances @ s - s @ u.cov @ s)
    assert abs(q - q_max) <= PYTHAGORAS_ATOL * max(1.0, q_max), (q, q_max)


@SETTINGS
@given(json_universes())
@example(CONSTANT_RETURNS)
@example(UNBOUNDED_DR)
@example(ILL_CONDITIONED_CENTRE)
@example(QUOTED_NAMES)
@example(CARRIAGE_RETURN_NAME)
def test_cli_is_total_on_json_universes(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "u.json"
        src.write_text(json.dumps(data))
        outcome = {
            cmd[0]: _run(cmd + ["--input", str(src)], tmp / cmd[0]) for cmd in COMMANDS
        }
        accepted = {
            kind.value
            for kind in FrontierKind
            if _run(["frontier", "--kind", kind.value, "--input", str(src)], tmp / kind.value)
            is None
        }
        assert _frontier_kinds(tmp / "frontier") == accepted
        if any("\r" in name for name in data.get("names", ())):
            assert None not in outcome.values() and not accepted, outcome
        if outcome["embed"] is None:
            _assert_embed_centre_has_q_max(data, tmp / "embed")
        if outcome["portfolios"] is None:
            u = drf.validate_universe(
                data["V"], expected_returns=data.get("rbar"), risk_free_rate=data.get("r0")
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


# specs the grid parser refuses: a wrong field count, non-numeric fields,
# points below 2 or not an integer, min >= max, a negative, NaN or infinite
# bound, a bad trailing field, log spacing from 0, and a points field past
# int()'s digit limit
MALFORMED_GRIDS = (
    "1", "0.5:3", "0.5:3:10:log:log", "a:3:10", "0.5:b:10", "0.5:3:c",
    "0.5:3:1", "0.5:3:0", "0.5:3:-4", "0.5:3:2.5", "3:0.5:10", "1:1:10",
    "-1:3:10", "nan:3:10", "0.5:nan:10", "0.5:inf:10", "0.5:3:10:lin",
    "0:3:10:log", "0.5:3:" + "9" * 5000, "",
)


@st.composite
def grid_specs(draw):
    """A --grid spec and whether `frontier` accepts it: valid specs of at
    most 200 points, malformed ones and specs over MAX_GRID_POINTS.  A span
    is wide or 1-4 ulps, and min reaches 1e17, where adding 1 is lost to
    rounding, and 1e300, where a sigma past MAX_SIGMA, whose square
    overflows, is refused."""
    form = draw(st.sampled_from(["valid", "malformed", "over"]))
    if form == "malformed":
        return draw(st.sampled_from(MALFORMED_GRIDS)), False
    scale = 10.0 ** draw(st.sampled_from([-4, -2, 0, 2, 4, 16, 150, 300]))
    lo = scale * draw(st.floats(0.0, 10.0))
    if draw(st.booleans()):
        hi = lo + scale * draw(st.floats(1e-3, 10.0))
    else:
        hi = lo
        for _ in range(draw(st.integers(1, 4))):
            hi = math.nextafter(hi, math.inf)
    if form == "valid":
        points = draw(st.integers(2, 200))
    else:
        points = draw(st.integers(MAX_GRID_POINTS + 1, 10**18))
    log = ":log" if lo > 0.0 and draw(st.booleans()) else ""
    return f"{lo!r}:{hi!r}:{points}{log}", form == "valid" and hi <= MAX_SIGMA


def _refusal_before_the_grid(data):
    """The error `frontier` raises on data before it reads --grid, or None:
    validating the universe, then building its kernel."""
    try:
        drf.validate_universe(
            data["V"],
            expected_returns=data.get("rbar"),
            risk_free_rate=data.get("r0"),
            names=data.get("names"),
        ).solver
    except errors.DrFrontierError as exc:
        return type(exc).__name__
    return None


@SETTINGS
@given(json_universes(), grid_specs())
@example(CONSTANT_RETURNS, (f"0.5:3:{10**15}", False))
@example(UNBOUNDED_DR, (f"0.5:3:{MAX_GRID_POINTS + 1}", False))
@example(CONSTANT_RETURNS, (f"0.5:3:{MAX_GRID_POINTS + 1}:log", False))
@example(CONSTANT_RETURNS, ("", False))  # an empty spec is no default grid
# a span of one ulp, whose tick step is below half an ulp of its ticks, and
# a span from 1e17, to which adding 1 is lost to rounding
@example(EX3_RETURNS, ("1.5:1.5000000000000002:2", True))
@example(EX3, ("0.1:1e17:2", True))
# sigmas of 5e199 and 1e200, which square to infinity
@example(EX3_RETURNS, ("1e150:1e200:3", False))
def test_frontier_grid_specs_end_in_a_result_or_a_refusal(data, spec):
    spec, valid = spec
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "u.json"
        src.write_text(json.dumps(data))
        cmd = ["frontier", "--svg", "--input", str(src)]
        # as one argument: argparse reads a separate "-1:3:10" as an option
        outcome = _run(cmd + [f"--grid={spec}"], tmp / "grid")
        if valid:
            assert outcome == _run(cmd, tmp / "default"), spec
        else:
            assert outcome == (_refusal_before_the_grid(data) or "ParseError"), spec
