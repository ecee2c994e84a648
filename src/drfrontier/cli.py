"""Command line interface.

Subcommands:
    portfolios    closed-form special portfolios as JSON
    frontier      frontier curves as CSV (optionally SVG charts)
    mdp           diversification-ratio analysis and sandwich checks as JSON
    embed         asset coordinates and embedding summary
    ingest-check  parse a panel and emit provenance only

Inputs are either a CSV panel of prices/returns (see ingest) or a direct
covariance JSON {"names": [...], "V": [[...]], "rbar": [...], "r0": x}
with the last two optional; --riskfree overrides r0.  Refused arguments
and inputs, non-numeric JSON fields and a non-finite risk-free rate
among them, exit with status 2 and a single machine-readable JSON object
on stderr.  Each run validates its universe once.  Each handler returns
its artifacts, a dict from file name to text or to a JSON-able object,
and ``main`` writes them only once the handler has returned: a run that
exits 2 writes no files.  Every artifact format lives here: one JSON and
one CSV writer print each float at SIGNIFICANT_DIGITS (12) significant
digits, and equal inputs and flags give byte-identical files.

Importing this module loads only the standard library and ``errors``; each
handler imports the modules it runs, so ``ingest-check`` never loads numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from .errors import (
    DegenerateReturnsError,
    DrFrontierError,
    MissingReturnsError,
    ParseError,
    TangencyInfeasibleError,
)

SIGNIFICANT_DIGITS = 12
# the most points a --grid spec may ask for: at the cap, `frontier --svg` on
# the 30-asset panel takes about 6 s and 330 MB, and time and memory grow
# linearly with the points
MAX_GRID_POINTS = 100_000


def _digits(x: float) -> str:
    """x at SIGNIFICANT_DIGITS significant digits, as both writers print it."""
    return f"{x:.{SIGNIFICANT_DIGITS}g}"


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        return float(_digits(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    import numpy as np

    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows: a float at SIGNIFICANT_DIGITS, None
    as an empty cell, a string as it is, quoted only where it needs it."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_digits(x) if isinstance(x, float) else x for x in row] for row in rows)
    return buf.getvalue()


def _write(out_dir: str, files: dict) -> None:
    """Write a run's artifacts into out_dir: a string as is, anything else
    as JSON with sorted keys, an indent of 2 and a trailing newline.  JSON
    has no NaN or Infinity, so a non-finite number raises ValueError."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        if not isinstance(content, str):
            content = json.dumps(_jsonable(content), sort_keys=True, indent=2, allow_nan=False)
            content += "\n"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content)


def _portfolio_dict(p) -> dict:
    if p is None:
        return None
    d = {
        "weights": p.weights,
        "sigma": p.sigma,
        "variance": p.variance,
        "q": p.dr,
    }
    d["centrality"] = (
        None if p.centrality_sq is None else math.sqrt(max(p.centrality_sq, 0.0))
    )
    d["expected_return"] = p.expected_return
    return d


def _provenance(path: str, panel) -> dict:
    """Record of the input file and the panel parsed from it."""
    import hashlib

    from .ingest import annualization_step

    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "input": os.path.basename(path),
        "input_sha256": digest,
        "calendar_days": panel.calendar_days,
        "periods": panel.periods,
        "delta": annualization_step(panel),
        "assets": len(panel.assets),
        "dropped_rows": panel.dropped_rows,
    }


def _load_universe(args):
    """Build the universe and the artifacts its input adds: for a panel,
    ``provenance.json``; for covariance JSON, none.

    --riskfree is applied where the universe is validated: JSON input passes
    it (or else r0) to its one validate_universe call, and a panel's
    annualized universe takes it without validating V again.
    """
    path = args.input
    fmt = args.format
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "prices"

    files = {}
    if fmt == "json":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
        if not isinstance(data, dict) or "V" not in data:
            raise ParseError(f"{path}: missing key 'V'")
        from .model import validate_universe

        universe = validate_universe(
            data["V"],
            expected_returns=data.get("rbar"),
            risk_free_rate=data.get("r0") if args.riskfree is None else args.riskfree,
            names=data.get("names"),
        )
    else:
        from . import ingest

        panel = ingest.load_panel(path, format=fmt, log_returns=args.log_returns)
        universe = ingest.annualize(panel)
        files["provenance.json"] = _provenance(path, panel)
        if args.riskfree is not None:
            universe = dataclasses.replace(universe, risk_free_rate=args.riskfree)

    if args.require_returns and universe.expected_returns is None:
        raise MissingReturnsError(
            "input carries no expected returns (--require-returns)"
        )
    return universe, files


def _parse_grid_spec(spec: str):
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ParseError(f"grid spec {spec!r}; expected min:max:points[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ParseError(f"grid spec {spec!r}: non-numeric field") from None
    if points < 2 or not 0.0 <= lo < hi < math.inf:  # False for a NaN bound
        raise ParseError(
            f"grid spec {spec!r}: need finite 0 <= min < max and points >= 2"
        )
    if points > MAX_GRID_POINTS:
        raise ParseError(f"grid spec {spec!r}: more than {MAX_GRID_POINTS} points")
    import numpy as np

    if len(parts) == 4:
        if parts[3] != "log":
            raise ParseError(f"grid spec {spec!r}: trailing field must be 'log'")
        if lo <= 0.0:
            raise ParseError(f"grid spec {spec!r}: log spacing needs min > 0")
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


# ---------------------------------------------------------------------------
# subcommands


def cmd_portfolios(args) -> dict:
    from . import portfolios

    universe, files = _load_universe(args)
    sp = portfolios.special_portfolios(universe)
    s, q_max = universe.solver, universe.centre[1]
    payload = {
        "names": list(universe.names),
        "scalars": {
            "a": s.a,
            "b": None if s.ret_mvp is None else s.a * s.ret_mvp,
            "rho": s.rho,
            "sigma_mvp": s.sigma_mvp,
            "sigma_mdrp": s.sigma_mdrp,
            "q_mvp": s.q_mvp,
            "q_max": q_max,
            "eta_wo": s.eta_wo,
            "eta_wo_sign": None if s.eta_wo is None else (
                "zero" if s.eta_wo == 0.0 else "positive" if s.eta_wo > 0.0 else "negative"
            ),
            "ef_shape": s.ef_shape.value,
        },
        "mvp": _portfolio_dict(sp.mvp),
        "mdrp": _portfolio_dict(sp.mdrp),
        "q_portfolio": _portfolio_dict(sp.q_pf),
        "tangent": _portfolio_dict(sp.tangent),
    }
    files["portfolios.json"] = payload
    return files


# the kinds `frontier` sweeps without --kind, in the order they are drawn,
# each only if its sweep raises none of _REFUSALS
_DEFAULT_KINDS = (
    "efficient_dr", "mdp_at_sigma", "mv_efficient_dr", "mv_mean_return",
    "cml", "efficient_dr_riskfree",
)
_REFUSALS = (MissingReturnsError, DegenerateReturnsError, TangencyInfeasibleError)
# the FrontierRow fields of a frontier CSV's columns, after its kind
FRONTIER_CSV_FIELDS = ("sigma", "q", "ret", "centrality", "alpha", "status")

# (file, title, y label, FrontierRow field) of each chart; sigma_q.svg is
# always drawn, the others when some curve has their field
CHARTS = (
    ("sigma_q.svg", "diversification return vs risk", "q", "q"),
    ("sigma_c.svg", "centrality vs risk", "c", "centrality"),
    ("sigma_R.svg", "expected return vs risk", "R", "ret"),
)


def _svg_charts(universe, curves) -> dict:
    import numpy as np

    from . import svg
    from .model import EfShape
    from .portfolios import q_portfolio

    s, q_max = universe.solver, universe.centre[1]
    markers = [("MVP", s.sigma_mvp, s.q_mvp), ("MDRP", s.sigma_mdrp, q_max)]
    if s.ef_shape is EfShape.STRONGLY_CONCAVE:
        q_pf = q_portfolio(universe)
        markers.append(("Q", q_pf.sigma, q_pf.dr))
    hlines = [("sqrt(q_max)", float(np.sqrt(q_max)))]
    charts = {}
    for filename, title, ylabel, field in CHARTS:
        series = []
        for curve in curves:
            rows = [
                r for r in curve.rows
                if r.status == "ok" and getattr(r, field) is not None
            ]
            if rows:
                series.append(
                    (curve.kind.value, [r.sigma for r in rows], [getattr(r, field) for r in rows])
                )
        if field != "q" and not series:
            continue
        charts[filename] = svg.render(
            title, ylabel, series,
            markers if field == "q" else (), hlines if field == "centrality" else (),
        )
    return charts


def cmd_frontier(args) -> dict:
    from . import frontiers

    universe, files = _load_universe(args)
    universe.solver  # a singular universe refuses before a bad --grid does
    grid = None if args.grid is None else _parse_grid_spec(args.grid)
    curves = []
    for kind in args.kind or _DEFAULT_KINDS:
        try:
            curves.append(frontiers.sweep(universe, frontiers.FrontierKind(kind), grid))
        except _REFUSALS:
            if args.kind:
                raise
    for curve in curves:
        kind = curve.kind.value
        rows = [(kind, *(getattr(r, f) for f in FRONTIER_CSV_FIELDS)) for r in curve.rows]
        files[f"frontier_{kind}.csv"] = _csv_text(("kind", *FRONTIER_CSV_FIELDS), rows)
    if args.svg:
        files.update(_svg_charts(universe, curves))
    return files


def cmd_mdp(args) -> dict:
    from . import mdp

    universe, files = _load_universe(args)
    analysis = mdp.analyze_mdp(universe)
    sigmas = args.sigma or [universe.solver.sigma_mvp * f for f in (1.05, 1.15, 1.3)]
    reports = [mdp.sandwich_check(universe, s, samples=args.samples) for s in sigmas]
    payload = {
        "weights": analysis.portfolio.weights,
        "ratio": analysis.ratio,
        "variance": analysis.portfolio.variance,
        "q": analysis.portfolio.dr,
        # one closed form under both keys, which readers of the bracket still read
        "d_max_lower": analysis.d_max,
        "d_max_upper": analysis.d_max,
        "sandwich": [dataclasses.asdict(r) for r in reports],
    }
    files["mdp.json"] = payload
    return files


def cmd_embed(args) -> dict:
    from . import embedding as emb_mod

    universe, files = _load_universe(args)
    embedding = emb_mod.embed(universe)
    header = ["asset"] + [f"dim{k + 1}" for k in range(embedding.dim)]
    rows = [(name, *x) for name, x in zip(universe.names, embedding.coords.T.tolist())]
    files["embedding.csv"] = _csv_text(header, rows)
    files["embedding.json"] = {
        "q_max": embedding.q_max,
        "eigvals": embedding.eigvals,
        "mdrp_weights": embedding.mdrp_weights,
    }
    return files


def cmd_ingest_check(args) -> dict:
    fmt = args.format or "prices"
    if fmt == "json":
        raise ParseError("ingest-check works on CSV panels, not covariance JSON")
    from . import ingest

    panel = ingest.load_panel(args.input, format=fmt, log_returns=args.log_returns)
    provenance = _provenance(args.input, panel)
    sys.stdout.write(json.dumps(_jsonable(provenance), sort_keys=True) + "\n")
    return {"provenance.json": provenance}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV panel or covariance JSON")
    p.add_argument(
        "--format",
        choices=["prices", "returns", "json"],
        default=None,
        help="input interpretation (default: by file extension)",
    )
    p.add_argument(
        "--log-returns",
        action="store_true",
        help="use log returns when converting prices",
    )
    p.add_argument("--riskfree", type=float, default=None, help="risk-free rate override")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="changes nothing: runs are deterministic")
    p.add_argument(
        "--require-returns",
        action="store_true",
        help="fail when the input has no expected returns",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise ParseError, which ``main``
    reports as one JSON line; its subparsers are of this class too."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The drfrontier parser; each subcommand's handler is its ``handler``,
    which returns the run's artifacts for :func:`_write`."""
    parser = _Parser(
        prog="drfrontier",
        description="Diversification-return portfolio analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("portfolios", help="closed-form special portfolios")
    _add_common(p)
    p.set_defaults(handler=cmd_portfolios)

    p = sub.add_parser("frontier", help="frontier curves as CSV (and SVG)")
    _add_common(p)
    p.add_argument(
        "--grid",
        default=None,
        help="sigma grid min:max:points[:log] (default: geometric in excess variance)",
    )
    p.add_argument(
        "--kind",
        action="append",
        # the values of frontiers.FrontierKind, written out so that parsing
        # the arguments loads no numpy
        choices=[
            "efficient_dr", "mv_efficient_dr", "cml",
            "efficient_dr_riskfree", "mv_mean_return", "mdp_at_sigma",
        ],
        help="curve kind (repeatable; default: all applicable)",
    )
    p.add_argument("--svg", action="store_true", help="also write SVG charts")
    p.set_defaults(handler=cmd_frontier)

    p = sub.add_parser("mdp", help="diversification-ratio analysis")
    _add_common(p)
    p.add_argument(
        "--sigma",
        action="append",
        type=float,
        help="risk level for the sandwich check (repeatable)",
    )
    p.add_argument(
        "--samples", type=int, default=20_000, help="only echoed, as each report's requested"
    )
    p.set_defaults(handler=cmd_mdp)

    p = sub.add_parser("embed", help="asset coordinates and embedding summary")
    _add_common(p)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("ingest-check", help="parse a panel, emit provenance only")
    _add_common(p)
    p.set_defaults(handler=cmd_ingest_check)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("DRFRONTIER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = build_parser().parse_args(argv)
        _write(args.out, args.handler(args))
        return 0
    except (DrFrontierError, OSError) as exc:
        name = type(exc).__name__ if isinstance(exc, DrFrontierError) else "OSError"
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
