"""Spans for the benchmark's traced runs.

A span records `<module>.<function>`, its start and end on CLOCK_MONOTONIC in
nanoseconds, its parent span and its op id.  The clock is shared by every
process on the machine, so the spans a CLI child writes nest inside the op
span its parent recorded.  Spans stay in memory until the run writes them.

Spans come only from the benchmark's files: `instrument` replaces, for the
life of one process, every binding of a public drfrontier function inside
the drfrontier modules with a wrapper that records a span around the call.
Nothing is patched when tracing is off.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs the traced runs wrap.  Binding every name that
# points at the function (the CLI's `from .model import validate_universe`,
# portfolios' `_embedding.embed`, ...) makes calls between modules visible,
# so `portfolios.embed_calls` counts the embed calls special_portfolios makes.
TARGETS = (
    ("model", "validate_universe"),
    ("ingest", "load_panel"),
    ("ingest", "annualize"),
    ("embedding", "embed"),
    ("embedding", "assert_edm"),
    ("portfolios", "special_portfolios"),
    ("frontiers", "frontier_params"),
    ("frontiers", "sweep"),
    ("frontiers", "inflection_report"),
    ("mdp", "analyze_mdp"),
    ("mdp", "mdp_global"),
    ("mdp", "build_d_eta"),
    ("mdp", "d_max_bounds"),
    ("mdp", "sandwich_check"),
    ("svg", "render"),
)


def _sweep_note(args, kwargs, result):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return {"kind": str(getattr(kind, "value", kind)), "rows": len(result.rows)}


def _d_max_note(args, kwargs, result):
    return {"starts": result.starts_used, "converged": bool(result.converged)}


def _sandwich_note(args, kwargs, result):
    return {
        "requested": result.requested,
        "accepted": result.accepted,
        "empty": bool(result.empty),
    }


# What a span keeps of a call's result: the counts the per-layer metrics need.
NOTES = {
    "frontiers.sweep": _sweep_note,
    "mdp.d_max_bounds": _d_max_note,
    "mdp.sandwich_check": _sandwich_note,
}


class Tracer:
    """Collects spans of one process.  Ids are unique across processes
    because each process prefixes its own."""

    def __init__(self, prefix: str = "s", root_parent=None, op_id=None):
        self.spans = []
        self._ids = itertools.count(1)
        self._prefix = prefix
        self._stack = [root_parent]
        self.op_id = op_id

    @contextmanager
    def span(self, name: str):
        span_id = f"{self._prefix}{next(self._ids)}"
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1],
            "op": self.op_id,
            "start": time.monotonic_ns(),
        }
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.monotonic_ns()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn):
        note_fn = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if note_fn is not None:
                record["note"] = note_fn(args, kwargs, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every binding of each TARGETS function in the loaded drfrontier modules."""
    import drfrontier.svg  # noqa: F401  (the CLI imports it lazily)

    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "drfrontier"]
    for mod_name, fn_name in TARGETS:
        original = getattr(sys.modules[f"drfrontier.{mod_name}"], fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover (ns)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def op_identity_error_ns(spans, op_ids) -> int:
    """Largest |self + sum(child durations) - duration| over the op spans.

    Zero when an op's children lie inside it and do not overlap, which is
    what a closed loop of sequential calls must produce.
    """
    selfs = self_times(spans)
    child_sum = {}
    for s in spans:
        child_sum[s["parent"]] = child_sum.get(s["parent"], 0) + s["end"] - s["start"]
    worst = 0
    for s in spans:
        if s["id"] in op_ids:
            err = selfs[s["id"]] + child_sum.get(s["id"], 0) - (s["end"] - s["start"])
            worst = max(worst, abs(err))
    return worst


def summarize(spans) -> dict:
    """Per function and per layer: calls, inclusive and self seconds."""
    selfs = self_times(spans)
    functions = {}
    layers = {}
    for s in spans:
        dur = (s["end"] - s["start"]) / 1e9
        own = selfs[s["id"]] / 1e9
        f = functions.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["total_s"] += dur
        f["self_s"] += own
        lay = layers.setdefault(s["name"].split(".", 1)[0], {"calls": 0, "self_s": 0.0})
        lay["calls"] += 1
        lay["self_s"] += own
    return {"functions": functions, "layers": layers}
