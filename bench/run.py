"""drfrontier benchmark: end-to-end and per-layer metrics from one command.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout of the repository; it builds nothing
and imports drfrontier from the checkout's src/.  With `--workload all` (the
default) it runs every workload untraced and then traced, and prints each
workload's metrics and the tracing overhead.  A single workload prints its
metrics by name with their units, writes bench/out/BENCH_<workload>_seed<N>_
trace<0|1>.json (with the spans, when traced) and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The metric names and units
are those of BENCHMARK.json: its end_to_end list untraced, its per_layer list
traced; its times are wall times divided by the run's slowdown (speed.py).
Workloads, metrics and the baseline are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One closed-loop caller; a single BLAS thread keeps it the plain
# single-threaded baseline and leaves the second core to the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_PROBE = os.path.join(BENCH_DIR, "setup_probe.py")
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# op_tail_s is this nearest-rank percentile of the ops' latencies.  A run has
# 4 to 10 distinct ops, too few for ten beyond any percentile above the
# median, so the tail is that of the op mix: its dearest ops.
TAIL_PERCENTILE = 90

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("cli", "ingest", "model", "embedding", "portfolios", "frontiers", "mdp", "svg")
# Public functions whose time the per-layer metrics report (inclusive).
FUNCTIONS = (
    "cli.import",
    "ingest.load_panel",
    "ingest.annualize",
    "svg.render",
    "model.validate_universe",
    "embedding.embed",
    "embedding.assert_edm",
    "portfolios.special_portfolios",
    "frontiers.frontier_params",
    "frontiers.inflection_report",
    "mdp.mdp_global",
    "mdp.d_max_bounds",
    "mdp.sandwich_check",
)


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def check_checkout() -> None:
    missing = [p for p in ("src/drfrontier/__init__.py", *workloads.FIXTURES)
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"{ROOT} is not a drfrontier checkout: missing {', '.join(missing)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu_model = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "drfrontier", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload


def measure_setup(workload, env, kernel_times) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        kernel_times.append(speed.kernel())
        start = time.perf_counter()
        workload.setup_local()
        local = time.perf_counter() - start
        probe = subprocess.run(
            [sys.executable, SETUP_PROBE, workload.name, ROOT],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        if probe.returncode != 0:
            fail(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
        times.append(local + float(probe.stdout.split()[-1]))
    return times


def run_ops(workload, plan, tracer, kernel_times) -> list:
    """Go through the plan in rounds, each op once per round while it has
    repeats left, timing the speed kernel before each; one record per run
    of an op."""
    runs = []
    for round_ in range(max(repeats for _, repeats in plan)):
        for index, (spec, repeats) in enumerate(plan):
            if round_ < repeats:
                kernel_times.append(speed.kernel())
                runs.append(run_op(workload, index, spec, round_, tracer))
    return runs


def run_op(workload, index, spec, round_, tracer) -> dict:
    inp = workload.prepare(index, spec, round_)
    op_id = f"op{index}.r{round_}"
    error = None
    result = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(inp, None)
        else:
            tracer.op_id = op_id
            with tracer.span("op") as op_span:
                result = workload.run(inp, op_span)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if error is None:
        outcome = workload.finish(inp, result, op_id)
    else:
        outcome = workloads.Outcome([error])
    return {
        "id": op_id,
        "op": index,
        "round": round_,
        "spec": workload.label(spec),
        "latency_s": latency,
        "ok": not outcome.problems,
        "deadline": outcome.deadline,
        "problems": outcome.problems,
    }


def per_op(runs) -> list:
    """One record per op: the mean latency of its runs, and failed if any of
    its runs failed.

    The runs of an op lie a round apart, so the mean spreads over the whole
    run the machine's changes of speed, which on a shared VM reach 1.5x for
    stretches of seconds; the ranks that pick op_p50_s and op_tail_s then
    fall on the same ops in every run.
    """
    ops = {}
    for r in runs:
        o = ops.setdefault(r["op"], {"op": r["op"], "spec": r["spec"], "runs": [], "ok": True})
        o["runs"].append(r["latency_s"])
        o["ok"] = o["ok"] and r["ok"]
    for o in ops.values():
        o["latency_s"] = statistics.fmean(o["runs"])
    return list(ops.values())


def rank_value(ops, percentile: float) -> float:
    """Nearest-rank percentile of op latency; a failed op ranks as slowest."""
    order = sorted(ops, key=lambda o: (not o["ok"], o["latency_s"] if o["ok"] else 0.0))
    rank = max(1, math.ceil(percentile / 100.0 * len(order)))
    return order[rank - 1]["latency_s"]


def by_spec(ops) -> dict:
    """Op count, runs, failures and median latency for each kind of op."""
    groups = {}
    for o in ops:
        groups.setdefault(o["spec"], []).append(o)
    return {
        spec: {
            "ops": len(group),
            "runs": sum(len(o["runs"]) for o in group),
            "failed": sum(not o["ok"] for o in group),
            "median_s": statistics.median(o["latency_s"] for o in group),
        }
        for spec, group in groups.items()
    }


def end_to_end(runs, ops, setups, peak_rss_mb, slowdown) -> dict:
    """Times are wall times divided by the run's slowdown (speed.py); each
    keeps its wall value too."""
    done = [o for o in ops if o["ok"]]
    busy = sum(o["latency_s"] for o in done)
    failed = sum(not r["ok"] for r in runs)
    setup = statistics.median(setups)
    p50 = rank_value(ops, 50)
    tail = rank_value(ops, TAIL_PERCENTILE)
    return {
        "setup_s": {"value": setup / slowdown, "wall": setup, "unit": "s",
                    "samples": setups},
        "op_p50_s": {"value": p50 / slowdown, "wall": p50, "unit": "s", "ops": len(ops)},
        "op_tail_s": {"value": tail / slowdown, "wall": tail, "unit": "s",
                      "percentile": TAIL_PERCENTILE, "ops": len(ops)},
        "ops_per_s": {"value": len(done) / busy * slowdown, "wall": len(done) / busy,
                      "unit": "1/s", "completed": len(done), "op_seconds": busy},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "failed_ratio": {"value": failed / len(runs), "unit": "ratio",
                         "failed": failed, "attempted": len(runs)},
    }


def per_layer(spans, runs) -> tuple:
    """Per-layer metrics over the completed runs of ops, and the identity check error."""
    done = {r["id"] for r in runs if r["ok"]}
    spans = [s for s in spans if s["op"] in done]
    op_spans = [s for s in spans if s["name"] == "op"]
    op_ns = sum(s["end"] - s["start"] for s in op_spans) or 1
    n_ops = max(1, len(op_spans))
    summary = tracing.summarize(spans)
    fns, lays = summary["functions"], summary["layers"]
    by_id = {s["id"]: s for s in spans}

    m = {}
    for layer in LAYERS + ("op",):
        lay = lays.get(layer, {"calls": 0, "self_s": 0.0})
        if layer != "op":
            m[f"{layer}.calls"] = lay["calls"] / n_ops
        m[f"{layer}.self_s"] = lay["self_s"] / n_ops
        m[f"{layer}.share"] = lay["self_s"] * 1e9 / op_ns
    for name in FUNCTIONS:
        f = fns.get(name, {"calls": 0, "total_s": 0.0})
        m[f"{name}.share"] = f["total_s"] * 1e9 / op_ns
        m[f"{name}_s"] = f["total_s"] / f["calls"] if f["calls"] else 0.0

    sweeps = [s for s in spans if s["name"] == "frontiers.sweep"]
    rows = sum(s["note"]["rows"] for s in sweeps)
    for kind in workloads.FRONTIER_KINDS:
        ns = [s["end"] - s["start"] for s in sweeps if s["note"]["kind"] == kind]
        m[f"frontiers.sweep.{kind}.share"] = sum(ns) / op_ns
        m[f"frontiers.sweep_s.{kind}"] = sum(ns) / len(ns) / 1e9 if ns else 0.0
    m["frontiers.sweep_rows"] = rows / len(sweeps) if sweeps else 0.0
    m["frontiers.sweep_us_per_point"] = (
        sum(s["end"] - s["start"] for s in sweeps) / rows / 1e3 if rows else 0.0
    )

    specials = [s for s in spans if s["name"] == "portfolios.special_portfolios"]
    inner_embeds = sum(
        1 for s in spans
        if s["name"] == "embedding.embed"
        and by_id.get(s["parent"], {}).get("name") == "portfolios.special_portfolios"
    )
    m["portfolios.embed_calls"] = inner_embeds / len(specials) if specials else 0.0

    dmax = [s["note"] for s in spans if s["name"] == "mdp.d_max_bounds"]
    m["mdp.d_max_starts"] = sum(d["starts"] for d in dmax) / len(dmax) if dmax else 0.0
    m["mdp.d_max_converged_ratio"] = (
        sum(d["converged"] for d in dmax) / len(dmax) if dmax else 0.0
    )
    sand = [s["note"] for s in spans if s["name"] == "mdp.sandwich_check"]
    m["mdp.sandwich_empty"] = sum(d["empty"] for d in sand)
    requested = sum(d["requested"] for d in sand)
    m["mdp.sandwich_accept_ratio"] = (
        sum(d["accepted"] for d in sand) / requested if requested else 0.0
    )
    identity_err = tracing.op_identity_error_ns(spans, {s["id"] for s in op_spans})
    return m, identity_err


def calls_by_spec(spans, runs) -> dict:
    """Mean seconds per call of each wrapped function, by kind of op."""
    spec_of = {r["id"]: r["spec"] for r in runs if r["ok"]}
    groups = {}
    for s in spans:
        if s["name"] != "op" and s["op"] in spec_of:
            name = s["name"]
            if name == "frontiers.sweep":
                name = f"frontiers.sweep.{s['note']['kind']}"
            groups.setdefault(spec_of[s["op"]], {}).setdefault(name, []).append(
                (s["end"] - s["start"]) / 1e9)
    return {
        spec: {name: {"calls": len(v), "mean_s": sum(v) / len(v)} for name, v in sorted(fns.items())}
        for spec, fns in groups.items()
    }


def result_path(name, seed, trace) -> str:
    return os.path.join(OUT, f"BENCH_{name}_seed{seed}_trace{trace}.json")


def tracing_overhead(name, seed, seconds, source_sha256, e2e) -> dict:
    """Traced minus untraced end-to-end metrics, when the untraced run is on disk."""
    path = result_path(name, seed, 0)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)
    if base["seconds"] != seconds or base["environment"]["source_sha256"] != source_sha256:
        return None
    out = {}
    for key, metric in e2e.items():
        before = base["end_to_end"][key]["value"]
        diff = metric["value"] - before
        out[key] = {"untraced": before, "traced": metric["value"], "diff": diff,
                    "rel": diff / before if before else None}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, SRC)
    env = child_env()
    spec = contract()
    tracer = tracing.Tracer() if trace else None
    workload = workloads.WORKLOADS[name](ROOT, seed, env, tracer)
    os.makedirs(OUT, exist_ok=True)

    kernel_times = []
    setups = measure_setup(workload, env, kernel_times)
    if workload.in_process:
        workload.load()
        import drfrontier

        if not os.path.abspath(drfrontier.__file__).startswith(SRC + os.sep):
            fail(f"imported drfrontier from {drfrontier.__file__}, not from {SRC}")
        if tracer is not None:
            tracing.instrument(tracer)
    plan = workload.plan(seconds)
    runs = run_ops(workload, plan, tracer, kernel_times)
    ops = per_op(runs)
    slowdown = speed.slowdown(kernel_times)

    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    e2e = end_to_end(runs, ops, setups, peak_rss_mb, slowdown)
    env_record = environment(seed)
    problems = [p for r in runs if not r["deadline"] for p in r["problems"]]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env_record,
        "closed_loop": "one caller; the next op starts when the previous returns",
        "deadline_s": workloads.DEADLINE_S if name == "cli_fixtures" else None,
        "slowdown": slowdown,
        "speed_kernel": {"reference_s": speed.REFERENCE_S, "samples_s": kernel_times},
        "end_to_end": e2e,
        "by_spec": by_spec(ops),
        "ops": ops,
        "runs": runs,
    }

    names = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        layer_metrics, identity_err = per_layer(tracer.spans, runs)
        if identity_err:
            problems.append(f"trace: op self + children != op span by {identity_err} ns")
        record["per_layer"] = layer_metrics
        record["calls_by_spec"] = calls_by_spec(tracer.spans, runs)
        record["op_identity_error_ns"] = identity_err
        values = layer_metrics
    else:
        values = {k: v["value"] for k, v in e2e.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    if trace:
        record["tracing_overhead"] = tracing_overhead(
            name, seed, seconds, env_record["source_sha256"], e2e)
        record["spans"] = tracer.spans
    record["correct"] = not problems

    with open(result_path(name, seed, int(trace)), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    failed = e2e["failed_ratio"]["failed"]
    print(json.dumps({"correct": not problems, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


def report(record) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  BLAS threads {env['blas_threads']} of nproc {env['nproc']}")
    for spec, v in record["by_spec"].items():
        print(f"    {spec:<22} {v['ops']:>3} ops {v['runs']:>3} runs  median {v['median_s']:.4f} s"
              f"  failed {v['failed']}")
    e2e = record["end_to_end"]
    print(f"  slowdown {record['slowdown']:.3f} (speed kernel); times below are wall / slowdown,"
          " wall in brackets")
    print(f"  {'setup_s':<18} {e2e['setup_s']['value']:.6f} s   ({e2e['setup_s']['wall']:.6f})"
          f"   median of {SETUP_REPEATS} set-ups")
    print(f"  {'op_p50_s':<18} {e2e['op_p50_s']['value']:.6f} s   ({e2e['op_p50_s']['wall']:.6f})"
          f"   {len(record['ops'])} ops, {len(record['runs'])} runs")
    print(f"  {'op_tail_s':<18} {e2e['op_tail_s']['value']:.6f} s   ({e2e['op_tail_s']['wall']:.6f})"
          f"   p{e2e['op_tail_s']['percentile']} of {len(record['ops'])} ops")
    print(f"  {'ops_per_s':<18} {e2e['ops_per_s']['value']:.6f} 1/s ({e2e['ops_per_s']['wall']:.6f})")
    print(f"  {'peak_rss_mb':<18} {e2e['peak_rss_mb']['value']:.3f} MB")
    fr = e2e["failed_ratio"]
    print(f"  {'failed_ratio':<18} {fr['value']:.6f} ratio   {fr['failed']} failed of {fr['attempted']}")
    for r in record["runs"]:
        for p in r["problems"]:
            print(f"  failed {r['id']}: {p}")
    if record["trace"]:
        layer = record["per_layer"]
        zero = sorted(k for k, v in layer.items() if v == 0)
        print("  per-layer (per completed run of an op; share = self or call time / op time):")
        for k, v in sorted(layer.items()):
            if v != 0:
                print(f"    {k:<44} {v:.6g}")
        print(f"    ({len(zero)} metrics of layers this workload never calls read 0)")
        print(f"  op identity error: {record['op_identity_error_ns']} ns")
        overhead = record["tracing_overhead"]
        if overhead is None:
            print("  tracing overhead: no untraced run of this seed and source on disk")
        else:
            for k, v in overhead.items():
                rel = "" if v["rel"] is None else f" ({100 * v['rel']:+.2f}%)"
                print(f"  tracing overhead {k:<14} {v['diff']:+.6f}{rel}")
    print(f"  results: {os.path.relpath(result_path(record['workload'], record['seed'], record['trace']), ROOT)}")


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_checkout()
    seconds = args.seconds if args.seconds is not None else contract()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
