"""ncspaces benchmark: one workload per run, or a traced pass for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` there.
``--trace 0`` draws the workload's item list from the seed and runs whole
passes over it for at least S seconds; an item's time is the mean over its
passes.  ``--trace 1`` runs one pass over every workload's items in a fresh
process each, untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  README.md in
this directory describes the workloads and metrics.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

# BLAS and OpenMP run single-threaded in every workload process; the only
# threads beside the main one are the library's own pools (at most nproc)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# extra fresh processes timing set-up, half before the timed loop and half
# after it, so they sample the host at both ends of the run; setup_s is the
# median of these and the run's own set-up
SETUP_PROBES = 8
TAIL_ABOVE = 10     # item_tail_ms leaves at least this many items above it


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in _BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCH["per_layer"]]

# per-layer metric prefix -> (end-to-end metrics it should move, workload);
# every <module>.residual_ratio.max moves failed_frac instead
TARGETS = {
    "twisted_algebra.": ("items_per_s, item_tail_ms", "torus_exact"),
    "phases.": ("item_tail_ms", "torus_exact"),
    "spectra.": ("items_per_s, item_tail_ms, peak_rss_mb", "band_spectra"),
    "moyal.": ("items_per_s, item_tail_ms", "moyal_plane"),
    "gridfn.": ("items_per_s, item_tail_ms", "moyal_plane"),
    "linalg.": ("item_tail_ms, items_per_s", "operator_tuples"),
    "finite_reps.": ("item_tail_ms, items_per_s", "operator_tuples"),
    "weyl_dynamics.": ("item_tail_ms, items_per_s", "operator_tuples"),
    "symplectic.": ("item_tail_ms, items_per_s", "operator_tuples"),
    "cli.butterfly.": ("items_per_s", "band_spectra"),
    "cli.moyal.": ("items_per_s", "moyal_plane"),
    "bench.": ("(tracing cost)", "all"),
}


def target(name: str):
    prefix = next(p for p in TARGETS if name.startswith(p))
    moves, workload = TARGETS[prefix]
    return ("failed_frac" if name.endswith(".residual_ratio.max") else moves), workload


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "ncspaces", "__init__.py")):
        _fail(f"no ncspaces sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import ncspaces

    if not os.path.abspath(ncspaces.__file__).startswith(SRC + os.sep):
        _fail(f"ncspaces imported from {ncspaces.__file__}, not from {SRC}")
    os.makedirs(OUT, exist_ok=True)
    import workloads

    return workloads


def environment() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


# -- one workload process --------------------------------------------------------------


class Runner:
    """Runs the item list in passes, times each compute step and keeps what
    the report needs."""

    def __init__(self, items, tracer=None):

        self.items = items
        self.tracer = tracer
        self.times = [[] for _ in items]
        self.failures = []
        self.failed_items = set()
        # items with a wrong output, an unchecked one, or an error that is not
        # a documented defect
        self.rejected = 0
        self.ratios = {}
        self.last = {}
        self.attempted = 0

    def run_pass(self) -> float:
        """Run every item once, in list order; return the summed compute time."""
        total = 0.0
        for i, item in enumerate(self.items):
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.item = i
                self.tracer.active = True
            error, known = None, False
            t0 = time.perf_counter()
            try:
                result = item.compute()
            except Exception as e:  # a failed item is counted, not fatal
                error = f"{type(e).__name__}: {e}"
                known = item.known_failure is not None and item.known_failure(e)
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            total += dt
            self.times[i].append(dt)
            verdicts, bad = [], []
            if error is None:
                try:
                    verdicts = item.check(result)
                except Exception as e:
                    bad = [f"oracle raised {type(e).__name__}: {e}"]
            bad += [f"{v.module}/{v.check}" for v in verdicts if not v.ok]
            self.rejected += bool(bad) or (error is not None and not known)
            for v in verdicts:
                if v.ratio is not None:
                    self.ratios[v.module] = max(self.ratios.get(v.module, 0.0), v.ratio)
            if error is not None or bad:
                self.failures.append({"item": i, "kind": item.kind, "known_defect": known,
                                      "error": error or ", ".join(bad)})
                self.failed_items.add(i)
            else:
                self.last[item.kind] = (item, result)
        return total

    def self_test(self):
        """Each oracle must reject every corrupted copy of a result it accepted."""
        missed, tried = [], 0
        for kind, (item, result) in sorted(self.last.items()):
            for k, bad in enumerate(item.corrupt(result)):
                tried += 1
                try:
                    verdicts = item.check(bad)
                except Exception as e:
                    missed.append(f"{kind} #{k}: oracle raised {type(e).__name__}: {e}")
                    continue
                if all(v.ok for v in verdicts):
                    missed.append(f"{kind} #{k}: corrupted result accepted")
        return {"kinds": len(self.last), "corruptions": tried, "missed": missed}


def tail(times):
    """Value at the highest percentile that leaves TAIL_ABOVE values above it."""
    xs = sorted(times)
    k = max(0, len(xs) - TAIL_ABOVE - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def setup_workload(workloads, name, seed):
    wl = workloads.WORKLOADS[name](seed, OUT)
    items = wl.items()
    wl.warmup(items)
    return items


def run_timed(args) -> int:
    workloads = _import_library()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOAD_NAMES}")
    items = setup_workload(workloads, args.workload, args.seed)
    setup_own = time.perf_counter() - T_START
    setups = [setup_own] + [_probe_setup(args) for _ in range(SETUP_PROBES // 2)]

    runner = Runner(items)
    passes = 0
    t_loop = time.perf_counter()
    while True:
        runner.run_pass()
        passes += 1
        if time.perf_counter() - t_loop >= args.seconds:
            break
    loop_wall = time.perf_counter() - t_loop
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    selftest = runner.self_test()

    setups += [_probe_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    # an item's time is the mean over its passes: on a shared host whose speed
    # changes for tens of seconds at a time, the mean spreads less between
    # runs than the median, which jumps between the fast and the slow state
    per_item = [statistics.fmean(ts) for ts in runner.times]
    n = len(items)
    ok_times = [t for i, t in enumerate(per_item) if i not in runner.failed_items]
    tail_s, tail_pct = tail(per_item)
    metrics = {
        # a failed item's time is left out, so a failure cannot read as a gain
        "items_per_s": len(ok_times) / sum(ok_times),
        "item_p50_ms": 1e3 * statistics.median(per_item),
        "item_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    failed = len(runner.failures)
    # a documented library defect that raises is a failed item; any other
    # error, and a result an oracle rejects, makes the run incorrect
    correct = runner.rejected == 0 and not selftest["missed"]

    by_kind = {}
    for item, t in zip(items, per_item):
        by_kind.setdefault(item.kind, []).append(t)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": passes, "loop_wall_s": loop_wall, "items": n,
        "tail": {"percentile": tail_pct, "items": n, "above": TAIL_ABOVE},
        "setup_samples_s": setups, "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:50], "self_test": selftest,
        "residual_ratio_max": runner.ratios,
        "kinds": {k: {"count": len(v), "median_ms": 1e3 * statistics.median(v),
                      "max_ms": 1e3 * max(v)} for k, v in sorted(by_kind.items())},
        "item_times_s": runner.times,
        "environment": environment(), "metrics": metrics,
    }
    _write_report(f"{args.workload}-seed{args.seed}-trace0.json", report)

    print(f"workload {args.workload}: seed {args.seed}, {n} items x {passes} passes "
          f"in {loop_wall:.2f} s; an item's time is its mean over the passes")
    for name, unit in END_TO_END:
        extra = ""
        if name == "item_tail_ms":
            extra = f"  (p{tail_pct:.2f} of {n} items, {TAIL_ABOVE} above)"
        print(f"  {name:<14} {metrics[name]:.6g} {unit}{extra}")
    print(f"  {'failed_frac':<14} {failed / runner.attempted:.6g} "
          f"({failed} of {runner.attempted} item runs)")
    for f in runner.failures[:10]:
        print(f"  FAILED item {f['item']} {f['kind']}: {f['error']}")
    for m in selftest["missed"]:
        print(f"  SELF-TEST {m}")
    _print_environment(report["environment"])
    _emit(correct, runner.attempted, failed,
          {name: (metrics[name], unit) for name, unit in END_TO_END})
    return 0


def _probe_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--worker", "setup"]
    return float(_child_json(cmd)["setup_s"])


def run_setup_probe(args) -> int:
    workloads = _import_library()
    setup_workload(workloads, args.workload, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    return 0


# -- traced pass ----------------------------------------------------------------------


def run_trace_worker(args) -> int:
    """One pass over the workload's items untraced, then one traced."""
    workloads = _import_library()
    import tracer as tracing

    items = setup_workload(workloads, args.workload, args.seed)
    plain = Runner(items)
    untraced = plain.run_pass()
    tr = tracing.Tracer()
    tracing.install(tr)
    traced_runner = Runner(items, tr)
    traced = traced_runner.run_pass()
    tr.uninstall()
    tr.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    selftest = traced_runner.self_test()
    selfs = tr.self_times()
    calls = tr.call_counts()
    values = {}
    for name, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif ".calls." in name:
            base, label = name.split(".calls.")
            values[name] = calls.get(f"{base}.{label}", 0)
        elif ".busy_s" in name:
            base, _, label = name.partition(".busy_s")
            values[name] = selfs.get(base + label, 0.0)
        elif name.endswith(".residual_ratio.max"):
            values[name] = traced_runner.ratios.get(name.split(".")[0], 0.0)
        elif name in tr.maxima:
            values[name] = tr.maxima[name]
        else:
            values[name] = tr.counts.get(name, 0)
    values["phases.zeta_terms"] = tr.counts.get("phases.zeta_terms", 0)
    values["phases.coefficients"] = tr.counts.get("phases.coefficients", 0)
    failures = plain.failures + traced_runner.failures
    print(json.dumps({
        "workload": args.workload, "untraced_s": untraced, "traced_s": traced,
        "attempted": plain.attempted + traced_runner.attempted, "failures": failures,
        "rejected": plain.rejected + traced_runner.rejected,
        "self_test": selftest, "spans": len(tr.spans), "values": values,
    }))
    return 0


def run_traced(args) -> int:
    """Per-layer metrics from one traced pass over every workload's items."""
    workloads = _import_library()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOAD_NAMES}")
    parts = [_child_json([sys.executable, os.path.abspath(__file__), "--workload", name,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--worker", "trace"])
             for name in workloads.WORKLOAD_NAMES]
    values = {}
    for name, unit in PER_LAYER:
        column = [p["values"].get(name, 0) for p in parts]
        values[name] = max(column) if name.endswith(".max") else sum(column)
    coefficients = sum(p["values"]["phases.coefficients"] for p in parts)
    values["phases.zeta_terms_per_coeff"] = (
        sum(p["values"]["phases.zeta_terms"] for p in parts) / max(coefficients, 1))
    values["bench.trace_overhead_frac"] = (
        sum(p["traced_s"] for p in parts) / sum(p["untraced_s"] for p in parts) - 1.0)

    failures = [dict(f, workload=p["workload"]) for p in parts for f in p["failures"]]
    missed = [f"{p['workload']} {m}" for p in parts for m in p["self_test"]["missed"]]
    attempted = sum(p["attempted"] for p in parts)
    _write_report(f"{args.workload}-seed{args.seed}-trace1.json", {
        "seed": args.seed, "parts": parts, "values": values, "failures": failures,
        "self_test_missed": missed, "environment": environment()})

    print(f"traced pass: one pass over each workload's items, seed {args.seed}")
    for p in parts:
        print(f"  {p['workload']}: {p['spans']} spans, untraced {p['untraced_s']:.3f} s, "
              f"traced {p['traced_s']:.3f} s")
    for name, unit in PER_LAYER:
        moves, workload = target(name)
        print(f"  {name:<46} {values[name]:.6g} {unit:<6} -> {moves} on {workload}")
    for f in failures[:10]:
        print(f"  FAILED {f['workload']} item {f['item']} {f['kind']}: {f['error']}")
    for m in missed:
        print(f"  SELF-TEST {m}")
    rejected = sum(p["rejected"] for p in parts)
    _emit(rejected == 0 and not missed, attempted, len(failures),
          {name: (values[name], unit) for name, unit in PER_LAYER})
    return 0


def _child_json(cmd) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _fail(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _write_report(name: str, report: dict) -> None:
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


def _print_environment(env: dict) -> None:
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, {threads}")


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", choices=("setup", "trace"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    warnings.simplefilter("ignore")
    if args.worker == "setup":
        return run_setup_probe(args)
    if args.worker == "trace":
        return run_trace_worker(args)
    if args.trace:
        return run_traced(args)
    return run_timed(args)


if __name__ == "__main__":
    sys.exit(main())
