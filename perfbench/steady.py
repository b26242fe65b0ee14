"""Run every workload on seeds 1..10 and report each metric's spread.

    python3 perfbench/steady.py [--out perfbench/BENCH_baseline.json]

Each run is a fresh ``run.py`` process with ``run_seconds`` from BENCHMARK.json.
For every end-to-end metric the script prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (q3 - q1) / median
and the metric's bound, and marks a spread above a third of its bound.  With
``--out`` it appends this set of runs to the file's list of sets and compares
each median with the first set's: a median worse than the first by more than
the bound is marked.  This is the one command that runs all four workloads
and prints every metric with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(metric: dict, median: float, first: float) -> float:
    """How much worse ``median`` is than ``first``, as a share of ``first``."""
    change = (median - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    sets = []
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            sets = json.load(fh)["sets"]
    first = sets[0]["workloads"] if sets else None
    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, seed, bench["run_seconds"]) for seed in SEEDS]
        rows = {}
        print(f"{workload}: {len(SEEDS)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}, "
              f"failed {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)} items, "
              f"all correct: {all(r['correct'] for r in results)}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            row = summarize(values)
            row.update(unit=metric["unit"], bound=bound, values=values)
            rows[name] = row
            worst = max(worst, row["spread"] / bound)
            flag = "  <-- above bound/3" if row["spread"] >= bound / 3 else ""
            if first is not None:
                drift = worse_by(metric, row["median"], first[workload]["metrics"][name]["median"])
                flag += f"  vs first set {drift:+.4f}" + ("  <-- worse than bound" if drift > bound else "")
            print(f"  {name:<13} median {row['median']:<12.6g} {metric['unit']:<4} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} (bound {bound}){flag}")
        failed_frac = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        print(f"  {'failed_frac':<13} {failed_frac:.6g} fraction")
        record["workloads"][workload] = {
            "metrics": rows, "failed_frac": failed_frac,
            "correct": all(r["correct"] for r in results)}
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"run_seconds": bench["run_seconds"], "seeds": SEEDS,
                       "sets": sets + [record]}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
