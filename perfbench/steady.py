"""Steadiness of the benchmark: repeat runs and report the spread per metric.

    python3 perfbench/steady.py --runs 1
    python3 perfbench/steady.py --runs 10 --seed0 1 --out set1.json
    python3 perfbench/steady.py --runs 10 --seed0 101 --out set2.json
    python3 perfbench/steady.py --compare set1.json set2.json

With --runs 1 it is the one command that runs every workload and prints
each end-to-end metric with its unit and the jobs attempted and failed.
Each run is one `run.py` invocation with its own seed, so the spread
includes the input variation a seed brings. For every end-to-end metric
on every workload it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread, that is
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json, plus
the share of failed jobs. --out also keeps each run's raw (unscaled)
times. --compare prints how far the second set's
median moved from the first's, as a share of the first, and the bound.
Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_set(bench, runs, seed0, workloads, trace):
    out = {}
    for w in workloads:
        out[w] = []
        for r in range(runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed0 + r), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed0 + r} failed:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            suffix = "-trace" if trace else ""
            with open(os.path.join(ROOT, ".perfbench_run", f"result-{w}{suffix}.json")) as fh:
                res["extra"] = json.load(fh)["extra"]  # e.g. the raw times
            out[w].append(res)
            vals = "  ".join(f"{k} {v['value']:.5g} {v['unit']}"
                             for k, v in res["metrics"].items())
            print(f"{w} seed {seed0 + r}: attempted {res['attempted']} failed {res['failed']}"
                  f"  {vals}", flush=True)
    return out


def table(bench, data):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':12s} {'metric':12s} {'median':>11s} {'Q1':>11s} {'Q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} {'bound/3':>7s}")
    for w, results in data.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ("  <-- above bound" if spread > bound
                    else "  <-- above bound/3" if spread > bound / 3 else "")
            print(f"{w:12s} {name:12s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.4f} "
                  f"{bound:6.3f} {bound / 3:7.4f}{flag}")
        print(f"{w:12s} failed share {sorted(shares)}")


def compare(bench, a, b):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in a:
        for name, bound in bounds.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[w])
            move = (mb - ma) / ma
            flag = "" if move <= bound else "  <-- worse than bound"
            print(f"{w:12s} {name:12s} {ma:11.5g} -> {mb:11.5g}  {move:+.4f}  bound {bound}{flag}")
        sa = {r["failed"] / r["attempted"] for r in a[w]}
        sb = {r["failed"] / r["attempted"] for r in b[w]}
        print(f"{w:12s} failed share {sorted(sa)} -> {sorted(sb)}")


def main():
    ap = argparse.ArgumentParser(description="Spread of the benchmark's metrics.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None, help="save the runs' results as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = ap.parse_args()
    bench = spec()
    if a.compare:
        with open(a.compare[0]) as fa, open(a.compare[1]) as fb:
            compare(bench, json.load(fa), json.load(fb))
        return
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    data = run_set(bench, a.runs, a.seed0, names, a.trace)
    if a.out:
        with open(a.out, "w") as fh:
            json.dump(data, fh)
    if not a.trace and a.runs >= 2:
        table(bench, data)


if __name__ == "__main__":
    main()
