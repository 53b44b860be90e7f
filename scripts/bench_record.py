"""Record benchmark runs of one or two checkouts in a BENCH_<n>.json file.

    python3 scripts/bench_record.py --out BENCH_8.json --seeds 201-210 \
        --side parent=../fhshare-parent --side change=. --traced --tier1

For every workload (all of BENCHMARK.json's unless --workloads names
some) and seed, it runs `perfbench/run.py --workload W --seed S --seconds
<run_seconds>` once per side, from that side's checkout, one run at a
time. With two sides, the side that runs first alternates from seed to
seed. --traced adds one traced run (--trace 1) per side and workload on
the first seed; --tier1 times one run of the tier-1 test suite per side.

The file holds, per workload and side, every run's metrics and, per
metric, the median and quartiles (statistics.quantiles, n=4), plus the
jobs attempted and failed and whether every run's outputs were correct.
With two sides, each end-to-end metric also gets the number of seeds on
which the second side was better (ties count for neither), the ratio of
the medians, and the first side's quartile distance as a share of its
median. Per side it also records the state of src/fhshare's bytecode
cache before the first run and after the last (see pycache_state), and
whether PYTHONDONTWRITEBYTECODE is set; when the two sides differ in
these, it prints a warning, since a side that compiles on every import
reads a higher setup_s, and one that reads stale cache files first a
higher peak_rss_mb. Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def pycache_state(path):
    """"current" when every module of path's src/fhshare has a cached
    bytecode file whose header (magic number, timestamp mode, source mtime
    and size) lets this interpreter load it without compiling the source,
    "missing" when no module has a cached file, and "stale" otherwise."""
    src = os.path.join(path, "src", "fhshare")
    found = set()
    for name in os.listdir(src):
        if not name.endswith(".py"):
            continue
        source = os.path.join(src, name)
        st = os.stat(source)
        want = importlib.util.MAGIC_NUMBER + struct.pack(
            "<III", 0, int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
        try:
            with open(importlib.util.cache_from_source(source), "rb") as fh:
                found.add(fh.read(len(want)) == want)
        except FileNotFoundError:
            found.add(None)
    if found == {True}:
        return "current"
    return "missing" if found == {None} else "stale"


def bench_run(path, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{path}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    print(f"{path} {workload} seed {seed} trace {trace}: correct {result['correct']} "
          f"failed {result['failed']}/{result['attempted']} "
          + " ".join(f"{k} {v:.5g}" for k, v in values.items()), flush=True)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": values}


def summary(runs):
    out = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "correct": all(r["correct"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        out["metrics"][name] = {"median": med, "q1": q1, "q3": q3}
    return out


def pairs(spec, base_runs, new_runs):
    """Per end-to-end metric: wins of the second side, median ratio, base spread."""
    out = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        base = [r["metrics"][name] for r in base_runs]
        new = [r["metrics"][name] for r in new_runs]
        q1, med, q3 = statistics.quantiles(base, n=4)
        out[name] = {
            "new_better": sum(sign * (b - n) > 0 for b, n in zip(base, new)),
            "new_worse": sum(sign * (n - b) > 0 for b, n in zip(base, new)),
            "pairs": len(base),
            "median_ratio": statistics.median(new) / med,
            "base_iqr_share": (q3 - q1) / med,
            "bound": metric["bound"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--side", action="append", required=True, metavar="LABEL=PATH")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--tier1", action="store_true")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = dict(s.split("=", 1) for s in a.side)
    if not 1 <= len(sides) <= 2:
        sys.exit("give one or two --side LABEL=PATH")
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    labels = list(sides)
    record = {"host": {"cpus": os.cpu_count(), "platform": platform.platform(),
                       "python": platform.python_version()},
              "run_seconds": spec["run_seconds"], "seeds": a.seeds, "sides": labels,
              "bytecode": {label: {"pycache_at_start": pycache_state(path),
                                   "dont_write_bytecode":
                                       bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}
                           for label, path in sides.items()},
              "workloads": {}}
    for w in workloads:
        runs = {label: [] for label in labels}
        for i, seed in enumerate(a.seeds):
            for label in (labels if i % 2 == 0 else labels[::-1]):
                runs[label].append(bench_run(sides[label], w, seed, spec["run_seconds"], 0))
        entry = {label: {**summary(runs[label]), "runs": runs[label]} for label in labels}
        if len(labels) == 2 and len(a.seeds) > 1:
            entry["pairs"] = pairs(spec, runs[labels[0]], runs[labels[1]])
        if a.traced:
            entry["traced"] = {label: bench_run(sides[label], w, a.seeds[0],
                                                spec["run_seconds"], 1)
                               for label in labels}
        record["workloads"][w] = entry
    if a.tier1:
        record["tier1_wall_s"] = {}
        for label in labels:
            env = {**os.environ, "PYTHONPATH": "src"}
            start = time.perf_counter()
            proc = subprocess.run(TIER1, cwd=sides[label], env=env, capture_output=True,
                                  text=True)
            record["tier1_wall_s"][label] = {
                "seconds": time.perf_counter() - start, "exit": proc.returncode,
                "summary": proc.stdout.strip().splitlines()[-1]}
            print(f"{label} tier-1: {record['tier1_wall_s'][label]}", flush=True)
    for label, path in sides.items():
        record["bytecode"][label]["pycache_at_end"] = pycache_state(path)
    states = [record["bytecode"][label] for label in labels]
    if any(state != states[0] for state in states):
        print(f"warning: the sides' bytecode caches differ, so setup_s may differ "
              f"without a code change: {record['bytecode']}", file=sys.stderr, flush=True)
    with open(a.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
