"""fhshare benchmark: one workload, timed untraced or traced, outputs checked.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The workload runs in CHILDREN fresh
processes, one after another. Each sets up (imports fhshare, builds the
inputs, runs one warm-up job) and then makes passes over the workload's
fixed job list for its share of the given seconds (at least one pass).
Every child gives one sample of setup_s, so the samples are spread over
the whole run. The last line of stdout is one JSON object with "correct",
"attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

This process never imports fhshare: it builds the same inputs from the
seed and checks the children's outputs with refs.py.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import refs
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_run"
CHILDREN = 6          # processes per run; setup_s is the median of their set-ups
# Reference time of child.make_calibration()'s loop. Set-up and job times are
# reported as if the loop had taken this long in the same process at the
# same time, which takes out most of the shared host's drift; see README.md.
CAL_REF_S = 0.002
CHILD_GRACE_S = 25.0  # a child may overrun its share of the seconds by this

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}


def fail(message: str, code: int = 2):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(code)


def run_children(a, rundir, threads):
    results = []
    for k in range(CHILDREN):
        cdir = os.path.join(rundir, f"child{k}")
        os.mkdir(cdir)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", a.workload, "--seed", str(a.seed), "--dir", cdir,
               "--budget", repr(a.seconds / CHILDREN), "--threads", str(threads),
               "--trace", str(a.trace)]
        if a.trace and k == 0:
            cmd += ["--spans", os.path.abspath(os.path.join(OUT_DIR, f"spans-{a.workload}.jsonl"))]
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=a.seconds / CHILDREN + CHILD_GRACE_S, text=True)
        except subprocess.TimeoutExpired:
            fail(f"child {k} exceeded its time limit", 1)
        result_path = os.path.join(cdir, "result.json")
        if proc.returncode != 0 or not os.path.exists(result_path):
            fail(f"child {k} exited with {proc.returncode}:\n{proc.stderr[-2000:]}", 1)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        with open(result_path) as fh:
            results.append(json.load(fh))
    return results


def read_outputs(jobs, cdir):
    outputs = {}
    for job in jobs:
        for name in [job.out] + ([job.dump] if job.dump else []):
            path = os.path.join(cdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    outputs[job.name if name == job.out else name] = fh.read()
    return outputs


def check_outputs(jobs, results, cdir):
    """Per-job failure flags for every execution, and the check messages.

    The last pass of child 0 is checked against refs; every other
    execution of a job must have produced byte-identical output.
    """
    outputs = read_outputs(jobs, cdir)
    last = results[0]["passes"][-1]
    messages = {}
    for j, job in enumerate(jobs):
        if not last["ok"][j] or last["digests"][j] is None:
            messages[job.name] = ["job failed or wrote no output"]
            continue
        errs = refs.check(job, outputs)
        if errs:
            messages[job.name] = errs
    wrong = set(messages)
    attempted = failed = 0
    for res in results:
        for p in res["passes"]:
            for j, job in enumerate(jobs):
                attempted += 1
                if (not p["ok"][j] or job.name in wrong
                        or p["digests"][j] != last["digests"][j]):
                    failed += 1
    return attempted, failed, messages


def summarize(a, results):
    """Set-up and memory are medians over the children; pass times are means
    over the passes, because the host's speed switches between phases and
    a median of a few passes jumps with the share of slow ones.

    Times are scaled by CAL_REF_S over the calibration loop's median time:
    a pass by the loops timed in it, a child's set-up by all the loops
    timed in that child's passes, which follow right after it.
    """
    passes = [p for r in results for p in r["passes"]]
    pass_s = statistics.mean(p["pass_s"] for p in passes)
    if not a.trace:
        pscale = [CAL_REF_S / statistics.median(p["cal_s"]) for p in passes]
        sscale = [CAL_REF_S / statistics.median(c for p in r["passes"] for c in p["cal_s"])
                  for r in results]
        return {
            "setup_s": statistics.median(r["setup_s"] * f for r, f in zip(results, sscale)),
            "pass_s": statistics.mean(p["pass_s"] * f for p, f in zip(passes, pscale)),
            "job_p50_ms": 1000.0 * statistics.mean(
                p["job_p50_s"] * f for p, f in zip(passes, pscale)),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        }, {
            "wall_setup_s": statistics.median(r["setup_s"] for r in results),
            "wall_pass_s": pass_s,
            "wall_job_p50_ms": 1000.0 * statistics.mean(p["job_p50_s"] for p in passes),
            "speed_scale": statistics.median(pscale),
        }
    metrics = {}
    for key in spans.SELF_TIME:
        metrics[key] = statistics.median(p["layers"][key] for p in passes)
    for key in spans.COUNTS:
        values = {p["layers"][key] for p in passes}
        if len(values) != 1:
            fail(f"count {key} differs between passes: {sorted(values)}", 1)
        metrics[key] = values.pop()
    metrics["setup.import_s"] = statistics.median(r["import_s"] for r in results)
    extra = {
        "traced_pass_s": pass_s,
        "coverage": statistics.median(p["covered_s"] / p["pass_s"] for p in passes),
    }
    return metrics, extra


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in ("speed_scale", "coverage"):
        return ""
    if name.endswith("_ms"):
        return "ms"
    if name == "cli.out_bytes":
        return "bytes"
    return "count" if name in spans.COUNTS else "s"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "fhshare", "__init__.py")):
        fail("run from the root of an fhshare checkout (src/fhshare not found)")

    os.makedirs(OUT_DIR, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{a.workload}-", dir=OUT_DIR)
    try:
        threads = workloads.bench_threads()
        results = run_children(a, rundir, threads)
        jobs = workloads.build(a.workload, a.seed, threads)
        if any(r["jobs"] != [j.name for j in jobs] for r in results):
            fail("children ran a different job list", 1)
        attempted, failed, messages = check_outputs(
            jobs, results, os.path.join(rundir, "child0"))
        metrics, extra = summarize(a, results)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    n_passes = sum(len(r["passes"]) for r in results)
    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  threads {threads}  "
          f"processes {CHILDREN}  passes {n_passes}  jobs/pass {len(jobs)}")
    for name, errs in messages.items():
        for e in errs[:3]:
            print(f"  CHECK FAILED {name}: {e}")
    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"  {name:32s} {value:14.6g} {unit_of(name)}")
    print(f"  attempted {attempted}  failed {failed}")
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{a.workload}{'-trace' if a.trace else ''}.json"),
              "w") as fh:
        json.dump({**result, "seed": a.seed, "extra": extra}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
