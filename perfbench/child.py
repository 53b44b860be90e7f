"""One workload process: import fhshare, build inputs, warm up, run passes.

Started by run.py, several times per run, from the root of a checkout.
It makes whole passes while the next one is expected to end within the
budget (at least one).
It writes its timings to result.json in its own directory and leaves the
last pass's outputs there for run.py to check. It prints nothing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.abspath("src")


def make_calibration():
    """A loop of fixed interpreter and numpy work; calling it returns the
    seconds it took.

    Run before every timed job. The shared host's speed drifts by 10-30%
    over minutes, so run.py scales job times, and the set-up time of the
    same process, by how fast this loop ran meanwhile.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, m = rng.random(4096), rng.random((64, 64))

    def calibrate() -> float:
        t = time.perf_counter()
        acc = {}
        for i in range(6000):
            acc[i & 255] = acc.get(i & 255, 0.0) + i * 0.5
        for _ in range(12):
            np.exp(-a).sum()
            np.sort(a)
            m @ m
        return time.perf_counter() - t

    return calibrate


def run_job(fhshare, job) -> bool:
    """Run one job; True when it returned normally with exit code 0."""
    if job.kind == "cli":
        return fhshare.cli.main(job.argv + ["--out", job.out]) == 0
    m = fhshare.mixture.GaussianMixture1D(components=tuple(map(tuple, job.mixture)))
    out = {
        "h_quad": fhshare.mixture.entropy_quadrature(m),
        "h_ub": fhshare.mixture.entropy_upper_bound(m),
    }
    with open(job.out, "w") as fh:
        json.dump(out, fh)
    return True


def safe_run(fhshare, job) -> bool:
    try:
        return run_job(fhshare, job)
    except Exception as exc:  # a raising job is a failed job, not a failed run
        sys.stderr.write(f"{job.name}: {type(exc).__name__}: {exc}\n")
        return False


def outputs_of(job):
    return [job.out] + ([job.dump] if job.dump else [])


def digest(job):
    h = hashlib.sha256()
    for path in outputs_of(job):
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            return None
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    a = ap.parse_args()

    t = time.perf_counter()
    sys.path.insert(0, SRC)
    import fhshare
    import fhshare.cli
    import fhshare.mixture
    import_s = time.perf_counter() - t
    import workloads  # after the timed import: it loads numpy too

    os.chdir(a.dir)
    jobs = workloads.build(a.workload, a.seed, a.threads)
    workloads.materialize(jobs, ".")
    tracer = None
    if a.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(fhshare)
    safe_run(fhshare, jobs[0])
    setup_s = time.monotonic() - a.spawned

    calibrate = make_calibration()
    passes = []
    first = time.perf_counter()
    while True:
        for job in jobs:
            for path in outputs_of(job):
                if os.path.exists(path):
                    os.remove(path)
        if tracer:
            tracer.reset()
        job_s, ok, cal_s = [], [], []
        for job in jobs:
            cal_s.append(calibrate())
            t_job = time.perf_counter()
            ok.append(safe_run(fhshare, job))
            job_s.append(time.perf_counter() - t_job)
        pass_s = sum(job_s)
        record = {
            "pass_s": pass_s,
            "cal_s": cal_s,
            "job_p50_s": statistics.median(job_s),
            "job_s": job_s,
            "ok": ok,
            "digests": [digest(j) for j in jobs],
        }
        if tracer:
            out_bytes = sum(os.path.getsize(j.out) for j in jobs
                            if j.kind == "cli" and os.path.exists(j.out))
            record["layers"], record["covered_s"] = tracer.layer_metrics(out_bytes)
            if a.spans and not passes:
                with open(a.spans, "w") as fh:
                    tracer.dump(fh, 0)
        passes.append(record)
        elapsed = time.perf_counter() - first
        if elapsed * (len(passes) + 1) / len(passes) > a.budget:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("result.json", "w") as fh:
        json.dump({"setup_s": setup_s, "import_s": import_s, "rss_mb": rss_mb,
                   "jobs": [j.name for j in jobs], "passes": passes}, fh)


if __name__ == "__main__":
    main()
