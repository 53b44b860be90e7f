"""Print a sha256 digest of every output of the benchmark workloads.

    python3 scripts/output_digest.py --seeds 1,2,3,57 > digests.txt
    python3 scripts/output_digest.py --seeds 1,2,3,57 --against digests.txt

For each of perfbench's workloads and each seed, it builds the job list
with perfbench/workloads.build, writes the jobs' input documents into a
temporary directory and runs each job once, in this process, through
perfbench/child.run_job. It prints one line per job,
`workload seed job sha256` (child.digest of the job's outputs), or FAILED
in place of the digest when the job did not succeed. Equal lines from
two checkouts mean byte-identical outputs. With --against FILE, a list
saved from another checkout, it prints only the lines that differ from
FILE (as a unified diff) and the FAILED ones, and exits 1 if there is
any. Seeds take the form of scripts/bench_record.py's --seeds (1-3,57).
"""
from __future__ import annotations

import argparse
import difflib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import child  # noqa: E402
import fhshare.cli  # noqa: E402
import fhshare.mixture  # noqa: E402
import workloads  # noqa: E402
from bench_record import parse_seeds  # noqa: E402


def digest_lines(workload: str, seed: int, threads: int):
    """Yield the `workload seed job sha256` line of every job of one run."""
    jobs = workloads.build(workload, seed, threads)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workloads.materialize(jobs, tmp)
        os.chdir(tmp)
        try:
            for job in jobs:
                ok = child.safe_run(fhshare, job)
                yield f"{workload} {seed} {job.name} {child.digest(job) if ok else 'FAILED'}"
        finally:
            os.chdir(cwd)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,57")
    ap.add_argument("--against", metavar="FILE", help="saved digest lines to compare with")
    a = ap.parse_args()
    threads = workloads.bench_threads()
    lines = []
    for workload in workloads.WORKLOADS:
        for seed in parse_seeds(a.seeds):
            for line in digest_lines(workload, seed, threads):
                if a.against:
                    lines.append(line)
                else:
                    print(line, flush=True)
    if a.against:
        with open(a.against) as fh:
            saved = fh.read().splitlines()
        diff = list(difflib.unified_diff(saved, lines, a.against, "this checkout",
                                         n=0, lineterm=""))
        changed = [d for d in diff[2:] if d[:1] in "+-"]
        failed = [line for line in lines if line.endswith(" FAILED")]
        for line in diff + failed:
            print(line)
        print(f"{len(lines)} lines; {len(changed)} lines differ from {a.against}; "
              f"{len(failed)} FAILED")
        sys.exit(1 if diff or failed else 0)


if __name__ == "__main__":
    main()
