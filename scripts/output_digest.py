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
saved from another checkout, it matches lines by (workload, seed, job),
so the order of FILE's lines and any jobs of FILE this run leaves out do
not matter. It prints FILE's line and this checkout's for each job whose
digest differs (`- ` and `+ `), each job FILE lacks (`+ `) and each
FAILED line, and exits 1 if there is any. Seeds take the form of
scripts/bench_record.py's --seeds (1-3,57).
"""
from __future__ import annotations

import argparse
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
            saved = {line.rsplit(" ", 1)[0]: line for line in fh.read().splitlines()}
        changed = missing = 0
        report = []
        for line in lines:
            old = saved.get(line.rsplit(" ", 1)[0])
            if old is None:
                missing += 1
                report.append(f"+ {line}")
            elif old != line:
                changed += 1
                report += [f"- {old}", f"+ {line}"]
        failed = [line for line in lines if line.endswith(" FAILED")]
        for line in report + failed:
            print(line)
        print(f"{len(lines)} lines; {changed} lines differ from {a.against}; "
              f"{missing} jobs missing from it; {len(failed)} FAILED")
        sys.exit(1 if report or failed else 0)


if __name__ == "__main__":
    main()
