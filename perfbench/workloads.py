"""Seeded inputs and the fixed, ordered job list of each workload.

The seed changes values only: Monte Carlo and simulation seeds, load-law
weights and small Poisson rates freely, and link gains and hop-count pmf
weights by a few percent around fixed base values. The structure that sets
the cost of a job (user counts, hop-count supports, mixture sizes, sample
and slot counts, the large Poisson rates) is fixed. Gains stay near their
base because cost also follows them: the spread of mixture variances sets
how many exponentials underflow in the Monte Carlo log-density, and the
mixture shape sets how far adaptive quadrature subdivides. So run-to-run
spread comes from the machine and not from the inputs.

Nothing here imports fhshare: the benchmark's parent process builds the
same job list to check outputs without loading the program.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

import refs

WORKLOADS = ("spectra", "monte-carlo", "load-laws")

U_SPECTRA = 16
P_SPECTRA = 10.0
MC_GAMMAS = "1e3"


@dataclass
class Job:
    """One timed operation.

    kind "cli" runs fhshare.cli.main(argv + ["--out", out]); kind
    "entropy" runs entropy_quadrature and entropy_upper_bound on
    `mixture`. `inputs` maps file names to JSON documents the job reads;
    `check` names the checker in refs and its parameters.
    """

    name: str
    kind: str
    argv: List[str] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    mixture: Optional[list] = None
    check: tuple = ()
    dump: Optional[str] = None
    threads: int = 1

    @property
    def out(self) -> str:
        return self.name + ".out"


JITTER = 0.02


def _gains(rng, n, key=0, equal=False):
    """Direct links 1; cross links a fixed base in [0.2, 1] (one per
    (n, key)) times a seeded factor within 1 +- JITTER."""
    if equal:
        return np.ones((n, n))
    base = np.random.default_rng([n, key, 7]).uniform(0.2, 1.0, (n, n))
    g = base * rng.uniform(1.0 - JITTER, 1.0 + JITTER, (n, n))
    np.fill_diagonal(g, 1.0)
    return g


def _weight(rng, base):
    return float(base * rng.uniform(1.0 - JITTER, 1.0 + JITTER))


def _two_point(u, a, b, mu):
    w = [0.0] * (u + 1)
    w[a] = mu
    w[b] = 1.0 - mu
    return w


def _scenario(gains, users, u, power, sigma2=1.0):
    return {
        "u": u,
        "users": users,
        "gains": [[float(x) for x in row] for row in gains],
        "P": power,
        "sigma2": sigma2,
    }


def _fixed(vs):
    return [{"v": int(v)} for v in vs]


def _cli(name, sub, scen_doc, extra, check, threads=1, dump=None):
    inp = name + ".json"
    argv = [sub, "--scenario", inp] + extra
    if threads > 1:
        argv += ["--threads", str(threads)]
    if dump:
        argv += ["--dump", dump]
    return Job(name, "cli", argv, {inp: scen_doc}, check=check, dump=dump, threads=threads)


def spectra(seed: int) -> List[Job]:
    rng = np.random.default_rng([seed, 1])
    u, p = U_SPECTRA, P_SPECTRA
    mu = lambda: _weight(rng, 0.4)  # noqa: E731
    s = {}
    # N = 8 heterogeneous, fixed hops 1..3: 128 levels per receiver.
    s["a"] = _scenario(_gains(rng, 8, 1), _fixed(1 + k % 3 for k in range(8)), u, p)
    # N = 12 heterogeneous, fixed hops: 2048 levels per receiver.
    s["b"] = _scenario(_gains(rng, 12, 2), _fixed(1 + k % 2 for k in range(12)), u, p)
    # N = 10 heterogeneous, odd users on a two-point {1, 3} pmf: 2592-3888 levels.
    users_c = [
        {"pmf": _two_point(u, 1, 3, mu())} if k % 2 else {"v": 2} for k in range(10)
    ]
    s["c"] = _scenario(_gains(rng, 10, 3), users_c, u, p)
    # N = 16 equal gains, fixed hops: heavy level merging, 16 levels.
    s["d"] = _scenario(_gains(rng, 16, equal=True), _fixed(1 + k % 2 for k in range(16)), u, p)
    # N = 16 equal gains, two-point {1, 2} pmfs, user 0 fixed.
    users_e = [{"v": 2}] + [{"pmf": _two_point(u, 1, 2, mu())} for _ in range(15)]
    s["e"] = _scenario(_gains(rng, 16, equal=True), users_e, u, p)
    # N = 16 heterogeneous, fixed hops: 32768 levels per receiver.
    s["f"] = _scenario(_gains(rng, 16, 6), _fixed(1 + k % 2 for k in range(16)), u, p)
    # N = 8 with three silent users: the placement upper bound is computable.
    s["g"] = _scenario(_gains(rng, 8, 7), _fixed([1, 1, 1, 1, 1, 0, 0, 0]), u, p)
    # N = 9 heterogeneous, fixed hops 1..3: 256 levels per receiver.
    s["h"] = _scenario(_gains(rng, 9, 8), _fixed(1 + k % 3 for k in range(9)), u, p)

    def levels(key):
        return _cli("levels_" + key, "levels", s[key], [], ("levels",))

    def bounds(key, users, gammas):
        extra = ["--gammas", gammas]
        if users is not None:
            extra += ["--users", users]
        return _cli("bounds_" + key, "bounds", s[key], extra, ("bounds",))

    def entropy(key, receiver):
        comps = refs.spectrum_components(s[key], receiver)
        return Job(f"entropy_{key}{receiver}", "entropy", mixture=comps, check=("entropy",))

    return [
        levels("a"),
        bounds("a", None, "1e2,1e4,1e6"),
        levels("d"),
        entropy("a", 3),
        bounds("d", None, "1e2,1e4,1e6"),
        levels("b"),
        levels("e"),
        bounds("e", "0", "1e2,1e4,1e6"),
        entropy("b", 0),
        levels("g"),
        bounds("g", "0,1,2,3,4", "1e2,1e4,1e6"),
        levels("c"),
        bounds("c", "0,2", "1e3,1e6"),
        levels("h"),
        bounds("h", None, "1e3,1e6"),
        entropy("c", 1),
        bounds("b", "0,5", "1e3,1e6"),
        bounds("f", "0", "1e3,1e6"),
    ]


def monte_carlo(seed: int, threads: int) -> List[Job]:
    rng = np.random.default_rng([seed, 2])
    mc_seed = lambda: str(int(rng.integers(1, 2**31)))  # noqa: E731
    jobs = []

    def mc(name, u, vs, user, samples, gammas=MC_GAMMAS):
        doc = _scenario(_gains(rng, len(vs), 10 + len(jobs)), _fixed(vs), u, 100.0)
        extra = ["--users", str(user), "--gammas", gammas,
                 "--mc-samples", str(samples), "--seed", mc_seed()]
        jobs.append(_cli(name, "bounds", doc, extra, ("bounds_mc",)))

    def simulate(name, doc, slots, threads=1, check=("simulate",), dump=None):
        extra = ["--slots", str(slots), "--seed", mc_seed()]
        if dump:
            extra += ["--dump-user", "0", "--dump-samples", str(slots)]
        jobs.append(_cli(name, "simulate", doc, extra, check, threads, dump))

    u = U_SPECTRA
    six = _scenario(_gains(rng, 6, 20), _fixed(1 + k % 3 for k in range(6)), u, 10.0)
    pmf8 = _scenario(
        _gains(rng, 8, 21),
        [{"pmf": _two_point(u, 1, 3, _weight(rng, 0.6))} if k % 4 == 1
         else {"v": 1 + k % 3} for k in range(8)],
        u, 10.0,
    )
    seven = _scenario(_gains(rng, 7, 22), _fixed(1 + k % 2 for k in range(7)), u, 10.0)

    # Mixture sizes (components = prod C(u, v_k) over interferers).
    # Only the thread pair runs threaded: two blocks in flight at once make
    # the peak resident size depend on how the threads interleave.
    mc("mc_784", 8, [1, 2, 2], 0, 6000)            # 28 * 28
    simulate("sim_n6_t1", six, 32768)
    mc("mc_1350", 6, [1, 1, 2, 2], 0, 4000)        # 6 * 15 * 15
    simulate("sim_n6_tn", six, 32768, threads, ("same_as", "sim_n6_t1"))
    mc("mc_1568", 8, [2, 1, 3], 1, 4000)           # 28 * 56
    simulate("sim_n8_pmf", pmf8, 20000)
    mc("mc_576", 4, [1, 1, 1, 2, 2], 0, 6000, "1e2,1e5")  # 4 * 4 * 6 * 6
    simulate("sim_n7_dump", seven, 20000, dump="sim_n7_dump.bin")
    # The thread pair shares its inputs: same scenario file, same seed.
    pair = jobs[3]
    pair.argv[pair.argv.index("--seed") + 1] = jobs[1].argv[jobs[1].argv.index("--seed") + 1]
    return jobs


def load_laws(seed: int) -> List[Job]:
    rng = np.random.default_rng([seed, 3])
    jobs = []

    def pmf_job(name, sub, doc, u, check):
        inp = name + ".json"
        jobs.append(Job(name, "cli", [sub, "--pmf", inp, "--u", repr(float(u))],
                        {inp: doc}, check=check))

    def finite(n_max):
        q = rng.dirichlet(np.ones(n_max))
        return {"type": "finite", "q": [0.0] + [float(x) for x in q]}

    # Finite loads with no mass at N = 0, n_max from 2 to 40.
    sizes = [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40, 3, 7, 40]
    bands = [8, 10, 16, 40]
    for i, n_max in enumerate(sizes):
        u = bands[i % len(bands)]
        pmf_job(f"measures_f{i}", "measures", finite(n_max), u, ("measures",))
        pmf_job(f"compare_f{i}", "compare", finite(n_max), u, ("compare",))
    jitter = lambda: float(rng.uniform(0.9, 1.1))  # noqa: E731
    for i, lam in enumerate([0.5, 1.5, 5.0, 20.0]):
        pmf_job(f"measures_p{i}", "measures",
                {"type": "poisson", "lambda": lam * jitter()}, 16, ("measures",))
    pmf_job("compare_p", "compare", {"type": "poisson", "lambda": 8.0 * jitter()}, 10,
            ("compare",))
    pmf_job("measures_p100", "measures", {"type": "poisson", "lambda": 100.0}, 16,
            ("measures",))
    jobs.append(Job("sweep_small", "cli", ["sweep", "--u", "16", "--lambdas", "0.5:4:0.5"],
                    check=("sweep",)))
    jobs.append(Job("sweep_u7", "cli", ["sweep", "--u", "7", "--lambdas", "2:10:1"],
                    check=("sweep",)))
    jobs.append(Job("sweep_400", "cli", ["sweep", "--u", "16", "--lambdas", "400"],
                    check=("sweep",)))
    return jobs


def build(workload: str, seed: int, threads: int = 1) -> List[Job]:
    if workload == "spectra":
        return spectra(seed)
    if workload == "monte-carlo":
        return monte_carlo(seed, threads)
    if workload == "load-laws":
        return load_laws(seed)
    raise ValueError(f"unknown workload {workload!r}")


def materialize(jobs: List[Job], directory: str) -> None:
    """Write every job's input documents into directory."""
    for job in jobs:
        for name, doc in job.inputs.items():
            with open(os.path.join(directory, name), "w") as fh:
                json.dump(doc, fh)


def bench_threads() -> int:
    """Thread count for threaded jobs: at most min(2, usable cores)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(2, cores))
