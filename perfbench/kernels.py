"""Reference timings of the kernels under the CLI, on fixed inputs.

    python3 perfbench/kernels.py

Run from the root of a checkout. Prints one line per kernel with the
median wall time of a few repeats. These are reference figures for the
README, not benchmark metrics: the benchmark's own numbers come from
run.py. Peak resident size is the process's, read after the measure
curves at lambda = 400 (the largest allocation here).
"""
from __future__ import annotations

import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

from fhshare import bounds, measures, mixture, model, sim  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scenario(n, u=16, key=0):
    g = np.random.default_rng([n, key]).uniform(0.2, 1.0, (n, n))
    np.fill_diagonal(g, 1.0)
    scen = model.NetworkScenario(n, u, g, 10.0, 1.0)
    profs = [model.HoppingProfile.fixed(1 + k % 2) for k in range(n)]
    return scen, profs


def main():
    rows = []
    for n, reps in ((8, 20), (12, 5), (16, 3)):
        scen, profs = scenario(n)
        t = timed(lambda: model.enumerate_interference_spectrum(scen, profs, 0), reps)
        rows.append((f"enumerate_interference_spectrum N={n} u=16 ({2 ** (n - 1)} levels)",
                     t * 1e3, "ms"))

    t = timed(lambda: bounds._interference_realizations(8, [2, 3], np.ones(2), 8), 5)
    rows.append(("_interference_realizations u=8 v=(2,3): 1568 placements", t * 1e3, "ms"))

    scen, profs = scenario(12)
    mix = model.enumerate_interference_spectrum(scen, profs, 0).to_mixture()
    t = timed(lambda: mixture.entropy_quadrature(mix), 5)
    rows.append((f"entropy_quadrature, {len(mix.components)} components", t * 1e3, "ms"))

    w, d = bounds._interference_realizations(8, [2, 3], np.array([50.0, 30.0]), 8)
    diag = mixture.GaussianMixtureDiag(weights=w, variances=d + 1.0)
    n_samples = 20000
    t = timed(lambda: mixture.entropy_mc(diag, n_samples, seed=1), 3)
    rows.append((f"entropy_mc per (sample x component), {diag.n_components} components",
                 t / (n_samples * diag.n_components) * 1e9, "ns"))

    scen, profs = scenario(8)
    for threads in (1, 2):
        cfg = sim.SimConfig(scen, tuple(profs), 50000, 3)
        t = timed(lambda: sim.run(cfg, threads=threads), 3)
        rows.append((f"sim.run N=8 u=16, per slot, {threads} thread(s)", t / 50000 * 1e6, "us"))

    for lam in (50.0, 100.0, 200.0, 400.0):
        pmf = measures.UserCountPmf.poisson(lam)
        t = timed(lambda: measures.eta1_fh(pmf, 16.0), 3 if lam < 400 else 2)
        rows.append((f"eta1_fh Poisson lambda={lam:g} (n_top={pmf.n_top})", t * 1e3, "ms"))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows.append(("peak resident size after the lambda=400 curves", rss, "MB"))

    for name, value, unit in rows:
        digits = 3 if value < 100 else 0
        print(f"{name:64s} {value:10.{digits}f} {unit}")


if __name__ == "__main__":
    main()
