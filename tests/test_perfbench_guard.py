"""What the benchmark under perfbench/ reaches in fhshare keeps working.

perfbench/spans.py wraps fhshare's functions by name and counts from
their arguments; perfbench/kernels.py and child.py call library names
directly. A rename or a changed call form breaks them without failing
any other tier-1 test, so this test installs the tracer and makes those
calls on small inputs, in a fresh process because the tracer patches
fhshare's modules.
"""
import json
import os
import subprocess
import sys

import fhshare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json, os
import numpy as np
import fhshare, fhshare.cli
import kernels, spans
from fhshare import bounds, measures, mixture, model, sim

tracer = spans.Tracer()
tracer.install(fhshare)
with open("scen.json", "w") as fh:
    json.dump({"u": 4, "users": [{"v": 1}, {"v": 2}, {"v": 1}],
               "gains": [[1.0, 0.9, 0.8], [0.7, 1.0, 0.6], [0.5, 0.4, 1.0]],
               "P": 10.0, "sigma2": 2.0}, fh)
with open("pmf.json", "w") as fh:
    json.dump({"type": "finite", "q": [0.0, 0.5, 0.3, 0.2]}, fh)
runs = {
    "bounds.csv": ["bounds", "--scenario", "scen.json", "--gammas", "1e3",
                   "--mc-samples", "100", "--seed", "1"],
    "sim.csv": ["simulate", "--scenario", "scen.json", "--slots", "200", "--seed", "1",
                "--dump", "dump.bin", "--dump-samples", "50"],
    "measures.csv": ["measures", "--pmf", "pmf.json", "--u", "8"],
}
for out, argv in runs.items():
    assert fhshare.cli.main(argv + ["--out", out]) == 0, argv
m = mixture.GaussianMixture1D(components=((0.5, 1.0), (0.5, 4.0)))
mixture.entropy_quadrature(m)
mixture.entropy_upper_bound(m)

# perfbench/kernels.py's calls, on small inputs
scen, profs = kernels.scenario(3, u=4)
model.enumerate_interference_spectrum(scen, profs, 0)
w, d = bounds._interference_realizations(4, [1, 2], np.array([5.0, 3.0]), 4)
mix = model.enumerate_interference_spectrum(scen, profs, 0).to_mixture()
assert len(mix.components) > 0
mixture.entropy_quadrature(mix)
diag = mixture.GaussianMixtureDiag(weights=w, variances=d + 1.0)
assert diag.n_components == 24
mixture.entropy_mc(diag, 200, seed=1)
for threads in (1, 2):
    sim.run(sim.SimConfig(scen, tuple(profs), 100, 3), threads=threads)
pmf = measures.UserCountPmf.poisson(5.0)
measures.eta1_fh(pmf, 16.0)
assert pmf.n_top > 0

metrics, _ = tracer.layer_metrics(sum(os.path.getsize(out) for out in runs))
seen = {span[0] for span in tracer.spans}
print(json.dumps({
    "zero_counts": [k for k in spans.COUNTS if not metrics[k] > 0],
    "unseen_spans": sorted(set(spans.SELF_TIME.values()) - seen),
}))
"""


def test_traced_perfbench_calls_count_every_layer(tmp_path):
    src = os.path.dirname(os.path.dirname(fhshare.__file__))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.join(ROOT, "perfbench")])),
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"zero_counts": [], "unseen_spans": []}
