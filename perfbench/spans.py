"""Span and count recording around fhshare's public functions.

The tracer replaces selected functions by wrappers, in every fhshare
module that holds a reference to them, so calls between modules are
recorded too. A span records its name, start, end and the span that was
open when it began; a layer's self time is its spans' durations minus the
time their child spans cover. Counts are computed from call arguments and
return values only, so they repeat exactly from run to run.

Only the calling thread is traced: the wrapped functions are entered from
the main thread (thread pools inside fhshare call unwrapped helpers).
"""
from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name). Spans named here are the layer boundaries
# the per-layer metrics are taken at.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("model", "enumerate_interference_spectrum", "model.enumerate"),
    ("mixture", "entropy_quadrature", "mixture.quadrature"),
    ("mixture", "entropy_upper_bound", "mixture.upper_bound"),
    ("mixture", "entropy_mc", "mixture.entropy_mc"),
    ("bounds", "upper_bound_rate", "bounds.upper"),
    ("bounds", "lower_bound_rate", "bounds.lower"),
    ("bounds", "mc_mutual_information", "bounds.mc"),
    ("sim", "run", "sim.run"),
    ("sim", "sample_received", "sim.sample_received"),
    ("gains", "maximize_on_interval", "gains.maximize"),
]
PMF_BUILDERS = ("finite", "poisson")

# Per-layer metric -> (span name whose self time it sums) or count key.
SELF_TIME = {
    "cli.self_s": "cli.main",
    "model.enumerate_s": "model.enumerate",
    "mixture.quadrature_s": "mixture.quadrature",
    "mixture.entropy_mc_s": "mixture.entropy_mc",
    "bounds.upper_self_s": "bounds.upper",
    "bounds.lower_self_s": "bounds.lower",
    "bounds.mc_self_s": "bounds.mc",
    "sim.run_self_s": "sim.run",
    "sim.sample_received_s": "sim.sample_received",
    "gains.maximize_s": "gains.maximize",
    "measures.curve_s": "measures.curve",
    "measures.pmf_build_s": "measures.pmf_build",
}
COUNTS = (
    "cli.out_bytes",
    "model.enumerate_calls",
    "model.levels_out",
    "mixture.quadrature_calls",
    "mixture.quadrature_components",
    "mixture.mc_density_terms",
    "bounds.placements",
    "sim.slots",
    "gains.objective_points",
    "measures.pmf_terms",
)


def _placements(scenario, profiles, user) -> int:
    u = scenario.n_subbands
    out = 1
    for k, p in enumerate(profiles):
        if k != user and p.fixed_v:
            out *= math.comb(u, p.fixed_v)
    return out


def _count(name, counts, args, kwargs, result):
    if name == "model.enumerate":
        counts["model.enumerate_calls"] += 1
        counts["model.levels_out"] += result.n_levels
    elif name == "mixture.quadrature":
        counts["mixture.quadrature_calls"] += 1
        counts["mixture.quadrature_components"] += len(args[0].components)
    elif name == "mixture.entropy_mc":
        n_samples = kwargs.get("n_samples", args[1] if len(args) > 1 else None)
        counts["mixture.mc_density_terms"] += n_samples * args[0].as_diag().n_components
    elif name in ("bounds.upper", "bounds.mc"):
        counts["bounds.placements"] += _placements(*args[:3])
    elif name == "sim.run":
        counts["sim.slots"] += args[0].n_slots
    elif name == "measures.curve":
        counts["gains.objective_points"] += len(args[0])
    elif name == "measures.pmf_build":
        counts["measures.pmf_terms"] += len(result.weights)


class Tracer:
    """Holds the spans and counts of one pass; reset() starts the next."""

    def __init__(self):
        self.main = threading.get_ident()
        self.reset()

    def reset(self):
        self.spans = []          # [name, parent index, start, end]
        self.stack = []
        self.counts = defaultdict(int)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self.main:
                return fn(*args, **kwargs)
            if name == "gains.maximize":
                args = (self.wrap("measures.curve", args[0]),) + args[1:]
            idx = len(self.spans)
            span = [name, self.stack[-1] if self.stack else None, time.perf_counter(), None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            _count(name, self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap TARGETS and the UserCountPmf builders of an imported fhshare."""
        mods = [m for k, m in sys.modules.items() if k == package.__name__
                or k.startswith(package.__name__ + ".")]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], attr)
            wrapped = self.wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        cls = sys.modules[f"{package.__name__}.measures"].UserCountPmf
        for attr in PMF_BUILDERS:
            func = vars(cls)[attr].__func__
            setattr(cls, attr, classmethod(self.wrap("measures.pmf_build", func)))

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self, out_bytes: int) -> dict:
        selfs = self.self_times()
        metrics = {k: selfs.get(v, 0.0) for k, v in SELF_TIME.items()}
        metrics.update({k: int(self.counts.get(k, 0)) for k in COUNTS})
        metrics["cli.out_bytes"] = int(out_bytes)
        return metrics, sum(selfs.values())

    def dump(self, fh, pass_index: int):
        for name, parent, start, end in self.spans:
            fh.write(f'{{"pass": {pass_index}, "name": "{name}", "parent": '
                     f'{"null" if parent is None else parent}, '
                     f'"start": {start!r}, "end": {end!r}}}\n')
