"""Reference computations and output checkers, written apart from fhshare.

Every checker recomputes what a job should print from the job's own
inputs, by a method other than the program's (brute-force products,
lattice convolution, closed forms, dense-grid integrals, scipy root
finding and optimisation), or tests a property the method must have
(bound ordering, concentration of simulated frequencies around their
expectation). None compares against stored output.

A checker takes the job, the bytes of every job's output in the pass
(keyed by job name), and returns a list of failure messages; an empty
list means the output passed.

scipy is imported inside the functions that use it: the workload child
imports this module to build its inputs, and must load nothing that
fhshare itself does not load.
"""
from __future__ import annotations

import csv
import io
import json
import math
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

LN2 = math.log(2.0)
MERGE_REL = 1e-9           # level-merge tolerance on variances (the model's)
BRUTE_LIMIT = 1 << 17      # largest outcome product enumerated directly
UB_BUDGET = 10_000_000     # placement budget of the upper bound (the CLI's)
QUAD_TOL = 1e-6            # entropy_quadrature's default tolerance
ALPHA = 1e-7               # false-alarm rate of each randomized check


# ---------------------------------------------------------------- helpers

def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def read_csv(data: bytes) -> List[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    for row in rows:
        for key, text in row.items():
            row[key] = num(text)
    return rows


def num(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def hop_pmf(user: dict, u: int) -> np.ndarray:
    if "v" in user:
        w = np.zeros(u + 1)
        w[int(user["v"])] = 1.0
        return w
    return np.asarray(user["pmf"], dtype=float)


def mean_hops(user: dict, u: int) -> float:
    w = hop_pmf(user, u)
    return float((np.arange(u + 1) * w).sum())


def occupancy_product(doc: dict, user: int) -> float:
    """prod_{k != user} (1 - vbar_k / u)."""
    u = doc["u"]
    out = 1.0
    for k, spec in enumerate(doc["users"]):
        if k != user:
            out *= 1.0 - mean_hops(spec, u) / u
    return out


def bernstein_halfwidth(m: int, var: float, span: float, alpha: float) -> float:
    """Deviation t with P(|mean of m iid draws - expectation| >= t) <= alpha
    for draws in an interval of length span with variance at most var."""
    lg = math.log(2.0 / alpha)
    a = span * lg / 3.0
    return (a + math.sqrt(a * a + 2.0 * m * var * lg)) / m


# ------------------------------------------------------ interference levels

def interferer_laws(doc: dict, receiver: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-interferer law of the variance increment on one sub-band: the
    interferer lands there with probability v/u and then adds |h|^2/v."""
    u = doc["u"]
    g = np.asarray(doc["gains"], dtype=float)
    laws = []
    for k, spec in enumerate(doc["users"]):
        if k == receiver:
            continue
        h2 = g[k, receiver] ** 2
        w = hop_pmf(spec, u)
        c = [0.0]
        p = [1.0 - float((np.arange(u + 1) * w).sum()) / u]
        for v in range(1, u + 1):
            if w[v] > 0:
                c.append(h2 / v)
                p.append(w[v] * v / u)
        c, p = np.array(c), np.array(p)
        keep = p > 0
        laws.append((c[keep], p[keep]))
    return laws


def _merge(c: np.ndarray, p: np.ndarray, sigma2: float, power: float):
    order = np.argsort(c, kind="stable")
    c, p = c[order], p[order]
    var = sigma2 + c * power
    cut = np.nonzero(np.diff(var) > MERGE_REL * var[:-1])[0] + 1
    starts = np.concatenate(([0], cut))
    prob = np.add.reduceat(p, starts)
    cmean = np.add.reduceat(c * p, starts) / prob
    return prob, cmean


def _lattice_levels(doc: dict, receiver: int, limit: int = 1 << 16):
    """Exact law when every interferer reaches the receiver with the same
    gain: increments h2/v are multiples of h2/L (L = lcm of the hop counts),
    so the law is a polynomial product on the integer lattice."""
    u = doc["u"]
    g = np.asarray(doc["gains"], dtype=float)
    others = [k for k in range(len(doc["users"])) if k != receiver]
    h2 = {g[k, receiver] ** 2 for k in others}
    if len(h2) != 1:
        return None
    h2 = h2.pop()
    pmfs = [hop_pmf(doc["users"][k], u) for k in others]
    lcm = 1
    for w in pmfs:
        for v in np.nonzero(w)[0]:
            if v > 0:
                lcm = math.lcm(lcm, int(v))
    dist = np.array([1.0])
    for w in pmfs:
        step = np.zeros(lcm + 1)
        step[0] = 1.0 - float((np.arange(u + 1) * w).sum()) / u
        for v in np.nonzero(w)[0]:
            if v > 0:
                step[lcm // v] += w[v] * v / u
        dist = np.convolve(dist, step)
        if dist.size > limit:
            return None
    k = np.nonzero(dist > 0)[0]
    return dist[k], k * (h2 / lcm)


def reference_levels(doc: dict, receiver: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(probabilities, c) of the merged interference spectrum at receiver,
    by direct product over all interferer outcomes when that is small,
    else by lattice convolution when the increments share a unit, else
    None."""
    laws = interferer_laws(doc, receiver)
    size = 1
    for c, _ in laws:
        size *= len(c)
    sigma2, power = float(doc["sigma2"]), float(doc["P"])
    if size <= BRUTE_LIMIT:
        c = np.zeros(1)
        p = np.ones(1)
        for ck, pk in laws:
            c = (c[:, None] + ck[None, :]).ravel()
            p = (p[:, None] * pk[None, :]).ravel()
        return _merge(c, p, sigma2, power)
    lat = _lattice_levels(doc, receiver)
    if lat is None:
        return None
    return _merge(lat[1], lat[0], sigma2, power)


def spectrum_components(doc: dict, receiver: int) -> list:
    """[(weight, variance)] of the receiver's interference-plus-noise
    mixture, from the reference levels."""
    prob, c = reference_levels(doc, receiver)
    var = float(doc["sigma2"]) + c * float(doc["P"])
    return [[float(a), float(b)] for a, b in zip(prob, var)]


def mean_increment(doc: dict, receiver: int) -> float:
    """E[c] = sum_k |h_k|^2 P{k transmits} / u."""
    u = doc["u"]
    g = np.asarray(doc["gains"], dtype=float)
    return sum(
        g[k, receiver] ** 2 * (1.0 - hop_pmf(spec, u)[0]) / u
        for k, spec in enumerate(doc["users"])
        if k != receiver
    )


def check_levels(job, outputs) -> List[str]:
    doc = next(iter(job.inputs.values()))
    rows = read_csv(outputs[job.name])
    errs = []
    sigma2, power = float(doc["sigma2"]), float(doc["P"])
    for i in range(len(doc["users"])):
        mine = [r for r in rows if r["receiver"] == i]
        if not mine:
            errs.append(f"receiver {i}: no levels")
            continue
        errs += _check_spectrum(doc, i, mine, sigma2, power)
    if sum(1 for r in rows if r["receiver"] >= len(doc["users"])):
        errs.append("rows for unknown receivers")
    return errs


def _check_spectrum(doc, i, rows, sigma2, power) -> List[str]:
    errs = []
    prob = np.array([r["probability"] for r in rows])
    c = np.array([r["c"] for r in rows])
    s2 = np.array([r["sigma2"] for r in rows])
    tag = f"receiver {i}"
    if [r["level"] for r in rows] != list(range(len(rows))):
        errs.append(f"{tag}: level indices not 0..L-1")
    if not close(prob.sum(), 1.0, 0, 1e-9):
        errs.append(f"{tag}: probabilities sum to {prob.sum()}")
    if np.any(np.diff(s2) <= 0):
        errs.append(f"{tag}: sigma2 not strictly increasing")
    if np.any(np.abs(s2 - (sigma2 + c * power)) > 1e-10 * s2):
        errs.append(f"{tag}: sigma2 != noise + c P")
    a0 = occupancy_product(doc, i)
    if a0 > 0 and not (c[0] == 0.0 and close(prob[0], a0)):
        errs.append(f"{tag}: a0 {prob[0]} at c={c[0]}, expected {a0}")
    if not close(float((prob * c).sum()), mean_increment(doc, i)):
        errs.append(f"{tag}: E[c] {float((prob * c).sum())} != {mean_increment(doc, i)}")
    ref = reference_levels(doc, i)
    if ref is not None:
        rp, rc = ref
        if len(rp) != len(prob):
            errs.append(f"{tag}: {len(prob)} levels, reference has {len(rp)}")
        elif np.any(np.abs(prob - rp) > 1e-12 + 1e-9 * rp) or np.any(
            np.abs(c - rc) > 1e-12 + 1e-9 * rc
        ):
            errs.append(f"{tag}: levels differ from the outcome product")
    return errs


# ----------------------------------------------------------------- bounds

def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def parse_grid(text: str) -> List[float]:
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + j * step for j in range(n)]
    return [float(x) for x in text.split(",") if x.strip()]


def lower_bound_ref(doc: dict, user: int, gamma: float) -> float:
    """Entropy-power bound (v/2) log2(2^(-2H) |h|^2 g / (v (c_max g + 1)^(1-a0)) + 1)
    from the reference spectrum; its high-SNR slope is (v/2) a0."""
    v = int(doc["users"][user]["v"])
    if v == 0:
        return 0.0
    prob, c = reference_levels(doc, user)
    h = float(-(prob * np.log2(prob)).sum())
    a0 = float(prob[0]) if c[0] == 0.0 else 0.0
    h2 = float(np.asarray(doc["gains"])[user, user]) ** 2
    arg = 2.0 ** (-2.0 * h) * h2 * gamma / (v * (c[-1] * gamma + 1.0) ** (1.0 - a0))
    return 0.5 * v * math.log2(arg + 1.0)


def placements(doc: dict, user: int) -> int:
    u = doc["u"]
    out = 1
    for k, spec in enumerate(doc["users"]):
        if k != user and spec.get("v", 0) >= 1:
            out *= math.comb(u, int(spec["v"]))
    return out


def upper_bound_single_band(doc: dict, user: int, gamma: float) -> float:
    """Exact placement-averaged rate of a user hopping on one sub-band:
    each active interferer k hits it independently with probability
    v_k/u and adds P |h_k|^2 / v_k there."""
    u = doc["u"]
    g = np.asarray(doc["gains"], dtype=float)
    sigma2 = float(doc["sigma2"])
    power = gamma * sigma2
    h2 = g[user, user] ** 2
    inter = [
        (int(s["v"]) / u, power * g[k, user] ** 2 / int(s["v"]))
        for k, s in enumerate(doc["users"])
        if k != user and s["v"] >= 1
    ]
    total = 0.0
    for mask in range(1 << len(inter)):
        p, d = 1.0, 0.0
        for t, (q, amp) in enumerate(inter):
            if mask >> t & 1:
                p *= q
                d += amp
            else:
                p *= 1.0 - q
        total += p * 0.5 * math.log2(1.0 + h2 * power / (d + sigma2))
    return total


def check_bounds(job, outputs, mc: bool = False) -> List[str]:
    doc = next(iter(job.inputs.values()))
    rows = read_csv(outputs[job.name])
    u = doc["u"]
    n = len(doc["users"])
    users = [int(x) for x in _arg(job.argv, "--users").split(",")] if "--users" in job.argv \
        else list(range(n))
    gammas = parse_grid(_arg(job.argv, "--gammas"))
    want = [(a, b) for a in users for b in gammas]
    got = [(int(r["user"]), r["gamma"]) for r in rows]
    if len(got) != len(want) or any(
        a != c or not close(b, d) for (a, b), (c, d) in zip(got, want)
    ):
        return [f"rows {got} != users x gammas {want}"]
    all_fixed = all("v" in s for s in doc["users"])
    errs = []
    for r in rows:
        i, gamma = int(r["user"]), r["gamma"]
        tag = f"user {i} gamma {gamma:g}"
        slope = 0.5 * mean_hops(doc["users"][i], u) * occupancy_product(doc, i)
        if not close(r["slope"], slope):
            errs.append(f"{tag}: slope {r['slope']} != (v/2) prod(1 - vbar/u) = {slope}")
        fixed_user = "v" in doc["users"][i]
        if fixed_user:
            lb = lower_bound_ref(doc, i, gamma)
            if not close(r["r_lb"], lb):
                errs.append(f"{tag}: r_lb {r['r_lb']} != {lb}")
        elif not math.isnan(r["r_lb"]):
            errs.append(f"{tag}: r_lb defined for a pmf user")
        ub_defined = all_fixed and placements(doc, i) <= UB_BUDGET
        if ub_defined != (not math.isnan(r["r_ub"])):
            errs.append(f"{tag}: r_ub {r['r_ub']} but defined={ub_defined}")
        elif ub_defined:
            if r["r_ub"] < r["r_lb"] - 1e-12:
                errs.append(f"{tag}: UB {r['r_ub']} < LB {r['r_lb']}")
            if doc["users"][i]["v"] == 1:
                ub = upper_bound_single_band(doc, i, gamma)
                if not close(r["r_ub"], ub):
                    errs.append(f"{tag}: r_ub {r['r_ub']} != {ub}")
        mi, se = r["mi_mc"], r["mi_se"]
        if not mc:
            if not (math.isnan(mi) and math.isnan(se)):
                errs.append(f"{tag}: MC columns set without --mc-samples")
        elif not (se > 0 and r["r_lb"] - 4 * se <= mi <= r["r_ub"] + 4 * se):
            errs.append(f"{tag}: MI {mi} +- {se} outside [{r['r_lb']}, {r['r_ub']}]")
    return errs


# ----------------------------------------------------------------- entropy

def entropy_dense_grid(comps) -> float:
    """-int p log2 p by the trapezoid rule on the whole line (spectrally
    accurate for this analytic, fast-decaying integrand)."""
    from scipy.special import logsumexp

    w = np.array([a for a, _ in comps])
    var = np.array([b for _, b in comps])
    sig = np.sqrt(var)
    h = sig.min() / 16.0
    x = np.arange(0.0, 13.0 * sig.max(), h)
    logw = np.log(w) - 0.5 * np.log(2.0 * math.pi * var)
    out = np.empty(x.size)
    for s in range(0, x.size, 512):
        xs = x[s: s + 512, None]
        out[s: s + 512] = logsumexp(logw - xs * xs / (2.0 * var), axis=1)
    f = np.exp(out) * out / LN2
    return float(-h * (f[0] + 2.0 * f[1:].sum()))


def entropy_upper_ref(comps) -> float:
    w = np.array([a for a, _ in comps])
    var = np.array([b for _, b in comps])
    order = np.argsort(var)
    w, var = w[order], var[order]
    hl = float(-(w * np.log2(w)).sum())
    return (0.5 * (1.0 - w[0]) * math.log2(var[-1] / var[0])
            + 0.5 * math.log2(2.0 * math.pi * math.e * var[0]) + hl)


def gauss_bits(var) -> float:
    return 0.5 * np.log2(2.0 * math.pi * math.e * np.asarray(var))


def check_entropy(job, outputs) -> List[str]:
    out = json.loads(outputs[job.name])
    hq, hub = out["h_quad"], out["h_ub"]
    comps = job.mixture
    w = np.array([a for a, _ in comps])
    var = np.array([b for _, b in comps])
    errs = []
    lower = float((w * gauss_bits(var)).sum())
    upper = min(float(gauss_bits((w * var).sum())), entropy_upper_ref(comps))
    if not lower - QUAD_TOL <= hq <= upper + QUAD_TOL:
        errs.append(f"h {hq} outside [{lower}, {upper}]")
    if not close(hub, entropy_upper_ref(comps)):
        errs.append(f"upper bound {hub} != {entropy_upper_ref(comps)}")
    grid = entropy_dense_grid(comps)
    if abs(hq - grid) > QUAD_TOL:
        errs.append(f"h {hq} differs from dense grid {grid} by more than {QUAD_TOL}")
    return errs


# -------------------------------------------------------------- simulation

def check_simulate(job, outputs) -> List[str]:
    doc = next(iter(job.inputs.values()))
    rows = read_csv(outputs[job.name])
    u = doc["u"]
    slots = int(_arg(job.argv, "--slots"))
    errs = []
    for i, spec in enumerate(doc["users"]):
        w = hop_pmf(spec, u)
        if w[0] > 0:
            errs.append(f"user {i}: silent slots make the slot count unknown")
            continue
        free = [r for r in rows if r["user"] == i and r["stat"] == "free_subbands"]
        v_top = int(np.nonzero(w)[0].max())
        mu = mean_hops(spec, u) * occupancy_product(doc, i)
        tol = bernstein_halfwidth(slots, mu * (v_top - mu), v_top, ALPHA)
        if len(free) != 1 or abs(free[0]["value"] - mu) > tol:
            errs.append(f"user {i}: free sub-bands {free and free[0]['value']} vs {mu} +- {tol}")
        lv = [r for r in rows if r["user"] == i and r["stat"] == "level_freq"]
        prob, c = reference_levels(doc, i)
        if len(lv) != len(prob):
            errs.append(f"user {i}: {len(lv)} levels, reference has {len(prob)}")
            continue
        got_c = np.array([r["c"] for r in lv])
        freq = np.array([r["value"] for r in lv])
        if np.any(np.abs(got_c - c) > 1e-12 + 1e-9 * c):
            errs.append(f"user {i}: level grid differs from the reference")
        if not close(freq.sum(), 1.0, 0, 1e-9):
            errs.append(f"user {i}: level frequencies sum to {freq.sum()}")
        # Each slot's per-level fraction lies in [0, 1] with mean a_l, so its
        # variance is at most a_l (1 - a_l); Bernstein's bound then holds for
        # every level, including those too rare to be seen at all.
        alpha = ALPHA / len(prob)
        for l, (a, f) in enumerate(zip(prob, freq)):
            tol = bernstein_halfwidth(slots, a * (1.0 - a), 1.0, alpha)
            if abs(f - a) > tol:
                errs.append(f"user {i} level {l}: frequency {f} vs {a} +- {tol}")
                break
    if job.dump:
        errs += check_dump(job, outputs)
    return errs


def check_dump(job, outputs) -> List[str]:
    doc = next(iter(job.inputs.values()))
    data = outputs[job.dump]
    u = doc["u"]
    user = int(_arg(job.argv, "--dump-user"))
    n = int(_arg(job.argv, "--dump-samples"))
    head = struct.unpack("<QQ", data[:16])
    if head != (u, n) or len(data) != 16 + 8 * u * n:
        return [f"dump header {head} / size {len(data)} for (u, n) = {(u, n)}"]
    y = np.frombuffer(data[16:], dtype="<f8").reshape(n, u)
    if not np.all(np.isfinite(y)):
        return ["dump has non-finite samples"]
    g = np.asarray(doc["gains"], dtype=float)
    power, sigma2 = float(doc["P"]), float(doc["sigma2"])
    base = sigma2 + sum(
        g[k, user] ** 2 * power * (1.0 - hop_pmf(s, u)[0]) / u
        for k, s in enumerate(doc["users"]) if k != user
    )
    v = int(doc["users"][user]["v"])
    expect = np.full(u, base)
    expect[:v] += g[user, user] ** 2 * power / v
    y2 = y * y
    se = y2.std(axis=0, ddof=1) / math.sqrt(n)
    bad = np.nonzero(np.abs(y2.mean(axis=0) - expect) > 6.0 * se)[0]
    if bad.size:
        return [f"dump column {bad[0]}: E[y^2] {y2.mean(axis=0)[bad[0]]} vs {expect[bad[0]]}"]
    return []


def check_same_as(job, outputs) -> List[str]:
    other = job.check[1]
    if outputs[job.name] != outputs[other]:
        return [f"output differs from {other} (thread count {job.threads})"]
    return check_simulate(job, outputs)


# -------------------------------------------------------------- load laws

class LoadLaw:
    """User-count law q_n, n = 0..n_top, built apart from the program."""

    def __init__(self, doc: dict):
        if doc["type"] == "finite":
            self.q = np.asarray(doc["q"], dtype=float)
            self.lam = None
        else:
            from scipy.special import gammaln

            lam = float(doc["lambda"])
            top = int(lam + 40.0 * math.sqrt(lam) + 60)
            n = np.arange(top + 1)
            self.q = np.exp(-lam + n * math.log(lam) - gammaln(n + 1))
            self.lam = lam
        self.n = np.arange(self.q.size, dtype=float)

    @property
    def n_max(self) -> Optional[int]:
        if self.lam is not None:
            return None
        return int(np.nonzero(self.q)[0].max())

    def mean(self) -> float:
        return float((self.n * self.q).sum())

    def fh_curve(self, v, u: float, per_user: bool) -> np.ndarray:
        """sum_{n>=1} q_n (n/2) v (1 - v/u)^(n-1), or with n/2 -> 1/2."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        om = 1.0 - v / u
        n, q = self.n[1:], self.q[1:]
        weight = q if per_user else q * n
        out = np.empty(v.size)
        for s in range(0, v.size, 1024):
            out[s: s + 1024] = 0.5 * v[s: s + 1024] * (
                om[s: s + 1024, None] ** (n - 1.0) @ weight)
        return out

    def fh_max(self, u: float, per_user: bool) -> Tuple[float, float]:
        """Independent maximiser: 20001-point grid, then bounded Brent."""
        from scipy import optimize

        xs = np.linspace(0.0, u, 20001)
        fx = self.fh_curve(xs, u, per_user)
        i = int(np.argmax(fx))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        res = optimize.minimize_scalar(
            lambda x: -self.fh_curve(x, u, per_user)[0], bounds=(lo, hi),
            method="bounded", options={"xatol": 1e-12 * u})
        if -res.fun > fx[i]:
            return float(-res.fun), float(res.x)
        return float(fx[i]), float(xs[i])

    def eta1_fh(self, u: float) -> Tuple[float, Optional[float]]:
        if self.lam is not None and self.lam >= 1.0:
            return u / (2.0 * math.e), u / self.lam
        return self.fh_max(u, per_user=False)

    def eta2_fh(self, u: float) -> Tuple[float, Optional[float]]:
        if self.lam is not None:
            value, omega = eta2_poisson(self.lam, u)
            return value, u * (1.0 - omega)
        return self.fh_max(u, per_user=True)

    def served(self, lo: int, hi: int) -> float:
        return float(self.q[lo: hi + 1].sum())

    def eta1_fd(self, n_des: int, u: float) -> float:
        n, q = self.n[1:], self.q[1:]
        return float((q * np.minimum(n, n_des)).sum()) * u / (2.0 * n_des)

    def eta2_fd(self, n_des: int, u: float) -> float:
        return u / (2.0 * n_des) * self.served(1, n_des)

    def eta4_fd(self, n_des: int) -> float:
        over = self.n > n_des
        return 1.0 - float((self.q[over] * (1.0 - n_des / self.n[over])).sum())

    def eta_afh(self, per_user: bool, u: float) -> float:
        n, q = self.n[1:], self.q[1:]
        base = (1.0 - 1.0 / n) ** (n - 1.0)
        if per_user:
            base = base / n
        return 0.5 * u * float((q * base).sum())


def eta2_poisson(lam: float, u: float) -> Tuple[float, float]:
    """(eta2, omega) of FH under Poisson(lam): for lam > 2 the optimum
    solves exp(-lam w) = 1 - lam w + lam w^2 (brentq); otherwise it is
    the boundary v = u with value (u/2) lam exp(-lam)."""
    from scipy import optimize

    if lam <= 2.0:
        return 0.5 * u * lam * math.exp(-lam), 0.0
    # Divided by w so the function is O(w) rather than O(w^2) near 0.
    omega = optimize.brentq(
        lambda w: (math.expm1(-lam * w) + lam * w) / w - lam * w, 1e-6, 1.0,
        xtol=1e-15, rtol=1e-15)
    value = math.exp(-lam) * (1.0 - omega) * math.expm1(lam * omega) * u / (2.0 * omega)
    return value, omega


def fd_default(law: LoadLaw, u: float) -> int:
    if law.n_max is not None:
        return min(law.n_max, int(u))
    return int(u)


def measure_refs(law: LoadLaw, u: float) -> Dict[Tuple[str, str], dict]:
    """Expected measure rows; 'curve' marks an argmax checked by optimality."""
    n_des = fd_default(law, u)
    n_max = law.n_max
    e1, _ = law.eta1_fh(u)
    e2, _ = law.eta2_fh(u)
    out = {
        ("fh", "eta1"): dict(value=e1, param="v_star", curve=True),
        ("fh", "eta2"): dict(value=e2, param="v_dagger", curve=True),
        ("fd", "eta1"): dict(value=law.eta1_fd(n_des, u), param="n_des", pv=n_des),
        ("fd", "eta2"): dict(value=law.eta2_fd(n_des, u), param="n_des", pv=n_des),
        ("fd", "eta4"): dict(value=law.eta4_fd(n_des), param="n_des", pv=n_des),
        ("fh", "eta4"): dict(value=1.0, param="v"),
        ("afh", "eta1"): dict(value=law.eta_afh(False, u), param=None),
        ("afh", "eta2"): dict(value=law.eta_afh(True, u), param=None),
        ("afh", "eta4"): dict(value=1.0, param=None),
    }
    if n_max is not None:
        fh3 = 0.5 * u / n_max * (1.0 - 1.0 / n_max) ** (n_max - 1)
        out[("fh", "eta3")] = dict(value=fh3, param="v", pv=u / n_max)
        out[("fd", "eta3")] = dict(value=0.5 * u / n_max, param="n_des", pv=n_des)
        out[("afh", "eta3")] = dict(value=fh3, param=None)
    return out


def _pmf_doc(job):
    return next(iter(job.inputs.values()))


def check_measures(job, outputs) -> List[str]:
    law = LoadLaw(_pmf_doc(job))
    u = float(_arg(job.argv, "--u"))
    rows = read_csv(outputs[job.name])
    refs = measure_refs(law, u)
    errs = []
    got = {(r["scheme"], r["measure"]): r for r in rows}
    if set(got) != set(refs) or len(rows) != len(refs):
        return [f"rows {sorted(got)} != {sorted(refs)}"]
    for key, ref in refs.items():
        r = got[key]
        tag = "/".join(key)
        if not close(r["value"], ref["value"]) or not close(r["value_per_u"], ref["value"] / u):
            errs.append(f"{tag}: {r['value']} != {ref['value']}")
        if r["param"] != ref["param"]:
            errs.append(f"{tag}: param {r['param']} != {ref['param']}")
        if "pv" in ref and not close(r["param_value"], ref["pv"]):
            errs.append(f"{tag}: {r['param']} = {r['param_value']} != {ref['pv']}")
        if ref.get("curve"):
            per_user = key[1] == "eta2"
            at = law.fh_curve(r["param_value"], u, per_user)[0]
            if not close(at, ref["value"], 1e-8):
                errs.append(f"{tag}: value at {r['param']}={r['param_value']} is {at}, "
                            f"optimum {ref['value']}")
    fh4 = got[("fh", "eta4")]["param_value"]
    if not fh4 < u:
        errs.append(f"fh/eta4: hop count {fh4} not below u")
    if law.n_max is not None:
        ratio = got[("fh", "eta3")]["value"] / got[("fd", "eta3")]["value"]
        if not 1.0 / math.e <= ratio <= 1.0 + 1e-12:
            errs.append(f"eta3 FH/FD ratio {ratio} outside [1/e, 1]")
    return errs


def check_compare(job, outputs) -> List[str]:
    law = LoadLaw(_pmf_doc(job))
    u = float(_arg(job.argv, "--u"))
    rows = read_csv(outputs[job.name])
    refs = measure_refs(law, u)
    errs = []
    measures = [r for r in rows if r["kind"] == "measure"]
    names = ["eta1", "eta2", "eta3", "eta4"]
    want = [m for m in names if ("fh", m) in refs and ("fd", m) in refs]
    if [r["measure"] for r in measures] != want:
        return [f"measure rows {[r['measure'] for r in measures]} != {want}"]
    for r in measures:
        fh, fd = refs[("fh", r["measure"])]["value"], refs[("fd", r["measure"])]["value"]
        if not (close(r["fh"], fh) and close(r["fd"], fd)):
            errs.append(f"{r['measure']}: ({r['fh']}, {r['fd']}) != ({fh}, {fd})")
        if not close(fh, fd, 1e-7):
            winner = "fh" if fh > fd else "fd"
            if r["winner"] != winner:
                errs.append(f"{r['measure']}: winner {r['winner']} != {winner}")
    conds = [r for r in rows if r["kind"] == "condition"]
    if law.n_max is None:
        if conds:
            errs.append("condition rows for a Poisson load")
        return errs
    n_max, mean = law.n_max, law.mean()
    e1_fh, _ = law.fh_max(1.0, per_user=False)
    e2_fh, _ = law.fh_max(1.0, per_user=True)
    m = max(mean, 1.0)
    expected = {
        "eta1_condition": (mean - 0.5 * math.log((math.e ** 2 - 1.0) * n_max),
                           law.eta1_fd(n_max, 1.0) - e1_fh),
        "eta2_condition": (1.0 / n_max - (1.0 / m) * (1.0 - 1.0 / m) ** (m - 1.0),
                           law.eta2_fd(n_max, 1.0) - e2_fh),
    }
    if [r["measure"] for r in conds] != list(expected):
        return errs + [f"condition rows {[r['measure'] for r in conds]}"]
    for r in conds:
        margin_c, margin_v = expected[r["measure"]]
        if abs(margin_c) > 1e-9 and r["condition_holds"] != str(margin_c < 0):
            errs.append(f"{r['measure']}: condition_holds {r['condition_holds']}")
        if abs(margin_v) > 1e-9 and r["inequality_verified"] != str(margin_v < 0):
            errs.append(f"{r['measure']}: inequality_verified {r['inequality_verified']}")
    return errs


def check_sweep(job, outputs) -> List[str]:
    u = float(_arg(job.argv, "--u"))
    lams = parse_grid(_arg(job.argv, "--lambdas"))
    rows = read_csv(outputs[job.name])
    if len(rows) != len(lams):
        return [f"{len(rows)} rows for {len(lams)} rates"]
    errs = []
    n_des = int(u)
    for r, lam in zip(rows, lams):
        tag = f"lambda {lam:g}"
        law = LoadLaw({"type": "poisson", "lambda": lam})
        e1, v1 = law.eta1_fh(u)
        e2, om = eta2_poisson(lam, u)
        want = {
            "u": u, "lam": lam, "n_des": n_des, "eta1_fh": e1, "eta1_fh_per_u": e1 / u,
            "eta2_fh": e2, "eta2_fh_per_u": e2 / u,
            "eta2_fd": law.eta2_fd(n_des, u), "eta2_fd_per_u": law.eta2_fd(n_des, u) / u,
            "eta_afh_1": law.eta_afh(False, u), "eta_afh_2": law.eta_afh(True, u),
            "eta4_fd": law.eta4_fd(n_des),
        }
        for key, val in want.items():
            if not close(r[key], val):
                errs.append(f"{tag}: {key} {r[key]} != {val}")
        if lam >= 1.0:
            if not close(r["v_star"], v1, 1e-6):
                errs.append(f"{tag}: v_star {r['v_star']} != u/lambda = {v1}")
        elif not close(law.fh_curve(r["v_star"], u, False)[0], e1, 1e-8):
            errs.append(f"{tag}: v_star {r['v_star']} not optimal")
        if not (abs(r["omega_dagger"] - om) <= 1e-9
                and close(r["v_dagger"], u * (1.0 - r["omega_dagger"]))):
            errs.append(f"{tag}: omega {r['omega_dagger']} != {om}")
    return errs


CHECKERS = {
    "levels": check_levels,
    "bounds": check_bounds,
    "bounds_mc": lambda job, outputs: check_bounds(job, outputs, mc=True),
    "entropy": check_entropy,
    "simulate": check_simulate,
    "same_as": check_same_as,
    "measures": check_measures,
    "compare": check_compare,
    "sweep": check_sweep,
}


def check(job, outputs) -> List[str]:
    """Run the job's checker; a checker that raises counts as a failure."""
    try:
        return CHECKERS[job.check[0]](job, outputs)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"output unreadable or malformed: {type(exc).__name__}: {exc}"]
