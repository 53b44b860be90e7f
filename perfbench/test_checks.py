"""The checkers accept known closed forms and reject perturbed outputs.

    python3 -m pytest perfbench/test_checks.py -q

Outputs here are written by hand from closed forms, not by fhshare.
"""
import csv
import io
import json
import math
import struct

import numpy as np
import pytest

import refs
from workloads import Job

U = 8


def to_csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow(["" if r.get(c) is None else
                    (f"{r[c]:.12g}" if isinstance(r[c], float) else str(r[c]))
                    for c in header])
    return buf.getvalue().encode()


def scen(n, u=U, v=1, power=10.0, gains=None):
    g = np.ones((n, n)) if gains is None else gains
    return {"u": u, "users": [{"v": v} for _ in range(n)], "gains": g.tolist(),
            "P": power, "sigma2": 1.0}


def cli_job(name, argv, doc, check, **kw):
    return Job(name, "cli", argv, {name + ".json": doc}, check=check, **kw)


# ------------------------------------------------------------------ levels

def binomial_levels(n, u=U, power=10.0):
    """Equal gains, v = 1: k of the n-1 interferers land, c = k."""
    m, q = n - 1, 1.0 / u
    rows = []
    for i in range(n):
        for k in range(m + 1):
            p = math.comb(m, k) * q**k * (1 - q) ** (m - k)
            rows.append({"receiver": i, "level": k, "probability": p, "c": float(k),
                         "sigma2": 1.0 + k * power})
    return rows


LEVEL_COLS = ["receiver", "level", "probability", "c", "sigma2"]


def test_levels_accepts_binomial_spectrum():
    job = cli_job("lv", ["levels"], scen(5), ("levels",))
    out = {"lv": to_csv(LEVEL_COLS, binomial_levels(5))}
    assert refs.check(job, out) == []


def test_levels_lattice_path_matches_binomial_beyond_brute_force():
    n = 20  # 2^19 outcomes: the lattice convolution is used
    doc = scen(n)
    prob, c = refs.reference_levels(doc, 0)
    expect = [r["probability"] for r in binomial_levels(n) if r["receiver"] == 0]
    assert np.allclose(prob, expect, rtol=1e-12, atol=1e-300)
    assert np.allclose(c, np.arange(n), rtol=1e-12, atol=0)


@pytest.mark.parametrize("how", ["swap", "shift_c", "drop"])
def test_levels_rejects_perturbed_spectrum(how):
    rows = binomial_levels(5)
    if how == "swap":
        rows[1]["probability"], rows[2]["probability"] = rows[2]["probability"], rows[1]["probability"]
    elif how == "shift_c":
        rows[3]["c"] *= 1.001
        rows[3]["sigma2"] = 1.0 + rows[3]["c"] * 10.0
    else:
        rows = [r for r in rows if not (r["receiver"] == 2 and r["level"] == 4)]
    job = cli_job("lv", ["levels"], scen(5), ("levels",))
    assert refs.check(job, {"lv": to_csv(LEVEL_COLS, rows)})


# ------------------------------------------------------------------ bounds

BOUND_COLS = ["user", "gamma", "r_ub", "r_lb", "mi_mc", "mi_se", "slope"]


def two_user_rows(gamma, mi=None, se=None):
    """N = 2, u = 2, v = 1, unit gains: the interference level is 0 or 1
    with probability 1/2 each, so H = 1 bit, a0 = 1/2, c_max = 1."""
    lb = 0.5 * math.log2(0.25 * gamma / (gamma + 1.0) ** 0.5 + 1.0)
    ub = 0.25 * math.log2(1.0 + gamma) + 0.25 * math.log2(1.0 + gamma / (gamma + 1.0))
    nan = float("nan")
    return [{"user": u, "gamma": gamma, "r_ub": ub, "r_lb": lb,
             "mi_mc": nan if mi is None else mi, "mi_se": nan if se is None else se,
             "slope": 0.25} for u in (0, 1)]


def bounds_job(extra=()):
    argv = ["bounds", "--gammas", "100"] + list(extra)
    return cli_job("bd", argv, scen(2, u=2, power=1.0), ("bounds_mc",) if extra else ("bounds",))


def test_bounds_accepts_closed_form():
    assert refs.check(bounds_job(), {"bd": to_csv(BOUND_COLS, two_user_rows(100.0))}) == []


def test_bounds_mc_accepts_estimate_between_bounds():
    rows = two_user_rows(100.0, mi=1.0, se=0.01)
    assert refs.check(bounds_job(["--mc-samples", "1000"]), {"bd": to_csv(BOUND_COLS, rows)}) == []


@pytest.mark.parametrize("field,delta", [("r_lb", 1e-3), ("r_ub", -1e-3), ("slope", 1e-6),
                                         ("mi_mc", 5.0)])
def test_bounds_rejects_perturbation(field, delta):
    mc = field == "mi_mc"
    rows = two_user_rows(100.0, mi=1.0 if mc else None, se=0.01 if mc else None)
    rows[1][field] += delta
    job = bounds_job(["--mc-samples", "1000"] if mc else [])
    assert refs.check(job, {"bd": to_csv(BOUND_COLS, rows)})


# ----------------------------------------------------------------- entropy

def entropy_job(comps):
    return Job("en", "entropy", mixture=comps, check=("entropy",))


def test_entropy_accepts_gaussian_and_rejects_offset():
    var = 3.0
    h = 0.5 * math.log2(2 * math.pi * math.e * var)
    job = entropy_job([[1.0, var]])
    good = json.dumps({"h_quad": h, "h_ub": h}).encode()
    assert refs.check(job, {"en": good}) == []
    bad = json.dumps({"h_quad": h - 1e-5, "h_ub": h}).encode()
    assert refs.check(job, {"en": bad})


def test_entropy_dense_grid_resolves_narrow_spike():
    comps = [[0.3, 1.0], [0.7, 400.0]]
    grid = refs.entropy_dense_grid(comps)
    ub = refs.entropy_upper_ref(comps)
    lower = 0.3 * 0.5 * math.log2(2 * math.pi * math.e) + 0.7 * 0.5 * math.log2(
        2 * math.pi * math.e * 400.0)
    assert lower < grid < ub
    job = entropy_job(comps)
    assert refs.check(job, {"en": json.dumps({"h_quad": grid, "h_ub": ub}).encode()}) == []
    assert refs.check(job, {"en": json.dumps({"h_quad": grid + 5e-6, "h_ub": ub}).encode()})


# -------------------------------------------------------------- simulation

SIM_COLS = ["user", "stat", "level", "c", "value", "se"]


def sim_rows(doc, freq_of=lambda i, l, a: a):
    """Rows whose values are exactly the expectations."""
    rows = []
    for i in range(len(doc["users"])):
        mu = 1.0 * refs.occupancy_product(doc, i)
        rows.append({"user": i, "stat": "free_subbands", "value": mu, "se": 0.01})
    for i in range(len(doc["users"])):
        prob, c = refs.reference_levels(doc, i)
        for l, (a, cc) in enumerate(zip(prob, c)):
            rows.append({"user": i, "stat": "level_freq", "level": l, "c": float(cc),
                         "value": freq_of(i, l, float(a)), "se": 0.0})
    return rows


def sim_job(doc, slots=50000, **kw):
    return cli_job("sm", ["simulate", "--slots", str(slots), "--seed", "1"], doc,
                   ("simulate",), **kw)


def test_simulate_accepts_expectation_and_unseen_rare_level():
    doc = scen(6, u=16)
    prob, _ = refs.reference_levels(doc, 0)
    rare = int(np.argmin(prob))
    assert prob[rare] < 1e-5  # 5 interferers all landing: (1/16)^5

    def unseen(i, l, a):
        if l == rare:
            return 0.0
        return a + prob[rare] if l == 0 else a

    assert refs.check(sim_job(doc), {"sm": to_csv(SIM_COLS, sim_rows(doc, unseen))}) == []


def test_simulate_rejects_shifted_frequencies():
    doc = scen(6, u=16)

    def shifted(i, l, a):
        return a + (0.02 if l == 0 else -0.02 if l == 1 else 0.0) if i == 3 else a

    assert refs.check(sim_job(doc), {"sm": to_csv(SIM_COLS, sim_rows(doc, shifted))})


def test_simulate_rejects_wrong_free_count():
    doc = scen(6, u=16)
    rows = sim_rows(doc)
    rows[2]["value"] += 0.05
    assert refs.check(sim_job(doc), {"sm": to_csv(SIM_COLS, rows)})


def dump_bytes(y, u=None, n=None):
    n_, u_ = y.shape
    return struct.pack("<QQ", u or u_, n or n_) + y.astype("<f8").tobytes()


def test_dump_accepts_matching_variances_and_rejects_others():
    doc = scen(3, u=4, power=8.0)
    n = 20000
    job = sim_job(doc, slots=n, dump="d.bin")
    job.argv += ["--dump-user", "0", "--dump-samples", str(n)]
    # E[y_j^2] = 1 + 2 * 8 / 4, plus the user's own 8 on its sub-band 0.
    var = np.array([13.0, 5.0, 5.0, 5.0])
    y = np.random.default_rng(0).standard_normal((n, 4)) * np.sqrt(var)
    outputs = {"sm": to_csv(SIM_COLS, sim_rows(doc)), "d.bin": dump_bytes(y)}
    assert refs.check(job, outputs) == []
    outputs["d.bin"] = dump_bytes(y * 1.1)
    assert refs.check(job, outputs)
    outputs["d.bin"] = dump_bytes(y, n=n + 1)
    assert refs.check(job, outputs)


def test_thread_pair_rejects_different_bytes():
    doc = scen(6, u=16)
    out = to_csv(SIM_COLS, sim_rows(doc))
    job = cli_job("b", ["simulate", "--slots", "50000"], doc, ("same_as", "a"), threads=2)
    assert refs.check(job, {"a": out, "b": out}) == []
    assert refs.check(job, {"a": out, "b": out.replace(b"\n", b"\n ", 1)})


# -------------------------------------------------------------- load laws

MEASURE_COLS = ["scheme", "measure", "value", "value_per_u", "param", "param_value"]


def two_user_measures(u):
    """N = 2 always: FH gains v (1 - v/u), best u/4 at v = u/2."""
    rows = [
        ("fh", "eta1", u / 4, "v_star", u / 2), ("fh", "eta2", u / 8, "v_dagger", u / 2),
        ("fh", "eta3", u / 8, "v", u / 2), ("fh", "eta4", 1.0, "v", u / 2),
        ("fd", "eta1", u / 2, "n_des", 2), ("fd", "eta2", u / 4, "n_des", 2),
        ("fd", "eta3", u / 4, "n_des", 2), ("fd", "eta4", 1.0, "n_des", 2),
        ("afh", "eta1", u / 4, None, None), ("afh", "eta2", u / 8, None, None),
        ("afh", "eta3", u / 8, None, None), ("afh", "eta4", 1.0, None, None),
    ]
    return [{"scheme": s, "measure": m, "value": float(v), "value_per_u": v / u,
             "param": p, "param_value": pv} for s, m, v, p, pv in rows]


def pmf_job(name, sub, doc, u, check):
    return Job(name, "cli", [sub, "--pmf", "x.json", "--u", repr(u)], {"x.json": doc},
               check=check)


TWO = {"type": "finite", "q": [0.0, 0.0, 1.0]}


def test_measures_accepts_two_user_closed_form():
    job = pmf_job("ms", "measures", TWO, 10.0, ("measures",))
    assert refs.check(job, {"ms": to_csv(MEASURE_COLS, two_user_measures(10.0))}) == []


@pytest.mark.parametrize("row,field,value", [(0, "value", 2.6), (1, "param_value", 4.0),
                                             (9, "value", 1.3), (7, "value", 0.9)])
def test_measures_rejects_perturbation(row, field, value):
    rows = two_user_measures(10.0)
    rows[row][field] = value
    job = pmf_job("ms", "measures", TWO, 10.0, ("measures",))
    assert refs.check(job, {"ms": to_csv(MEASURE_COLS, rows)})


COMPARE_COLS = ["kind", "measure", "fh", "fd", "winner", "condition_holds",
                "inequality_verified"]


def two_user_compare(u, winner="fd"):
    rows = [{"kind": "measure", "measure": m, "fh": fh, "fd": fd, "winner": w}
            for m, fh, fd, w in (("eta1", u / 4, u / 2, winner), ("eta2", u / 8, u / 4, "fd"),
                                 ("eta3", u / 8, u / 4, "fd"), ("eta4", 1.0, 1.0, "tie"))]
    # E{N} = 2 is above (1/2) ln(2 (e^2 - 1)) = 1.27, and 1/4 < 1/2: both fail.
    rows += [{"kind": "condition", "measure": m, "condition_holds": "False",
              "inequality_verified": "False"} for m in ("eta1_condition", "eta2_condition")]
    return rows


def test_compare_accepts_closed_form_and_rejects_wrong_winner():
    job = pmf_job("cp", "compare", TWO, 10.0, ("compare",))
    assert refs.check(job, {"cp": to_csv(COMPARE_COLS, two_user_compare(10.0))}) == []
    assert refs.check(job, {"cp": to_csv(COMPARE_COLS, two_user_compare(10.0, "fh"))})


SWEEP_COLS = ["u", "lam", "n_des", "eta1_fh", "eta1_fh_per_u", "v_star", "eta2_fh",
              "eta2_fh_per_u", "v_dagger", "omega_dagger", "eta2_fd", "eta2_fd_per_u",
              "eta_afh_1", "eta_afh_2", "eta4_fd"]


def poisson_row(lam, u):
    """eta1 = u/(2e) at v* = u/lam; eta2 from bisection on
    exp(-lam w) = 1 - lam w + lam w^2; FD and AFH by direct sums."""
    q = [math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1)) for n in range(400)]
    lo, hi = 1e-6, 1.0
    f = lambda w: math.expm1(-lam * w) + lam * w - lam * w * w  # noqa: E731
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    om = 0.5 * (lo + hi)
    e2 = math.exp(-lam) * (1 - om) * math.expm1(lam * om) * u / (2 * om)
    n_des = int(u)
    fd2 = u / (2 * n_des) * sum(q[1:n_des + 1])
    afh1 = 0.5 * u * sum(q[n] * (1 - 1 / n) ** (n - 1) for n in range(1, 400))
    afh2 = 0.5 * u * sum(q[n] * (1 - 1 / n) ** (n - 1) / n for n in range(1, 400))
    e4 = 1 - sum(q[n] * (1 - n_des / n) for n in range(n_des + 1, 400))
    e1 = u / (2 * math.e)
    return {"u": u, "lam": lam, "n_des": n_des, "eta1_fh": e1, "eta1_fh_per_u": e1 / u,
            "v_star": u / lam, "eta2_fh": e2, "eta2_fh_per_u": e2 / u,
            "v_dagger": u * (1 - om), "omega_dagger": om, "eta2_fd": fd2,
            "eta2_fd_per_u": fd2 / u, "eta_afh_1": afh1, "eta_afh_2": afh2, "eta4_fd": e4}


def test_sweep_accepts_poisson_closed_forms():
    job = Job("sw", "cli", ["sweep", "--u", "10.0", "--lambdas", "3,5,12"], check=("sweep",))
    rows = [poisson_row(lam, 10.0) for lam in (3.0, 5.0, 12.0)]
    assert refs.check(job, {"sw": to_csv(SWEEP_COLS, rows)}) == []


@pytest.mark.parametrize("field,factor", [("eta1_fh", 1.001), ("v_star", 1.01),
                                          ("eta2_fh", 0.999), ("eta_afh_2", 1.0001)])
def test_sweep_rejects_perturbation(field, factor):
    job = Job("sw", "cli", ["sweep", "--u", "10.0", "--lambdas", "5"], check=("sweep",))
    row = poisson_row(5.0, 10.0)
    row[field] *= factor
    assert refs.check(job, {"sw": to_csv(SWEEP_COLS, [row])})


def test_poisson_eta1_reference_is_u_over_2e():
    law = refs.LoadLaw({"type": "poisson", "lambda": 7.0})
    value, v = law.fh_max(10.0, per_user=False)
    assert value == pytest.approx(10.0 / (2 * math.e), rel=1e-10)
    assert v == pytest.approx(10.0 / 7.0, rel=1e-5)
