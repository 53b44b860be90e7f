"""Release acceptance checks.

Each test covers one numbered criterion and prints a single
"[acceptance N] <what>: PASS/FAIL" line (visible with pytest -s) before
asserting, so a red run still emits the scorecard line for its
criterion. Tolerances are pinned in the checks; frozen reference
numbers live next to the tests that use them.
"""
import csv
import io
import math
import time

import numpy as np
import pytest

from fhshare.bounds import (
    lower_bound_rate,
    mc_mutual_information,
    upper_bound_rate,
)
from fhshare.cli import main
from fhshare.measures import (
    FdConfig,
    FhCurves,
    UserCountPmf,
    eta1_fd,
    eta1_fh,
    eta2_fd,
    eta2_fh_poisson_closed,
    eta3_fd,
    eta3_fh,
    eta4_fd,
    eta4_fh,
    mean_load_conditions,
)
from fhshare.mixture import (
    GaussianMixture1D,
    entropy_quadrature,
    entropy_upper_bound,
)
from fhshare.model import (
    HoppingProfile,
    NetworkScenario,
    enumerate_interference_spectrum,
)
from fhshare.sim import SimConfig, run


def _report(n, desc, ok, detail=""):
    print(f"[acceptance {n}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {n}: {detail or desc}"


# (omega_dagger, eta2 per sub-band) for Poisson loads lam = 3..10.
POISSON_ETA2_TABLE = {
    3: (0.4536, 0.0869),
    4: (0.6392, 0.0615),
    5: (0.7347, 0.0467),
    6: (0.7912, 0.0374),
    7: (0.828, 0.0311),
    8: (0.8537, 0.0266),
    9: (0.8727, 0.0232),
    10: (0.8873, 0.0206),
}


def test_acceptance_01_poisson_eta2_table():
    t0 = time.perf_counter()
    bad = []
    for lam, (omega_ref, eta_ref) in POISSON_ETA2_TABLE.items():
        value, omega = eta2_fh_poisson_closed(float(lam), 1.0)
        if abs(omega - omega_ref) > 5e-4 or abs(value - eta_ref) > 5e-4:
            bad.append((lam, omega, value))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(
        1,
        "Poisson eta2 closed form matches the omega/eta table "
        "(lam=3..10, +-5e-4, <1 s)",
        ok,
        f"bad={bad} elapsed={elapsed:.3f}s",
    )


def test_acceptance_02_ten_user_mix():
    u = 1.0
    mix = UserCountPmf.finite(
        (0.0, 0.22, 0.24, 0.24, 0.24, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01)
    )
    value, v_dag = FhCurves(mix, u).eta2()
    # the quoted FD value is u/16; the direct formula (n_des = 10) gives u/20
    computed = eta2_fd(mix, FdConfig(n_des=10), u)
    reported = u / 16.0
    ok = (
        abs(v_dag - 0.72 * u) <= 5e-3 * u
        and abs(value - 0.1121 * u) <= 5e-4 * u
        and not math.isclose(computed, reported, rel_tol=1e-9)
        and math.isclose(computed, u / 20.0, rel_tol=1e-12)
    )
    _report(
        2,
        "ten-user mix gives v_dagger=0.72u and eta2=0.1121u, FD reference "
        "discrepancy surfaced (computed u/20 vs reported u/16)",
        ok,
        f"v_dag={v_dag} value={value} computed={computed} reported={reported}",
    )


def test_acceptance_03_service_capability():
    u = 5.0
    pois = UserCountPmf.poisson(3.0)
    fd_val = eta4_fd(pois, FdConfig(n_des=5))
    _, v_star = eta1_fh(pois, u)
    fh_val = eta4_fh(pois, v_star, u)
    ok = (
        abs(fd_val - 0.9806) <= 5e-4
        and abs(v_star - u / 3.0) <= 1e-6 * u
        and fh_val == 1.0
    )
    _report(
        3,
        "service capability is 0.9806 for FD at u=5, lam=3, n_des=5; "
        "FH v*=u/lam serves everyone",
        ok,
        f"fd={fd_val} v_star={v_star} fh={fh_val}",
    )


def _flip_point(diff, lo, hi):
    """Bisect a single sign change of diff on [lo, hi] to 1e-9."""
    f_lo = diff(lo)
    if not f_lo * diff(hi) < 0.0:
        raise AssertionError("no sign change on the bracket")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if (diff(mid) > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, diff(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_acceptance_04_two_point_flip_thresholds():
    fd = FdConfig(n_des=2)

    def d1(q1):
        pmf = UserCountPmf.finite((0.0, q1, 1.0 - q1))
        return eta1_fh(pmf, 1.0)[0] - eta1_fd(pmf, fd, 1.0)

    def d2(q1):
        pmf = UserCountPmf.finite((0.0, q1, 1.0 - q1))
        return FhCurves(pmf, 1.0).eta2()[0] - eta2_fd(pmf, fd, 1.0)

    r1 = _flip_point(d1, 0.05, 0.95)
    r2 = _flip_point(d2, 0.05, 0.95)
    ok = abs(r1 - 2.0 / 3.0) <= 1e-6 and abs(r2 - 0.5) <= 1e-6
    _report(
        4,
        "two-point load FH/FD winner flips at q1=2/3 (eta1) and "
        "q1=1/2 (eta2), bisected to 1e-6",
        ok,
        f"r1={r1} r2={r2}",
    )


def test_acceptance_05_poisson_eta1():
    bad = []
    for lam in (2.0, 5.0, 10.0):
        value, v_star = eta1_fh(UserCountPmf.poisson(lam), 1.0)
        if (
            abs(value - 1.0 / (2.0 * math.e)) > 1e-9
            or abs(v_star - 1.0 / lam) > 1e-6
        ):
            bad.append((lam, value, v_star))
    ok = not bad
    _report(
        5,
        "Poisson eta1 equals u/(2e) +-1e-9 with v*=u/lam +-1e-6 for "
        "lam in {2,5,10}",
        ok,
        f"bad={bad}",
    )


@pytest.fixture(scope="module")
def small_instances():
    """20 random small networks simulated for 1e5 slots each."""
    rng = np.random.default_rng(20260819)
    runs = []
    t0 = time.perf_counter()
    for _ in range(20):
        n = int(rng.integers(1, 5))
        u = int(rng.integers(2, 7))
        vs = [int(rng.integers(1, u + 1)) for _ in range(n)]
        gains = 0.5 + rng.random((n, n))
        scen = NetworkScenario(
            n_users=n,
            n_subbands=u,
            gains=gains,
            total_power=10.0,
            noise_power=1.0,
        )
        profs = tuple(HoppingProfile.fixed(v) for v in vs)
        cfg = SimConfig(
            scenario=scen,
            profiles=profs,
            n_slots=100_000,
            master_seed=int(rng.integers(1 << 60)),
        )
        runs.append((scen, profs, run(cfg, threads=1)))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_acceptance_06_free_subband_oracle(small_instances):
    runs, elapsed = small_instances
    bad = []
    for idx, (scen, profs, stats) in enumerate(runs):
        u = scen.n_subbands
        for i, p in enumerate(profs):
            want = p.mean_v()
            for k, other in enumerate(profs):
                if k != i:
                    want *= 1.0 - other.mean_v() / u
            if abs(stats.free_mean[i] - want) > 4.0 * stats.free_se[i] + 1e-12:
                bad.append((idx, i, float(stats.free_mean[i]), want))
    ok = not bad and elapsed < 10.0
    _report(
        6,
        "free sub-band counts match vbar*prod(1-vbar_k/u) within 4 SE "
        "on 20 random instances, 1e5 slots, <10 s",
        ok,
        f"bad={bad} elapsed={elapsed:.2f}s",
    )


def test_acceptance_07_level_frequency_oracle(small_instances):
    runs, _ = small_instances
    bad = []
    for idx, (scen, profs, stats) in enumerate(runs):
        for i in range(scen.n_users):
            spec = enumerate_interference_spectrum(scen, profs, i)
            n_eff = max(int(stats.level_slots[i]), 1)
            if len(stats.level_freq[i]) != spec.n_levels:
                bad.append((idx, i, "level count"))
                continue
            for a, freq, se in zip(
                spec.probabilities, stats.level_freq[i], stats.level_se[i]
            ):
                guard = 4.0 * max(se, math.sqrt(a * (1.0 - a) / n_eff))
                if abs(freq - a) > guard + 1e-12:
                    bad.append((idx, i, float(freq), float(a)))
    ok = not bad
    _report(
        7,
        "empirical level frequencies match the enumerated spectrum "
        "within 4 SE per level",
        ok,
        f"bad={bad[:4]}",
    )


def test_acceptance_08_bound_sandwich_and_pinch():
    t0 = time.perf_counter()
    gains = np.ones((2, 2))
    profs = (HoppingProfile.fixed(1), HoppingProfile.fixed(1))

    def scen(gamma):
        return NetworkScenario(
            n_users=2,
            n_subbands=2,
            gains=gains,
            total_power=gamma,
            noise_power=1.0,
        )

    bad = []
    mi_at = {}
    for j, gamma in enumerate((1e2, 1e4, 1e6)):
        s = scen(gamma)
        mi, se = mc_mutual_information(
            s, profs, 0, 1_000_000, seed=20260800 + j, threads=4
        )
        mi_at[gamma] = mi
        lb = lower_bound_rate(s, profs, 0).value_bits
        ub = upper_bound_rate(s, profs, 0).value_bits
        if not (lb - 4.0 * se <= mi <= ub + 4.0 * se):
            bad.append((gamma, lb, mi, ub, se))
    mi8, _ = mc_mutual_information(
        scen(1e8), profs, 0, 1_000_000, seed=20260899, threads=4
    )
    slope = (mi8 - mi_at[1e4]) / (math.log2(1e8) - math.log2(1e4))
    elapsed = time.perf_counter() - t0
    ok = not bad and abs(slope - 0.25) <= 0.025 and elapsed < 60.0
    _report(
        8,
        "MC mutual information sits between the bounds (4 SE) at "
        "gamma=1e2,1e4,1e6 and its 1e4->1e8 slope is 0.25 +-10%, <60 s",
        ok,
        f"bad={bad} slope={slope:.4f} elapsed={elapsed:.1f}s",
    )


def test_acceptance_09_entropy_bound_dominance():
    rng = np.random.default_rng(77)
    violations = []
    for trial in range(1000):
        m = int(rng.integers(1, 6))
        w = rng.dirichlet(np.ones(m))
        var = np.exp(rng.normal(0.0, 1.2, m))
        mix = GaussianMixture1D.of(*zip(w.tolist(), var.tolist()))
        h_exact = entropy_quadrature(mix)
        h_upper = entropy_upper_bound(mix)
        if h_upper < h_exact - 1e-9:
            violations.append((trial, h_exact, h_upper))
    ok = not violations
    _report(
        9,
        "entropy upper bound dominates quadrature entropy on 1000 "
        "random mixtures",
        ok,
        f"violations={violations[:3]}",
    )


def test_acceptance_10_worst_case_ratio():
    u = 3.7
    bad = []
    prev = None
    for n in range(1, 51):
        ratio = eta3_fh(n, u) / eta3_fd(n, u)
        closed = (1.0 - 1.0 / n) ** (n - 1)
        if abs(ratio - closed) > 1e-12:
            bad.append((n, "closed", ratio, closed))
        if not (1.0 / math.e - 1e-12 <= ratio <= 1.0 + 1e-12):
            bad.append((n, "range", ratio))
        if prev is not None and ratio > prev + 1e-12:
            bad.append((n, "monotone", ratio, prev))
        prev = ratio
    ok = not bad
    _report(
        10,
        "worst-case FH/FD ratio equals (1-1/n)^(n-1), stays in "
        "[1/e, 1], nonincreasing for n=1..50",
        ok,
        f"bad={bad[:4]}",
    )


def test_acceptance_11_sufficient_conditions_hold():
    rng = np.random.default_rng(1234)
    contradictions = []
    held1 = held2 = 0
    for trial in range(1000):
        n_max = int(rng.integers(1, 13))
        w = rng.dirichlet(np.full(n_max, rng.uniform(0.2, 2.0)))
        if rng.random() < 0.5:
            # bias half the draws toward light loads
            w = w * np.exp(-0.8 * np.arange(n_max))
            w = w / w.sum()
        q = np.concatenate(([0.0], w))
        pmf = UserCountPmf.finite(q)
        try:
            checks = mean_load_conditions(pmf)
            c1, c2 = checks["eta1"], checks["eta2"]
        except AssertionError as exc:
            contradictions.append((trial, n_max, str(exc)))
            continue
        held1 += c1.condition_holds
        held2 += c2.condition_holds
    ok = not contradictions and held1 > 0 and held2 > 0
    _report(
        11,
        "mean-load sufficient conditions never contradicted on 1000 "
        "random finite loads (n_max<=12)",
        ok,
        f"contradictions={contradictions[:3]} held1={held1} held2={held2}",
    )


def _sweep_rows(u, capsys):
    code = main(["sweep", "--u", str(u), "--lambdas", "2:10:0.5"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return list(csv.DictReader(io.StringIO(out)))


def test_acceptance_12_sweep_csv_shapes(capsys):
    rows7 = _sweep_rows(7, capsys)
    rows20 = _sweep_rows(20, capsys)
    bad = []
    for rows, u in ((rows7, 7.0), (rows20, 20.0)):
        afh1 = [float(r["eta_afh_1"]) for r in rows]
        afh2 = [float(r["eta_afh_2"]) for r in rows]
        for r in rows:
            if not float(r["eta2_fd_per_u"]) < 0.5:
                bad.append((u, r["lam"], "eta2_fd_per_u"))
            if abs(float(r["eta1_fh_per_u"]) - 1.0 / (2.0 * math.e)) > 1e-9:
                bad.append((u, r["lam"], "eta1_fh_per_u"))
        if not all(a > b for a, b in zip(afh1, afh1[1:])):
            bad.append((u, "eta_afh_1 not decreasing"))
        if not all(a > b for a, b in zip(afh2, afh2[1:])):
            bad.append((u, "eta_afh_2 not decreasing"))
    for r7, r20 in zip(rows7, rows20):
        if r7["lam"] != r20["lam"]:
            bad.append(("lam grids differ", r7["lam"], r20["lam"]))
            continue
        scaled = float(r7["eta2_fh"]) * 20.0 / 7.0
        if not math.isclose(float(r20["eta2_fh"]), scaled, rel_tol=1e-9):
            bad.append((r7["lam"], "eta2_fh not linear in u"))
    ok = not bad
    _report(
        12,
        "sweep CSVs have eta2_fd_per_u<1/2, eta1_fh=u/(2e), eta2_fh linear "
        "in u, AFH measures decreasing in lambda",
        ok,
        f"bad={bad[:6]}",
    )


def test_acceptance_13_cli_thread_determinism(tmp_path, capsys):
    import json as _json

    doc = {
        "u": 4,
        "users": [{"v": 1}, {"v": 2}, {"v": 1}],
        "gains": [[1.0, 0.9, 0.8], [0.7, 1.0, 0.6], [0.5, 0.4, 1.0]],
        "P": 10.0,
        "sigma2": 2.0,
    }
    path = tmp_path / "scen.json"
    path.write_text(_json.dumps(doc))

    def capture(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    sim_args = ["simulate", "--scenario", str(path), "--slots", "40000",
                "--seed", "7"]
    c1, sim1, _ = capture(sim_args + ["--threads", "1"])
    c2, sim8, _ = capture(sim_args + ["--threads", "8"])
    bnd_args = ["bounds", "--scenario", str(path), "--gammas", "100,1e4",
                "--mc-samples", "50000", "--seed", "9"]
    c3, bnd1, _ = capture(bnd_args + ["--threads", "1"])
    c4, bnd8, _ = capture(bnd_args + ["--threads", "8"])
    ok = (
        c1 == c2 == c3 == c4 == 0
        and sim1 == sim8
        and bnd1 == bnd8
        and len(sim1) > 0
        and len(bnd1) > 0
    )
    _report(
        13,
        "simulate and bounds CSVs are byte-identical across "
        "--threads 1 vs 8 at a fixed seed",
        ok,
        f"codes={(c1, c2, c3, c4)} sim_equal={sim1 == sim8} "
        f"bounds_equal={bnd1 == bnd8}",
    )
