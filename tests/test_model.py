"""Interference spectrum enumeration, checked against a brute-force oracle.

The oracle tallies the variance increment on sub-band 0 of a receiver over
every joint interferer placement (each v-subset equally likely), which is
the exact law the fast convolution must reproduce.
"""
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from fhshare import model
from fhshare.gains import per_user_gains
from fhshare.mixture import MERGE_REL_TOL, entropy_upper_bound, merge_levels
from fhshare.model import (
    HoppingProfile,
    NetworkScenario,
    enumerate_interference_spectrum,
    scenario_from_json,
    scenario_to_json,
)


def brute_force_levels(scenario, counts, receiver):
    """Exact increment law at sub-band 0 via full placement enumeration."""
    u = scenario.n_subbands
    dist = {0.0: 1.0}
    for k in range(scenario.n_users):
        if k == receiver:
            continue
        v = counts[k]
        subsets = list(itertools.combinations(range(u), v))
        amp = float(scenario.gains[k, receiver]) ** 2 / v if v else 0.0
        new = {}
        for c, p in dist.items():
            for s in subsets:
                key = c + (amp if 0 in s else 0.0)
                new[key] = new.get(key, 0.0) + p / len(subsets)
        dist = new
    return sorted(dist.items())


def merge_oracle(entries, sigma2, power, rel_tol=1e-9):
    """Apply the same adjacent-variance merge rule the library uses."""
    merged = []
    for c, p in entries:
        if merged:
            c0, p0 = merged[-1]
            if (sigma2 + c * power) - (sigma2 + c0 * power) <= rel_tol * (
                sigma2 + c0 * power
            ):
                merged[-1] = ((c0 * p0 + c * p) / (p0 + p), p0 + p)
                continue
        merged.append((c, p))
    return merged


def unit_scenario(n, u, power=10.0, sigma2=1.0):
    return NetworkScenario(
        n_users=n,
        n_subbands=u,
        gains=np.ones((n, n)),
        total_power=power,
        noise_power=sigma2,
    )


def test_three_user_hand_spectrum():
    scen = unit_scenario(3, 4)
    profs = [HoppingProfile.fixed(1)] * 3
    spec = enumerate_interference_spectrum(scen, profs, 0)
    assert spec.n_levels == 3
    np.testing.assert_allclose(spec.probabilities, [9 / 16, 6 / 16, 1 / 16])
    np.testing.assert_allclose(spec.c_values, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(spec.variances, [1.0, 11.0, 21.0])
    assert spec.a0 == pytest.approx(0.5625, abs=0)


def test_two_user_hand_spectrum():
    gains = np.array([[1.0, 0.8], [0.7, 1.0]])
    scen = NetworkScenario(
        n_users=2, n_subbands=2, gains=gains, total_power=4.0, noise_power=0.5
    )
    profs = [HoppingProfile.fixed(1)] * 2
    spec0 = enumerate_interference_spectrum(scen, profs, 0)
    np.testing.assert_allclose(spec0.probabilities, [0.5, 0.5])
    np.testing.assert_allclose(spec0.c_values, [0.0, 0.49])
    np.testing.assert_allclose(spec0.variances, [0.5, 0.5 + 0.49 * 4.0])
    spec1 = enumerate_interference_spectrum(scen, profs, 1)
    np.testing.assert_allclose(spec1.c_values, [0.0, 0.64])


def test_pmf_interferer_outcomes():
    # Interferer hops on 0 or 2 of the 2 sub-bands with equal probability.
    scen = unit_scenario(2, 2)
    profs = [
        HoppingProfile.fixed(1),
        HoppingProfile.from_pmf((0.5, 0.0, 0.5)),
    ]
    spec = enumerate_interference_spectrum(scen, profs, 0)
    np.testing.assert_allclose(spec.probabilities, [0.5, 0.5])
    np.testing.assert_allclose(spec.c_values, [0.0, 0.5])
    assert spec.a0 == pytest.approx(0.5)


def test_matches_brute_force_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        u = int(rng.integers(2, 6))
        counts = [int(rng.integers(1, u + 1)) for _ in range(n)]
        gains = np.exp(rng.normal(size=(n, n)) * 0.5)
        scen = NetworkScenario(
            n_users=n,
            n_subbands=u,
            gains=gains,
            total_power=float(rng.uniform(0.5, 20.0)),
            noise_power=float(rng.uniform(0.1, 2.0)),
        )
        profs = [HoppingProfile.fixed(v) for v in counts]
        receiver = int(rng.integers(0, n))
        spec = enumerate_interference_spectrum(scen, profs, receiver)
        oracle = merge_oracle(
            brute_force_levels(scen, counts, receiver),
            scen.noise_power,
            scen.total_power,
        )
        assert spec.n_levels == len(oracle)
        np.testing.assert_allclose(
            spec.c_values, [c for c, _ in oracle], rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            spec.probabilities, [p for _, p in oracle], rtol=1e-12, atol=1e-15
        )
        assert spec.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_mean_variance_identity():
    # E{sigma_l^2} = sigma^2 + (P/u) sum_k |h_ki|^2 P{interferer k active}.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        u = int(rng.integers(2, 7))
        gains = np.exp(rng.normal(size=(n, n)))
        scen = NetworkScenario(
            n_users=n,
            n_subbands=u,
            gains=gains,
            total_power=3.0,
            noise_power=0.7,
        )
        profs = []
        active = []
        for _k in range(n):
            if rng.random() < 0.5:
                v = int(rng.integers(0, u + 1))
                profs.append(HoppingProfile.fixed(v))
                active.append(1.0 if v > 0 else 0.0)
            else:
                w = rng.random(u + 1)
                w /= w.sum()
                profs.append(HoppingProfile.from_pmf(w))
                active.append(1.0 - w[0])
        spec = enumerate_interference_spectrum(scen, profs, 0)
        expected = scen.noise_power + scen.total_power / u * sum(
            gains[k, 0] ** 2 * active[k] for k in range(1, n)
        )
        assert spec.to_mixture().variance() == pytest.approx(expected, rel=1e-12)


def test_a0_equals_free_probability():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        u = int(rng.integers(2, 6))
        gains = 0.5 + rng.random((n, n))
        scen = NetworkScenario(
            n_users=n, n_subbands=u, gains=gains, total_power=1.0, noise_power=1.0
        )
        profs = [HoppingProfile.fixed(int(rng.integers(1, u + 1))) for _ in range(n)]
        spec = enumerate_interference_spectrum(scen, profs, 0)
        # per-user gain = (vbar_0 / 2) prod_{k != 0} (1 - vbar_k / u)
        vbar = [p.mean_v() for p in profs]
        free = per_user_gains(vbar, u)[0] / (0.5 * vbar[0])
        assert spec.a0 == pytest.approx(free, rel=1e-12)


def test_permutation_covariance():
    rng = np.random.default_rng(5)
    n, u = 4, 5
    gains = np.exp(rng.normal(size=(n, n)))
    counts = [1, 2, 3, 1]
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=gains, total_power=2.0, noise_power=1.0
    )
    profs = [HoppingProfile.fixed(v) for v in counts]
    perm = [2, 0, 3, 1]
    gains_p = gains[np.ix_(perm, perm)]
    scen_p = NetworkScenario(
        n_users=n, n_subbands=u, gains=gains_p, total_power=2.0, noise_power=1.0
    )
    profs_p = [HoppingProfile.fixed(counts[j]) for j in perm]
    for new_idx, old_idx in enumerate(perm):
        a = enumerate_interference_spectrum(scen, profs, old_idx)
        b = enumerate_interference_spectrum(scen_p, profs_p, new_idx)
        np.testing.assert_allclose(a.probabilities, b.probabilities, rtol=1e-12)
        np.testing.assert_allclose(a.c_values, b.c_values, rtol=1e-12)


def test_equal_gain_levels_collapse_to_binomial():
    n, u = 6, 5
    scen = unit_scenario(n, u)
    profs = [HoppingProfile.fixed(1)] * n
    spec = enumerate_interference_spectrum(scen, profs, 0)
    assert spec.n_levels == n
    np.testing.assert_allclose(spec.c_values, np.arange(n, dtype=float), atol=1e-12)
    np.testing.assert_allclose(
        spec.probabilities, binom.pmf(np.arange(n), n - 1, 1 / u), rtol=1e-12
    )


def test_merge_keeps_moments():
    # Two interferers whose variance levels differ by well under the merge
    # tolerance collapse into one level without moving the mean variance.
    eps = 5e-10
    gains = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [math.sqrt(1.0 + eps), 1.0, 1.0],
        ]
    )
    scen = NetworkScenario(
        n_users=3, n_subbands=2, gains=gains, total_power=1.0, noise_power=1.0
    )
    profs = [HoppingProfile.fixed(1)] * 3
    spec = enumerate_interference_spectrum(scen, profs, 0)
    assert spec.n_levels == 3
    assert spec.probabilities[1] == pytest.approx(0.5, abs=1e-12)
    assert spec.c_values[1] == pytest.approx(1.0 + eps / 2, rel=1e-12)
    raw_mean = 1.0 + 0.25 * (0.0 + 1.0 + (1.0 + eps) + (2.0 + eps))
    assert spec.to_mixture().variance() == pytest.approx(raw_mean, rel=1e-15)

    # Distinct levels stay distinct.
    gains2 = gains.copy()
    gains2[2, 0] = math.sqrt(1.001)
    scen2 = NetworkScenario(
        n_users=3, n_subbands=2, gains=gains2, total_power=1.0, noise_power=1.0
    )
    spec2 = enumerate_interference_spectrum(scen2, profs, 0)
    assert spec2.n_levels == 4


def test_enumeration_guard_is_on_round_size(monkeypatch):
    # 21 users with equal gains pool into 21 levels: N itself is not capped
    n = 21
    spec = enumerate_interference_spectrum(
        unit_scenario(n, 4), [HoppingProfile.fixed(1)] * n, 0
    )
    assert spec.n_levels == n
    # two interferers with 1501 outcomes each: a 1501^2-cell round, pooled
    # to fewer than 2^21 levels, is inside the round budget
    u = 1500
    profs = [HoppingProfile.from_pmf([1.0 / (u + 1)] * (u + 1))] * 3
    spec = enumerate_interference_spectrum(unit_scenario(3, u), profs, 0)
    assert 1501 < spec.n_levels < 1 << 21
    # with 3001 outcomes each the second round's 3001^2 cells exceed
    # MAX_ROUND_CELLS and are refused before they are built
    rounds = []
    add = model._add_interferer
    monkeypatch.setattr(model, "_add_interferer", lambda *a: rounds.append(1) or add(*a))
    u = 3000
    profs = [HoppingProfile.from_pmf([1.0 / (u + 1)] * (u + 1))] * 3
    with pytest.raises(ValueError, match="3001 x 3001 levels exceeds the enumeration budget"):
        enumerate_interference_spectrum(unit_scenario(3, u), profs, 0)
    assert len(rounds) == 1


def test_silent_interferer():
    scen = unit_scenario(2, 3)
    for silent in (
        HoppingProfile.fixed(0),
        HoppingProfile.from_pmf((1.0, 0.0, 0.0, 0.0)),
    ):
        profs = [HoppingProfile.fixed(1), silent]
        spec = enumerate_interference_spectrum(scen, profs, 0)
        assert spec.n_levels == 1
        assert spec.a0 == 1.0
        assert spec.variances[0] == scen.noise_power


def test_profile_validation():
    with pytest.raises(ValueError):
        HoppingProfile.fixed(-1)
    with pytest.raises(ValueError):
        HoppingProfile.from_pmf((0.5, 0.4))
    with pytest.raises(ValueError):
        HoppingProfile(fixed_v=1, pmf=(0.5, 0.5))
    # NaN passes both a "< 0" test and the sum test
    for pmf in ((math.nan, 1.0), (0.5, math.nan, 0.5)):
        with pytest.raises(ValueError, match="not NaN"):
            HoppingProfile.from_pmf(pmf)
    prof = HoppingProfile.from_pmf((0.25, 0.5, 0.25))
    assert prof.mean_v() == pytest.approx(1.0)
    assert prof.max_v() == 2
    assert prof.hops == ((0, 0.25), (1, 0.5), (2, 0.25))
    assert HoppingProfile.from_pmf((0.5, 0.0, 0.5)).hops == ((0, 0.5), (2, 0.5))
    assert HoppingProfile.fixed(2).hops == ((2, 1.0),)
    assert prof.misfit(2) is None and prof.misfit(1) == "uses more than u=1 sub-bands"
    assert prof.misfit(5) == "pmf length 3 != u+1 = 6"
    assert HoppingProfile.fixed(2).misfit(3) is None


def test_spectrum_entropy_and_mixture():
    scen = unit_scenario(3, 4)
    profs = [HoppingProfile.fixed(1)] * 3
    spec = enumerate_interference_spectrum(scen, profs, 0)
    p = spec.probabilities
    expected = -(p * np.log2(p)).sum()
    assert spec.discrete_entropy() == pytest.approx(expected, rel=1e-12)
    mix = spec.to_mixture()
    np.testing.assert_allclose(mix.weights, p)
    np.testing.assert_allclose(mix.variances[:, 0], spec.variances)


def test_to_mixture_holds_the_spectrum_arrays():
    rng = np.random.default_rng(12)
    scen = NetworkScenario(
        n_users=5, n_subbands=4, gains=np.exp(rng.normal(size=(5, 5))),
        total_power=7.0, noise_power=0.3,
    )
    profs = [HoppingProfile.fixed(2), HoppingProfile.from_pmf((0.1, 0.2, 0.3, 0.4, 0.0))]
    profs += [HoppingProfile.fixed(1), HoppingProfile.fixed(3), HoppingProfile.fixed(4)]
    spec = enumerate_interference_spectrum(scen, profs, 2)
    mix = spec.to_mixture()
    assert spec.n_levels == 16
    assert mix.weights.tobytes() == spec.probabilities.tobytes()
    assert mix.variances[:, 0].tobytes() == spec.variances.tobytes()


def test_spectrum_arrays_are_read_only_and_built_once():
    scen = unit_scenario(3, 4)
    spec = enumerate_interference_spectrum(scen, [HoppingProfile.fixed(1)] * 3, 0)
    for name in ("probabilities", "c_values", "variances"):
        arr = getattr(spec, name)
        assert arr is getattr(spec, name)
        assert arr.dtype == float and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5


@st.composite
def free_level_scenarios(draw):
    """Random scenarios in which every interferer leaves a sub-band free
    with positive probability (mean hop count below u), so a0 > 0. Gains
    are 0 or at least 0.05, so no hit level's variance lies within
    entropy_upper_bound's merge tolerance of sigma^2."""
    n = draw(st.integers(1, 6))
    u = draw(st.integers(2, 6))
    gain = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    gains = [[draw(gain) for _ in range(n)] for _ in range(n)]
    profiles = []
    for _ in range(n):
        if draw(st.booleans()):
            profiles.append(HoppingProfile.fixed(draw(st.integers(0, u - 1))))
        else:
            w = draw(
                st.lists(st.integers(0, 3), min_size=u + 1, max_size=u + 1).filter(
                    lambda x: sum(x[:-1]) > 0
                )
            )
            profiles.append(HoppingProfile.from_pmf([x / sum(w) for x in w]))
    power = draw(st.floats(1e-2, 1e4))
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=np.array(gains), total_power=power, noise_power=1.0
    )
    return scen, profiles, draw(st.integers(0, n - 1))


@settings(max_examples=100, deadline=None)
@given(free_level_scenarios())
def test_entropy_upper_bound_does_not_merge_a_spectrum_again(case):
    scen, profs, receiver = case
    spec = enumerate_interference_spectrum(scen, profs, receiver)
    assert spec.c_values[0] == 0.0 and spec.a0 > 0.0
    v = spec.variances
    closed = (
        0.5 * (1.0 - spec.a0) * math.log2(v[-1] / v[0])
        + 0.5 * math.log2(2.0 * math.pi * math.e * v[0])
        + spec.discrete_entropy()
    )
    assert entropy_upper_bound(spec.to_mixture()) == closed


def test_json_round_trip():
    rng = np.random.default_rng(3)
    n, u = 3, 4
    gains = np.round(np.exp(rng.normal(size=(n, n))), 6)
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=gains, total_power=2.5, noise_power=0.25
    )
    profs = [
        HoppingProfile.fixed(2),
        HoppingProfile.from_pmf((0.1, 0.2, 0.3, 0.4, 0.0)),
        HoppingProfile.fixed(1),
    ]
    doc = scenario_to_json(scen, profs)
    text = json.dumps(doc)
    scen2, profs2 = scenario_from_json(json.loads(text))
    assert scen2.n_users == n and scen2.n_subbands == u
    np.testing.assert_allclose(scen2.gains, scen.gains)
    assert scen2.total_power == scen.total_power
    assert scen2.noise_power == scen.noise_power
    a = enumerate_interference_spectrum(scen, profs, 1)
    b = enumerate_interference_spectrum(scen2, profs2, 1)
    np.testing.assert_allclose(a.probabilities, b.probabilities, rtol=0, atol=0)
    np.testing.assert_allclose(a.c_values, b.c_values, rtol=0, atol=0)


def reference_spectrum(scenario, profiles, receiver, rel_tol=1e-9):
    """(c, p) of enumerate_interference_spectrum by the dict convolution it
    used before the array rounds, with the interference-free level kept
    out of the merge."""
    u = scenario.n_subbands
    dist = {0.0: 1.0}
    for k in range(scenario.n_users):
        if k == receiver:
            continue
        g = float(scenario.gains[k, receiver])
        h2 = g * g
        outcomes = [(0.0, 1.0 - profiles[k].mean_v() / u)]
        p_k = profiles[k]
        weights = np.eye(u + 1)[p_k.fixed_v] if p_k.is_fixed else np.array(p_k.pmf)
        for v, w in enumerate(weights.tolist()):
            if v >= 1 and w > 0:
                outcomes.append((h2 / v, w * v / u))
        new = {}
        for c_prev, p_prev in dist.items():
            for c_k, p_k in outcomes:
                if p_k == 0.0:
                    continue
                key = c_prev + c_k
                new[key] = new.get(key, 0.0) + p_prev * p_k
        dist = new
    entries = sorted((c, p) for c, p in dist.items() if p > 0.0)
    free = entries[:1] if entries[0][0] == 0.0 else []
    merged = free + merge_oracle(
        entries[len(free):], scenario.noise_power, scenario.total_power, rel_tol
    )
    return [c for c, _ in merged], [p for _, p in merged]


@st.composite
def convolution_scenarios(draw):
    """Scenarios with equal and zero gains (so sums of increments collide
    exactly), pmf users with zero weights, and hop counts 0 and u."""
    n = draw(st.integers(1, 6))
    u = draw(st.integers(1, 5))
    if draw(st.booleans()):
        gain = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 1.0])
    else:
        gain = st.one_of(st.just(0.0), st.floats(1e-6, 3.0))
    gains = [[draw(gain) for _ in range(n)] for _ in range(n)]
    profiles = []
    for _ in range(n):
        if draw(st.booleans()):
            profiles.append(HoppingProfile.fixed(draw(st.integers(0, u))))
        else:
            w = draw(
                st.lists(st.integers(0, 3), min_size=u + 1, max_size=u + 1).filter(sum)
            )
            profiles.append(HoppingProfile.from_pmf([x / sum(w) for x in w]))
    scen = NetworkScenario(
        n_users=n,
        n_subbands=u,
        gains=np.array(gains),
        total_power=draw(st.floats(1e-2, 1e4)),
        noise_power=draw(st.floats(1e-2, 10.0)),
    )
    return scen, profiles, draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(convolution_scenarios())
def test_spectrum_matches_dict_convolution_exactly(case):
    scen, profs, receiver = case
    spec = enumerate_interference_spectrum(scen, profs, receiver)
    want_c, want_p = reference_spectrum(scen, profs, receiver)
    assert spec.c_values.tolist() == want_c
    assert spec.probabilities.tolist() == want_p


def test_free_level_is_never_merged():
    # A 1e-5 cross gain gives a hit level c = 2.5e-11 (or 1e-10 / 3),
    # far inside the merge tolerance of sigma^2 = P = 1.
    gains = np.array([[1.0, 1e-5], [1e-5, 1.0]])
    scen = NetworkScenario(n_users=2, n_subbands=4, gains=gains, total_power=1.0, noise_power=1.0)
    profs = [HoppingProfile.fixed(1), HoppingProfile.fixed(3)]
    spec0 = enumerate_interference_spectrum(scen, profs, 0)
    assert spec0.c_values.tolist() == [0.0, 1e-5 * 1e-5 / 3]
    assert spec0.probabilities.tolist() == [0.25, 0.75]
    assert spec0.a0 == 0.25
    # At 1e-12 the hit level's variance rounds to sigma^2; it is still apart.
    tiny = NetworkScenario(
        n_users=2, n_subbands=4, gains=np.array([[1.0, 1e-12], [1e-12, 1.0]]),
        total_power=1.0, noise_power=1.0,
    )
    spec1 = enumerate_interference_spectrum(tiny, profs, 1)
    assert spec1.variances.tolist() == [1.0, 1.0]
    assert spec1.a0 == 0.75


def test_mean_hop_count_capped_at_largest_count():
    prof = HoppingProfile.from_pmf((0.0, 5e-13, 1.0))
    assert sum(v * w for v, w in enumerate(prof.pmf)) > 2.0
    assert prof.mean_v() == 2.0
    scen = unit_scenario(2, 2)
    spec = enumerate_interference_spectrum(scen, [HoppingProfile.fixed(1), prof], 0)
    assert spec.a0 == 0.0 and (spec.probabilities > 0).all()


def one_step_enumeration(scenario, profiles, receiver):
    """enumerate_interference_spectrum as it was before its power-free law
    was split out: convolution, sort and merge in one body."""
    model.check_user(scenario, profiles, receiver)
    u = scenario.n_subbands
    gains = scenario.gains[:, receiver].tolist()
    c, p = np.zeros(1), np.ones(1)
    for k in range(scenario.n_users):
        if k == receiver:
            continue
        c_k, p_k = model._interferer_outcomes(profiles[k], gains[k], u)
        c, p = model._add_interferer(c, p, c_k, p_k)
    sigma2 = scenario.noise_power
    power = scenario.total_power
    order = np.argsort(c)
    c, p = c[order], p[order]
    keep = p > 0.0
    c, p = c[keep], p[keep]
    law = model.InterferenceLaw(receiver=receiver, probabilities=p, c_values=c)
    free = int(c[0] == 0.0)
    c_hit, p_hit, group = merge_levels(c[free:], p[free:], sigma2, power, MERGE_REL_TOL)
    c = np.concatenate((c[:free], c_hit))
    p = np.concatenate((p[:free], p_hit))
    return model.InterferenceSpectrum(
        noise_power=sigma2,
        total_power=power,
        probabilities=p,
        c_values=c,
        variances=sigma2 + c * power,
        law=law,
        level_of=np.r_[:free, group + free],
    )


@st.composite
def law_scenarios(draw):
    """Pmf and fixed users with zero, equal and nearly equal gains (whose
    levels merge at some powers and not at others), and a few powers."""
    n = draw(st.integers(1, 6))
    u = draw(st.integers(1, 5))
    gain = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0 + 1e-6, 1.0 + 1e-9, 1.0 - 3e-10])
    gains = [[draw(gain) for _ in range(n)] for _ in range(n)]
    profiles = []
    for _ in range(n):
        if draw(st.booleans()):
            profiles.append(HoppingProfile.fixed(draw(st.integers(0, u))))
        else:
            w = draw(
                st.lists(st.integers(0, 3), min_size=u + 1, max_size=u + 1).filter(sum)
            )
            profiles.append(HoppingProfile.from_pmf([x / sum(w) for x in w]))
    scen = NetworkScenario(
        n_users=n,
        n_subbands=u,
        gains=np.array(gains),
        total_power=1.0,
        noise_power=draw(st.floats(1e-2, 10.0)),
    )
    powers = draw(st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=4))
    return scen, profiles, draw(st.integers(0, n - 1)), powers


@settings(max_examples=300, deadline=None)
@given(law_scenarios())
def test_law_spectra_are_the_one_step_enumeration_bit_for_bit(case):
    scen, profs, receiver, powers = case
    law = model.interference_law(scen, profs, receiver)
    assert np.all(np.diff(law.c_values) > 0) and np.all(law.probabilities > 0)
    assert not (law.c_values.flags.writeable or law.probabilities.flags.writeable)
    for power in powers:
        scen_p = dataclasses.replace(scen, total_power=power)
        got = law.spectrum(scen_p.noise_power, scen_p.total_power)
        want = one_step_enumeration(scen_p, profs, receiver)
        assert (got.law.receiver, got.noise_power, got.total_power) == (
            want.law.receiver, want.noise_power, want.total_power
        )
        for name in ("probabilities", "c_values", "variances", "level_of"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # each level pools the law's keys that joined it, summed in order
        assert got.law is law and not got.level_of.flags.writeable
        pooled = np.bincount(got.level_of, weights=law.probabilities)
        assert pooled.tobytes() == got.probabilities.tobytes()
        enumerated = enumerate_interference_spectrum(scen_p, profs, receiver)
        assert enumerated.c_values.tobytes() == want.c_values.tobytes()
        assert enumerated.probabilities.tobytes() == want.probabilities.tobytes()


def test_near_equal_gains_merge_at_low_power_only():
    # Increments 1 and (1 + 1e-9)^2 give variances 1 + P and about
    # 1 + P (1 + 2e-9): within 1e-9 of the lower one at P = 1e-3, not at
    # P = 1e3. The law keeps both; each spectrum merges them or not.
    gains = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0 + 1e-9, 1.0, 1.0]])
    scen = NetworkScenario(3, 2, gains, 1.0, 1.0)
    profs = [HoppingProfile.fixed(1)] * 3
    law = model.interference_law(scen, profs, 0)
    assert law.c_values.size == 4
    assert law.spectrum(1.0, 1e-3).n_levels == 3
    assert law.spectrum(1.0, 1e3).n_levels == 4
