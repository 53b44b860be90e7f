"""Rate bounds: hand-computed values, structural identities, MC sandwich."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhshare import bounds, model, sim
from fhshare.bounds import (
    lower_bound_rate,
    mc_mutual_information,
    multiplexing_gain,
    upper_bound_rate,
)
from fhshare.gains import per_user_gains
from fhshare.model import HoppingProfile, NetworkScenario


def mean_counts(profiles):
    return [p.mean_v() for p in profiles]


def scenario(n, u, gains, power, sigma2=1.0):
    return NetworkScenario(
        n_users=n,
        n_subbands=u,
        gains=np.asarray(gains, dtype=float),
        total_power=power,
        noise_power=sigma2,
    )


def unit(n, u, power, sigma2=1.0):
    return scenario(n, u, np.ones((n, n)), power, sigma2)


def test_single_user_collapses_to_awgn():
    for v, u, gamma in ((1, 1, 100.0), (2, 4, 1e4), (3, 3, 10.0)):
        scen = unit(1, u, gamma)
        profs = [HoppingProfile.fixed(v)]
        awgn = 0.5 * v * math.log2(1.0 + gamma / v)
        ub = upper_bound_rate(scen, profs, 0)
        lb = lower_bound_rate(scen, profs, 0)
        assert ub.value_bits == pytest.approx(awgn, rel=1e-12)
        assert lb.value_bits == pytest.approx(awgn, rel=1e-12)
        assert ub.slope_bits_per_log2snr == pytest.approx(v / 2, rel=1e-15)
        assert regulated_rate(scen, 0, 1, float(v)) == pytest.approx(awgn, rel=1e-12)


def test_upper_bound_hand_value_two_users():
    # u = 2, v = 1, unit gains, gamma = 100: the lone interferer lands on
    # the user's band with probability 1/2.
    scen = unit(2, 2, 100.0)
    profs = [HoppingProfile.fixed(1)] * 2
    ub = upper_bound_rate(scen, profs, 0)
    expected = 0.25 * math.log2(101.0) + 0.25 * math.log2(1.0 + 100.0 / 101.0)
    assert ub.value_bits == pytest.approx(expected, rel=1e-12)
    assert ub.value_bits == pytest.approx(1.9127629, abs=1e-6)
    assert ub.slope_bits_per_log2snr == pytest.approx(0.25)


def test_lower_bound_hand_value_two_users():
    # Same scenario: levels {1, 101} with probs 1/2 each, so H = 1 bit,
    # a0 = 1/2, c_max = 1.
    scen = unit(2, 2, 100.0)
    profs = [HoppingProfile.fixed(1)] * 2
    lb = lower_bound_rate(scen, profs, 0)
    expected = 0.5 * math.log2(0.25 * 100.0 / math.sqrt(101.0) + 1.0)
    assert lb.value_bits == pytest.approx(expected, rel=1e-12)
    assert lb.value_bits == pytest.approx(0.9011158, abs=1e-6)
    assert lb.slope_bits_per_log2snr == pytest.approx(0.25)


def test_three_user_slope():
    scen = unit(3, 4, 100.0)
    profs = [HoppingProfile.fixed(1)] * 3
    # expected free sub-bands vbar_0 prod_{k != 0}(1 - vbar_k/u) = 2 * gain
    assert 2 * per_user_gains(mean_counts(profs), 4)[0] == pytest.approx(0.5625)
    ub = upper_bound_rate(scen, profs, 0)
    assert ub.slope_bits_per_log2snr == pytest.approx(0.28125)


def test_slopes_agree_everywhere():
    rng = np.random.default_rng(77)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        u = int(rng.integers(2, 6))
        counts = [int(rng.integers(1, u + 1)) for _ in range(n)]
        gains = np.exp(rng.normal(size=(n, n)) * 0.4)
        scen = scenario(n, u, gains, float(rng.uniform(10, 1e4)))
        profs = [HoppingProfile.fixed(v) for v in counts]
        user = int(rng.integers(0, n))
        s_formula = per_user_gains(mean_counts(profs), u)[user]
        ub = upper_bound_rate(scen, profs, user)
        lb = lower_bound_rate(scen, profs, user)
        assert ub.slope_bits_per_log2snr == pytest.approx(s_formula, rel=1e-12)
        assert lb.slope_bits_per_log2snr == pytest.approx(s_formula, rel=1e-12)
        assert lb.value_bits <= ub.value_bits


@st.composite
def pinch_cases(draw):
    """Fixed hop counts 0..u and nonzero cross gains from 1e-12 to 3."""
    n = draw(st.integers(2, 5))
    u = draw(st.integers(1, 6))
    cross = st.floats(-12.0, 0.5).map(lambda e: 10.0**e)
    gains = [[1.0 if i == k else draw(cross) for i in range(n)] for k in range(n)]
    counts = [draw(st.integers(0, u)) for _ in range(n)]
    power = 10.0 ** draw(st.floats(-2.0, 6.0))
    return scenario(n, u, gains, power), counts, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(pinch_cases())
def test_slopes_equal_multiplexing_gain(case):
    # The high-SNR pinch: both bounds grow like the leave-one-out gain
    # (v/2) prod_{k != i} (1 - v_k/u), however weak the cross gains.
    scen, counts, user = case
    profs = [HoppingProfile.fixed(v) for v in counts]
    s_formula = per_user_gains(counts, scen.n_subbands)[user]
    ub = upper_bound_rate(scen, profs, user)
    lb = lower_bound_rate(scen, profs, user)
    assert ub.slope_bits_per_log2snr == pytest.approx(s_formula, rel=1e-12)
    assert lb.slope_bits_per_log2snr == pytest.approx(s_formula, rel=1e-12)


def test_zero_cross_gains_upper_bound_is_awgn():
    # Interferers with no gain to the user leave every band free, so both
    # bounds and the mutual information are the AWGN rate (v/2) log2(1 + 100/v).
    scen = scenario(2, 2, np.eye(2), 100.0)
    profs = [HoppingProfile.fixed(1)] * 2
    awgn = 0.5 * math.log2(101.0)
    ub = upper_bound_rate(scen, profs, 0)
    assert ub.value_bits == pytest.approx(awgn, rel=1e-12)
    assert ub.slope_bits_per_log2snr == 0.5 and ub.residual_bits == 0.0
    assert lower_bound_rate(scen, profs, 0).value_bits == pytest.approx(awgn, rel=1e-12)
    mi, se = mc_mutual_information(scen, profs, 0, 20000, seed=1)
    assert abs(mi - awgn) <= 4 * se


def test_upper_bound_averages_every_spectrum_level():
    # the increment g^2 = 1e-340 underflows to 0, so the spectrum holds
    # the one level c = 0 while multiplexing_gain still counts the
    # interferer; the value stays the per-band rate averaged over the
    # spectrum, the AWGN rate, and does not fall below the lower bound
    scen = scenario(2, 2, [[1.0, 1e-170], [1e-170, 1.0]], 1e300)
    profs = [HoppingProfile.fixed(1)] * 2
    awgn = 0.5 * math.log2(1.0 + 1e300)
    ub = upper_bound_rate(scen, profs, 0)
    assert ub.value_bits == pytest.approx(awgn, rel=1e-12)
    assert lower_bound_rate(scen, profs, 0).value_bits == pytest.approx(awgn, rel=1e-12)


@st.composite
def sandwich_cases(draw):
    """Small fixed-hop scenarios whose cross gains are often exactly 0."""
    n = draw(st.integers(2, 3))
    u = draw(st.integers(1, 3))
    cross = st.one_of(st.just(0.0), st.floats(-3.0, 0.5).map(lambda e: 10.0**e))
    gains = [
        [draw(st.floats(0.5, 2.0)) if i == k else draw(cross) for i in range(n)]
        for k in range(n)
    ]
    counts = [draw(st.integers(0, u)) for _ in range(n)]
    power = 10.0 ** draw(st.floats(0.0, 4.0))
    return scenario(n, u, gains, power), counts, draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sandwich_cases())
def test_bounds_sandwich_mutual_information(case):
    # UB >= MI >= LB, with MI estimated by Monte Carlo (4 SE)
    scen, counts, user = case
    profs = [HoppingProfile.fixed(v) for v in counts]
    mi, se = mc_mutual_information(scen, profs, user, 20000, seed=5)
    ub = upper_bound_rate(scen, profs, user).value_bits
    lb = lower_bound_rate(scen, profs, user).value_bits
    assert lb - 4 * se - 1e-12 <= mi <= ub + 4 * se + 1e-12


def test_expected_free_subbands_with_pmf_interferer():
    profs = [
        HoppingProfile.fixed(2),
        HoppingProfile.from_pmf((0.5, 0.0, 0.0, 0.0, 0.5)),
    ]
    # Interferer occupies a given band with probability mean_v/u = 1/2, so
    # the user's two sub-bands keep 2 * 1/2 = 1 free on average.
    assert 2 * per_user_gains(mean_counts(profs), 4)[0] == pytest.approx(1.0)


def test_lower_bound_value_identity():
    # value = slope * log2(gamma) + residual, exactly, at every SNR.
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        u = int(rng.integers(2, 5))
        gains = np.exp(rng.normal(size=(n, n)) * 0.3)
        gamma = float(10 ** rng.uniform(1, 8))
        scen = scenario(n, u, gains, gamma)
        profs = [HoppingProfile.fixed(int(rng.integers(1, u + 1))) for _ in range(n)]
        lb = lower_bound_rate(scen, profs, 0)
        recon = lb.slope_bits_per_log2snr * math.log2(gamma) + lb.residual_bits
        assert lb.value_bits == pytest.approx(recon, rel=1e-12, abs=1e-12)


def test_bounds_monotone_in_snr():
    profs = [HoppingProfile.fixed(1)] * 3
    prev_ub = prev_lb = -math.inf
    for gamma in (1.0, 10.0, 100.0, 1e4, 1e6):
        scen = unit(3, 4, gamma)
        ub = upper_bound_rate(scen, profs, 0).value_bits
        lb = lower_bound_rate(scen, profs, 0).value_bits
        assert ub > prev_ub and lb > prev_lb
        assert lb <= ub
        prev_ub, prev_lb = ub, lb


def test_upper_bound_residual_saturates():
    profs = [HoppingProfile.fixed(1)] * 3
    r6 = upper_bound_rate(unit(3, 4, 1e6), profs, 0).residual_bits
    r8 = upper_bound_rate(unit(3, 4, 1e8), profs, 0).residual_bits
    assert abs(r8 - r6) <= 0.05
    # Growth between the two SNRs is the slope to within the residual drift.
    v6 = upper_bound_rate(unit(3, 4, 1e6), profs, 0).value_bits
    v8 = upper_bound_rate(unit(3, 4, 1e8), profs, 0).value_bits
    slope_hat = (v8 - v6) / (math.log2(1e8) - math.log2(1e6))
    assert slope_hat == pytest.approx(0.28125, abs=0.01)


def regulated_rate(scenario, user, n_active, v_star):
    """Distribution-free guaranteed rate when n_active users all follow a
    common hop count v_star: the worst case of the entropy-power bound for
    the symmetric policy, where only the interferer count and the user's
    incoming gains enter. The tests below compare lower_bound_rate with it."""
    u = scenario.n_subbands
    gamma = scenario.snr()
    h2_own = float(scenario.gains[user, user]) ** 2
    h2_in = sum(
        float(scenario.gains[j, user]) ** 2 for j in range(scenario.n_users) if j != user
    )
    ratio = v_star / u
    m = n_active - 1
    # spread = 2^(-2H) for H = m binary-entropy bits; 0^0 = 1 covers the
    # v_star = u and n_active = 1 corners.
    spread = ratio ** (2.0 * m * ratio) * (1.0 - ratio) ** (2.0 * m * (1.0 - ratio))
    a0_sym = (1.0 - ratio) ** m
    denom = v_star * (1.0 + h2_in * gamma / v_star) ** (1.0 - a0_sym)
    return 0.5 * v_star * math.log2(spread * h2_own * gamma / denom + 1.0)


def test_regulated_equals_lower_bound_distinct_gains():
    # Symmetric policy, distinct cross gains: no level merging, and the
    # distribution-free guarantee is tight against the exact lower bound.
    gains = np.array(
        [
            [1.1, 0.9, 0.6],
            [1.3, 1.0, 0.8],
            [0.7, 0.5, 1.2],
        ]
    )
    for gamma in (10.0, 1e3, 1e6):
        scen = scenario(3, 4, gains, gamma)
        profs = [HoppingProfile.fixed(2)] * 3
        lb = lower_bound_rate(scen, profs, 0)
        reg = regulated_rate(scen, 0, 3, 2.0)
        assert reg == pytest.approx(lb.value_bits, rel=1e-12)


def test_regulated_below_lower_bound_with_merged_levels():
    # Equal gains collapse levels, the exact spectrum entropy drops below
    # the distribution-free worst case, and the guarantee goes strict.
    scen = unit(3, 4, 1e4)
    profs = [HoppingProfile.fixed(2)] * 3
    lb = lower_bound_rate(scen, profs, 0)
    reg = regulated_rate(scen, 0, 3, 2.0)
    assert reg < lb.value_bits - 1e-6


def test_regulated_corners():
    # v_star = u: the 0^0 corner does not blow up, and with every band hit
    # the guarantee is the exact lower bound
    distinct = [[1.1, 0.9, 0.6], [1.3, 1.0, 0.8], [0.7, 0.5, 1.2]]
    for n, gains in ((2, np.ones((2, 2))), (3, distinct)):
        scen = scenario(n, 4, gains, 100.0)
        val = regulated_rate(scen, 0, n, 4.0)
        assert math.isfinite(val) and val > 0
        lb = lower_bound_rate(scen, [HoppingProfile.fixed(4)] * n, 0)
        assert val == pytest.approx(lb.value_bits, rel=1e-12)


def test_zero_hop_user():
    scen = unit(2, 2, 100.0)
    profs = [HoppingProfile.fixed(0), HoppingProfile.fixed(1)]
    for fn in (upper_bound_rate, lower_bound_rate):
        rb = fn(scen, profs, 0)
        assert rb.value_bits == 0.0 and rb.slope_bits_per_log2snr == 0.0
    assert mc_mutual_information(scen, profs, 0, 1000, seed=1) == (0.0, 0.0)


def test_enumeration_guards(monkeypatch):
    scen = unit(4, 6, 100.0)
    profs = [HoppingProfile.fixed(3)] * 4
    monkeypatch.setattr(bounds, "MAX_REALIZATIONS", 10)
    with pytest.raises(ValueError, match="enumeration budget \\(10\\)"):
        upper_bound_rate(scen, profs, 0)
    monkeypatch.setattr(bounds, "MAX_MC_COMPONENTS", 10)
    with pytest.raises(ValueError, match="enumeration budget \\(10\\)"):
        mc_mutual_information(scen, profs, 0, 1000, seed=1)
    with pytest.raises(ValueError):
        upper_bound_rate(
            scen, [HoppingProfile.from_pmf([0.5] + [0] * 5 + [0.5])] * 4, 0
        )


def test_mc_awgn_reference():
    scen = unit(1, 1, 10.0)
    profs = [HoppingProfile.fixed(1)]
    mi, se = mc_mutual_information(scen, profs, 0, 200000, seed=11)
    assert se < 0.02
    assert abs(mi - 0.5 * math.log2(11.0)) < 4 * se


def test_mc_thread_determinism():
    scen = unit(2, 2, 1e4)
    profs = [HoppingProfile.fixed(1)] * 2
    a = mc_mutual_information(scen, profs, 0, 150000, seed=9, threads=1)
    b = mc_mutual_information(scen, profs, 0, 150000, seed=9, threads=4)
    assert a == b


def test_mc_sandwiched_by_bounds():
    scen = unit(2, 2, 1e4)
    profs = [HoppingProfile.fixed(1)] * 2
    mi, se = mc_mutual_information(scen, profs, 0, 300000, seed=2)
    lb = lower_bound_rate(scen, profs, 0).value_bits
    ub = upper_bound_rate(scen, profs, 0).value_bits
    assert lb - 4 * se <= mi <= ub + 4 * se


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sandwich_cases())
def test_rate_bound_splits_into_slope_and_residual(case):
    # value = slope * log2(s) + residual, with s = gamma for the lower
    # bound and s = 1 + |h|^2 gamma / v for the upper bound
    scen, counts, user = case
    profs = [HoppingProfile.fixed(v) for v in counts]
    ub = upper_bound_rate(scen, profs, user)
    lb = lower_bound_rate(scen, profs, user)
    v = counts[user]
    if v == 0:
        assert ub == lb == bounds.RateBound(0.0, 0.0, 0.0)
        return
    assert ub.slope_bits_per_log2snr == multiplexing_gain(scen, profs, user)
    gamma = scen.snr()
    h2 = float(scen.gains[user, user]) ** 2
    for bound, s in ((lb, gamma), (ub, 1.0 + h2 * gamma / v)):
        rebuilt = bound.slope_bits_per_log2snr * math.log2(s) + bound.residual_bits
        assert rebuilt == pytest.approx(bound.value_bits, rel=1e-12, abs=0.0)


def reference_upper_bound(scen, counts, user):
    """The upper bound as a placement average: the single-slot rate
    sum_{j<v} (1/2) log2(1 + |h|^2 P / (v (d_j + sigma^2))) over the user's
    hit bands, averaged over every joint interferer placement on its v
    sub-bands, plus the slope term. Returns (value, residual)."""
    v = counts[user]
    if v == 0:
        return 0.0, 0.0
    power, sigma2 = scen.total_power, scen.noise_power
    others = [k for k in range(scen.n_users) if k != user and counts[k] >= 1]
    amps = np.array([power * float(scen.gains[k, user]) ** 2 / counts[k] for k in others])
    w, d = bounds._interference_realizations(
        scen.n_subbands, [counts[k] for k in others], amps, v
    )
    h2 = float(scen.gains[user, user]) ** 2
    with np.errstate(divide="ignore"):
        per_band = 0.5 * np.log2(1.0 + h2 * power / (v * (d + sigma2)))
    residual = float((w * np.where(d > 0.0, per_band, 0.0).sum(axis=1)).sum())
    profs = [HoppingProfile.fixed(c) for c in counts]
    slope = multiplexing_gain(scen, profs, user)
    return slope * math.log2(1.0 + h2 * scen.snr() / v) + residual, residual


@st.composite
def placement_cases(draw):
    """Fixed hop counts 0..u (often above 1) with cross gains that are 0,
    1e-12 or up to 3."""
    n = draw(st.integers(2, 5))
    u = draw(st.integers(1, 6))
    cross = st.one_of(
        st.just(0.0), st.just(1e-12), st.floats(-3.0, 0.5).map(lambda e: 10.0**e)
    )
    gains = [
        [draw(st.floats(0.5, 2.0)) if i == k else draw(cross) for i in range(n)]
        for k in range(n)
    ]
    counts = [draw(st.integers(0, u)) for _ in range(n)]
    power = 10.0 ** draw(st.floats(-1.0, 6.0))
    return scenario(n, u, gains, power), counts, draw(st.integers(0, n - 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(placement_cases())
def test_upper_bound_is_the_placement_average(case):
    # v times the one-sub-band expectation over the spectrum equals the
    # average over every joint placement of the user's v sub-bands
    scen, counts, user = case
    profs = [HoppingProfile.fixed(c) for c in counts]
    ub = upper_bound_rate(scen, profs, user)
    value, residual = reference_upper_bound(scen, counts, user)
    assert ub.value_bits == pytest.approx(value, rel=1e-12, abs=0.0)
    assert ub.residual_bits == pytest.approx(residual, rel=1e-12, abs=0.0)


def reference_realizations(u, hop_counts, amps, n_coords):
    """_interference_realizations with a per-subset loop for each
    interferer's occupancy and the patterns deduplicated every round."""
    constant = np.array([v_k >= u for v_k in hop_counts], dtype=np.int64)
    hopping = [t for t, v_k in enumerate(hop_counts) if 0 < v_k < u]
    patterns = np.zeros((1, n_coords), dtype=np.int64)
    weights = np.array([1.0])
    for bit, t in enumerate(hopping):
        subsets = list(itertools.combinations(range(u), hop_counts[t]))
        occ = np.zeros((len(subsets), n_coords), dtype=np.int64)
        for s_idx, subset in enumerate(subsets):
            for j in subset:
                if j < n_coords:
                    occ[s_idx, j] = 1
        merged = (patterns[:, None, :] + (occ[None, :, :] << bit)).reshape(-1, n_coords)
        w_new = np.repeat(weights, len(subsets)) / len(subsets)
        patterns, inverse = np.unique(merged, axis=0, return_inverse=True)
        weights = np.bincount(
            inverse.reshape(-1), weights=w_new, minlength=patterns.shape[0]
        )
    bits = np.broadcast_to(constant, patterns.shape + constant.shape).copy()
    bits[:, :, hopping] = (patterns[:, :, None] >> np.arange(len(hopping))) & 1
    power = bits @ np.asarray(amps, dtype=float)
    return weights, power


@st.composite
def placement_laws(draw):
    """(u, hop counts 0..u, per-sub-band powers) of 0-4 interferers whose
    joint placements number at most 5000."""
    u = draw(st.integers(1, 6))
    counts = draw(
        st.lists(st.integers(0, u), max_size=4).filter(
            lambda cs: math.prod(math.comb(u, v) for v in cs) <= 5000
        )
    )
    amps = draw(st.lists(st.floats(0.0, 1e3), min_size=len(counts), max_size=len(counts)))
    return u, counts, np.array(amps)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(placement_laws())
@example((8, [2, 3], np.array([50.0, 30.0])))
@example((3, [], np.array([])))
@example((2, [2, 0, 1], np.array([1.0, 2.0, 3.0])))
def test_placement_law_on_every_sub_band_keeps_every_bit(case):
    # n_coords == u: each pattern holds every interferer's whole subset, so
    # no two placements merge and the rows, their order and the weights
    # are the same bits
    u, counts, amps = case
    w, d = bounds._interference_realizations(u, counts, amps, u)
    w_ref, d_ref = reference_realizations(u, counts, amps, u)
    assert w.tobytes() == w_ref.tobytes()
    assert d.shape == d_ref.shape and d.tobytes() == d_ref.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(placement_laws(), st.data())
def test_placement_law_on_fewer_sub_bands_merges_the_same_rows(case, data):
    # n_coords < u: placements that agree on the first n_coords sub-bands
    # merge, their weights summed in another order
    u, counts, amps = case
    n_coords = data.draw(st.integers(1, u))
    w, d = bounds._interference_realizations(u, counts, amps, n_coords)
    w_ref, d_ref = reference_realizations(u, counts, amps, n_coords)
    assert d.shape == d_ref.shape and d.tobytes() == d_ref.tobytes()
    np.testing.assert_array_max_ulp(w, w_ref, maxulp=8)


@pytest.mark.parametrize("u, counts", [(6, [2, 2]), (6, [2, 3, 4]), (6, [3, 4, 4])])
def test_placement_law_on_one_sub_band_merges_many_placements_accurately(u, counts):
    # up to 4500 placements merge into a few rows; their equal weights added
    # one by one drifted 21 to 174 ulp from the reference
    w, d = bounds._interference_realizations(u, counts, np.ones(len(counts)), 1)
    w_ref, d_ref = reference_realizations(u, counts, np.ones(len(counts)), 1)
    assert d.tobytes() == d_ref.tobytes()
    np.testing.assert_array_max_ulp(w, w_ref, maxulp=8)


def test_more_than_64_interferers():
    # users 0-65 hop on both of u = 2 sub-bands, user 66 on one of them; at
    # user 0 the 65 always-on interferers add 65 * 10 * 0.01 / 2 = 3.25 to
    # both bands and user 66 adds 10 to one of them
    n = 67
    gains = np.full((n, n), 0.1)
    np.fill_diagonal(gains, 1.0)
    gains[66, 0] = 1.0
    scen = scenario(n, 2, gains, 10.0)
    profs = [HoppingProfile.fixed(2)] * 66 + [HoppingProfile.fixed(1)]
    hand = 0.5 * math.log2(1 + 5 / 14.25) + 0.5 * math.log2(1 + 5 / 4.25)
    ub = upper_bound_rate(scen, profs, 0)
    assert ub.value_bits == pytest.approx(hand, rel=1e-12)
    assert ub.slope_bits_per_log2snr == 0.0

    amps = np.array([0.05] * 65 + [10.0])
    w, d = bounds._interference_realizations(2, [2] * 65 + [1], amps, 2)
    assert w.tolist() == [0.5, 0.5]
    np.testing.assert_allclose(d, [[3.25, 13.25], [13.25, 3.25]], rtol=1e-12)

    mi, se = mc_mutual_information(scen, profs, 0, 20000, seed=3)
    lb = lower_bound_rate(scen, profs, 0).value_bits
    assert lb - 4 * se <= mi <= ub.value_bits + 4 * se


def binary_power_scenario(m):
    """User 0 on one of u = 2 sub-bands with m interferers on one each,
    whose hit powers at user 0 are 1, 2, ..., 2^(m-1): the 2^m placements
    give the 2^m distinct levels s = 0 .. 2^m - 1, and with P = sigma^2 = 1
    the placement average (1/2) mean_s log2((s + 2)/(s + 1)) telescopes to
    (1/2) log2(2^m + 1) / 2^m."""
    n = m + 1
    gains = np.ones((n, n))
    gains[1:, 0] = np.sqrt(2.0 ** np.arange(m))
    scen = scenario(n, 2, gains, 1.0)
    return scen, [1] * n, 0.5 * math.log2(2**m + 1) / 2**m


def test_upper_bound_serves_its_whole_placement_budget():
    # With fixed hop counts a convolution round's grid holds at most 2^m
    # cells for m interferers, who make at least 2^m placements, so the
    # round budget covers every placement count the domain check admits.
    assert 2 ** int(math.log2(bounds.MAX_REALIZATIONS)) <= model.MAX_ROUND_CELLS
    scen, counts, hand = binary_power_scenario(11)
    profs = [HoppingProfile.fixed(v) for v in counts]
    value, _ = reference_upper_bound(scen, counts, 0)
    assert value == pytest.approx(hand, rel=1e-12, abs=0.0)
    assert upper_bound_rate(scen, profs, 0).value_bits == pytest.approx(hand, rel=1e-12, abs=0.0)
    # 22 interferers: 2^22 placements, inside MAX_REALIZATIONS, and a last
    # round of 2^21 x 2 cells
    scen, counts, hand = binary_power_scenario(22)
    profs = [HoppingProfile.fixed(v) for v in counts]
    ub = upper_bound_rate(scen, profs, 0)
    assert ub.value_bits == pytest.approx(hand, rel=1e-12, abs=0.0)
    assert ub.slope_bits_per_log2snr == 0.5 * 0.5**22


THREE_USERS = scenario(
    3, 4, [[1.0, 0.9, 0.8], [0.7, 1.0, 0.6], [0.5, 0.4, 1.0]], 10.0, 2.0
)


def mc_1000(scen, profs, user):
    return mc_mutual_information(scen, profs, user, 1000, seed=1)


@pytest.mark.parametrize("user", [-1, 3], ids=["neg", "N"])
@pytest.mark.parametrize(
    "fn",
    [upper_bound_rate, lower_bound_rate, mc_1000, multiplexing_gain],
    ids=["upper", "lower", "mc", "slope"],
)
def test_bounds_reject_a_user_index_out_of_range(fn, user):
    # -1 used to count the last user as its own interferer (upper bound
    # 0.9423 bits where user 2 has 0.9659) and 3 raised IndexError
    profs = [HoppingProfile.fixed(v) for v in (1, 2, 1)]
    with pytest.raises(ValueError, match="out of range") as info:
        fn(THREE_USERS, profs, user)
    assert not isinstance(info.value, bounds.NotApplicable)
    with pytest.raises(ValueError, match="one profile per user"):
        fn(THREE_USERS, profs[:2], 0)


def test_not_applicable_marks_each_bound_hypothesis(monkeypatch):
    pmf = HoppingProfile.from_pmf([0.5, 0.5, 0.0, 0.0, 0.0])
    mixed = [HoppingProfile.fixed(1), HoppingProfile.fixed(2), pmf]
    for fn in (upper_bound_rate, mc_1000):
        with pytest.raises(bounds.NotApplicable, match="fixed hop counts"):
            fn(THREE_USERS, mixed, 0)
    with pytest.raises(bounds.NotApplicable, match="fixed hop count"):
        lower_bound_rate(THREE_USERS, mixed, 2)
    # the lower bound only needs the target user's hop count fixed
    assert lower_bound_rate(THREE_USERS, mixed, 0).value_bits > 0.0
    fixed = [HoppingProfile.fixed(v) for v in (1, 2, 1)]
    monkeypatch.setattr(bounds, "MAX_REALIZATIONS", 10)
    with pytest.raises(bounds.NotApplicable, match="enumeration budget"):
        upper_bound_rate(THREE_USERS, fixed, 0)
    # a hop count above u is an input error, not a failed hypothesis
    with pytest.raises(ValueError, match="more than u=2") as info:
        upper_bound_rate(unit(2, 2, 10.0), [HoppingProfile.fixed(1), HoppingProfile.fixed(3)], 0)
    assert not isinstance(info.value, bounds.NotApplicable)


MISFITS = {
    # user 0 hops on v sub-bands of u = 4 beside these profiles
    "v_above_u": [HoppingProfile.fixed(9)],
    "pmf_length": [HoppingProfile.from_pmf([0.0, 1.0])],
    "one_too_few": [],
}

ENTRY_POINTS = {
    "spectrum": (1, model.enumerate_interference_spectrum),
    "law": (1, model.interference_law),
    "slope": (1, multiplexing_gain),
    "upper": (1, upper_bound_rate),
    "lower_v0": (0, lower_bound_rate),
    "lower_v1": (1, lower_bound_rate),
    "mc": (1, mc_1000),
    "samples": (1, lambda scen, profs, user: sim.sample_received(scen, profs, user, 100, 1)),
    "sim_config": (1, lambda scen, profs, user: sim.SimConfig(scen, profs, 10, 1)),
}


@pytest.mark.parametrize("misfit", MISFITS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_profiles_that_do_not_fit(entry, misfit):
    # One gate, model.check_profiles, before any NotApplicable. Without it
    # multiplexing_gain gave 0.375 for the short pmf, lower_bound_rate 0
    # bits for a v = 0 user beside v = 9, and the upper bound and Monte
    # Carlo called the short pmf a failed hypothesis.
    v, fn = ENTRY_POINTS[entry]
    profs = [HoppingProfile.fixed(v)] + MISFITS[misfit]
    with pytest.raises(ValueError) as info:
        fn(unit(2, 4, 10.0), profs, 0)
    assert not isinstance(info.value, bounds.NotApplicable)


def test_placement_budget_is_exact(monkeypatch):
    # three interferers on C(6, 3) = 20 subsets each: 8000 placements
    scen = unit(4, 6, 10.0)
    profs = [HoppingProfile.fixed(3)] * 4
    monkeypatch.setattr(bounds, "MAX_REALIZATIONS", 8000)
    upper_bound_rate(scen, profs, 0)
    monkeypatch.setattr(bounds, "MAX_REALIZATIONS", 7999)
    with pytest.raises(bounds.NotApplicable, match="enumeration budget \\(7999\\)"):
        upper_bound_rate(scen, profs, 0)


def test_placement_budget_stops_early_on_a_huge_band():
    # C(10**7, 5 * 10**6) has three million digits: the check stops as
    # soon as the running product passes the budget
    scen = unit(2, 10**7, 10.0)
    profs = [HoppingProfile.fixed(5 * 10**6)] * 2
    for fn in (upper_bound_rate, mc_1000):
        with pytest.raises(bounds.NotApplicable, match="enumeration budget"):
            fn(scen, profs, 0)


@pytest.mark.parametrize("fn", [upper_bound_rate, lower_bound_rate], ids=["upper", "lower"])
def test_bounds_take_the_users_spectrum_only(fn):
    profs = [HoppingProfile.fixed(v) for v in (1, 2, 1)]
    spectrum = model.enumerate_interference_spectrum(THREE_USERS, profs, 0)
    assert fn(THREE_USERS, profs, 0, spectrum=spectrum) == fn(THREE_USERS, profs, 0)
    wrong = [
        model.enumerate_interference_spectrum(THREE_USERS, profs, 1),
        model.interference_law(THREE_USERS, profs, 0).spectrum(2.0, 20.0),
        model.interference_law(THREE_USERS, profs, 0).spectrum(1.0, 10.0),
    ]
    for other in wrong:
        with pytest.raises(ValueError, match="is not user 0's") as info:
            fn(THREE_USERS, profs, 0, spectrum=other)
        assert not isinstance(info.value, bounds.NotApplicable)


def test_slopes_agree_when_a_squared_gain_underflows():
    # 1e-170 squared is 0.0, so the spectrum pools the interferer into
    # the free level; multiplexing_gain counts its hop as no hop, and the
    # two slopes meet at 0.5 where the upper bound's used to read 0.25.
    scen = scenario(2, 2, [[1.0, 1e-170], [1e-170, 1.0]], 1e300)
    profs = [HoppingProfile.fixed(1)] * 2
    ub = upper_bound_rate(scen, profs, 0)
    lb = lower_bound_rate(scen, profs, 0)
    assert ub.slope_bits_per_log2snr == lb.slope_bits_per_log2snr == 0.5
    assert multiplexing_gain(scen, profs, 0) == 0.5
    assert ub.value_bits == pytest.approx(lb.value_bits, rel=1e-12)


def test_multiplexing_gain_drops_only_the_hops_whose_increment_underflows():
    # |g|^2 is two of the smallest subnormals: |g|^2 / v is above 0 for
    # v <= 3 and 0.0 for v = 5, so only the pmf's v = 5 hops leave the
    # user's band free, as in the spectrum's a0.
    g = math.sqrt(2.0**-1073)
    assert g * g / 3 > 0.0 and g * g / 5 == 0.0
    scen = scenario(2, 5, [[1.0, g], [g, 1.0]], 10.0)
    profs = [HoppingProfile.fixed(1), HoppingProfile.from_pmf([0.0, 0.3, 0.0, 0.0, 0.0, 0.7])]
    a0 = model.enumerate_interference_spectrum(scen, profs, 0).a0
    assert a0 == pytest.approx(1.0 - 0.3 / 5, rel=1e-15)
    assert multiplexing_gain(scen, profs, 0) == pytest.approx(0.5 * a0, rel=1e-15)
    assert lower_bound_rate(scen, profs, 0).slope_bits_per_log2snr == 0.5 * a0
