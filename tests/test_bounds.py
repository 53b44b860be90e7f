"""Rate bounds: hand-computed values, structural identities, MC sandwich."""
import math

import numpy as np
import pytest

from fhshare.bounds import (
    lower_bound_rate,
    mc_mutual_information,
    regulated_rate,
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
        ub = upper_bound_rate(scen, profs, user, slope_only=True)
        lb = lower_bound_rate(scen, profs, user)
        assert ub.slope_bits_per_log2snr == pytest.approx(s_formula, rel=1e-12)
        assert lb.slope_bits_per_log2snr == pytest.approx(s_formula, rel=1e-12)
        assert math.isnan(ub.value_bits) and math.isnan(ub.residual_bits)


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
    scen = unit(2, 4, 100.0)
    # v_star = u: the 0^0 corner must not blow up.
    val = regulated_rate(scen, 0, 2, 4.0)
    assert math.isfinite(val) and val > 0
    with pytest.raises(ValueError):
        regulated_rate(scen, 0, 0, 1.0)
    with pytest.raises(ValueError):
        regulated_rate(scen, 0, 2, 0.0)
    with pytest.raises(ValueError):
        regulated_rate(scen, 0, 2, 5.0)


def test_zero_hop_user():
    scen = unit(2, 2, 100.0)
    profs = [HoppingProfile.fixed(0), HoppingProfile.fixed(1)]
    for fn in (upper_bound_rate, lower_bound_rate):
        rb = fn(scen, profs, 0)
        assert rb.value_bits == 0.0 and rb.slope_bits_per_log2snr == 0.0
    assert mc_mutual_information(scen, profs, 0, 1000, seed=1) == (0.0, 0.0)


def test_enumeration_guards():
    scen = unit(4, 6, 100.0)
    profs = [HoppingProfile.fixed(3)] * 4
    with pytest.raises(ValueError, match="slope_only"):
        upper_bound_rate(scen, profs, 0, max_realizations=10)
    rb = upper_bound_rate(scen, profs, 0, slope_only=True)
    assert math.isnan(rb.value_bits)
    with pytest.raises(ValueError):
        mc_mutual_information(scen, profs, 0, 1000, seed=1, max_components=10)
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
