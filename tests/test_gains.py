"""Multiplexing gain formulas, hop samplers, and the 1-D maximizer."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhshare.gains import (
    _leave_one_out_products,
    integer_hop_mixture,
    maximize_on_interval,
    per_user_gains,
    sample_occupancy,
    smg_fair,
    two_generator_profile,
    v_opt,
)
from fhshare.model import HoppingProfile


def test_per_user_gains_hand_values():
    g = per_user_gains([1.0, 1.0], 2.0)
    np.testing.assert_allclose(g, [0.25, 0.25])
    g3 = per_user_gains([1.0, 1.0, 1.0], 4.0)
    np.testing.assert_allclose(g3, [0.5 * (0.75) ** 2] * 3)
    assert per_user_gains([1.0, 1.0, 1.0], 4.0).sum() == pytest.approx(3 * 0.28125)
    assert per_user_gains((1.0, 1.0), 2.0).sum() == pytest.approx(0.5)


def test_per_user_gains_with_zero_factor():
    # One user holding the whole band zeroes everyone else's gain.
    g = per_user_gains([2.0, 1.0, 1.0], 2.0)
    assert g[0] == pytest.approx(0.25)  # (2/2)*(1-1/2)^2 * ... = 1*(0.5*0.5)/2
    assert g[1] == 0.0 and g[2] == 0.0
    with pytest.raises(ValueError):
        per_user_gains([3.0], 2.0)
    with pytest.raises(ValueError):
        per_user_gains([-0.5], 2.0)


def reference_leave_one_out_products(factors):
    """_leave_one_out_products as an index loop over prefix and suffix."""
    n = factors.size
    prefix = np.ones(n + 1)
    suffix = np.ones(n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] * factors[i]
        suffix[n - 1 - i] = suffix[n - i] * factors[n - 1 - i]
    return prefix[:n] * suffix[1:]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-150)),
        min_size=1,
        max_size=12,
    )
)
@example([0.3])
@example([0.0])
@example([0.0, 0.5, 0.0, 0.25])
def test_leave_one_out_products_keep_every_bit(factors):
    # zero factors, n = 1 and products that underflow included
    arr = np.array(factors)
    got = _leave_one_out_products(arr)
    assert got.dtype == np.float64 and got.shape == arr.shape
    assert got.tobytes() == reference_leave_one_out_products(arr).tobytes()


def test_smg_sum_consistency_randomized():
    # the summed gains against sum_i (vbar_i/2) prod_{k != i}(1 - vbar_k/u)
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        u = float(rng.uniform(1.0, 20.0))
        vbar = rng.uniform(0.0, u, size=n)
        direct = sum(
            0.5 * vbar[i] * math.prod(1.0 - vbar[k] / u for k in range(n) if k != i)
            for i in range(n)
        )
        assert per_user_gains(vbar, u).sum() == pytest.approx(direct, rel=1e-12)


def test_smg_affine_in_each_coordinate():
    rng = np.random.default_rng(21)
    u = 10.0
    vbar = rng.uniform(0.0, u, size=4)
    for i in range(4):
        d = 0.7
        vals = []
        for shift in (-d, 0.0, d):
            w = vbar.copy()
            w[i] = np.clip(w[i] + shift, 0.0, u)
            vals.append(per_user_gains(w, u).sum())
        if 0.0 + d <= vbar[i] <= u - d:
            assert vals[0] + vals[2] - 2 * vals[1] == pytest.approx(0.0, abs=1e-12)


def test_smg_scale_invariance():
    vbar = np.array([1.0, 2.5, 0.5])
    u = 8.0
    s = 3.0
    scaled = per_user_gains(vbar * s, u * s).sum()
    assert scaled == pytest.approx(s * per_user_gains(vbar, u).sum(), rel=1e-12)


def test_smg_fair_and_optimum():
    assert smg_fair(1.0, 3, 4.0) == pytest.approx(3 * 0.28125)
    assert smg_fair(4.0, 3, 4.0) == 0.0
    assert smg_fair(0.0, 3, 4.0) == 0.0
    for n in (1, 2, 3, 7, 25):
        u = 11.0
        vo = v_opt(n, u)
        assert vo == pytest.approx(u / n)
        grid = np.linspace(0.0, u, 10001)
        vals = np.array([smg_fair(v, n, u) for v in grid])
        assert smg_fair(v_opt(n, u), n, u) >= vals.max() - 1e-12
        assert abs(grid[np.argmax(vals)] - vo) <= u / 10000 + 1e-12
    assert smg_fair(v_opt(1, 6.0), 1, 6.0) == pytest.approx(3.0)


def test_integer_hop_mixture():
    assert integer_hop_mixture(2.0, 8.0) == (2, 3, 1.0)
    floor, ceil, mu = integer_hop_mixture(10.0 / 3.0, 8.0)
    assert (floor, ceil) == (3, 4)
    assert mu == pytest.approx(4.0 - 10.0 / 3.0)
    assert mu * floor + (1 - mu) * ceil == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert integer_hop_mixture(0.0, 4.0) == (0, 1, 1.0)
    with pytest.raises(ValueError):
        integer_hop_mixture(9.0, 8.0)


def test_two_generator_profile():
    prof = two_generator_profile(10.0 / 3.0, 8)
    assert isinstance(prof, HoppingProfile)
    assert prof.mean_v() == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert len(prof.pmf) == 9
    prof_int = two_generator_profile(2.0, 8)
    assert prof_int.pmf[2] == 1.0


def test_sample_occupancy_fixed():
    rng = np.random.default_rng(13)
    u, n_slots, v = 5, 20000, 2
    occ, counts = sample_occupancy(HoppingProfile.fixed(v), u, rng, n_slots)
    assert occ.shape == (n_slots, u)
    assert np.all(counts == v)
    assert np.all(occ.sum(axis=1) == v)
    p_hat = occ.mean(axis=0)
    se = math.sqrt((v / u) * (1 - v / u) / n_slots)
    np.testing.assert_allclose(p_hat, v / u, atol=4 * se)


def test_sample_occupancy_pmf():
    rng = np.random.default_rng(14)
    u, n_slots = 3, 30000
    w = (0.2, 0.3, 0.0, 0.5)
    occ, counts = sample_occupancy(HoppingProfile.from_pmf(w), u, rng, n_slots)
    assert np.all(occ.sum(axis=1) == counts)
    for v, wv in enumerate(w):
        frac = (counts == v).mean()
        se = math.sqrt(max(wv * (1 - wv), 1e-12) / n_slots)
        assert abs(frac - wv) <= 4 * se + 1e-12
    mean_occ = occ.mean()
    expect = sum(v * wv for v, wv in enumerate(w)) / u
    assert abs(mean_occ - expect) <= 4 * math.sqrt(0.25 / n_slots)


@pytest.mark.parametrize(
    "profile",
    [
        HoppingProfile.fixed(3),
        HoppingProfile.from_pmf((0.3, 0.1, 0.0, 0.2, 0.4)),  # mass at 0 and at u
        HoppingProfile.fixed(0),
        HoppingProfile.fixed(4),  # v = u
        HoppingProfile.fixed(1),
        HoppingProfile.from_pmf((0.5, 0.0, 0.0, 0.0, 0.5)),  # only 0 and u
    ],
)
def test_sample_occupancy_keeps_the_v_smallest_scores(profile):
    # same stream, same subset: the sub-bands whose scores rank below v
    u, n_slots = 4, 5000
    occ, counts = sample_occupancy(profile, u, np.random.default_rng(21), n_slots)
    rng = np.random.default_rng(21)
    if not profile.is_fixed:
        want_counts = rng.choice(u + 1, size=n_slots, p=np.array(profile.pmf))
        np.testing.assert_array_equal(counts, want_counts)
    else:
        np.testing.assert_array_equal(counts, np.full(n_slots, profile.fixed_v))
    ranks = np.argsort(np.argsort(rng.random((n_slots, u)), axis=1), axis=1)
    assert occ.dtype == bool and occ.shape == (n_slots, u)
    np.testing.assert_array_equal(occ, ranks < counts[:, None])


class QuantizedScores:
    """A generator whose scores take only `levels` values, so equal scores
    often straddle a row's v-th smallest one."""

    def __init__(self, seed, levels):
        self._rng = np.random.default_rng(seed)
        self._levels = levels

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)

    def random(self, shape):
        return np.floor(self._rng.random(shape) * self._levels) / self._levels


@pytest.mark.parametrize("u, levels", [(4, 3), (6, 4), (16, 8)])
def test_sample_occupancy_ties_follow_the_argsort_order(u, levels):
    n_slots = 3000
    pmf = np.arange(1.0, u + 2.0)
    for profile in (
        HoppingProfile.fixed(u // 2),
        HoppingProfile.from_pmf(pmf / pmf.sum()),
    ):
        occ, counts = sample_occupancy(profile, u, QuantizedScores(5, levels), n_slots)
        stub = QuantizedScores(5, levels)
        if not profile.is_fixed:
            stub.choice(u + 1, size=n_slots, p=np.array(profile.pmf))
        scores = stub.random((n_slots, u))
        ranks = np.argsort(np.argsort(scores, axis=1), axis=1)
        np.testing.assert_array_equal(occ, ranks < counts[:, None])
        # the ties reach the threshold in many rows
        kth = np.sort(scores, axis=1)[np.arange(n_slots), np.maximum(counts - 1, 0)]
        straddle = ((scores <= kth[:, None]).sum(axis=1) > counts) & (counts > 0)
        assert straddle.sum() > n_slots // 10


def test_maximizer_quadratic():
    x, fx = maximize_on_interval(lambda t: -((t - math.pi) ** 2), 0.0, 10.0)
    assert x == pytest.approx(math.pi, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-13)


def test_maximizer_multimodal():
    # sin(t) + 0.1 t on [0, 16]: interior peaks at acos(-0.1) + 2 pi k,
    # highest one inside the window is k = 2.
    x, fx = maximize_on_interval(lambda t: np.sin(t) + 0.1 * t, 0.0, 16.0)
    x_true = math.acos(-0.1) + 4 * math.pi
    assert x == pytest.approx(x_true, abs=1e-6)
    assert fx == pytest.approx(math.sin(x_true) + 0.1 * x_true, rel=1e-12)


def test_maximizer_boundary_and_ties():
    # Increasing objective: the boundary point wins.
    x, fx = maximize_on_interval(lambda t: t, 0.0, 5.0)
    assert x == 5.0 and fx == 5.0
    # cos has equal maxima at 0 and 2 pi; ties resolve to the smaller x.
    x, fx = maximize_on_interval(np.cos, 0.0, 4 * math.pi)
    assert x == pytest.approx(0.0, abs=1e-6)
    assert fx == pytest.approx(1.0, rel=0, abs=0)
    with pytest.raises(ValueError):
        maximize_on_interval(np.cos, 1.0, 1.0)


def test_maximizer_flat_function():
    x, fx = maximize_on_interval(lambda t: np.full_like(t, 2.5), -1.0, 1.0)
    assert fx == 2.5
    assert x == -1.0
