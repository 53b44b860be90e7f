"""Slot-level simulator against the exact spectra and closed-form moments."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhshare import sim
from fhshare.bounds import multiplexing_gain
from fhshare.mixture import GaussianMixtureDiag, entropy_mc
from fhshare.model import (
    HoppingProfile,
    NetworkScenario,
    enumerate_interference_spectrum,
)
from fhshare.sim import (
    SLOT_BLOCK,
    SimConfig,
    _match_levels,
    _run_block,
    read_sample_dump,
    run,
    sample_received,
    write_sample_dump,
)

LN2 = math.log(2.0)


def unit(n, u, power=10.0, sigma2=1.0):
    return NetworkScenario(
        n_users=n,
        n_subbands=u,
        gains=np.ones((n, n)),
        total_power=power,
        noise_power=sigma2,
    )


def test_single_user_free_count_is_exact():
    scen = unit(1, 4)
    cfg = SimConfig(
        scenario=scen, profiles=(HoppingProfile.fixed(3),), n_slots=2000, master_seed=1
    )
    stats = run(cfg)
    assert stats.free_mean[0] == 3.0
    assert stats.free_se[0] == 0.0
    assert stats.level_slots[0] == 2000
    np.testing.assert_allclose(stats.level_freq[0], [1.0])


def test_free_subbands_match_expectation():
    scen = unit(3, 4)
    profs = (HoppingProfile.fixed(1),) * 3
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=100000, master_seed=42)
    stats = run(cfg)
    for i in range(3):
        assert stats.free_se[i] > 0
        assert abs(stats.free_mean[i] - 0.5625) <= 4 * stats.free_se[i]


def test_level_frequencies_match_spectrum():
    scen = unit(3, 4)
    profs = (HoppingProfile.fixed(1),) * 3
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=100000, master_seed=7)
    stats = run(cfg)
    spec = enumerate_interference_spectrum(scen, profs, 0)
    np.testing.assert_allclose(stats.level_c[0], spec.c_values, atol=1e-12)
    for l, (p, p_hat, se) in enumerate(
        zip(spec.probabilities, stats.level_freq[0], stats.level_se[0])
    ):
        guard = max(se, math.sqrt(p * (1 - p) / cfg.n_slots))
        assert abs(p_hat - p) <= 4 * guard, f"level {l}"


def test_level_frequencies_with_pmf_interferer():
    scen = unit(2, 3)
    profs = (
        HoppingProfile.fixed(1),
        HoppingProfile.from_pmf((0.2, 0.3, 0.5, 0.0)),
    )
    spec = enumerate_interference_spectrum(scen, profs, 0)
    np.testing.assert_allclose(spec.c_values, [0.0, 0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        spec.probabilities, [1 - 1.3 / 3, 0.5 * 2 / 3, 0.3 / 3], rtol=1e-12
    )
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=120000, master_seed=3)
    stats = run(cfg)
    for p, p_hat, se in zip(
        spec.probabilities, stats.level_freq[0], stats.level_se[0]
    ):
        guard = max(se, math.sqrt(p * (1 - p) / cfg.n_slots))
        assert abs(p_hat - p) <= 4 * guard
    # The pmf user itself occupies nothing in about 20% of slots.
    frac_active = stats.level_slots[1] / cfg.n_slots
    assert abs(frac_active - 0.8) <= 4 * math.sqrt(0.8 * 0.2 / cfg.n_slots)


def test_thread_count_does_not_change_results():
    scen = unit(3, 4)
    profs = (
        HoppingProfile.fixed(1),
        HoppingProfile.fixed(2),
        HoppingProfile.from_pmf((0.25, 0.25, 0.25, 0.25, 0.0)),
    )
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=50000, master_seed=99)
    a = run(cfg, threads=1)
    b = run(cfg, threads=4)
    np.testing.assert_array_equal(a.free_mean, b.free_mean)
    np.testing.assert_array_equal(a.free_se, b.free_se)
    for i in range(3):
        np.testing.assert_array_equal(a.level_freq[i], b.level_freq[i])
        np.testing.assert_array_equal(a.level_se[i], b.level_se[i])
    c = run(cfg, threads=1)
    np.testing.assert_array_equal(a.free_mean, c.free_mean)
    other = run(
        SimConfig(scenario=scen, profiles=profs, n_slots=50000, master_seed=100)
    )
    assert not np.array_equal(a.free_mean, other.free_mean)


def test_sample_received_second_moments():
    scen = unit(2, 2)
    profs = (HoppingProfile.fixed(1),) * 2
    y, z = sample_received(scen, profs, 0, 60000, seed=5)
    assert y.shape == (60000, 2) and z.shape == (60000, 2)
    # E{z_j^2} = sigma^2 + (v/u) P = 1 + 5; own signal adds P on band 0.
    assert np.mean(z[:, 0] ** 2) == pytest.approx(6.0, rel=0.05)
    assert np.mean(z[:, 1] ** 2) == pytest.approx(6.0, rel=0.05)
    assert np.mean(y[:, 0] ** 2) == pytest.approx(16.0, rel=0.05)
    np.testing.assert_array_equal(y[:, 1], z[:, 1])
    assert abs(np.mean(y[:, 0])) < 4 * math.sqrt(16.0 / 60000)


def test_sample_received_thread_determinism():
    scen = unit(2, 2)
    profs = (HoppingProfile.fixed(1),) * 2
    y1, z1 = sample_received(scen, profs, 0, 40000, seed=8, threads=1)
    y3, z3 = sample_received(scen, profs, 0, 40000, seed=8, threads=3)
    np.testing.assert_array_equal(y1, y3)
    np.testing.assert_array_equal(z1, z3)


def test_sampled_interference_entropy_matches_mixture():
    # Mean negative log density of simulated z under the exact mixture
    # approximates h(Z); compare against the analytic MC estimate.
    scen = unit(2, 2, power=10.0)
    profs = (HoppingProfile.fixed(1),) * 2
    _, z = sample_received(scen, profs, 0, 60000, seed=21)
    mix = GaussianMixtureDiag(
        weights=np.array([0.5, 0.5]),
        variances=np.array([[11.0, 1.0], [1.0, 11.0]]),
    )
    from fhshare.mixture import _log_density_rows

    ll = _log_density_rows(mix, z) / LN2
    h_hat = -float(ll.mean())
    se_hat = float(ll.std(ddof=1)) / math.sqrt(z.shape[0])
    h_ref, se_ref = entropy_mc(mix, 200000, seed=4)
    assert abs(h_hat - h_ref) <= 4 * math.hypot(se_hat, se_ref)


def test_dump_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(257, 3))
    path = tmp_path / "dump.bin"
    write_sample_dump(path, samples)
    back = read_sample_dump(path)
    np.testing.assert_array_equal(back, samples)
    raw = path.read_bytes()
    assert len(raw) == 16 + 257 * 3 * 8
    assert int.from_bytes(raw[:8], "little") == 3
    assert int.from_bytes(raw[8:16], "little") == 257

    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:40])
    with pytest.raises(ValueError):
        read_sample_dump(bad)
    with pytest.raises(ValueError):
        write_sample_dump(tmp_path / "x.bin", np.zeros(5))


def test_sim_config_validation():
    scen = unit(2, 2)
    with pytest.raises(ValueError):
        SimConfig(
            scenario=scen, profiles=(HoppingProfile.fixed(1),), n_slots=10, master_seed=0
        )
    with pytest.raises(ValueError):
        SimConfig(
            scenario=scen,
            profiles=(HoppingProfile.fixed(1),) * 2,
            n_slots=0,
            master_seed=0,
        )


def reference_occupancy(profile, u, rng, size):
    """One user's occupancy by the argsort scatter: hop counts first, then
    scores; the sub-bands of the v first entries of each row's argsort."""
    if profile.is_fixed:
        counts = np.full(size, profile.fixed_v, dtype=np.int64)
    else:
        counts = rng.choice(u + 1, size=size, p=np.array(profile.pmf)).astype(np.int64)
    order = np.argsort(rng.random((size, u)), axis=1)
    occ = np.empty((size, u), dtype=bool)
    np.put_along_axis(occ, order, np.arange(u) < counts[:, None], axis=1)
    return occ, counts


def reference_run_block(cfg, level_c, block, size):
    """The simulator block as a loop over receivers and interferers."""
    scenario = cfg.scenario
    n, u = scenario.n_users, scenario.n_subbands
    occ = []
    counts = []
    for k in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=int(cfg.master_seed) & ((1 << 128) - 1),
                spawn_key=(k, block),
            )
        )
        o, c = reference_occupancy(cfg.profiles[k], u, rng, size)
        occ.append(o)
        counts.append(c)

    free_sum = np.zeros(n)
    free_sq = np.zeros(n)
    freq_sum = [np.zeros(len(level_c[i])) for i in range(n)]
    freq_sq = [np.zeros(len(level_c[i])) for i in range(n)]
    freq_slots = np.zeros(n, dtype=np.int64)

    for i in range(n):
        c_real = np.zeros((size, u))
        for k in range(n):
            if k == i:
                continue
            amp = float(scenario.gains[k, i]) ** 2 / np.maximum(counts[k], 1)
            amp = np.where(counts[k] > 0, amp, 0.0)
            c_real += occ[k] * amp[:, None]
        # free: occupied, and no interferer adds a nonzero increment
        free = (occ[i] & (c_real == 0.0)).sum(axis=1).astype(float)
        free_sum[i] = free.sum()
        free_sq[i] = (free * free).sum()

        rows, cols = np.nonzero(occ[i])
        if rows.size:
            lvl = _match_levels(level_c[i], c_real[rows, cols])
            per_slot = np.zeros((size, len(level_c[i])))
            np.add.at(per_slot, (rows, lvl), 1.0)
            active = counts[i] > 0
            frac = per_slot[active] / counts[i][active, None]
            freq_sum[i] = frac.sum(axis=0)
            freq_sq[i] = (frac * frac).sum(axis=0)
            freq_slots[i] = int(active.sum())
    return free_sum, free_sq, freq_sum, freq_sq, freq_slots


def assert_block_matches_reference(cfg, level_c, block, size):
    got = _run_block(cfg, level_c, block, size)
    want = reference_run_block(cfg, level_c, block, size)
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a, b)
    for part in (2, 3):
        assert len(got[part]) == len(want[part])
        for a, b in zip(got[part], want[part]):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got[4], want[4])
    return got


def spectrum_levels(scen, profs):
    return [
        enumerate_interference_spectrum(scen, profs, i).c_values
        for i in range(scen.n_users)
    ]


@st.composite
def profile_lists(draw, n, u):
    """n hopping profiles on u sub-bands, each a fixed count 0..u or a pmf
    with small integer weights."""
    profiles = []
    for _ in range(n):
        if draw(st.booleans()):
            profiles.append(HoppingProfile.fixed(draw(st.integers(0, u))))
        else:
            w = draw(
                st.lists(st.integers(0, 3), min_size=u + 1, max_size=u + 1).filter(
                    lambda x: sum(x) > 0
                )
            )
            profiles.append(HoppingProfile.from_pmf([x / sum(w) for x in w]))
    return tuple(profiles)


@st.composite
def block_cases(draw):
    n = draw(st.integers(1, 6))
    u = draw(st.integers(1, 6))
    # a zero gain leaves the bands it would hit free; no gain underflows
    gain = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    gains = np.array(
        [[draw(gain) for _ in range(n)] for _ in range(n)], dtype=float
    )
    profiles = draw(profile_lists(n, u))
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=gains, total_power=10.0, noise_power=1.0
    )
    size = draw(st.integers(1, 300))
    block = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**64))
    return scen, profiles, size, block, seed


@settings(max_examples=60, deadline=None)
@given(block_cases())
def test_block_equals_per_receiver_loop(case):
    scen, profs, size, block, seed = case
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=size, master_seed=seed)
    assert_block_matches_reference(cfg, spectrum_levels(scen, profs), block, size)


@pytest.mark.parametrize(
    "name",
    ["single_user", "zero_cross_gains", "pmf_mass_at_zero", "v_zero_and_full"],
)
def test_block_equals_per_receiver_loop_edge_cases(name):
    u = 4
    gains = np.array([[1.0, 0.7, 0.3], [0.5, 1.0, 0.9], [1.2, 0.4, 1.0]])
    profs = (
        HoppingProfile.fixed(1),
        HoppingProfile.fixed(2),
        HoppingProfile.from_pmf((0.2, 0.3, 0.0, 0.1, 0.4)),
    )
    if name == "single_user":
        gains, profs = gains[:1, :1], profs[:1]
    elif name == "zero_cross_gains":
        gains = np.diag(np.diag(gains))
    elif name == "pmf_mass_at_zero":
        profs = (HoppingProfile.from_pmf((0.6, 0.4, 0.0, 0.0, 0.0)),) * 3
    elif name == "v_zero_and_full":
        profs = (HoppingProfile.fixed(0), HoppingProfile.fixed(u), profs[2])
    n = len(profs)
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=gains, total_power=10.0, noise_power=1.0
    )
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=500, master_seed=11)
    got = assert_block_matches_reference(cfg, spectrum_levels(scen, profs), 2, 500)
    if name == "single_user":
        assert got[0][0] == 500.0
    if name == "zero_cross_gains":
        # every hit lands on the zero level
        for i in range(n):
            assert np.count_nonzero(got[2][i][1:]) == 0


def test_block_occupancy_count_holds_many_users():
    # 256 users on both sub-bands plus one that hops onto some: a sub-band
    # carries 256 or 257 users, so no band is free and every increment
    # lands on one of the hand-built levels.
    n, u = 257, 2
    profs = (HoppingProfile.fixed(2),) * (n - 1) + (
        HoppingProfile.from_pmf((0.3, 0.3, 0.4)),
    )
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=np.ones((n, n)), total_power=1.0, noise_power=1.0
    )
    # 255 other hoppers at 1/2 each, plus 0, 1/2 or 1 from the pmf user
    level_c = [np.array([127.5, 128.0, 128.5])] * (n - 1) + [np.array([128.0])]
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=6, master_seed=5)
    got = assert_block_matches_reference(cfg, level_c, 0, 6)
    np.testing.assert_array_equal(got[0], np.zeros(n))
    assert got[4][0] == 6


def test_block_peak_memory_per_cell():
    # one full block of the benchmark's largest shape: 8 users on 16
    # sub-bands hopping on 1-3 of them, two by a pmf. A float array over
    # every (user, slot, sub-band) cell alone would take 8 bytes a cell.
    n, u = 8, 16
    pmf = [0.0] * (u + 1)
    pmf[1], pmf[3] = 0.6, 0.4
    profs = tuple(
        HoppingProfile.from_pmf(pmf) if k % 4 == 1 else HoppingProfile.fixed(1 + k % 3)
        for k in range(n)
    )
    gains = np.random.default_rng(8).uniform(0.1, 1.5, (n, n))
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=gains, total_power=10.0, noise_power=1.0
    )
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=SLOT_BLOCK, master_seed=1941)
    level_c = spectrum_levels(scen, profs)
    tracemalloc.start()
    try:
        _run_block(cfg, level_c, 0, SLOT_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n * SLOT_BLOCK * u, peak / (n * SLOT_BLOCK * u)


def test_dump_peak_memory_per_cell():
    # sample_received keeps every block's y and z, then concatenates each:
    # 32 bytes per (sample, sub-band) cell, which check_dump_cells caps
    n, u, n_samples = 3, 16, 1 << 15
    scen = unit(n, u)
    profs = (HoppingProfile.fixed(2),) * n
    tracemalloc.start()
    try:
        sample_received(scen, profs, 0, n_samples, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * n_samples * u, peak / (n_samples * u)


def test_dump_budget_counts_samples_and_subbands(monkeypatch):
    profs = (HoppingProfile.fixed(1),)
    monkeypatch.setattr(sim, "MAX_BLOCK_CELLS", 30 * 4)
    sample_received(unit(1, 4), profs, 0, 30, seed=1)
    with pytest.raises(ValueError, match="dump budget of 120 cells"):
        sample_received(unit(1, 4), profs, 0, 31, seed=1)
    # every sample counts, not one block's: one sub-band, one block's
    # cells admitted and one sample more refused
    monkeypatch.setattr(sim, "MAX_BLOCK_CELLS", SLOT_BLOCK)
    sample_received(unit(1, 1), profs, 0, SLOT_BLOCK, seed=1)
    with pytest.raises(ValueError, match=f"dump budget of {SLOT_BLOCK} cells"):
        sample_received(unit(1, 1), profs, 0, SLOT_BLOCK + 1, seed=1)


def test_three_block_run_is_thread_invariant():
    scen = unit(3, 4)
    profs = (
        HoppingProfile.fixed(1),
        HoppingProfile.fixed(3),
        HoppingProfile.from_pmf((0.1, 0.2, 0.3, 0.2, 0.2)),
    )
    cfg = SimConfig(
        scenario=scen, profiles=profs, n_slots=2 * SLOT_BLOCK + 123, master_seed=17
    )
    runs = [run(cfg, threads=t) for t in (1, 2, 3)]
    for other in runs[1:]:
        for field in ("free_mean", "free_se", "level_slots"):
            assert getattr(other, field).tobytes() == getattr(runs[0], field).tobytes()
        for field in ("level_freq", "level_se"):
            for a, b in zip(getattr(other, field), getattr(runs[0], field)):
                assert a.tobytes() == b.tobytes()


def test_sample_received_rejects_out_of_range_user():
    scen = unit(2, 2)
    profs = (HoppingProfile.fixed(1),) * 2
    for user in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            sample_received(scen, profs, user, 10, seed=1)


def bernstein_halfwidth(m, var, span, alpha):
    """Deviation t with P(|mean of m iid draws - expectation| >= t) <= alpha
    for draws in an interval of length span with variance at most var."""
    lg = math.log(2.0 / alpha)
    a = span * lg / 3.0
    return (a + math.sqrt(a * a + 2.0 * m * var * lg)) / m


@st.composite
def frequency_cases(draw, kinds=("equal", "zero_cross", "some_zero", "unequal")):
    """Small scenarios with fixed and pmf users, with equal gains (levels
    merge), zero cross gains, some zero gains, or unequal nonzero gains."""
    n = draw(st.integers(1, 4))
    u = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(kinds))
    if kind == "equal":
        gains = np.ones((n, n))
    elif kind == "zero_cross":
        gains = np.eye(n)
    else:
        gain = st.floats(0.2, 2.0)
        if kind == "some_zero":
            gain = st.one_of(st.just(0.0), gain)
        gains = np.array([[draw(gain) for _ in range(n)] for _ in range(n)])
    profiles = draw(profile_lists(n, u))
    scen = NetworkScenario(
        n_users=n, n_subbands=u, gains=gains, total_power=10.0, noise_power=1.0
    )
    return scen, profiles, draw(st.integers(0, 2**32))


FREQUENCY_EXAMPLES = 40
FREQUENCY_ALPHA = 1e-7  # false-alarm rate of the whole test


@settings(max_examples=FREQUENCY_EXAMPLES, deadline=None, derandomize=True)
@given(frequency_cases())
def test_level_frequencies_match_enumerated_probabilities(case):
    # Each active slot's fraction of the user's sub-bands at level l lies
    # in [0, 1] with mean a_l, so its variance is at most a_l (1 - a_l);
    # Bernstein's bound at alpha split over every level of every example
    # holds even for levels too rare to be seen. A fixed-v user's free
    # count is its hits on the c = 0 level, so it is v times that level's
    # frequency, and 0 when no slot leaves a band free.
    scen, profs, seed = case
    cfg = SimConfig(scenario=scen, profiles=profs, n_slots=4000, master_seed=seed)
    stats = run(cfg)
    spectra = [
        enumerate_interference_spectrum(scen, profs, i) for i in range(scen.n_users)
    ]
    n_checks = sum(s.n_levels for s in spectra)
    alpha = FREQUENCY_ALPHA / (FREQUENCY_EXAMPLES * n_checks)
    for i, spec in enumerate(spectra):
        np.testing.assert_array_equal(stats.level_c[i], spec.c_values)
        if spec.c_values[0] != 0.0 or profs[i].fixed_v == 0:
            assert stats.free_mean[i] == 0.0
        elif profs[i].is_fixed:
            v = profs[i].fixed_v
            assert stats.free_mean[i] == pytest.approx(
                v * stats.level_freq[i][0], rel=1e-12
            )
        m = int(stats.level_slots[i])
        if m == 0:  # the user never hops: nothing to average
            assert np.isnan(stats.level_freq[i]).all()
            continue
        freq = stats.level_freq[i]
        assert abs(freq.sum() - 1.0) <= 1e-9
        for l, (a, f) in enumerate(zip(spec.probabilities, freq)):
            tol = bernstein_halfwidth(m, a * (1.0 - a), 1.0, alpha)
            assert abs(f - a) <= tol, (i, l, f, a, tol)


def test_free_count_follows_zero_gains():
    # User 0 does not reach user 1 and user 1 does not reach user 2: the
    # bands they would hit stay free, as in the spectrum and the slope.
    gains = np.array([[1.0, 0.0, 0.5], [0.7, 1.0, 0.0], [0.3, 0.9, 1.0]])
    scen = NetworkScenario(
        n_users=3, n_subbands=5, gains=gains, total_power=10.0, noise_power=1.0
    )
    profs = (HoppingProfile.fixed(2), HoppingProfile.fixed(2), HoppingProfile.fixed(3))
    stats = run(SimConfig(scen, profs, 50000, 5))
    for i in range(3):
        want = 2.0 * multiplexing_gain(scen, profs, i)
        assert stats.free_se[i] > 0
        assert abs(stats.free_mean[i] - want) <= 4 * stats.free_se[i], (i, want)
    # 2 (1 - 2/5)(1 - 3/5), 2 (1 - 3/5) and 3 (1 - 2/5)
    want = [2.0 * multiplexing_gain(scen, profs, i) for i in range(3)]
    np.testing.assert_allclose(want, [0.48, 0.8, 1.8], rtol=1e-12)


PMF_FREE_EXAMPLES = 10


@settings(max_examples=PMF_FREE_EXAMPLES, deadline=None, derandomize=True)
@given(frequency_cases(kinds=("equal", "unequal")))
def test_free_mean_matches_mean_hops_times_leave_one_out_product(case):
    # With every gain nonzero a band is free when nobody else is on it:
    # E[free_i] = vbar_i prod_{k != i} (1 - vbar_k / u), pmf users too.
    scen, profs, seed = case
    stats = run(SimConfig(scen, profs, 20000, seed))
    u = scen.n_subbands
    vbar = [p.mean_v() for p in profs]
    for i in range(scen.n_users):
        others = [1.0 - vbar[k] / u for k in range(scen.n_users) if k != i]
        want = vbar[i] * math.prod(others)
        tol = 4 * stats.free_se[i] + 1e-12
        assert abs(stats.free_mean[i] - want) <= tol, (i, stats.free_mean[i], want)


def test_blocks_over_the_cell_budget_fail_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sample_occupancy was called")

    monkeypatch.setattr(sim, "sample_occupancy", no_sampling)
    scen = unit(2, 10**9)
    profs = (HoppingProfile.fixed(1),) * 2
    budget = f"budget of {sim.MAX_BLOCK_CELLS} cells"
    with pytest.raises(ValueError, match=budget):
        run(SimConfig(scen, profs, 10, 1))
    with pytest.raises(ValueError, match=budget):
        sample_received(scen, profs, 0, 10, seed=1)
    # 8 users x a full block x 16 sub-bands, the largest block the
    # benchmark simulates, stays an eighth of the budget or less
    assert 8 * (8 * SLOT_BLOCK * 16) <= sim.MAX_BLOCK_CELLS


def test_cell_budget_counts_users_block_slots_and_subbands(monkeypatch):
    scen = unit(2, 4)
    profs = (HoppingProfile.fixed(1),) * 2
    monkeypatch.setattr(sim, "MAX_BLOCK_CELLS", 2 * 20 * 4)
    run(SimConfig(scen, profs, 20, 1))
    sample_received(scen, profs, 0, 20, seed=1)
    monkeypatch.setattr(sim, "MAX_BLOCK_CELLS", 2 * 20 * 4 - 1)
    with pytest.raises(ValueError, match="budget"):
        run(SimConfig(scen, profs, 20, 1))
    with pytest.raises(ValueError, match="budget"):
        sample_received(scen, profs, 0, 20, seed=1)
