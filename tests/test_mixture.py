"""Mixture densities and entropies against closed forms and a Riemann oracle."""
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp, ndtri
from scipy.stats import norm

from fhshare import _blocks, mixture
from fhshare.bounds import lower_bound_rate, mc_mutual_information, upper_bound_rate
from fhshare.mixture import (
    GaussianMixture1D,
    GaussianMixtureDiag,
    _log_density_rows,
    entropy_mc,
    entropy_quadrature,
    entropy_upper_bound,
    gaussian_entropy,
    merge_levels,
)
from fhshare.measures import UserCountPmf
from fhshare.model import HoppingProfile, NetworkScenario

LN2 = math.log(2.0)


def riemann_entropy_bits(mix: GaussianMixture1D, span_sigmas=40.0, n=400001):
    """Independent trapezoid estimate of -integral p log2 p."""
    w = mix.weights
    var = mix.variances[:, 0]
    span = span_sigmas * math.sqrt(var.max())
    x = np.linspace(-span, span, n)
    dens = np.zeros_like(x)
    for wi, vi in zip(w, var):
        dens += wi * np.exp(-x * x / (2 * vi)) / math.sqrt(2 * math.pi * vi)
    integrand = np.where(dens > 0, -dens * np.log2(dens, out=np.zeros_like(dens), where=dens > 0), 0.0)
    return float(np.trapezoid(integrand, x))


def quad_entropy_bits(mix: GaussianMixture1D) -> float:
    """Independent scipy.integrate.quad estimate of -integral p log2 p over
    [0, 40 sigma_max], doubled, with break points on a geometric grid."""
    logw = np.log(mix.weights)
    var = mix.variances[:, 0]
    sig = np.sqrt(var)
    span = 40.0 * float(sig.max())
    points = np.unique(np.concatenate([sig, np.geomspace(sig.min() / 4, span, 40)]))
    points = points[points < span][:90]

    def integrand(x):
        lp = float(logsumexp(logw - 0.5 * np.log(2 * math.pi * var) - x * x / (2 * var)))
        return -math.exp(lp) * lp / LN2

    value, err = quad(
        integrand, 0.0, span, points=points, limit=2000, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-11
    return 2.0 * value


def test_gaussian_entropy_closed_form():
    assert gaussian_entropy(1.0) == pytest.approx(
        0.5 * math.log2(2 * math.pi * math.e), rel=1e-15
    )
    assert gaussian_entropy(4.0) == pytest.approx(gaussian_entropy(1.0) + 1.0)
    with pytest.raises(ValueError):
        gaussian_entropy(0.0)


def test_log_density_hand_values():
    m = GaussianMixture1D.of((1.0, 1.0))
    assert _log_density_rows(m, [[0.0]])[0] == pytest.approx(
        -0.5 * math.log(2 * math.pi), rel=1e-14
    )

    m2 = GaussianMixture1D.of((0.5, 1.0), (0.5, 4.0))
    f = 0.5 * math.exp(-0.5) / math.sqrt(2 * math.pi) + 0.5 * math.exp(
        -1.0 / 8.0
    ) / math.sqrt(8 * math.pi)
    assert _log_density_rows(m2, [[1.0]])[0] == pytest.approx(math.log(f), rel=1e-14)


def test_log_density_diag_matches_norm():
    weights = np.array([0.3, 0.7])
    variances = np.array([[1.0, 2.0], [3.0, 0.5]])
    m = GaussianMixtureDiag(weights=weights, variances=variances)
    x = np.array([0.3, -0.2])
    comps = [
        math.log(w) + norm.logpdf(x, scale=np.sqrt(v)).sum()
        for w, v in zip(weights, variances)
    ]
    expected = math.log(sum(math.exp(c) for c in comps))
    assert _log_density_rows(m, x[None, :])[0] == pytest.approx(expected, rel=1e-13)


def test_log_density_extreme_scale_stability():
    m = GaussianMixture1D.of((0.5, 1.0), (0.5, 1e8))
    far = _log_density_rows(m, [[1e5]])[0]
    expected = math.log(0.5) + float(norm.logpdf(1e5, scale=1e4))
    assert math.isfinite(far)
    assert far == pytest.approx(expected, rel=1e-10)
    assert math.isfinite(_log_density_rows(m, [[0.0]])[0])


def test_quadrature_matches_closed_form_gaussian():
    for var in (0.25, 1.0, 7.5, 1e4):
        m = GaussianMixture1D.of((1.0, var))
        assert entropy_quadrature(m) == pytest.approx(
            gaussian_entropy(var), abs=1e-9
        )


def test_quadrature_matches_riemann_oracle():
    mixes = [
        GaussianMixture1D.of((0.5, 1.0), (0.5, 4.0)),
        GaussianMixture1D.of((0.3, 0.5), (0.5, 2.0), (0.2, 10.0)),
        GaussianMixture1D.of((0.9, 1.0), (0.1, 100.0)),
    ]
    for m in mixes:
        assert entropy_quadrature(m) == pytest.approx(
            riemann_entropy_bits(m), abs=2e-6
        )


def test_quadrature_matches_scipy_quad_reference():
    rng = np.random.default_rng(2026)
    mixes = []
    for _ in range(30):
        k = int(rng.integers(1, 7))
        w = rng.dirichlet(np.ones(k))
        var = np.exp(rng.normal(0.0, 2.0, k))
        mixes.append(GaussianMixture1D.of(*zip(w.tolist(), var.tolist())))
    # a wide mixture: 2000 components, variances spanning 1 to 1e6
    var = np.geomspace(1.0, 1e6, 2000)
    rng.shuffle(var)
    w = rng.dirichlet(np.ones(2000))
    mixes.append(GaussianMixture1D.of(*zip(w.tolist(), var.tolist())))
    for m in mixes:
        assert entropy_quadrature(m) == pytest.approx(quad_entropy_bits(m), abs=1e-9)


def test_quadrature_window_is_the_normal_quantile_it_replaces():
    z = -float(ndtri(mixture._QUAD_TOL / 40.0)) + 4.0
    assert z.hex() == mixture._QUAD_WINDOW_Z.hex()


def test_quadrature_panel_budget_raises_promptly():
    m = GaussianMixture1D.of(*((1.0 / 16.0, v) for v in np.geomspace(1.0, 1e20, 16).tolist()))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"did not converge: .* > tol/4 = 2\.5e-07 within"):
        entropy_quadrature(m)
    assert time.perf_counter() - t0 < 5.0


def test_square_overflow_raises_without_a_warning():
    wide = GaussianMixture1D.of((0.5, 1.0), (0.5, 1e307))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="overflows"):
            entropy_quadrature(wide)
        with pytest.raises(ValueError, match="overflows"):
            _log_density_rows(wide, np.array([[1e155]]))
        assert _log_density_rows(wide, np.array([[np.inf]]))[0] == -np.inf
    assert [str(w.message) for w in caught] == []


def test_huge_weights_raise_without_a_warning():
    # each weight is checked before the sum, which would overflow
    huge = [1e308, 1e308]
    constructors = [
        lambda: GaussianMixtureDiag(weights=huge, variances=[[1.0], [2.0]]),
        lambda: GaussianMixture1D.of((huge[0], 1.0), (huge[1], 2.0)),
        lambda: HoppingProfile.from_pmf(huge),
        lambda: UserCountPmf.finite(huge),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for make in constructors:
            with pytest.raises(ValueError, match=r"probabilities in \[0, 1\], not NaN"):
                make()
    assert [str(w.message) for w in caught] == []


def equal_weights(variances):
    """The equal-weight scalar mixture of the given variances."""
    return GaussianMixture1D.of(*((1.0 / len(variances), v) for v in variances))


def entropy_sandwich(m):
    """Bounds on a scalar mixture's entropy in bits: sum_i a_i h(var_i)
    below, and above the least of h(total variance) and that sum plus the
    entropy of the weights."""
    w, var = m.weights.tolist(), m.variances[:, 0].tolist()
    lower = sum(wi * gaussian_entropy(vi) for wi, vi in zip(w, var))
    h_weights = -sum(wi * math.log2(wi) for wi in w)
    return lower, min(gaussian_entropy(m.variance()), lower + h_weights)


@pytest.mark.parametrize("top, k, silent", [(1e300, 20, 115.60), (1e150, 16, 89.00), (1e300, 40, 35.94)])
def test_quadrature_outside_its_sandwich_raises(top, k, silent):
    # Panels over scales that no break point was seeded on pass the error
    # test while missing whole components; these mixtures gave `silent`
    # bits, far below the lower end, with no error.
    m = equal_weights(np.geomspace(1.0, top, k).tolist())
    assert silent < entropy_sandwich(m)[0] - 30.0
    with pytest.raises(RuntimeError, match=r"not certified: .* outside \[.*\] by more than tol = 1e-06"):
        entropy_quadrature(m)


def test_quadrature_inside_its_sandwich_is_returned():
    m = equal_weights(np.geomspace(1.0, 1e300, 13).tolist())
    lower, upper = entropy_sandwich(m)
    h = entropy_quadrature(m)
    assert h == pytest.approx(254.89214241982268, abs=1e-6)
    assert lower <= h <= upper


def test_extreme_scales_emit_no_overflow_warning():
    # Variances 1e-200 .. 1e200: the narrow components' density terms
    # overflow at the wide ones' nodes, and the upper bound's variance
    # ratio is 1e400.
    m = equal_weights(np.geomspace(1e-200, 1e200, 40).tolist())
    lower, upper = entropy_sandwich(m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            h = entropy_quadrature(m)
        except RuntimeError:
            pass
        else:
            assert lower - 1e-6 <= h <= upper + 1e-6
        h_ub = entropy_upper_bound(m)
    assert [str(w.message) for w in caught] == []
    want = (
        0.5 * (1.0 - 1.0 / 40.0) * 400.0 * math.log2(10.0)
        + 0.5 * math.log2(2.0 * math.pi * math.e * 1e-200)
        + math.log2(40.0)
    )
    assert math.isfinite(h_ub) and h_ub == pytest.approx(want, rel=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 40),
    low=st.floats(-200.0, 0.0),
    d=st.floats(0.0, 300.0),
    weights=st.one_of(st.none(), st.lists(st.floats(0.01, 1.0), min_size=40, max_size=40)),
)
@example(k=20, low=0.0, d=300.0, weights=None)
@example(k=40, low=-200.0, d=300.0, weights=None)
def test_quadrature_lies_inside_its_sandwich_or_raises(k, low, d, weights):
    # k variances spaced evenly in log scale over d decades from 10^low,
    # equal or random weights
    var = np.geomspace(10.0**low, 10.0 ** (low + d), k)
    w = np.full(k, 1.0 / k) if weights is None else np.array(weights[:k]) / sum(weights[:k])
    m = GaussianMixture1D.of(*zip(w.tolist(), var.tolist()))
    lower, upper = entropy_sandwich(m)
    try:
        h = entropy_quadrature(m)
    except RuntimeError:
        return
    assert lower - 1e-6 <= h <= upper + 1e-6


def pairwise_entropy_bits(m, distance):
    """Kolchinsky-Tracey pairwise estimate of a mixture's entropy in bits,
    sum_i w_i (h_i - log2 sum_j w_j exp(-D(p_i || p_j))) with h_i the
    components' entropies (Entropy 19(7):361, 2017). The Bhattacharyya
    distance makes it a lower bound, the KL divergence an upper bound. The
    components of a diagonal mixture are independent across coordinates,
    so both h_i and D sum over coordinates."""
    w, var = m.weights, m.variances
    d = distance(var[:, None, :], var[None, :, :]).sum(axis=2)
    h = 0.5 * np.log2(2.0 * math.pi * math.e * var).sum(axis=1)
    return float(w @ (h - np.log2(np.exp(-d) @ w)))


def pairwise_bounds(m):
    """(H_BD, H_KL) of mixture m, in bits."""
    return tuple(pairwise_entropy_bits(m, d) for d in (bhattacharyya, kl_divergence))


def bhattacharyya(a, b):
    """Bhattacharyya distance of N(0, a) and N(0, b), in nats."""
    return 0.5 * np.log((a + b) / (2.0 * np.sqrt(a * b)))


def kl_divergence(a, b):
    """KL divergence of N(0, a) from N(0, b), in nats."""
    return 0.5 * (a / b - 1.0 - np.log(a / b))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.01, 1.0), st.floats(-6.0, 6.0)), min_size=1, max_size=6
    )
)
@example([(0.3, 1.1)])
@example([(0.5, 0.0), (0.5, 0.0)])
@example([(0.5, -6.0), (0.5, 6.0)])
def test_quadrature_within_entropy_bounds(comps):
    # sum_l w_l h(sigma_l^2) <= h <= min(h_Gauss(total variance), closed-form bound),
    # and H_BD <= h <= H_KL, both pairwise bounds exact for one Gaussian
    total = sum(a for a, _ in comps)
    w = [a / total for a, _ in comps]
    w[-1] = 1.0 - sum(w[:-1])
    var = [math.exp(b) for _, b in comps]
    m = GaussianMixture1D.of(*zip(w, var))
    tol = 1e-6
    h = entropy_quadrature(m)
    lower = sum(wi * gaussian_entropy(vi) for wi, vi in zip(w, var))
    upper = min(gaussian_entropy(m.variance()), entropy_upper_bound(m))
    assert lower - tol <= h <= upper + tol
    h_bd, h_kl = pairwise_bounds(m)
    assert h_bd - tol <= h <= h_kl + tol


@pytest.mark.parametrize("k, dim", [(1, 3), (5, 1), (40, 2), (100, 4)])
def test_entropy_mc_within_pairwise_bounds(k, dim):
    # H_BD <= h <= H_KL for diagonal mixtures too, both exact for k = 1
    rng = np.random.default_rng(k * 10 + dim)
    m = GaussianMixtureDiag(
        weights=rng.dirichlet(np.ones(k)), variances=np.exp(rng.uniform(-4.0, 4.0, (k, dim)))
    )
    h, se = entropy_mc(m, 20000, seed=k)
    h_bd, h_kl = pairwise_bounds(m)
    assert h_bd - 4 * se <= h <= h_kl + 4 * se


SANDWICH_SCENARIOS = {
    "u6_v12": (6, (1, 2), [[1.0, 0.8], [0.6, 1.0]]),
    "u4_v112": (4, (1, 1, 2), [[1.0, 0.9, 0.5], [0.7, 1.0, 0.4], [1.3, 0.6, 1.0]]),
}


@pytest.mark.parametrize("gamma", [1e3, 1e5])
@pytest.mark.parametrize("case", sorted(SANDWICH_SCENARIOS))
def test_mc_mutual_information_within_pairwise_bounds(monkeypatch, case, gamma):
    # I = h(Y) - h(Z) lies in [H_BD(Y) - H_KL(Z), H_KL(Y) - H_BD(Z)] and in
    # [LB, UB]; at 1e5 the pairwise lower end beats LB
    u, counts, gains = SANDWICH_SCENARIOS[case]
    scen = NetworkScenario(
        n_users=len(counts), n_subbands=u, gains=np.array(gains),
        total_power=gamma, noise_power=1.0,
    )
    profs = [HoppingProfile.fixed(v) for v in counts]
    built = []
    estimate = mixture.entropy_mc

    def recording(m, *args, **kwargs):
        built.append(m)
        return estimate(m, *args, **kwargs)

    monkeypatch.setattr(mixture, "entropy_mc", recording)
    mi, se = mc_mutual_information(scen, profs, 0, 20000, seed=3)
    (y_bd, y_kl), (z_bd, z_kl) = map(pairwise_bounds, built)
    assert built[0].weights.size <= 100
    lb = lower_bound_rate(scen, profs, 0).value_bits
    assert gamma < 1e5 or y_bd - z_kl > lb
    lo = max(lb, y_bd - z_kl)
    hi = min(upper_bound_rate(scen, profs, 0).value_bits, y_kl - z_bd)
    assert lo - 4 * se <= mi <= hi + 4 * se


def test_log_density_rows_degenerate_branch_and_empty_rows():
    # rows no component reaches (an infinite coordinate) give -inf,
    # without warnings
    full = GaussianMixtureDiag(
        weights=np.array([0.5, 0.5]), variances=np.array([[1.0, 1.0], [4.0, 4.0]])
    )
    with np.errstate(all="raise"):
        out = _log_density_rows(full, np.array([[math.inf, 0.0], [0.0, 1.0]]))
    assert out[0] == -math.inf and math.isfinite(out[1])


@pytest.mark.parametrize("rows", ["live", "unreached"])
@pytest.mark.parametrize("n_rows", [1, 2, 401, 1000])
def test_log_mixture_rows_chunk_size_does_not_change_bits(monkeypatch, rows, n_rows):
    # With 37 components, blocks of 7 and 111 doubles make chunks of 2
    # rows and 185 of 4, so 401 rows end in a lone row that joins the
    # chunk before it; 1 << 16 or 1 << 20 doubles hold every row in one
    # chunk. An infinite coordinate puts a row out of every component's
    # reach (-inf).
    rng = np.random.default_rng(9)
    var = rng.exponential(2.0, size=(37, 5)) + 0.1
    m = GaussianMixtureDiag(weights=rng.dirichlet(np.ones(37)), variances=var)
    x = rng.normal(size=(n_rows, 5)) * 3.0
    if rows == "unreached":
        x[rng.random(x.shape) < 0.1] = math.inf
        x[-1, 0] = -math.inf
    outs = []
    for block in (1, 7, 111, 185, 1 << 16, 1 << 20):
        monkeypatch.setattr(_blocks, "BLOCK_DOUBLES", block)
        outs.append(_log_density_rows(m, x).tobytes())
    assert outs[1:] == outs[:-1]
    assert np.isneginf(np.frombuffer(outs[0])).any() == (rows == "unreached")
    # the scalar kernel of entropy_quadrature too
    xq = rng.normal(size=(n_rows, 1)) * 2.0
    outs = []
    for block in (1, 7, 111, 185, 1 << 16, 1 << 20):
        monkeypatch.setattr(_blocks, "BLOCK_DOUBLES", block)
        outs.append(mixture._log_mixture_rows(xq, m.weights, var[:, :1] + 0.5).tobytes())
    assert outs[1:] == outs[:-1]


def reference_log_mixture_rows(x, log_coef, inv_2var):
    """The log-density kernel without the term floor: exp runs on every
    term, subnormal and zero results included."""
    out = np.empty(x.shape[0])
    for s, stop in _blocks.row_ranges(x.shape[0], log_coef.shape[0], multiple=2):
        xs = x[s:stop]
        block = (xs * xs) @ inv_2var.T
        np.subtract(log_coef, block, out=block)
        top = block.max(axis=1)
        top[top == -np.inf] = 0.0
        block -= top[:, None]
        with np.errstate(under="ignore"):
            np.exp(block, out=block)
        with np.errstate(divide="ignore"):
            np.log(block.sum(axis=1), out=out[s:stop])
        out[s:stop] += top
    return out


def _kernel_args(var, weights):
    """(log_coef, inv_2var) as _log_density_rows builds them."""
    logdet = -0.5 * (var.shape[1] * math.log(2 * math.pi) + np.log(var).sum(axis=1))
    return np.log(weights) + logdet, 0.5 / var


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 400),
    dim=st.integers(1, 8),
    n_rows=st.integers(1, 300),
    unreached=st.booleans(),
)
@example(seed=0, k=1, dim=1, n_rows=1, unreached=False)
@example(seed=1, k=1, dim=3, n_rows=50, unreached=True)
@example(seed=2, k=400, dim=1, n_rows=1, unreached=False)
@example(seed=3, k=2, dim=2, n_rows=1, unreached=True)
def test_log_term_floor_changes_no_bit(seed, k, dim, n_rows, unreached):
    # Variances e^-25..e^25 put many terms below the row maximum by
    # 708-745 (subnormal exp) and by more (exp is 0); the floor must keep
    # every output byte and, without a floating-point warning, every -inf
    # of a row no component reaches (one with an infinite coordinate).
    rng = np.random.default_rng(seed)
    var = np.exp(rng.uniform(-25.0, 25.0, size=(k, dim)))
    weights = rng.dirichlet(np.ones(k))
    idx = rng.integers(0, k, size=n_rows)
    x = rng.standard_normal((n_rows, dim)) * np.sqrt(var[idx])
    x[rng.random(n_rows) < 0.2] *= np.exp(rng.uniform(0.0, 12.0))
    if unreached:
        x[rng.random(n_rows) < 0.3, rng.integers(dim)] = math.inf
        x[0, -1] = -math.inf
    log_coef, inv_2var = _kernel_args(var, weights)
    want = reference_log_mixture_rows(x, log_coef, inv_2var)
    with np.errstate(all="raise"):
        got = mixture._log_mixture_rows(x, log_coef, inv_2var)
    assert got.tobytes() == want.tobytes()
    assert np.isneginf(got).any() == unreached


def test_entropy_mc_agrees_with_quadrature():
    m = GaussianMixture1D.of((0.5625, 1.0), (0.375, 11.0), (0.0625, 21.0))
    href = entropy_quadrature(m)
    h, se = entropy_mc(m, 300000, seed=17)
    assert se < 0.01
    assert abs(h - href) < 4 * se


def test_entropy_mc_thread_and_stream_determinism():
    m = GaussianMixture1D.of((0.5, 1.0), (0.5, 9.0))
    h1, se1 = entropy_mc(m, 150000, seed=123)
    h4, se4 = entropy_mc(m, 150000, seed=123, threads=4)
    assert h1 == h4 and se1 == se4
    h1b, _ = entropy_mc(m, 150000, seed=123)
    assert h1 == h1b
    h_other, _ = entropy_mc(m, 150000, seed=123, stream=1)
    assert h_other != h1
    with pytest.raises(ValueError):
        entropy_mc(m, 50, seed=1)


def test_entropy_mc_vector_chain_rule():
    # Same variance in the second coordinate of every component makes the
    # coordinates independent: h(Y1, Y2) = h(Y1) + h(N(0, 3)).
    m = GaussianMixtureDiag(
        weights=np.array([0.6, 0.4]), variances=np.array([[1.0, 3.0], [4.0, 3.0]])
    )
    h, se = entropy_mc(m, 200000, seed=5)
    m1 = GaussianMixture1D.of((0.6, 1.0), (0.4, 4.0))
    expected = entropy_quadrature(m1) + gaussian_entropy(3.0)
    assert abs(h - expected) < 4 * se


def test_upper_bound_exact_for_gaussian():
    for var in (0.5, 1.0, 25.0):
        m = GaussianMixture1D.of((1.0, var))
        assert entropy_upper_bound(m) == pytest.approx(gaussian_entropy(var), rel=1e-12)
    m_dup = GaussianMixture1D.of((0.5, 2.0), (0.5, 2.0))
    assert entropy_upper_bound(m_dup) == pytest.approx(gaussian_entropy(2.0), rel=1e-12)


def test_upper_bound_two_level_hand_value():
    m = GaussianMixture1D.of((0.5, 1.0), (0.5, 4.0))
    expected = 1.5 + 0.5 * math.log2(2 * math.pi * math.e)
    assert entropy_upper_bound(m) == pytest.approx(expected, rel=1e-12)


def test_upper_bound_dominates_randomized():
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        w = rng.random(k)
        w /= w.sum()
        var = np.exp(rng.normal(size=k) * 2.0)
        m = GaussianMixture1D.of(*zip(w.tolist(), var.tolist()))
        assert entropy_upper_bound(m) >= entropy_quadrature(m) - 1e-6


def reference_spectrum_merge(entries, sigma2, power, merge_rel_tol):
    """The merge loop of enumerate_interference_spectrum before merge_levels;
    entries are (c, p) pairs in ascending c. A first entry at c = 0 (the
    interference-free level) takes no other entry. Returns the merged
    pairs and, per entry, the index of the merged pair it joined."""
    merged, group = [], []
    free = bool(entries) and entries[0][0] == 0.0
    for c, p in entries:
        if merged and not (free and len(merged) == 1):
            c_rep, p_rep = merged[-1]
            v_rep = sigma2 + c_rep * power
            v_new = sigma2 + c * power
            if v_new - v_rep <= merge_rel_tol * v_rep:
                merged[-1] = ((c_rep * p_rep + c * p) / (p_rep + p), p_rep + p)
                group.append(len(merged) - 1)
                continue
        merged.append((c, p))
        group.append(len(merged) - 1)
    return merged, group


def reference_bound_merge(w, var):
    """The merge loop of entropy_upper_bound before merge_levels; w and var
    are numpy arrays sorted by variance. Also returns, per level, the index
    of the merged level it joined."""
    mw, mv, group = [w[0]], [var[0]], [0]
    for i in range(1, len(w)):
        if var[i] - mv[-1] <= 1e-9 * mv[-1]:
            tot = mw[-1] + w[i]
            mv[-1] = (mv[-1] * mw[-1] + var[i] * w[i]) / tot
            mw[-1] = tot
        else:
            mw.append(w[i])
            mv.append(var[i])
        group.append(len(mw) - 1)
    return np.array(mw), np.array(mv), np.array(group)


@st.composite
def ascending_levels(draw, positive=False):
    """Ascending parameters c (ties allowed) with probabilities, for variance
    base + c * scale; many gaps sit right at the merge threshold, and with
    dyadic values those are exact ties. With positive, base + c is
    positive too."""
    if draw(st.booleans()):
        base = draw(st.sampled_from([0.0, 0.5, 1.0]))
        scale = draw(st.sampled_from([0.25, 1.0, 2.0]))
        rel_tol = draw(st.sampled_from([2.0**-10, 2.0**-3]))
        c = [float(draw(st.integers(int(positive and base == 0.0), 8)))]
        prob = st.sampled_from([0.125, 0.25, 0.5, 1.0])
    else:
        base = draw(st.floats(1e-3, 1e3))
        scale = draw(st.floats(1e-3, 1e3))
        rel_tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
        c = [draw(st.floats(0.0, 10.0))]
        prob = st.floats(1e-6, 1.0)
    near = st.sampled_from([0.0, 0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.5, 2.0])
    gap = st.one_of(near.map(lambda k: k * rel_tol), st.floats(0.0, 1.0))
    for r in draw(st.lists(gap, max_size=40)):
        c.append(c[-1] + r * (base + c[-1] * scale) / scale)
    p = draw(st.lists(prob, min_size=len(c), max_size=len(c)))
    return np.array(c), np.array(p), base, scale, rel_tol


def assert_matches_spectrum_loop(c, p, base, scale, rel_tol):
    got_c, got_p, got_group = merge_levels(c, p, base, scale, rel_tol)
    want, want_group = reference_spectrum_merge(
        list(zip(c.tolist(), p.tolist())), base, scale, rel_tol
    )
    np.testing.assert_array_equal(got_c, [x for x, _ in want])
    np.testing.assert_array_equal(got_p, [y for _, y in want])
    assert got_group.dtype.kind == "i"
    np.testing.assert_array_equal(got_group, want_group)
    return got_c


def assert_matches_bound_loop(w, var):
    got_v, got_w, got_group = merge_levels(var, w, 0.0, 1.0, 1e-9)
    want_w, want_v, want_group = reference_bound_merge(w, var)
    np.testing.assert_array_equal(got_v, want_v)
    np.testing.assert_array_equal(got_w, want_w)
    assert got_group.dtype.kind == "i"
    np.testing.assert_array_equal(got_group, want_group)
    return got_v


@settings(max_examples=200, deadline=None)
@given(ascending_levels())
@example((np.array([0.0, 1e-12, 2e-12]), np.array([0.25, 0.25, 0.5]), 1.0, 1.0, 1e-9))
@example((np.array([0.0, 0.0]), np.array([0.5, 0.5]), 0.0, 1.0, 2.0**-10))
def test_merge_levels_matches_spectrum_loop(case):
    assert_matches_spectrum_loop(*case)


@settings(max_examples=200, deadline=None)
@given(ascending_levels(positive=True))
def test_merge_levels_matches_bound_loop(case):
    # a mixture's variances are positive (GaussianMixtureDiag rejects any
    # other), so c = 0 never reaches the upper bound's merge
    var, w, base, _, _ = case
    assert var[0] + base > 0.0
    assert_matches_bound_loop(w, var + base)


def test_merge_levels_exact_threshold_ties():
    # A variance gap of exactly rel_tol times the lower variance merges.
    for n in (3, 5, 6, 7, 9, 10):
        v0 = n / 1e-9 * 2.0**-20
        var = np.array([v0, v0 + 1e-9 * v0])
        assert var[1] - var[0] == 1e-9 * var[0]
        assert assert_matches_bound_loop(np.array([0.25, 0.75]), var).size == 1
    c = np.array([1.0, 1.0 + 2.0**-10 * 3.0 / 2.0])
    assert (1.0 + 2.0 * c[1]) - (1.0 + 2.0 * c[0]) == 2.0**-10 * (1.0 + 2.0 * c[0])
    assert assert_matches_spectrum_loop(c, np.array([0.5, 0.5]), 1.0, 2.0, 2.0**-10).size == 1


def test_entropy_extremal_bounds():
    # h(Y | level) <= h(Y) <= Gaussian of the same total variance.
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        w = rng.random(k)
        w /= w.sum()
        var = np.exp(rng.normal(size=k))
        m = GaussianMixture1D.of(*zip(w.tolist(), var.tolist()))
        h = entropy_quadrature(m)
        lower = sum(wi * gaussian_entropy(vi) for wi, vi in zip(w, var))
        upper = gaussian_entropy(m.variance())
        assert lower - 1e-6 <= h <= upper + 1e-6


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture1D.of((0.5, 1.0), (0.6, 2.0))
    with pytest.raises(ValueError):
        GaussianMixture1D.of((1.0, 0.0))
    with pytest.raises(ValueError):
        GaussianMixture1D.of((-0.1, 1.0), (1.1, 1.0))
    m = GaussianMixture1D.of((1.0, 2.0), (0.0, 5.0))
    assert len(m.components) == 1
    assert m.variance() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        GaussianMixtureDiag(weights=np.array([1.0]), variances=np.array([1.0]))


@pytest.mark.parametrize(
    "weights, variances",
    [
        ((0.5, 0.5), (1.0, 0.0)),
        ((0.5, 0.5), (1.0, -2.0)),
        ((0.5, 0.5), (1.0, math.nan)),
        ((0.5, 0.5), (1.0, math.inf)),
        ((0.5, math.nan, 0.5), (1.0, 2.0, 3.0)),
    ],
    ids=["zero_var", "negative_var", "nan_var", "inf_var", "nan_weight"],
)
def test_mixtures_refuse_non_positive_or_non_finite_parts(weights, variances):
    # a NaN weight passes both "< 0" and the sum test and used to be dropped
    with pytest.raises(ValueError):
        GaussianMixtureDiag(weights=np.array(weights), variances=np.array(variances)[:, None])
    with pytest.raises(ValueError):
        GaussianMixture1D(list(zip(weights, variances)))


@st.composite
def scalar_mixtures(draw):
    """(weights, variances) of a scalar mixture: 1-8 components, variances
    spread over e^-30..e^30, weights summing to 1 within 1e-12."""
    comps = draw(
        st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(-30.0, 30.0)),
            min_size=1,
            max_size=8,
        )
    )
    total = sum(a for a, _ in comps)
    w = [a / total for a, _ in comps]
    w[-1] = 1.0 - sum(w[:-1])
    return np.array(w), np.exp([b for _, b in comps])


def test_scalar_mixture_is_a_one_coordinate_diag():
    m = GaussianMixture1D.of((0.25, 1.0), (0.0, 3.0), (0.75, 4.0))
    assert isinstance(m, GaussianMixtureDiag)
    assert m.dim == 1 and m.n_components == 2
    assert m.variances.shape == (2, 1) and not m.variances.flags.writeable
    assert m.components == ((0.25, 1.0), (0.75, 4.0))
    assert GaussianMixture1D(np.array([[0.25, 1.0], [0.75, 4.0]])).components == m.components


@settings(max_examples=100, deadline=None)
@given(scalar_mixtures())
def test_quadrature_coefficients_match_the_scalar_formula(case):
    # entropy_quadrature's coefficients before it shared _density_coefficients
    w, var = case
    m = GaussianMixture1D.of(*zip(w.tolist(), var.tolist()))
    want_log_coef = np.log(m.weights) - 0.5 * (
        math.log(2.0 * math.pi) + np.log(m.variances[:, 0])
    )
    want_inv_2var = (0.5 / m.variances[:, 0])[:, None]
    log_coef, inv_2var = mixture._density_coefficients(m)
    assert log_coef.tobytes() == want_log_coef.tobytes()
    assert inv_2var.shape == want_inv_2var.shape
    assert inv_2var.tobytes() == want_inv_2var.tobytes()


@settings(max_examples=25, deadline=None)
@given(scalar_mixtures(), st.integers(0, 2**32))
def test_entropy_mc_scalar_equals_hand_built_diag(case, seed):
    w, var = case
    m = GaussianMixture1D.of(*zip(w.tolist(), var.tolist()))
    diag = GaussianMixtureDiag(weights=w, variances=var[:, None])
    assert entropy_mc(m, 1000, seed=seed) == entropy_mc(diag, 1000, seed=seed)


@pytest.mark.parametrize("fn", [entropy_quadrature, entropy_upper_bound])
def test_scalar_entropy_functions_reject_vector_mixtures(fn):
    m = GaussianMixtureDiag(
        weights=np.array([0.5, 0.5]), variances=np.array([[1.0, 2.0], [3.0, 4.0]])
    )
    with pytest.raises(TypeError, match="1-D mixture"):
        fn(m)
