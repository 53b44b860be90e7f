"""Network-level measures: closed forms, hand algebra, and cross-checks.

Two-point user-count laws q = (0, q1, q2) admit exact optima by hand:

  eta1 objective (v/2)(q1 + 2 q2 (1 - v/u)) peaks at v = u (1 + q2)/(4 q2)
  when q1 < 2 q2, else at the band edge v = u with value q1 u / 2;
  eta2's interior optimum v = u (q1 + q2)/(2 q2) gives u/(8 q2) when
  q1 < q2, else the edge value q1 u / 2 wins.

Those expressions anchor the optimizer tests below.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from fhshare import _blocks, measures
from fhshare.gains import maximize_on_interval, two_generator_profile
from fhshare.measures import (
    _LOG_UNDERFLOW,
    MAX_USER_COUNT,
    FdConfig,
    FhCurves,
    UserCountPmf,
    _grid_powers,
    build_measure_reports,
    epsilon_backoff_region,
    eta1_afh,
    eta1_fd,
    eta1_fh,
    eta2_afh,
    eta2_fd,
    eta1_fh_poisson_closed,
    eta2_fh_poisson_closed,
    eta3_fd,
    eta3_fh,
    eta4_fd,
    eta4_fh,
    mean_load_conditions,
)
from fhshare.model import NetworkScenario
from fhshare.sim import SimConfig, run

# Reference ten-user count law of the comparison suite.
TEN_USER_MIX = UserCountPmf.finite(
    (0.0, 0.22, 0.24, 0.24, 0.24, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01)
)
# A quoted companion value puts FD's eta2 for TEN_USER_MIX at u/16, which
# the direct formula does not reproduce: n_des = n_max = 10 gives u/20.
# u/16 equals u/(2*8), the n_des = 8 value with the 2% overflow mass
# ignored.
REPORTED_TEN_USER_ETA2_FD_PER_U = 1.0 / 16.0
# Abscissae of the grids the curve tests evaluate on, 0 to u inclusive:
# 8j + 1 of them, the shape on which gemv's groups of 4 hold every row.
GRID_POINTS = 4097


def two_point(q1):
    return UserCountPmf.finite((0.0, q1, 1.0 - q1))


def test_pmf_validation_and_moments():
    pmf = UserCountPmf.finite((0.1, 0.5, 0.4))
    assert pmf.is_finite and pmf.n_max == 2 and pmf.n_top == 2
    assert pmf.mean() == pytest.approx(1.3)
    assert pmf.expect(lambda n: n * 0.0 + 1.0) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        UserCountPmf.finite((0.5, 0.6))
    with pytest.raises(ValueError):
        UserCountPmf.finite((1.0,))
    trailing = UserCountPmf.finite((0.0, 1.0, 0.0))
    assert trailing.n_max == 1


def test_poisson_truncation():
    lam = 4.0
    pmf = UserCountPmf.poisson(lam)
    assert not pmf.is_finite
    assert pmf.n_max is None
    assert poisson.sf(pmf.n_top, lam) < 1e-12 <= poisson.sf(pmf.n_top - 1, lam)
    assert pmf.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf.mean() == pytest.approx(lam, abs=1e-10)
    with pytest.raises(ValueError):
        UserCountPmf.poisson(lam, truncation_n=10)
    deep = UserCountPmf.poisson(lam, truncation_n=500)
    assert deep.n_top == 500
    with pytest.raises(ValueError):
        UserCountPmf.poisson(0.0)


def test_poisson_truncation_input_checks():
    assert UserCountPmf.poisson(4.0, truncation_n=500.0).n_top == 500
    for bad in (True, 40.5, "x", -1, float("nan")):
        with pytest.raises(ValueError, match="integer"):
            UserCountPmf.poisson(4.0, truncation_n=bad)
    # a law too light to reach n = 1 still carries q_0 and q_1
    assert UserCountPmf.poisson(1e-14).n_top == 1
    with pytest.raises(ValueError):
        UserCountPmf.poisson(float("inf"))


def test_poisson_truncation_matches_scipy_stats_search():
    # the first n >= 1 with tail P{N > n} < 1e-12, searched with scipy.stats
    for lam in np.concatenate([np.geomspace(0.01, 1000.0, 200), np.arange(1.0, 1001.0, 37.0)]):
        lam = float(lam)
        n = max(int(poisson.isf(1e-12, lam)), 1)
        while poisson.sf(n, lam) >= 1e-12:
            n += 1
        assert UserCountPmf.poisson(lam).n_top == n, lam


def test_user_count_laws_stop_at_the_cap():
    # lambda = 1e6 used to build a 4097 x 1007043 curve matrix (30.7 GiB)
    with pytest.raises(ValueError, match="too large to truncate"):
        UserCountPmf.poisson(1e6)
    with pytest.raises(ValueError, match="truncation_n"):
        UserCountPmf.poisson(5.0, truncation_n=MAX_USER_COUNT + 1)
    assert UserCountPmf.poisson(5.0, truncation_n=MAX_USER_COUNT).n_top == MAX_USER_COUNT
    for size, ok in ((MAX_USER_COUNT + 1, True), (MAX_USER_COUNT + 2, False)):
        q = np.zeros(size)
        q[1] = 1.0
        if ok:
            assert UserCountPmf.finite(q).n_top == MAX_USER_COUNT
        else:
            with pytest.raises(ValueError, match="stop by"):
                UserCountPmf.finite(q)


def test_fh_measures_match_deep_poisson_truncation():
    # the tail-cut law (549 terms at lambda = 400) against 8001 terms
    lam, u = 400.0, 16.0
    cut, deep = UserCountPmf.poisson(lam), UserCountPmf.poisson(lam, truncation_n=8000)
    assert cut.n_top < 1000
    for measure in (FhCurves.eta1, FhCurves.eta2):
        value, v = measure(FhCurves(cut, u))
        value_deep, v_deep = measure(FhCurves(deep, u))
        assert value == pytest.approx(value_deep, rel=1e-11)
        assert v == pytest.approx(v_deep, abs=1e-9 * u)


def bits(a):
    """a's cells as int64, so that equality compares sign bits too."""
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def cut_cases(draw):
    """Bases 1 - v/u from the measure grid of a Poisson law, in random
    order: the base-1 row (v = 0), the base-0 row (v = u), random rows,
    the grid rows where (n - 1) ln b crosses the underflow edge, and
    bases a few ulps from the edge at some column k. n is the law's
    n_top or an explicit truncation up to 8000."""
    u = draw(st.floats(1e-3, 1e3), label="u")
    lam = draw(st.floats(0.01, 1000.0), label="lambda")
    n = UserCountPmf.poisson(lam).n_top
    truncation = draw(st.none() | st.integers(n, 8000), label="truncation")
    if truncation is not None:
        n = UserCountPmf.poisson(lam, truncation_n=truncation).n_top
    grid = 1.0 - np.linspace(0.0, u, GRID_POINTS) / u
    picks = [0, GRID_POINTS - 1]
    picks += draw(st.lists(st.integers(0, GRID_POINTS - 1), max_size=30), label="rows")
    with np.errstate(divide="ignore"):
        edge = int(np.searchsorted(-(n - 1) * np.log(grid), -_LOG_UNDERFLOW))
    picks += [i for i in range(edge - 2, edge + 3) if 0 <= i < GRID_POINTS]
    bases = list(grid[picks])
    for k in draw(st.lists(st.integers(1, n - 1), max_size=4), label="edge columns"):
        b = math.exp(_LOG_UNDERFLOW / k)
        bases += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0),
                  math.nextafter(math.nextafter(b, 1.0), 1.0)]
    order = draw(st.permutations(range(len(bases))), label="order")
    return np.array(bases)[order], n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cut_cases())
def test_grid_powers_cut_is_bit_identical(case):
    base, n = case
    k = np.arange(n)
    assert bits(_grid_powers(base, k)).tolist() == bits(base[:, None] ** k).tolist()


@pytest.mark.parametrize("lam, u", [(50.0, 3.0), (400.0, 16.0), (1000.0, 64.0)])
def test_fh_curves_match_the_full_grid_bit_for_bit(lam, u):
    # the whole grid of a law with no cut (lambda = 50), the sweep_400
    # matrix, and a wide one; the curves are the matrix times the weights
    pmf = UserCountPmf.poisson(lam)
    v = np.linspace(0.0, u, GRID_POINTS)
    k = np.arange(pmf.n_top)
    full = (1.0 - v / u)[:, None] ** k
    assert np.array_equal(bits(_grid_powers(1.0 - v / u, k)), bits(full))
    q = pmf.weights[1:]
    curves = FhCurves(pmf, u)
    for per_user, w in ((False, np.arange(1, pmf.weights.size) * q), (True, q)):
        assert np.array_equal(bits(curves.curve(per_user)(v)), bits(0.5 * v * (full @ w)))


@st.composite
def load_laws(draw, max_lambda=2000.0):
    """A finite law of up to 40 counts, or a Poisson one up to max_lambda
    truncated anywhere up to MAX_USER_COUNT."""
    if draw(st.booleans(), label="finite"):
        q = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40), label="q"))
        q[-1] += 0.5
        return UserCountPmf.finite(q / q.sum())
    lam = draw(st.floats(0.1, max_lambda), label="lambda")
    n_top = UserCountPmf.poisson(lam).n_top
    if draw(st.booleans(), label="truncated further out"):
        n_top = draw(st.integers(n_top, MAX_USER_COUNT), label="n_top")
    return UserCountPmf.poisson(lam, n_top)


@st.composite
def blocked_curve_cases(draw):
    """A law (finite, or Poisson truncated anywhere up to MAX_USER_COUNT),
    a band size, a grid and a block size in cells, from below 8 rows to
    many rows of the law. Grids hold 8j + 1 abscissae from 0 to u, the
    shape of the maximizer's 4097 (which a law gets when the reference's
    whole matrix fits 16 MB): on other sizes OpenBLAS's split of the
    whole matrix across two threads can leave rows out of its groups of
    4, which moves the reference itself."""
    pmf = draw(load_laws())
    u = draw(st.sampled_from([1.0, 3.0, 16.0, 64.0]), label="u")
    most = max(1, min((GRID_POINTS - 1) // 8, (1 << 18) // pmf.n_top))
    j = draw(st.one_of(st.just(most), st.integers(1, most)), label="grid / 8")
    cells = draw(st.integers(1, 48 * pmf.n_top), label="block cells")
    return pmf, u, np.linspace(0.0, u, 8 * j + 1), cells


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(blocked_curve_cases())
@example((UserCountPmf.poisson(400.0), 16.0, np.linspace(0.0, 16.0, GRID_POINTS), 1 << 16))
@example((UserCountPmf.poisson(400.0, MAX_USER_COUNT), 16.0, np.linspace(0.0, 16.0, 33), 1))
def test_blocked_curves_equal_the_whole_grid_product(case):
    # the curves built in row blocks of any size, the last one short or
    # not, are the whole grid matrix times the weights, bit for bit
    pmf, u, v, cells = case
    q = pmf.weights[1:]
    full = _grid_powers(1.0 - v / u, np.arange(pmf.n_top))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "BLOCK_DOUBLES", cells)
        curves = FhCurves(pmf, u)
        for per_user, w in ((False, np.arange(1, pmf.weights.size) * q), (True, q)):
            assert bits(curves.curve(per_user)(v)).tolist() == bits(0.5 * v * (full @ w)).tolist()


def test_fh_curves_peak_memory_does_not_grow_with_the_law():
    # maximizing both curves holds one row block of the grid, never the
    # whole (4097 x n_top) matrix: 131 MB at n_top = 4000
    peaks = []
    for n_top in (1000, 4000):
        pmf = UserCountPmf.poisson(400.0, truncation_n=n_top)
        tracemalloc.start()
        try:
            curves = FhCurves(pmf, 16.0)
            curves.eta1()
            curves.eta2()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a few vectors of n_top values and a 512 KiB block with its temporaries
    assert peaks[1] - peaks[0] <= 64 * (4000 - 1000), peaks
    assert peaks[1] <= 32 * _blocks.BLOCK_DOUBLES, peaks


def weight_vectors(pmf):
    """(n q_n, q_n) for n >= 1: the eta1 and the eta2 curve's weights."""
    q = pmf.weights[1:]
    return np.arange(1, pmf.weights.size) * q, q


@st.composite
def maximized_laws(draw):
    """A finite law of n_max 1 to 40, with or without mass at N = 0, all
    its mass at N = 1 or all at N = 0, or a Poisson law up to 400."""
    kind = draw(st.sampled_from(["finite", "poisson", "at one", "at zero"]), label="kind")
    if kind == "at one":
        return UserCountPmf.finite((0.0, 1.0))
    if kind == "at zero":
        return UserCountPmf.finite((1.0, 0.0))
    if kind == "poisson":
        return UserCountPmf.poisson(draw(st.floats(0.1, 400.0), label="lambda"))
    q = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=41), label="q"))
    q[-1] += 0.5
    if not draw(st.booleans(), label="mass at zero"):
        q[0] = 0.0
    return UserCountPmf.finite(q / q.sum())


BANDS = [1.0, 7.0, 16.0, 16.1, 1e-320, 1e308]


def certified(value, exact):
    """value is within the maximizer's margins of every exact curve value:
    1e-9 relative, twice (once for the bound, once for the root that may
    stand in for the best point), and 1e-300 absolute."""
    return bool((exact <= (value + 1e-300) * (1.0 + 2.5e-9)).all())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(maximized_laws(), min_size=1, max_size=3), st.sampled_from(BANDS),
       st.integers(1, 1 << 17))
@example([UserCountPmf.poisson(400.0)], 16.0, 1 << 16)
@example([UserCountPmf.finite([0.0, 0.5, 0.5]), UserCountPmf.poisson(20.0)], 1e-320, 1 << 16)
@example([UserCountPmf.poisson(20.0), UserCountPmf.finite([0.2, 0.3, 0.5])], 1e308, 100)
@example([UserCountPmf.finite([0.0, 5e-324, 1.0 - 5e-324])], 1e308, 1 << 16)
@example([UserCountPmf.finite([0.0, 0.9, 0.1])], 16.0, 1 << 16)
def test_the_maximizer_objective_is_exact_or_certified_below_the_maximum(laws, u, cells):
    # The maximizer's objective gives S, the grid product, bit for bit on
    # every array of abscissae it is asked for, in row blocks of any size,
    # and to rounding on the one abscissa of a root step; S' and S'' are
    # the grid products of k w_k and k (k - 1) w_k. Every
    # value of the exact curve, on the 4097-point grid and at every
    # abscissa the maximizer asked for, is within its margins of the
    # value it returns, which is the curve at the hop count it returns.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "BLOCK_DOUBLES", cells)
        for pmf in laws:
            for fh in (FhCurves(pmf, u), FhCurves(pmf, 1.0)):
                k = np.arange(pmf.n_top)
                for per_user, w in enumerate(weight_vectors(pmf)):
                    asked = []
                    sums = fh._sums(bool(per_user))

                    def recording(v):
                        asked.append(v.copy())
                        return sums(v)

                    x, fx = maximize_on_interval(recording, fh.u)
                    grid = np.linspace(0.0, fh.u, GRID_POINTS)
                    for v in asked + [grid]:
                        powers = _grid_powers(1.0 - v / fh.u, k)
                        got = sums(v)
                        want = [powers @ w, powers[:, :-1] @ (k[1:] * w[1:]),
                                powers[:, :-2] @ (k[1:-1] * k[2:] * w[2:])]
                        if v.size > 1:
                            assert bits(got[0]).tolist() == bits(want[0]).tolist()
                        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
                        assert certified(fx, 0.5 * v * want[0])
                    assert 0.0 <= x <= fh.u
                    assert fx == pytest.approx(float(fh.curve(bool(per_user))(np.array([x]))[0]),
                                               rel=1e-14, abs=1e-320)


def test_fh_curves_return_at_a_subnormal_band(monkeypatch):
    # At u = 1e-320 every cell of the maximizer lies among subnormals,
    # where the search for the turn of f' stops at the spacing of doubles.
    # An objective that refuses a thousandth call turns a search that does
    # not end into a failure.
    def guarded(sums, u):
        calls = []

        def once(v):
            calls.append(1)
            if len(calls) >= 1000:
                raise RuntimeError("the maximizer does not end")
            return sums(v)

        return maximize_on_interval(once, u)

    monkeypatch.setattr(measures, "maximize_on_interval", guarded)
    u = 1e-320
    for pmf in (UserCountPmf.finite((0.0, 0.5, 0.5)), UserCountPmf.poisson(20.0)):
        fh = FhCurves(pmf, u)
        for value, v in (fh.eta1(), fh.eta2()):
            assert 0.0 <= v <= u and 0.0 <= value <= u


def two_peaks(u):
    """q2 = 0.4 and q8000 = 0.6 at band u: the eta1 curve has a broad peak
    of 0.1 u at v = u/2 and a narrow one, about u/8000 wide, near v =
    u/8000, which is higher."""
    q = np.zeros(8001)
    q[2], q[8000] = 0.4, 0.6
    return FhCurves(UserCountPmf.finite(q), u)


@pytest.mark.parametrize("u", [16.0, 1.0])
def test_a_peak_narrower_than_any_grid_cell_is_found(u):
    # a grid of 4097 hop counts samples the narrow peak at 75% of its
    # height, below the broad one, and so had printed 1.6 at v = 8 for u =
    # 16: 9.4% low
    fh = two_peaks(u)
    value, v_star = fh.eta1()
    assert value >= 1.7667 * u / 16.0 and v_star < 0.01 * u / 16.0
    assert certified(value, dense_peak_scan(fh.pmf, u, False))


@st.composite
def sparse_wide_laws(draw):
    """A finite law of 2 to 4 masses at counts up to MAX_USER_COUNT."""
    counts = draw(st.lists(st.integers(1, MAX_USER_COUNT), min_size=2, max_size=4,
                           unique=True), label="counts")
    mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(counts),
                                  max_size=len(counts)), label="masses"))
    q = np.zeros(max(counts) + 1)
    q[counts] = mass / mass.sum()
    return UserCountPmf.finite(q)


def dense_peak_scan(pmf, u, per_user):
    """The largest value of a curve over 20001 hop counts around each term's
    own peak v = u/n, and over 4097 on [0, u]: the curve of the law's
    nonzero masses only, so that wide laws stay cheap."""
    n = np.flatnonzero(pmf.weights)
    n = n[n > 0]
    q = pmf.weights[n]
    w = q if per_user else n * q
    v = np.concatenate([np.linspace(0.0, u, GRID_POINTS)]
                       + [np.linspace(0.0, min(u, 4.0 * u / m), 20001) for m in n])
    values = [0.5 * chunk * (np.power(1.0 - chunk[:, None] / u, n - 1) @ w)
              for chunk in np.array_split(v, 16)]
    return np.concatenate(values).max()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sparse_wide_laws(), st.sampled_from([1.0, 16.0, 16.1]))
@example(two_peaks(16.0).pmf, 16.0)
def test_sparse_wide_laws_reach_a_dense_scan(pmf, u):
    # no peak of a law of few far-apart masses is lost: eta1 and eta2 are
    # at least a dense scan's maximum, less the maximizer's margins
    fh = FhCurves(pmf, u)
    for (value, _), per_user in ((fh.eta1(), False), (fh.eta2(), True)):
        assert certified(value, dense_peak_scan(pmf, u, per_user))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(load_laws(), st.sampled_from([1.0, 3.0, 16.0, 16.1, 64.0]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_one_abscissa_is_the_row_product_bit_for_bit(pmf, u, fractions):
    # a curve on one abscissa is the one-row matrix product
    # (1 - v/u)[:, None] ** k @ w, as a 1-element array
    fh = FhCurves(pmf, u)
    k = np.arange(pmf.n_top)
    for per_user, w in enumerate(weight_vectors(pmf)):
        f = fh.curve(bool(per_user))
        for x in fractions:
            v = np.array([x * u])
            got = f(v)
            assert isinstance(got, np.ndarray) and got.shape == (1,)
            assert bits(got).tolist() == bits(0.5 * v * ((1.0 - v / u)[:, None] ** k @ w)).tolist()


def test_eta1_two_point_edge_optimum():
    # q1 = 0.8 > 2 q2: expected SMG rises all the way to v = u.
    u = 8.0
    value, v_star = eta1_fh(two_point(0.8), u)
    assert v_star == pytest.approx(u, abs=1e-9 * u)
    assert value == pytest.approx(0.4 * u, rel=1e-12)


def test_eta1_two_point_interior_optimum():
    # q1 = 0.4 < 2 q2: stationary point v = u (1 + q2) / (4 q2) = 2u/3.
    u = 8.0
    value, v_star = eta1_fh(two_point(0.4), u)
    assert v_star == pytest.approx(2.0 * u / 3.0, abs=1e-12 * u)
    assert value == pytest.approx(u * 1.6**2 / (16 * 0.6), abs=1e-9 * u)
    assert value == pytest.approx(0.8 * u / 3.0, abs=1e-9 * u)
    # Independent coarse grid can only do worse.
    grid = np.linspace(0.0, u, 20001)
    q = two_point(0.4).weights
    obj = 0.5 * grid * (q[1] + 2 * q[2] * (1 - grid / u))
    assert value >= obj.max() - 1e-12


def test_eta1_poisson_closed_form():
    for u in (7.0, 20.0):
        for lam in (2.0, 5.0, 10.0):
            value, v_star = eta1_fh(UserCountPmf.poisson(lam), u)
            assert value == pytest.approx(u / (2 * math.e), abs=1e-9 * u)
            assert v_star == pytest.approx(u / lam, abs=1e-6 * u)
        # Light load pins the optimum to the band edge.
        value, v_star = eta1_fh(UserCountPmf.poisson(0.5), u)
        assert v_star == pytest.approx(u, abs=1e-9 * u)
        assert value == pytest.approx(0.25 * u * math.exp(-0.5), abs=1e-9 * u)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(1.0, 50.0), u=st.floats(1e-3, 1e3))
@example(lam=1.0, u=8.0)
@example(lam=50.0, u=1e3)
def test_eta1_poisson_closed_form_property(lam, u):
    # (v/2) lam exp(-lam v/u) peaks at v* = u/lam <= u with value u/(2e)
    value, v_star = eta1_fh(UserCountPmf.poisson(lam), u)
    assert abs(value - u / (2 * math.e)) <= 1e-9 * u
    assert abs(v_star - u / lam) <= 1e-12 * u


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.99, 1.0, 1.01, 3.0, 400.0])
@pytest.mark.parametrize("u", [1.0, 7.0, 16.0, 16.1, 1e-3, 1e300])
def test_eta1_poisson_closed_form_matches_numeric_optimum(lam, u):
    # u/(2e) at v* = u/lam for lam >= 1, (u/2) lam e^-lam at v* = u below.
    # The numeric v* is the root of f' found to the rounding of f', which
    # is about eps u, not sqrt(eps) u where the values of f stop telling.
    closed, v_star = eta1_fh_poisson_closed(lam, u)
    numeric, v_num = FhCurves(UserCountPmf.poisson(lam), u).eta1()
    assert closed == pytest.approx(numeric, rel=1e-9)
    assert abs(v_star - v_num) <= 1e-12 * u
    assert v_star == (u / lam if lam >= 1.0 else u)


@pytest.mark.parametrize("lam", [0.0, -1.0, -math.inf, math.nan])
def test_eta1_poisson_closed_form_refuses_a_rate_not_above_zero(lam):
    with pytest.raises(ValueError, match="lambda must be positive"):
        eta1_fh_poisson_closed(lam, 4.0)


def test_eta1_fd():
    u = 8.0
    assert eta1_fd(two_point(0.8), FdConfig(n_des=2), u) == pytest.approx(
        (u / 4) * (1 + 0.2)
    )
    # n_des = 1: every extra user is turned away, E{SMG} = u/2 P{N >= 1}.
    assert eta1_fd(two_point(0.8), FdConfig(n_des=1), u) == pytest.approx(u / 2)


@pytest.mark.parametrize("n_des", [1, 2, 4, int(1e308)])
def test_eta1_fd_does_not_overflow_near_the_largest_band(n_des):
    # 0.5 n u overflows at u = 1e308 for n >= 4, also on the rows past
    # n_des that are replaced by u/2; eta1_fd must neither warn nor
    # overflow, and at n_des = floor(u) it is (u/2) E{N}/n_des = 1.5
    u = 1e308
    pmf = UserCountPmf.poisson(3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = eta1_fd(pmf, FdConfig(n_des=n_des), u)
    n = np.arange(1, pmf.weights.size)
    want = 0.5 * u * float((pmf.weights[1:] * np.minimum(n / n_des, 1.0)).sum())
    assert value == pytest.approx(want, rel=1e-12) and math.isfinite(value)
    if n_des == int(1e308):
        assert value == pytest.approx(1.5, rel=1e-9)


def test_eta2_two_point_interior_optimum():
    # q = (0, 0.3, 0.7): v_dagger = u (q1 + q2)/(2 q2) = 5u/7, value u/(8 q2).
    u = 14.0
    value, v_dag = FhCurves(two_point(0.3), u).eta2()
    assert v_dag == pytest.approx(5.0 * u / 7.0, abs=1e-6 * u)
    assert value == pytest.approx(u / 5.6, abs=1e-9 * u)


def test_eta2_two_point_edge():
    u = 8.0
    value, v_dag = FhCurves(two_point(0.8), u).eta2()
    assert value == pytest.approx(0.4 * u, rel=1e-9)
    value1, v1 = FhCurves(UserCountPmf.finite((0.0, 1.0)), u).eta2()
    assert value1 == pytest.approx(0.5 * u) and v1 == u


def test_eta2_poisson_closed_reference():
    value, omega = eta2_fh_poisson_closed(5.0, 1.0)
    assert omega == pytest.approx(0.7347, abs=5e-4)
    assert value == pytest.approx(0.0467, abs=5e-4)
    with pytest.raises(ValueError):
        eta2_fh_poisson_closed(-1.0, 1.0)


def test_eta2_poisson_closed_vs_numeric():
    u = 9.0
    for lam in (0.5, 1.5, 2.0, 2.5, 4.0, 7.0, 12.0, 20.0):
        closed, omega = eta2_fh_poisson_closed(lam, u)
        numeric, v_dag = FhCurves(UserCountPmf.poisson(lam), u).eta2()
        assert numeric == pytest.approx(closed, abs=1e-6 * u)
        if lam > 2.0:
            assert v_dag == pytest.approx(u * (1 - omega), abs=1e-4 * u)
        else:
            assert v_dag == pytest.approx(u, abs=1e-6 * u)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.one_of(
        st.floats(0.0, 500.0, exclude_min=True),
        st.floats(2.0, 2.5),
        st.floats(-12.0, -0.3).map(lambda e: 2.0 + 10.0**e),
    ),
    u=st.floats(1.0, 100.0),
)
@example(lam=2.05, u=16.0)
def test_eta2_poisson_closed_form_matches_numeric_optimum(lam, u):
    # just above lambda = 2 the optimum sits at a small omega, where the
    # root's sign test must be resolved, not rounding noise
    closed, _ = eta2_fh_poisson_closed(lam, u)
    numeric, _ = FhCurves(UserCountPmf.poisson(lam), u).eta2()
    assert abs(closed - numeric) <= 1e-9 * u


@pytest.mark.parametrize("lam", [720.0, 800.0])
def test_eta2_poisson_closed_form_past_expm1_overflow(lam):
    # lam * omega passes 709.8, where expm1 alone overflows although
    # exp(-lam) * expm1(lam * omega) is about 1e-3
    u = 4.0
    closed, omega = eta2_fh_poisson_closed(lam, u)
    assert lam * omega > 709.8
    numeric, _ = FhCurves(UserCountPmf.poisson(lam), u).eta2()
    assert closed == pytest.approx(numeric, rel=1e-9)


def test_eta1_poisson_closed_vs_numeric_curve():
    u = 6.0
    for lam in (0.5, 0.9, 1.0, 1.7, 3.0, 8.0, 15.0):
        numeric, _ = eta1_fh(UserCountPmf.poisson(lam), u)
        closed = (
            0.5 * u * lam * math.exp(-lam) if lam < 1.0 else u / (2 * math.e)
        )
        assert numeric == pytest.approx(closed, abs=1e-7 * u)


def test_ten_user_mix_reference():
    u = 16.0
    value, v_dag = FhCurves(TEN_USER_MIX, u).eta2()
    assert v_dag == pytest.approx(0.72 * u, abs=0.005 * u)
    assert value == pytest.approx(0.1121 * u, abs=0.0005 * u)


def test_ten_user_fd_discrepancy_is_surfaced():
    u = 16.0
    computed = eta2_fd(TEN_USER_MIX, FdConfig(n_des=10), u)
    reported = REPORTED_TEN_USER_ETA2_FD_PER_U * u
    assert computed == pytest.approx(u / 20.0, rel=1e-12)
    assert reported == pytest.approx(u / 16.0, rel=1e-12)
    assert not math.isclose(computed, reported, rel_tol=1e-9)
    # n_des = 8 reproduces the quoted number only up to the 2% of mass
    # above 8 users: (u/16) P{1 <= N <= 8}.
    assert eta2_fd(TEN_USER_MIX, FdConfig(n_des=8), u) == pytest.approx(
        (u / 16.0) * 0.98, rel=1e-12
    )


def test_eta2_fd_hand_values():
    u = 8.0
    assert eta2_fd(two_point(0.5), FdConfig(n_des=2), u) == pytest.approx(u / 4)
    # Mass beyond n_des does not count as served.
    pmf = UserCountPmf.finite((0.0, 0.2, 0.3, 0.5))
    assert eta2_fd(pmf, FdConfig(n_des=2), u) == pytest.approx((u / 4) * 0.5)
    with pytest.raises(ValueError):
        FdConfig(n_des=0)


@pytest.mark.parametrize(
    "pmf",
    [UserCountPmf.poisson(3.0), UserCountPmf.finite((0.0, 0.5, 0.5))],
    ids=["poisson", "finite"],
)
def test_fd_default_serves_at_least_one_user(pmf):
    # floor(u) slices for u < 1 would be none at all
    assert FdConfig.default_for(pmf, 0.5).n_des == 1
    assert FdConfig.default_for(pmf, 7.9).n_des == (7 if pmf.n_max is None else 2)


def test_eta3_ratio_band():
    u = 12.0
    prev_ratio = 1.0 + 1e-12
    for n in range(1, 51):
        fd = eta3_fd(n, u)
        fh = eta3_fh(n, u)
        assert fd == pytest.approx(0.5 * u / n, rel=1e-12)
        ratio = fh / fd
        assert 1.0 / math.e - 1e-12 <= ratio <= 1.0 + 1e-12
        assert ratio <= prev_ratio + 1e-12
        prev_ratio = ratio
    assert eta3_fh(1, u) == pytest.approx(u / 2)
    # the even split v = u/4: SMG(u/4, 4)/4 = (u/8)(3/4)^3
    assert eta3_fh(4, u) == pytest.approx((u / 8) * 0.75**3, rel=1e-12)
    for fn in (eta3_fh, eta3_fd):
        with pytest.raises(ValueError):
            fn(0, u)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10_000), st.floats(1e-6, 1e6))
def test_eta3_ratio_property(n_max, u):
    # worst case at n_max: FH keeps between 1/e and all of FD's share
    ratio = eta3_fh(n_max, u) / eta3_fd(n_max, u)
    assert 1.0 / math.e - 1e-12 <= ratio <= 1.0 + 1e-12


def test_eta4_values():
    u = 5.0
    pmf = UserCountPmf.poisson(3.0)
    assert eta4_fh(pmf, 2.0, u) == 1.0
    val = eta4_fd(pmf, FdConfig(n_des=5))
    assert val == pytest.approx(0.9806, abs=5e-4)
    # Full-band hopping only serves a lone user.
    finite = UserCountPmf.finite((0.1, 0.6, 0.3))
    assert eta4_fh(finite, u, u) == pytest.approx(0.6)
    assert eta4_fd(finite, FdConfig(n_des=2)) == 1.0


def reference_eta2_fd(pmf, fd, u):
    """eta2_fd as a slice of the weights, before it went through expect()."""
    q = np.asarray(pmf.weights)
    return 0.5 * u / fd.n_des * float(q[1 : fd.n_des + 1].sum())


def reference_eta4_fd(pmf, fd):
    """FD eta4 as a masked sum, before it went through expect()."""
    q = np.asarray(pmf.weights)
    n = np.arange(len(q))
    over = n > fd.n_des
    return 1.0 - float((q[over] * (1.0 - fd.n_des / n[over])).sum())


@st.composite
def loads(draw):
    """Finite loads, with and without mass at N = 0, or Poisson laws."""
    if draw(st.booleans()):
        return UserCountPmf.poisson(10.0 ** draw(st.floats(-2.0, 2.7)))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
    w = np.array(raw)
    w[1] += 1e-3  # not all zero
    if draw(st.booleans()):
        w[0] = 0.0
    return UserCountPmf.finite(w / w.sum())


@settings(max_examples=300, deadline=None)
@given(loads(), st.integers(1, 60), st.floats(0.5, 100.0))
def test_fd_sums_through_expect_match_references(pmf, n_des, u):
    fd = FdConfig(n_des=n_des)
    got2, want2 = eta2_fd(pmf, fd, u), reference_eta2_fd(pmf, fd, u)
    # both are (u / 2 n_des) times a probability in [0, 1]
    assert abs(got2 - want2) <= 1e-15 * (0.5 * u / n_des)
    got4, want4 = eta4_fd(pmf, fd), reference_eta4_fd(pmf, fd)
    assert 0.0 <= got4 <= 1.0
    assert abs(got4 - want4) <= 1e-15
    assert pmf.mean() == pytest.approx(float(np.arange(pmf.n_top + 1) @ pmf.weights), rel=1e-14)


def test_weights_are_a_read_only_array():
    q = [0.0, 0.5, 0.5]
    pmf = UserCountPmf.finite(q)
    assert isinstance(pmf.weights, np.ndarray) and pmf.weights.dtype == float
    with pytest.raises(ValueError):
        pmf.weights[1] = 1.0
    q[1] = 1.0  # the law holds its own copy
    assert pmf.weights[1] == 0.5
    with pytest.raises(ValueError, match="NaN"):
        UserCountPmf.finite((0.5, float("nan"), 0.5))
    with pytest.raises(ValueError):
        UserCountPmf.finite(((0.5, 0.5),))


def test_backoff_two_point_algebra():
    u = 10.0
    cmp01 = epsilon_backoff_region(two_point(0.7), u, 0.1 * u)
    assert cmp01.q1_multiplier == pytest.approx(2.05, rel=1e-12)
    assert cmp01.q1_threshold == pytest.approx(2.05 / 3.05, rel=1e-12)
    assert cmp01.q2_bound == pytest.approx((1 / 0.9) * (1 - 1 / 1.8), rel=1e-12)
    # q1 = 0.7 > 2.05 * 0.3 and q2 = 0.3 < bound: FH wins both.
    assert cmp01.eta1_holds and cmp01.eta2_holds
    losing = epsilon_backoff_region(two_point(0.6), u, 0.1 * u)
    assert not losing.eta1_holds  # 0.6 < 2.05 * 0.4
    heavy = epsilon_backoff_region(two_point(0.45), u, 0.1 * u)
    assert not heavy.eta2_holds  # q2 = 0.55 > 0.4938

    tiny = epsilon_backoff_region(two_point(0.7), u, 1e-9 * u)
    assert tiny.q1_multiplier == pytest.approx(2.0, abs=1e-6)
    assert tiny.q2_bound == pytest.approx(0.5, abs=1e-6)

    with pytest.raises(ValueError):
        epsilon_backoff_region(two_point(0.7), u, 0.0)
    with pytest.raises(ValueError):
        epsilon_backoff_region(two_point(0.7), u, 0.5 * u)

    # The holds booleans are exactly the algebraic tests.
    for q1 in (0.55, 0.65, 0.672, 0.68, 0.75):
        c = epsilon_backoff_region(two_point(q1), u, 0.1 * u)
        assert c.eta1_holds == (q1 > c.q1_multiplier * (1 - q1))
        assert c.eta1_holds == (q1 > c.q1_threshold)
        assert c.eta2_holds == ((1 - q1) < c.q2_bound)

    wide = epsilon_backoff_region(UserCountPmf.finite((0, 0.5, 0.3, 0.2)), u, 1.0)
    assert wide.q1_multiplier is None and wide.q2_bound is None
    assert math.isfinite(wide.fh_eta1) and math.isfinite(wide.fd_eta2)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-6, 0.3))
@example(8.0, 1e-4)
@example(8.0, 1e-2)
@example(1e-3, 1e-6)
@example(1e3, 1e-6)
def test_direct_comparison_flips(u, d):
    # For two-point laws the FH/FD winner flips at q1 = 2/3 (eta1) and
    # q1 = 1/2 (eta2) for every u; check both sides at distance d.
    fd = FdConfig(n_des=2)
    hi, lo = 2 / 3 + d, 2 / 3 - d
    assert eta1_fh(two_point(hi), u)[0] > eta1_fd(two_point(hi), fd, u)
    assert eta1_fh(two_point(lo), u)[0] < eta1_fd(two_point(lo), fd, u)
    hi2, lo2 = 0.5 + d, 0.5 - d
    assert FhCurves(two_point(hi2), u).eta2()[0] > eta2_fd(two_point(hi2), fd, u)
    assert FhCurves(two_point(lo2), u).eta2()[0] < eta2_fd(two_point(lo2), fd, u)


def test_sufficient_conditions():
    # Light two-point load: both conditions hold and both comparisons win.
    light = two_point(0.9)
    checks = mean_load_conditions(light)
    assert list(checks) == ["eta1", "eta2"]
    for c in checks.values():
        assert c.condition_holds and c.inequality_verified

    # Degenerate single-user law: condition fails, comparison ties.
    c = mean_load_conditions(UserCountPmf.finite((0.0, 1.0)))["eta1"]
    assert not c.condition_holds and not c.inequality_verified

    # laws outside the hypothesis get no checks
    assert mean_load_conditions(UserCountPmf.poisson(3.0)) == {}
    assert mean_load_conditions(UserCountPmf.finite((0.5, 0.5))) == {}


def test_sufficient_conditions_share_unit_curves(monkeypatch):
    # both conditions compare on one FhCurves at u = 1, whose eta1 and
    # eta2 maximizations start from the same hop counts on [0, 1], and
    # each check is the condition's formula beside the direct comparison
    built = []
    grid_powers = measures._grid_powers

    def counting(base, k):
        built.append(base.copy())
        return grid_powers(base, k)

    monkeypatch.setattr(measures, "_grid_powers", counting)
    q1 = 0.7
    light = two_point(q1)
    checks = mean_load_conditions(light)
    starts = [base for base in built if base[0] == 1.0 and base[-1] == 0.0]
    assert len(starts) == 2 and np.array_equal(starts[0], starts[1])
    mean_n = 2.0 - q1
    fd = FdConfig(n_des=2)
    assert checks["eta1"].condition_holds == (mean_n < 0.5 * math.log(2.0 * (math.e**2 - 1.0)))
    assert checks["eta1"].inequality_verified == (eta1_fh(light, 1.0)[0] > eta1_fd(light, fd, 1.0))
    lhs = (1.0 / mean_n) * (1.0 - 1.0 / mean_n) ** (mean_n - 1.0)
    assert checks["eta2"].condition_holds == (lhs > 0.5)
    assert checks["eta2"].inequality_verified == (FhCurves(light, 1.0).eta2()[0] > eta2_fd(light, fd, 1.0))


def test_a_wide_law_builds_each_grid_row_once(monkeypatch):
    # Poisson(400): each maximization computes a hop count's row of powers
    # at most once, in row blocks, and the two together compute fewer
    # than a tenth of the rows of a 4097-point grid
    built = []
    grid_powers = measures._grid_powers

    def counting(base, k):
        built.append(base.copy())
        return grid_powers(base, k)

    monkeypatch.setattr(measures, "_grid_powers", counting)
    curves = FhCurves(UserCountPmf.poisson(400.0), 16.0)
    rows = 0
    for measure in (curves.eta1, curves.eta2):
        built.clear()
        measure()
        bases = np.concatenate(built).tolist()
        assert len(bases) == len(set(bases))
        rows += len(bases)
    assert rows < 0.1 * GRID_POINTS


def test_sufficient_conditions_reject_mass_at_zero():
    # mass at N = 0 is outside both conditions' hypothesis
    assert mean_load_conditions(UserCountPmf.finite((0.5, 0.25, 0.25))) == {}


def test_mean_load_conditions_skip_poisson_laws():
    # Poisson(0.8) meets the eta1 mean-load test at n_max = 2, yet FD with
    # two slices beats FH there: the test says nothing outside its
    # hypothesis, so no check is made at all
    lam = 0.8
    pmf = UserCountPmf.poisson(lam)
    assert mean_load_conditions(pmf) == {}
    assert lam < 0.5 * math.log((math.e**2 - 1.0) * 2)
    assert eta1_fh(pmf, 1.0)[0] < eta1_fd(pmf, FdConfig(n_des=2), 1.0)


def test_sufficient_conditions_never_contradicted_randomized():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n_max = int(rng.integers(1, 13))
        w = rng.random(n_max + 1)
        w[0] = 0.0
        w /= w.sum()
        assert list(mean_load_conditions(UserCountPmf.finite(w))) == ["eta1", "eta2"]


def test_eta2_condition_boundary_two_point():
    # The eta2 condition's threshold in q1 solves
    # (1/E)(1 - 1/E)^(E-1) = 1/2 with E = 2 - q1; locate it and check the
    # condition flips there while the direct inequality keeps holding in
    # a neighborhood (sufficient, not necessary).
    def lhs(q1):
        e = 2.0 - q1
        return (1.0 / e) * (1.0 - 1.0 / e) ** (e - 1.0)

    lo, hi = 0.2, 0.99
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) > 0.5:
            hi = mid
        else:
            lo = mid
    q1_star = 0.5 * (lo + hi)
    assert 0.6 < q1_star < 0.75
    above = mean_load_conditions(two_point(q1_star + 1e-3))["eta2"]
    below = mean_load_conditions(two_point(q1_star - 1e-3))["eta2"]
    assert above.condition_holds and above.inequality_verified
    assert not below.condition_holds
    assert below.inequality_verified  # still true just below the threshold


def test_eta_afh_hand_values():
    u = 8.0
    assert eta1_afh(UserCountPmf.finite((0.0, 1.0)), u) == pytest.approx(u / 2)
    assert eta1_afh(UserCountPmf.finite((0.0, 0.0, 1.0)), u) == pytest.approx(u / 4)
    assert eta2_afh(UserCountPmf.finite((0.0, 0.0, 1.0)), u) == pytest.approx(u / 8)


def test_eta_afh_truncation_stability():
    u = 5.0
    base = eta1_afh(UserCountPmf.poisson(4.0), u)
    deep = eta1_afh(UserCountPmf.poisson(4.0, truncation_n=400), u)
    assert base == pytest.approx(deep, abs=1e-9 * u)


def test_measure_dominance():
    # Adapting the hop count to the realized load can only help, and the
    # served-user restriction can only hurt.
    rng = np.random.default_rng(12)
    u = 7.0
    for _ in range(40):
        n_max = int(rng.integers(1, 9))
        w = rng.random(n_max + 1)
        w[0] = 0.0
        w /= w.sum()
        pmf = UserCountPmf.finite(w)
        e1, _ = eta1_fh(pmf, u)
        e2, _ = FhCurves(pmf, u).eta2()
        assert e1 >= e2 - 1e-12
        assert eta1_afh(pmf, u) >= e1 - 1e-9
        assert eta2_afh(pmf, u) >= e2 - 1e-9
        assert eta1_afh(pmf, u) >= eta2_afh(pmf, u) - 1e-12


def test_build_measure_reports_poisson():
    u = 10.0
    records = build_measure_reports(UserCountPmf.poisson(5.0), u)
    # no n_max, so no eta3
    assert [(m.scheme, m.measure) for m in records] == [
        (s, e) for s in ("fh", "fd", "afh") for e in ("eta1", "eta2", "eta4")
    ]
    by_key = {(m.scheme, m.measure): m for m in records}
    fh1 = by_key["fh", "eta1"]
    assert fh1.value == pytest.approx(u / (2 * math.e), abs=1e-9 * u)
    assert fh1.param == "v_star"
    assert fh1.param_value == pytest.approx(2.0, abs=1e-5)
    assert by_key["fh", "eta4"].value == 1.0
    assert all(m.param == "n_des" and m.param_value == 10 for m in records if m.scheme == "fd")
    assert all(m.param is None and m.param_value is None for m in records if m.scheme == "afh")
    assert by_key["afh", "eta4"].value == 1.0
    assert by_key["afh", "eta1"].value >= fh1.value - 1e-9


def test_build_measure_reports_finite():
    u = 8.0
    records = build_measure_reports(two_point(0.8), u, epsilon=0.5)
    by_key = {(m.scheme, m.measure): m for m in records}
    # eta1 edge optimum forces the service hop count back to u - epsilon.
    assert by_key["fh", "eta1"].param_value == pytest.approx(u)
    assert by_key["fh", "eta4"][3:] == ("v", pytest.approx(u - 0.5))
    assert by_key["fh", "eta4"].value == 1.0
    assert by_key["fh", "eta3"].value == pytest.approx(eta3_fh(2, u))
    assert by_key["fh", "eta3"][3:] == ("v", pytest.approx(u / 2))
    assert by_key["fd", "eta3"].value == pytest.approx(u / 4)
    assert by_key["fd", "eta3"][3:] == ("n_des", 2)
    assert by_key["afh", "eta3"].value == by_key["fh", "eta3"].value


@pytest.mark.parametrize("per_user", [False, True], ids=["eta1", "eta2"])
@pytest.mark.parametrize(
    "q", [(0, 0.2, 0.3, 0.3, 0.2), (0, 0.1, 0.1, 0.2, 0.2, 0.2, 0.2)], ids=["four", "six"]
)
def test_fh_measures_match_the_simulator(q, per_user):
    # n users on the two-generator profile of the optimal hop count, with
    # unit gains: a user's gain is half its mean count of free sub-bands,
    # so eta1 = sum_n q_n (1/2) sum_i free_mean_i and eta2 weighs by q_n/n.
    # The SE of each sum is at most the sum of the users' SEs.
    u = 8
    pmf = UserCountPmf.finite(q)
    curves = FhCurves(pmf, float(u))
    value, v = curves.eta2() if per_user else curves.eta1()
    profile = two_generator_profile(v, u)
    simulated = se = 0.0
    for n in map(int, np.flatnonzero(pmf.weights)):
        scen = NetworkScenario(
            n_users=n, n_subbands=u, gains=np.ones((n, n)), total_power=1.0, noise_power=1.0
        )
        stats = run(SimConfig(scen, [profile] * n, n_slots=40000, master_seed=n))
        weight = pmf.weights[n] / (n if per_user else 1)
        simulated += weight * 0.5 * stats.free_mean.sum()
        se += weight * 0.5 * stats.free_se.sum()
    assert 0.0 < se < 0.01
    assert abs(value - simulated) <= 4 * se
