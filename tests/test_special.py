"""The scalar special-function ports against scipy, bit for bit.

fhshare._special.ndtri and lgam replace scipy.special.ndtri and gammaln on
the runtime path, and UserCountPmf.poisson finds its truncation point by one
pass over its own weights instead of scipy's pdtrik/pdtrc search. Every
output stays byte-identical only if the ports return scipy's exact bits
and the pass picks scipy's n_top, so both are compared exactly here.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, pdtrc
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import poisson

import fhshare.measures
from fhshare._special import lgam, ndtri
from fhshare.measures import MAX_USER_COUNT, UserCountPmf

EXACT = settings(max_examples=1000, deadline=None, derandomize=True, database=None)
LAWS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def same_bits(got, want):
    return float(got).hex() == float(want).hex()


@EXACT
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_ndtri_matches_scipy_on_the_unit_interval(y):
    assert same_bits(ndtri(y), scipy_ndtri(y)), y


@EXACT
@given(st.floats(-300.0, -1e-9))
def test_ndtri_matches_scipy_on_both_tails(e):
    for y in (10.0 ** e, 1.0 - 10.0 ** e):
        assert same_bits(ndtri(y), scipy_ndtri(y)), y


def test_ndtri_matches_scipy_on_a_dense_sample():
    rng = np.random.default_rng(20260)
    ys = np.concatenate([rng.random(40_000), 10.0 ** rng.uniform(-300.0, 0.0, 40_000)])
    want = scipy_ndtri(ys)
    bad = [y for y, w in zip(ys.tolist(), want.tolist()) if not same_bits(ndtri(y), w)]
    assert bad == []


@pytest.mark.parametrize(
    "y", [0.0, -0.0, 1.0, -1e-300, -1.0, 1.0 + 2.0**-52, 2.0, math.inf, -math.inf, math.nan]
)
def test_ndtri_edges_match_scipy(y):
    got, want = ndtri(y), float(scipy_ndtri(y))
    assert same_bits(got, want) or (math.isnan(got) and math.isnan(want)), (y, got, want)


def test_lgam_matches_gammaln_at_every_integer_up_to_the_cap():
    n = np.arange(1, MAX_USER_COUNT + 3)
    got = np.array([lgam(float(k)) for k in n])
    assert np.array_equal(got.view(np.int64), gammaln(n.astype(float)).view(np.int64))


@EXACT
@given(st.floats(0.01, 1e4))
def test_lgam_matches_gammaln_on_reals(x):
    assert same_bits(lgam(x), gammaln(x)), x


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_lgam_refuses_arguments_outside_its_domain(x):
    with pytest.raises(ValueError, match="x > 0"):
        lgam(x)


def parent_weights(lam, n_top):
    """The weights as computed with scipy's gammaln."""
    n = np.arange(n_top + 1)
    return np.exp(-lam + n * math.log(lam) - gammaln(n + 1))


def assert_same_weights(law, lam):
    want = parent_weights(lam, law.n_top)
    assert np.array_equal(law.weights.view(np.int64), want.view(np.int64)), lam


@LAWS
@given(st.floats(-2.0, math.log10(MAX_USER_COUNT)).map(lambda e: 10.0**e))
def test_poisson_truncation_is_scipys_first_n_below_the_tail(lam):
    if poisson.sf(MAX_USER_COUNT, lam) >= 1e-12:
        with pytest.raises(ValueError, match="too large to truncate"):
            UserCountPmf.poisson(lam)
        return
    law = UserCountPmf.poisson(lam)
    assert poisson.sf(law.n_top, lam) < 1e-12 <= poisson.sf(law.n_top - 1, lam), lam
    assert_same_weights(law, lam)


@LAWS
@given(st.floats(-2.0, 3.5).map(lambda e: 10.0**e), st.integers(-3, 3))
def test_explicit_truncation_near_the_tail_edge_follows_pdtrc(lam, offset):
    n = max(UserCountPmf.poisson(lam).n_top + offset, 0)
    if pdtrc(n, lam) >= 1e-12:
        with pytest.raises(ValueError, match="leaves tail mass"):
            UserCountPmf.poisson(lam, truncation_n=n)
    else:
        law = UserCountPmf.poisson(lam, truncation_n=n)
        assert law.n_top == n
        assert_same_weights(law, lam)


@LAWS
@given(st.floats(0.01, 500.0), st.data())
def test_explicit_truncation_past_the_scan_bound(lam, data):
    scan = math.ceil(lam + 40.0 * math.sqrt(lam) + 60.0)
    n = data.draw(st.integers(scan, MAX_USER_COUNT))
    assert pdtrc(n, lam) < 1e-12
    law = UserCountPmf.poisson(lam, truncation_n=n)
    assert law.n_top == n
    assert_same_weights(law, lam)


def test_refusal_edge_for_large_lambda_is_scipys():
    # scipy's pdtrik search refused from lambda ~ 7572.34052, a hair before
    # P{N > 8192} itself drops under 1e-12 at lambda ~ 7572.34079; the law
    # is refused exactly when that tail is at least 1e-12.
    lams = np.concatenate([
        np.linspace(7572.2905, 7572.3905, 201),
        [7572.34052, 7572.34060, 7572.34070, 7572.340787, 7572.340788],
    ])
    refused = 0
    for lam in lams.tolist():
        if pdtrc(MAX_USER_COUNT, lam) >= 1e-12:
            refused += 1
            with pytest.raises(ValueError, match="too large to truncate"):
                UserCountPmf.poisson(lam)
        else:
            law = UserCountPmf.poisson(lam)
            assert poisson.sf(law.n_top, lam) < 1e-12 <= poisson.sf(law.n_top - 1, lam)
    assert 0 < refused < lams.size


@pytest.mark.parametrize("lam", [MAX_USER_COUNT + 1e-9, 1e9, 1e300])
def test_lambda_past_the_cap_is_refused_before_the_scan(monkeypatch, lam):
    def no_scan(n_top):
        raise AssertionError(f"scanned {n_top} terms")

    monkeypatch.setattr(fhshare.measures, "_log_factorials", no_scan)
    with pytest.raises(ValueError, match="too large to truncate"):
        UserCountPmf.poisson(lam)
