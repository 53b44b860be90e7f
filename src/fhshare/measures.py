"""Scheme comparison measures under a random user count.

Four measures compare randomized frequency hopping (FH) against fixed
frequency-division allocation (FD) and against adaptive hopping (AFH)
when the number of active pairs N is random with a known pmf:

  eta1  best expected sum multiplexing gain,
  eta2  best expected worst-user gain with every user served,
  eta3  deterministic worst-case per-user gain at the design load,
  eta4  expected fraction of users served.

FD splits the band into n_des equal slices and turns away users beyond
n_des; FH with v < u always serves everyone. All measures scale linearly
in the band size u and are reported in absolute terms.

FH's eta1 and eta2 are the certified maxima over the hop count v of
curves whose values on many v at once are one matrix of powers (1 -
v/u)^k times weights (FhCurves), built in row blocks that are never all
held at once, without the cells that underflow to 0.0.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._blocks import row_ranges
from ._special import lgam
from .gains import maximize_on_interval, smg_fair, v_opt
from .mixture import PROB_TOL, check_probabilities

_POISSON_TAIL = 1e-12
# Largest user count a law may carry (Poisson lambda up to ~7500). The
# measure curves build their matrix of powers in row blocks of about
# 512 KiB, so maximizing both traces a peak of about 1.7 MB at any n_top
# up to this cap; the cap bounds their time. At n_top = 8000, maximizing
# both takes 13-16 ms on a 2-vCPU x86 host (a law with q_2 = 0.4 and
# q_8000 = 0.6, Poisson(7000), Poisson(400) carried to n = 8192), and a
# curve on 4097 hop counts (FhCurves.curve) about 0.17 s.
MAX_USER_COUNT = 1 << 13
# ln 2^-1075, half the smallest subnormal double: pow rounds every power
# below it to 0.0, so a row b**k reaches 0.0 near k = _LOG_UNDERFLOW / ln b.
_LOG_UNDERFLOW = math.log(np.finfo(float).smallest_subnormal) - math.log(2.0)

# lgam(n + 1) for n = 0, 1, ...; grown by _log_factorials, never shrunk.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(n_top: int) -> np.ndarray:
    """log n! for n = 0..n_top, from a table kept for the process."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n_top >= table.size:
        more = [lgam(n + 1.0) for n in range(table.size, n_top + 1)]
        table = np.concatenate([table, more])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[: n_top + 1]


@dataclass(frozen=True, eq=False)
class UserCountPmf:
    """Distribution of the number of simultaneously active pairs.

    weights[n] is P{N = n}, held as one read-only float array. Finite
    pmfs carry their exact weights; a Poisson law is truncated at the
    first n_top whose tail mass P{N > n_top} is below 1e-12, so truncation
    error is negligible against every tolerance used here. No law carries
    n above MAX_USER_COUNT. Every sum over the law goes through expect().
    """

    weights: np.ndarray
    poisson_lambda: Optional[float] = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or not 2 <= w.size <= MAX_USER_COUNT + 1:
            raise ValueError(f"weights must cover n = 0, 1 and stop by n = {MAX_USER_COUNT}")
        check_probabilities(w, "weights")
        if self.poisson_lambda is None and abs(w.sum() - 1.0) > PROB_TOL:
            raise ValueError("finite pmf must sum to 1 within 1e-12")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def finite(cls, q) -> "UserCountPmf":
        """Finite pmf; q[n] = P{N = n} starting at n = 0."""
        return cls(weights=q)

    @classmethod
    def poisson(cls, lam: float, truncation_n: Optional[int] = None) -> "UserCountPmf":
        if not (lam > 0 and math.isfinite(lam)):
            raise ValueError("lambda must be positive and finite")
        n_top = truncation_n
        if n_top is not None:
            integral = isinstance(n_top, numbers.Real) and float(n_top).is_integer()
            if isinstance(n_top, bool) or not integral or not 0 <= n_top <= MAX_USER_COUNT:
                raise ValueError(
                    f"truncation_n must be an integer in 0..{MAX_USER_COUNT}, got {n_top!r}"
                )
            n_top = int(n_top)
        # P{N > n} < 1e-12 needs n > lambda, so no larger lambda fits the cap:
        # refusing it here bounds the scan below by about 12k terms.
        if lam > MAX_USER_COUNT:
            raise ValueError(f"lambda={lam} is too large to truncate at n <= {MAX_USER_COUNT}")
        # P{N > lambda + 40 sqrt(lambda) + 60} < 1e-160 for every lambda, so a
        # tail summed up to there is P{N > n} as far as the 1e-12 cut sees.
        scan = max(math.ceil(lam + 40.0 * math.sqrt(lam) + 60.0), n_top or 0)
        n = np.arange(scan + 1)
        weights = np.exp(-lam + n * math.log(lam) - _log_factorials(scan))
        # tail[n] = P{N > n}, summed from the far end so small terms add first
        tail = np.append(np.cumsum(weights[:0:-1])[::-1], 0.0)
        if n_top is None:
            n_top = 1 + int(np.argmax(tail[1:] < _POISSON_TAIL))
            if n_top > MAX_USER_COUNT:
                raise ValueError(f"lambda={lam} is too large to truncate at n <= {MAX_USER_COUNT}")
        elif tail[n_top] >= _POISSON_TAIL:
            raise ValueError(f"truncation_n={n_top} leaves tail mass >= 1e-12")
        return cls(weights=weights[: n_top + 1], poisson_lambda=float(lam))

    @property
    def is_finite(self) -> bool:
        return self.poisson_lambda is None

    @property
    def n_top(self) -> int:
        """Largest n carried (truncation point for Poisson)."""
        return self.weights.size - 1

    @property
    def n_max(self) -> Optional[int]:
        """Largest possible user count; None for Poisson (unbounded)."""
        if not self.is_finite:
            return None
        return int(np.flatnonzero(self.weights)[-1])

    def mean(self) -> float:
        return self.expect(lambda n: n)

    def expect(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """sum_{n >= 1} q_n f(n) with f vectorized over integer n."""
        n = np.arange(1, self.weights.size)
        return float((self.weights[1:] * np.asarray(f(n), dtype=float)).sum())


@dataclass(frozen=True)
class FdConfig:
    """Fixed-allocation design: the band is cut into n_des equal slices."""

    n_des: int

    def __post_init__(self):
        if self.n_des < 1:
            raise ValueError("n_des must be >= 1")

    @classmethod
    def default_for(cls, pmf: UserCountPmf, u: float) -> "FdConfig":
        """Serve as many users as fit: n_des = floor(u), capped at a finite
        law's n_max (when above 0), and at least 1."""
        n_des = int(u)
        if pmf.is_finite and pmf.n_max:
            n_des = min(pmf.n_max, n_des)
        return cls(n_des=max(n_des, 1))


def _first_zero_powers(base: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """For each b in base, 0 <= b < 1, the first k at which np.power(b, k)
    is 0.0, or n where there is none below n. first holds estimates of it
    in 0..n, which the same np.power steps in place until they are exact.
    b**0 is 1.0, so the answer is at least 1."""
    while True:
        short = (first < n) & (np.power(base, first) != 0.0)
        if not short.any():
            break
        first[short] += 1
    while True:
        long = np.power(base, first - 1) == 0.0
        if not long.any():
            return first
        first[long] -= 1


def _grid_powers(base: np.ndarray, k: np.ndarray) -> np.ndarray:
    """base[:, None] ** k for k = arange(n), bit for bit, without computing
    the cells that underflow.

    For 0 <= b < 1, b**k falls with k, so from the first k at which
    np.power gives 0.0 every cell of the row is 0.0; those cells take
    pow's slow path, and here they are left as the zeros they start as.
    Rows that reach that edge below n (estimated from ln b, then found
    exactly) are computed under a mask; every other row, and every matrix
    whose smallest positive base stays above the edge, is computed in
    full.
    """
    n = k.size
    positive = base[base > 0.0]
    if not positive.size or (n - 1) * math.log(positive.min()) > _LOG_UNDERFLOW:
        return base[:, None] ** k
    rows = np.flatnonzero((base >= 0.0) & (base < 1.0))
    with np.errstate(divide="ignore"):
        guess = np.ceil(_LOG_UNDERFLOW / np.log(base[rows]))
    reach = guess < n
    rows = rows[reach]
    if not rows.size:
        return base[:, None] ** k
    first = _first_zero_powers(base[rows], guess[reach].astype(np.int64), n)
    lo, hi = rows[0], rows[-1] + 1
    stop = np.full(hi - lo, n)
    stop[rows - lo] = first
    out = np.zeros((base.size, n))
    np.power(base[:lo, None], k, out=out[:lo])
    np.power(base[hi:, None], k, out=out[hi:])
    np.power(base[lo:hi, None], k, out=out[lo:hi], where=k < stop[:, None])
    return out


def _grid_products(base: np.ndarray, weights: Tuple[np.ndarray, ...]) -> np.ndarray:
    """powers @ w for each weight vector w, one row per base: the powers
    base[:, None] ** k, k = 0..n - 1 for n = w.size, are built by
    _grid_powers in _blocks.row_ranges of whole 8-row units in grid
    order."""
    k = np.arange(weights[0].size)
    out = np.empty((len(weights), base.size))
    for start, stop in row_ranges(base.size, k.size, multiple=8):
        block = _grid_powers(base[start:stop], k)
        for row, w in zip(out, weights):
            row[start:stop] = block @ w
    return out


class FhCurves:
    """The FH objectives of one load law at one band size u, as functions
    of the hop count v, vectorized over v:

      eta1  E{SMG(v, N)} = (v/2) sum_{n >= 1} n q_n (1 - v/u)^(n-1),
      eta2  E{SMG(v, N)/N} = (v/2) sum_{n >= 1} q_n (1 - v/u)^(n-1).

    Each is (v/2) S(x), x = 1 - v/u, for a sum S = sum_k w_k x^k with
    every w_k >= 0. curve() computes it through the grid product
    (_grid_products); eta1 and eta2 hand S, S' and S'' to
    gains.maximize_on_interval, which certifies its maximum.
    """

    def __init__(self, pmf: UserCountPmf, u: float):
        self.pmf = pmf
        self.u = u
        q = pmf.weights[1:]
        # the eta1 and the eta2 curve's weights, (n q_n, q_n) for n >= 1
        self._weights = (np.arange(1, pmf.weights.size) * q, q)

    def curve(self, per_user: bool) -> Callable[[np.ndarray], np.ndarray]:
        """The eta2 objective with per_user, else the eta1 one."""
        w, u = self._weights[per_user], self.u

        def f(v: np.ndarray) -> np.ndarray:
            v = np.asarray(v, dtype=float)
            return 0.5 * v * _grid_products(1.0 - v / u, (w,))[0]

        return f

    def _sums(self, per_user: bool) -> Callable[[np.ndarray], np.ndarray]:
        """The maximizer's objective: S, S' and S'' of the per_user curve
        at x = 1 - v/u, from one matrix of powers; a root step's one
        abscissa is computed directly, on a Python float."""
        w, u = self._weights[per_user], self.u
        k = np.arange(w.size)
        # rows w_k, (k + 1) w_{k+1} and (k + 1)(k + 2) w_{k+2}
        stacked = np.zeros((3, w.size))
        stacked[0] = w
        stacked[1, :-1] = k[1:] * w[1:]
        stacked[2, :-2] = k[1:-1] * k[2:] * w[2:]

        def sums(v: np.ndarray) -> np.ndarray:
            if v.size == 1:
                return (stacked @ np.power(1.0 - float(v[0]) / u, k))[:, None]
            return _grid_products(1.0 - v / u, tuple(stacked))

        return sums

    def eta1(self) -> Tuple[float, float]:
        """Best expected SMG and its hop count: (value, v_star)."""
        v_star, value = maximize_on_interval(self._sums(False), self.u)
        return value, v_star

    def eta2(self) -> Tuple[float, float]:
        """Best expected worst-user gain with everyone served and its hop
        count: (value, v_dagger). At v = u only a lone user is served, and
        the curve there is (u/2) q_1, that rule's value."""
        v_dag, value = maximize_on_interval(self._sums(True), self.u)
        return value, v_dag


def eta1_fh(pmf: UserCountPmf, u: float) -> Tuple[float, float]:
    """Best expected SMG of FH and its hop count: (value, v_star)."""
    return FhCurves(pmf, u).eta1()


def eta1_fd(pmf: UserCountPmf, fd: FdConfig, u: float) -> float:
    """Expected SMG of FD with n_des slices."""
    n_des = fd.n_des

    def f(n: np.ndarray) -> np.ndarray:
        # 0.5 n u overflows near u = 1e308, even on the rows past n_des
        # that np.where drops; n_des may pass the int64 range
        return np.where(n <= n_des, 0.5 * np.minimum(n, float(n_des)) * (u / n_des), 0.5 * u)

    return pmf.expect(f)


def eta2_fd(pmf: UserCountPmf, fd: FdConfig, u: float) -> float:
    """Expected worst-user gain of FD: (u / 2 n_des) P{1 <= N <= n_des}."""
    n_des = fd.n_des
    return 0.5 * u / n_des * pmf.expect(lambda n: n <= n_des)


def _expm1_residual(x: float) -> float:
    """(exp(-x) - 1 + x) / x^2 for x >= 0, without cancellation: the
    alternating series sum_k (-x)^k / (k + 2)! below x = 0.5, else
    expm1."""
    if x >= 0.5:
        return (math.expm1(-x) + x) / (x * x)
    total, term, k = 0.0, 0.5, 0
    while total + term != total:
        total += term
        k += 1
        term *= -x / (k + 2)
    return total


def eta1_fh_poisson_closed(lam: float, u: float) -> Tuple[float, float]:
    """Closed-form eta1 for FH under a Poisson(lam) user count.

    E{SMG(v, N)} = (v/2) lam exp(-lam v/u) rises up to v = u/lam and falls
    after it, so for lam >= 1 the optimum is u/(2e) at v_star = u/lam, and
    for lam < 1 it is (u/2) lam exp(-lam) at the band edge v = u. Returns
    (value, v_star).
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if lam >= 1.0:
        return 0.5 * u / math.e, u / lam
    return 0.5 * u * lam * math.exp(-lam), u


def eta2_fh_poisson_closed(lam: float, u: float) -> Tuple[float, float]:
    """Closed-form eta2 for FH under a Poisson(lam) user count.

    Writing omega = 1 - v/u, the optimum for lam > 2 solves
    g(omega) = exp(-lam*omega) - 1 + lam*omega - lam*omega^2 = 0, found by
    bisection to 1e-12; for lam <= 2 the optimum sits at v = u (omega = 0).
    Returns (value, omega_dagger).

    The bisection reads the sign of g(omega)/(lam*omega^2) =
    lam*h(lam*omega) - 1 with h(x) = (exp(-x) - 1 + x)/x^2, which is
    lam/2 - 1 > 0 at omega = 0 and (exp(-lam) - 1)/lam < 0 at omega = 1.
    h comes from expm1 or, for small x, its series: g itself is a
    difference of terms near 1 whose rounding hides its sign for small
    lam*omega, where g is about lam*omega^2*(lam/2 - 1).
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if lam <= 2.0:
        return 0.5 * u * lam * math.exp(-lam), 0.0

    def positive(om: float) -> bool:
        return lam * _expm1_residual(lam * om) > 1.0

    lo, hi = 1e-8, 1.0 - 1e-15
    if not positive(lo):
        lo = 0.0  # the root is below 1e-8 for lam < 2 + 1.3e-8
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    if lam * omega > 700.0:
        # exp(-lam) * expm1(lam*omega) without expm1 overflowing past 709.8
        growth = -math.expm1(-lam * omega) * math.exp(lam * (omega - 1.0))
        return growth * (1.0 - omega) * u / (2.0 * omega), omega
    value = math.exp(-lam) * (1.0 - omega) * (math.expm1(lam * omega)) * u / (2.0 * omega)
    return value, omega


def eta3_fh(n_max: int, u: float) -> float:
    """Worst-case per-user gain of FH with n_max users present, at the even
    split v = v_opt(n_max, u) = u/n_max: SMG(v, n_max)/n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return smg_fair(v_opt(n_max, u), n_max, u) / n_max


def eta3_fd(n_max: int, u: float) -> float:
    """Worst-case per-user gain of FD with n_max users present: u/(2 n_max)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return 0.5 * u / n_max


def eta4_fh(pmf: UserCountPmf, v: float, u: float) -> float:
    """Expected fraction of users served by FH at hop count v.

    FH serves everyone whenever v < u (value 1); at v = u only a lone
    user is served, giving P{N = 1}.
    """
    if v < u:
        return 1.0
    return float(pmf.weights[1])


def eta4_fd(pmf: UserCountPmf, fd: FdConfig) -> float:
    """Expected fraction of users served by FD, which turns away arrivals
    beyond n_des: 1 - sum_{n > n_des} q_n (1 - n_des/n).

    The "1 - loss" form is kept on purpose: E{min(1, n_des/N)} differs
    from it when q_0 > 0 or when a Poisson law is truncated.
    """
    n_des = fd.n_des
    return 1.0 - pmf.expect(lambda n: np.maximum(0.0, 1.0 - n_des / n))


def _afh_gain(n: np.ndarray) -> np.ndarray:
    """sup_v SMG(v, n) / (u/2) = (1 - 1/n)^(n-1), reached at v = u/n."""
    n = n.astype(float)
    return (1.0 - 1.0 / n) ** (n - 1.0)


def eta1_afh(pmf: UserCountPmf, u: float) -> float:
    """Adaptive hopping, where every slot uses the load-matched v = u/N:
    E{sup_v SMG(v, N)} = (u/2) E{(1 - 1/N)^(N-1)}."""
    return 0.5 * u * pmf.expect(_afh_gain)


def eta2_afh(pmf: UserCountPmf, u: float) -> float:
    """Per-user adaptive hopping gain: (u/2) E{(1 - 1/N)^(N-1) / N}."""
    return 0.5 * u * pmf.expect(lambda n: _afh_gain(n) / n)


@dataclass(frozen=True)
class BackoffComparison:
    """FH at the near-full hop count v = u - epsilon versus FD.

    For two-valued loads (n_max = 2, q0 = 0) the exact algebra is carried
    along: FH wins eta1 iff q1 > q1_multiplier * q2, and wins eta2 iff
    q2 < q2_bound.
    """

    epsilon: float
    fh_eta1: float
    fd_eta1: float
    eta1_holds: bool
    fh_eta2: float
    fd_eta2: float
    eta2_holds: bool
    q1_multiplier: Optional[float] = None
    q1_threshold: Optional[float] = None
    q2_bound: Optional[float] = None


def epsilon_backoff_region(pmf: UserCountPmf, u: float, epsilon: float) -> BackoffComparison:
    """Score FH at v = u - epsilon against FD at FdConfig.default_for(pmf, u)
    on eta1 and eta2.

    Backing off keeps every user served (v < u) while giving up order
    epsilon of gain; this reports whether FH still wins both measures.
    """
    if not 0.0 < epsilon < 0.5 * u:
        raise ValueError("epsilon must lie in (0, u/2)")
    fd = FdConfig.default_for(pmf, u)
    v = u - epsilon
    curves = FhCurves(pmf, u)
    fh1, fh2 = (float(curves.curve(per_user)(np.array([v]))[0]) for per_user in (False, True))
    fd1 = eta1_fd(pmf, fd, u)
    fd2 = eta2_fd(pmf, fd, u)

    mult = thresh = bound = None
    if pmf.is_finite and pmf.n_max == 2:
        e = epsilon / u
        k = (1.0 - 2.0 * e * (1.0 - e)) / (1.0 - 2.0 * e)
        mult = 2.0 * k
        thresh = mult / (1.0 + mult)
        rho = 1.0 - e
        bound = (1.0 / rho) * (1.0 - 1.0 / (2.0 * rho))
    return BackoffComparison(
        epsilon=epsilon,
        fh_eta1=fh1,
        fd_eta1=fd1,
        eta1_holds=fh1 > fd1,
        fh_eta2=fh2,
        fd_eta2=fd2,
        eta2_holds=fh2 > fd2,
        q1_multiplier=mult,
        q1_threshold=thresh,
        q2_bound=bound,
    )


@dataclass(frozen=True)
class ConditionCheck:
    """A sufficient condition and the direct comparison it promises."""

    condition_holds: bool
    inequality_verified: bool


def _checked(measure: str, cond: bool, fh: float, fd: float) -> ConditionCheck:
    """The check of a mean-load condition against the direct comparison
    fd < fh; AssertionError where the condition holds and it fails."""
    verified = fd < fh
    if cond and not verified:
        raise AssertionError(f"mean-load condition held but the {measure} comparison failed")
    return ConditionCheck(condition_holds=cond, inequality_verified=verified)


def mean_load_conditions(pmf: UserCountPmf) -> Dict[str, ConditionCheck]:
    """The mean-load tests guaranteeing that FH beats FD, keyed by measure,
    each with the direct comparison at u = 1 and n_des = n_max:

      eta1  E{N} < (1/2) ln((e^2 - 1) n_max)  gives  eta1_fh > eta1_fd,
      eta2  (1/E{N})(1 - 1/E{N})^(E{N}-1) > 1/n_max  gives  eta2_fh > eta2_fd.

    Their hypothesis is a finite load with no mass at N = 0; any other law
    (Poisson, or q[0] > 0) gets no checks. A condition that holds while its
    comparison fails would contradict the guarantee, so that combination
    raises.
    """
    if not pmf.is_finite or pmf.weights[0] > 0.0:
        return {}
    n_max = pmf.n_max
    fd = FdConfig(n_des=n_max)
    curves = FhCurves(pmf, 1.0)
    mean_n = pmf.mean()
    cond = mean_n < 0.5 * math.log((math.e**2 - 1.0) * n_max)
    fh, _ = curves.eta1()
    eta1 = _checked("eta1", cond, fh, eta1_fd(pmf, fd, 1.0))
    # no mass at zero makes E{N} >= 1 but for roundoff
    mean_n = max(mean_n, 1.0)
    cond = (1.0 / mean_n) * (1.0 - 1.0 / mean_n) ** (mean_n - 1.0) > 1.0 / n_max
    fh, _ = curves.eta2()
    return {"eta1": eta1, "eta2": _checked("eta2", cond, fh, eta2_fd(pmf, fd, 1.0))}


class Measure(NamedTuple):
    """One measure of one scheme, with the tuning parameter that achieved
    it (param and param_value are None where nothing is tuned)."""

    scheme: str
    measure: str
    value: float
    param: Optional[str]
    param_value: Union[float, int, None]


def build_measure_reports(
    pmf: UserCountPmf,
    u: float,
    n_des: Optional[int] = None,
    epsilon: Optional[float] = None,
) -> List[Measure]:
    """Every measure of FH, FD and AFH on a common user count law, in the
    order fh, fd, afh and eta1 to eta4 within a scheme; eta3 is left out
    when the load has no n_max.

    FH reports the hop count each measure was reached at (v_star,
    v_dagger, v = u/n_max, v), FD its n_des, AFH no parameter. epsilon is
    the hop-count backoff used for FH's service measure when the eta1
    optimum sits at v = u; it defaults to u/1000 and must lie in (0, u/2),
    as in epsilon_backoff_region.
    """
    if epsilon is None:
        epsilon = 1e-3 * u
    if not 0.0 < epsilon < 0.5 * u:
        raise ValueError("epsilon must lie in (0, u/2)")
    fd_cfg = FdConfig(n_des=n_des) if n_des is not None else FdConfig.default_for(pmf, u)
    n_max = pmf.n_max

    curves = FhCurves(pmf, u)
    e1_fh, v_star = curves.eta1()
    e2_fh, v_dag = curves.eta2()
    eta4_v = v_star if v_star < u else u - epsilon
    # eta3 is the worst case at n_max users, so it needs an n_max
    e3_fh, e3_fd = (eta3_fh(n_max, u), eta3_fd(n_max, u)) if n_max else (None, None)
    fd_param = ("n_des", fd_cfg.n_des)
    measures = [
        Measure("fh", "eta1", e1_fh, "v_star", v_star),
        Measure("fh", "eta2", e2_fh, "v_dagger", v_dag),
        Measure("fh", "eta3", e3_fh, "v", v_opt(n_max, u) if n_max else None),
        Measure("fh", "eta4", eta4_fh(pmf, eta4_v, u), "v", eta4_v),
        Measure("fd", "eta1", eta1_fd(pmf, fd_cfg, u), *fd_param),
        Measure("fd", "eta2", eta2_fd(pmf, fd_cfg, u), *fd_param),
        Measure("fd", "eta3", e3_fd, *fd_param),
        Measure("fd", "eta4", eta4_fd(pmf, fd_cfg), *fd_param),
        Measure("afh", "eta1", eta1_afh(pmf, u), None, None),
        Measure("afh", "eta2", eta2_afh(pmf, u), None, None),
        Measure("afh", "eta3", e3_fh, None, None),
        Measure("afh", "eta4", 1.0, None, None),
    ]
    return [m for m in measures if m.value is not None]
