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
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np
from scipy.special import gammaln, pdtrc, pdtrik

from .gains import maximize_on_interval, smg_fair, v_opt
from .mixture import PROB_TOL

_POISSON_TAIL = 1e-12
# Largest user count a law may carry: a measure curve is one
# (4097 x n_top) matrix, 268 MB at this cap (Poisson lambda up to ~7500).
MAX_USER_COUNT = 1 << 13


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
        # a weight above 1 fails the sum check anyway; testing it first
        # keeps the sum from overflowing (q = [1e308, 1e308])
        if not np.all((w >= 0) & (w <= 1.0 + PROB_TOL)):
            raise ValueError("weights must be probabilities in [0, 1], not NaN")
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
        if n_top is None:
            # pdtrik inverts the cdf on a continuous n, close to the first n
            # with tail pdtrc(n) = P{N > n} strictly below 1e-12; step from
            # there to that n exactly.
            start = float(pdtrik(1.0 - _POISSON_TAIL, lam))
            if not start <= MAX_USER_COUNT:  # nan and inf too
                raise ValueError(f"lambda={lam} is too large to truncate at n <= {MAX_USER_COUNT}")
            n_top = math.ceil(start)
            while n_top > 0 and pdtrc(n_top - 1, lam) < _POISSON_TAIL:
                n_top -= 1
            while pdtrc(n_top, lam) >= _POISSON_TAIL:
                n_top += 1
            n_top = max(n_top, 1)
        else:
            integral = isinstance(n_top, numbers.Real) and float(n_top).is_integer()
            if isinstance(n_top, bool) or not integral or not 0 <= n_top <= MAX_USER_COUNT:
                raise ValueError(
                    f"truncation_n must be an integer in 0..{MAX_USER_COUNT}, got {n_top!r}"
                )
            n_top = int(n_top)
            if pdtrc(n_top, lam) >= _POISSON_TAIL:
                raise ValueError(f"truncation_n={n_top} leaves tail mass >= 1e-12")
        n = np.arange(n_top + 1)
        logs = -lam + n * math.log(lam) - gammaln(n + 1)
        return cls(weights=np.exp(logs), poisson_lambda=float(lam))

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


def _fh_curve(
    pmf: UserCountPmf, u: float, per_user: bool
) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (v/2) sum_{n >= 1} w_n (1 - v/u)^(n-1), vectorized over v.

    w_n = n q_n gives E{SMG(v, N)} (eta1); with per_user, w_n = q_n gives
    E{SMG(v, N)/N}, the eta2 objective for v < u. The weights are built
    once and the curve is one (grid x n_top) matrix product, rather than
    an expect() per abscissa.
    """
    w = pmf.weights[1:]
    if not per_user:
        w = np.arange(1, pmf.weights.size) * w
    k = np.arange(w.size)

    def f(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return 0.5 * v * ((1.0 - v / u)[:, None] ** k @ w)

    return f


def eta1_fh(pmf: UserCountPmf, u: float) -> Tuple[float, float]:
    """Best expected SMG of FH and its hop count: (value, v_star)."""
    v_star, value = maximize_on_interval(_fh_curve(pmf, u, False), 0.0, u)
    return value, v_star


def eta1_fd(pmf: UserCountPmf, fd: FdConfig, u: float) -> float:
    """Expected SMG of FD with n_des slices."""
    n_des = fd.n_des

    def f(n: np.ndarray) -> np.ndarray:
        return np.where(n <= n_des, 0.5 * n * u / n_des, 0.5 * u)

    return pmf.expect(f)


def eta2_fh(pmf: UserCountPmf, u: float) -> Tuple[float, float]:
    """Best expected worst-user gain of FH with everyone served.

    The objective is continuous on [0, u); the boundary point v = u is
    scored separately under the service rule (only N = 1 counts there)
    and compared against the interior optimum.
    """
    v_dag, value = maximize_on_interval(_fh_curve(pmf, u, True), 0.0, u)
    boundary = 0.5 * u * pmf.weights[1]
    if boundary > value:
        return boundary, u
    return value, v_dag


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


def epsilon_backoff_region(
    pmf: UserCountPmf, u: float, epsilon: float, fd: Optional[FdConfig] = None
) -> BackoffComparison:
    """Score FH at v = u - epsilon against FD on eta1 and eta2.

    Backing off keeps every user served (v < u) while giving up order
    epsilon of gain; this reports whether FH still wins both measures.
    """
    if not 0.0 < epsilon < 0.5 * u:
        raise ValueError("epsilon must lie in (0, u/2)")
    if fd is None:
        fd = FdConfig.default_for(pmf, u)
    v = u - epsilon
    fh1 = float(_fh_curve(pmf, u, False)(np.array([v]))[0])
    fh2 = float(_fh_curve(pmf, u, True)(np.array([v]))[0])
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


def _condition_n_max(pmf: UserCountPmf, n_max: Optional[int]) -> int:
    """n_max for the mean-load conditions, whose hypothesis excludes
    finite loads with mass at N = 0."""
    if pmf.is_finite and pmf.weights[0] > 0.0:
        raise ValueError("the mean-load conditions need a finite load with q[0] = 0")
    if n_max is None:
        n_max = pmf.n_max
    if n_max is None:
        raise ValueError("n_max required for a Poisson user count")
    return n_max


def eta1_sufficient_condition(
    pmf: UserCountPmf, n_max: Optional[int] = None
) -> ConditionCheck:
    """Mean-load test guaranteeing FH beats FD on eta1.

    If E{N} < (1/2) ln((e^2 - 1) n_max) then eta1_fh > eta1_fd. The
    direct comparison is evaluated alongside; a condition that holds
    while the comparison fails would contradict the guarantee, so that
    combination raises.
    """
    n_max = _condition_n_max(pmf, n_max)
    cond = pmf.mean() < 0.5 * math.log((math.e**2 - 1.0) * n_max)
    fh, _ = eta1_fh(pmf, 1.0)
    fd = eta1_fd(pmf, FdConfig(n_des=n_max), 1.0)
    verified = fd < fh
    if cond and not verified:
        raise AssertionError(
            "mean-load condition held but the eta1 comparison failed"
        )
    return ConditionCheck(condition_holds=cond, inequality_verified=verified)


def eta2_sufficient_condition(
    pmf: UserCountPmf, n_max: Optional[int] = None
) -> ConditionCheck:
    """Mean-load test guaranteeing FH beats FD on eta2.

    If (1/E{N})(1 - 1/E{N})^(E{N}-1) > 1/n_max then eta2_fh > eta2_fd.
    """
    n_max = _condition_n_max(pmf, n_max)
    mean_n = pmf.mean()
    # loads with no mass at zero have E{N} >= 1 exactly; allow roundoff
    if mean_n < 1.0 - 1e-9:
        raise ValueError("E{N} must be at least 1")
    mean_n = max(mean_n, 1.0)
    lhs = (1.0 / mean_n) * (1.0 - 1.0 / mean_n) ** (mean_n - 1.0)
    cond = lhs > 1.0 / n_max
    fh, _ = eta2_fh(pmf, 1.0)
    fd = eta2_fd(pmf, FdConfig(n_des=n_max), 1.0)
    verified = fd < fh
    if cond and not verified:
        raise AssertionError(
            "mean-load condition held but the eta2 comparison failed"
        )
    return ConditionCheck(condition_holds=cond, inequality_verified=verified)


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

    e1_fh, v_star = eta1_fh(pmf, u)
    e2_fh, v_dag = eta2_fh(pmf, u)
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
