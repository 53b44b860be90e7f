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

FH's eta1 and eta2 maximize curves over a grid of hop counts; both are
products with one matrix of powers (1 - v/u)^k (FhCurves), built in row
blocks that are never all held at once, and the cells that underflow to
0.0 are never computed. For the maximizer a GridWalk builds the rows of
a law's matrix once per vector 1 - v/u and, on grids wide enough to
repay it, only the rows that can hold a curve's maximum: a probe of one
8-row unit in every 16, then the rows where a bound on the curve reaches
the largest probed value. The bound
holds because S = sum_k w_k x^k with w_k >= 0 is nonincreasing in v and
ln S is convex in ln x, x = 1 - v/u; every other row reads -inf,
certified below the maximum, so the maximizer returns the whole grid's
result bit for bit (see GridWalk).
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
# measure curves walk their (4097 x n_top) grid in row blocks of about
# 512 KiB, so maximizing both traces a peak of about 1.4 MB at any n_top
# up to this cap; the cap bounds their time. At n_top = 8000, maximizing
# both takes about 0.02 s on a 2-vCPU x86 host, and a curve on every row
# of the grid (FhCurves.curve) about 0.2 s.
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


# The maximizer's objective computes the first unit of 8 grid rows in
# every _PROBE_EVERY rows, the last whole unit and the last row, then the
# units where a bound on some curve can reach the curve's largest probed
# value. The bound is raised by _SLACK relative and by _FLOOR absolute,
# twice, which covers rounding (see GridWalk); no chord is drawn to a sum
# below _NORMAL, whose rounding is not relative. A walk narrower than
# _PRUNE_FROM powers is computed whole: its grid costs less than the
# bookkeeping that would leave rows out.
_PROBE_EVERY = 128
_PRUNE_FROM = 8
_SLACK = 1e-9
_FLOOR = 1e-300
_NORMAL = np.finfo(float).tiny
_LARGEST = np.finfo(float).max


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


class _Walk:
    """The grid products of one law on one base vector, computed a few
    units of rows at a time, each unit at most once; a row not computed
    holds -inf. Unit i is rows 8i to 8i + 8, and the last unit runs on to
    the end of the grid. certified lists the abscissae certify() ran for,
    and complete is set once every row is computed."""

    def __init__(self, base: np.ndarray, weights: Tuple[np.ndarray, np.ndarray]):
        self.base = base
        self.weights = weights
        self.products = np.full((len(weights), base.size), -np.inf)
        self.complete = False
        self.chords: Optional[Tuple[np.ndarray, ...]] = None
        self.certified: List[np.ndarray] = []

    def fill_units(self, units: np.ndarray) -> None:
        """Compute units i, ascending, none of them the last."""
        rows = (8 * units[:, None] + np.arange(8)).ravel()
        self.products[:, rows] = _grid_products(self.base[rows], self.weights)

    def certify(self, v: np.ndarray) -> None:
        """Compute every unit where, at abscissae v, the bound on some
        curve reaches the curve's largest value on the probe (see
        GridWalk). A grid not of 128j + 1 rows, or narrower than
        _PRUNE_FROM powers, is computed whole."""
        gaps, odd = divmod(self.base.size - 1, _PROBE_EVERY)
        # v > 0 past row 7, so a row left out reads (v/2)(-inf) = -inf,
        # never 0 (-inf) = nan
        if odd or not gaps or self.weights[0].size < _PRUNE_FROM or not v[8] > 0.0:
            self.products[:] = _grid_products(self.base, self.weights)
            self.complete = True
            return
        if self.chords is None:
            self.chords = self.probe(gaps)
        s, s_a, ln_s_a, step, t_a, t_span = self.chords
        # (v/2) S overflows to inf near u = 1e308, which keeps its rows;
        # nan, where t = -inf or target < 0, keeps a row too
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            half = 0.5 * _probe(v, gaps)
            # A row is left out where (v/2) B < target for the bound B on
            # its S: then (v/2)(B (1 + _SLACK) + _FLOOR) + _FLOOR < top,
            # or < inf where top overflows.
            top = np.minimum((half * s).max(axis=1), _LARGEST)
            target = ((top - _FLOOR * (half[-1] + 1.0)) / (1.0 + _SLACK))[:, None]
            # Over gap j, v <= v_b and S <= S_a: a gap where (v_b/2) S_a
            # < target for every curve is left out whole.
            fails = ~(half[8 : 8 * gaps + 1 : 8] * s_a < target)
            hit = np.flatnonzero(fails.any(axis=0))
            if not hit.size:
                return
            # In a gap that fails, each row is tested for each curve that
            # fails there, in logs: ln(v/2) + ln S_a + lam (ln S_b -
            # ln S_a) < ln target.
            gap, curve = np.nonzero(fails[:, hit].T)
            j = hit[gap]
            t = np.log(self.base[:-1].reshape(gaps, _PROBE_EVERY)[hit, 8:])
            lam = (t - t_a[hit]) / t_span[hit]
            ln_half = np.log(0.5 * v[:-1].reshape(gaps, _PROBE_EVERY)[hit, 8:])
            room = np.log(target[curve, 0]) - ln_s_a[curve, j]
            keep = ~(lam[gap] * step[curve, j, None] + ln_half[gap] < room[:, None])
        units = _PROBE_EVERY // 8 * j[:, None] + np.arange(1, _PROBE_EVERY // 8)
        reach = np.zeros(self.base.size // 8, dtype=bool)
        reach[units[keep.reshape(j.size, -1, 8).any(axis=2)]] = True
        units = np.flatnonzero(reach & (self.products[0, :-1:8] == -np.inf))
        if units.size:
            self.fill_units(units)

    def probe(self, gaps: int) -> Tuple[np.ndarray, ...]:
        """Compute the probe, the first unit of every gap and the last
        nine rows; return its products s and, for gap j between row a =
        128j + 7 and row b, the first of the next probe unit: S_a, ln S_a,
        ln S_b - ln S_a (0 where S_b < _NORMAL), t_a and t_b - t_a (at
        most -_NORMAL), t = ln(1 - v/u)."""
        c = len(self.weights)
        base = _probe(self.base, gaps)
        s = _grid_products(base, self.weights)
        units = self.products[:, :-1].reshape(c, gaps, _PROBE_EVERY)[:, :, :8]
        units[...] = s[:, :-9].reshape(c, gaps, 8)
        self.products[:, -9:] = s[:, -9:]
        a, b = np.s_[7 : 8 * gaps : 8], np.s_[8 : 8 * gaps + 1 : 8]
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_s_a = np.log(s[:, a])
            step = np.where(s[:, b] >= _NORMAL, np.log(s[:, b]) - ln_s_a, 0.0)
            t = np.log(base)
            t_span = np.minimum(t[b] - t[a], -_NORMAL)
        return s, s[:, a], ln_s_a, step, t[a, None], t_span[:, None]


def _probe(x: np.ndarray, gaps: int) -> np.ndarray:
    """x at the probe's rows: 128j to 128j + 8 for every j, and the last
    nine."""
    return np.concatenate((x[:-1].reshape(gaps, _PROBE_EVERY)[:, :8].ravel(), x[-9:]))


class GridWalk:
    """The maximizer's FH grid curves of one load law: each power grid is
    walked once, and only where a curve's maximum can lie.

    The law's curves on abscissae v are the matrix of powers x^k, x = 1 -
    v/u and k = 0..n_top - 1, times its two weight vectors, so they
    depend on u only through the base vector x. The first call on a base
    vector starts its walk, which computes units of 8 rows (the last unit
    runs on to the end of the grid) when asked for, each once for both
    curves, through _grid_products, and keeps them until the GridWalk is
    dropped. On the maximizer's grid, linspace(0, u, 4097), 1 - v/u is
    exactly 1 - i/4096 for every integer u, so the curves at u and at
    u = 1 share a walk; at other u the vectors can differ and each gets
    a walk of its own.

    maximand(), the objective of FhCurves.eta1 and eta2, computes only
    the units that can hold a maximum, on a grid of 128j + 1 rows (the
    maximizer's 4097 among them) of a law with _PRUNE_FROM powers or
    more; a narrower grid costs less than the bookkeeping of leaving rows
    out, and is computed whole. The first call computes a probe: unit
    16j, rows 128j to 128j + 8, for every j, and the last unit. Gap j is
    the rows between a = 128j + 7 and b, the first row of the next probe
    unit. With S = sum_k w_k x^k and every w_k >= 0, S is nonincreasing
    in v and ln S is convex in t = ln x, so for a < r < b

      S_r <= min(S_a, exp((1 - lam) ln S_a + lam ln S_b)),
      lam = (t_r - t_a) / (t_b - t_a).

    Each call then tests, once for its abscissae, both curves against
    their largest probed values: a gap where (v_b/2) S_a stays below it
    is left out whole, and in a gap where it does not, each row r is
    tested with (v_r/2) times the chord bound for the curves that reach
    it there. The units that hold a row reaching the value are computed;
    every other row reads -inf. The bound on S is raised by 1e-9 relative
    and 1e-300 absolute, and (v/2) S by 1e-300 again. A computed S is
    within about n_top ulps of the exact sum, far inside the 1e-9; no
    chord is drawn to an S_b below the smallest normal double, whose
    rounding is not relative; and where a curve's values stay below about
    1e-300 no row is left out. So every -inf row is certified strictly
    below its curve's maximum, and the maximizer's argmax, its value and
    so its bracket are those of the whole grid. A later call with other
    abscissae on the same base vector (another u with the same grid) is
    certified for its own and computes the units it adds.

    The rows computed at once are whole units in grid order, the last
    unit last. On the maximizer's grid of 8j + 1 abscissae every row but
    the last is then in one of gemv's groups of 4, in the whole matrix as
    in the rows computed (see _blocks), and the last row, v = u, is
    (1, 0, 0, ...) and exact either way: every computed value is the
    whole matrix's, bit for bit. The CLI builds one GridWalk per command;
    nothing is shared between GridWalks.
    """

    def __init__(self, pmf: UserCountPmf):
        self._pmf = pmf
        q = pmf.weights[1:]
        # the eta1 and the eta2 curve's weights, (n q_n, q_n) for n >= 1
        self._weights = (np.arange(1, pmf.weights.size) * q, q)
        self._walks: List[_Walk] = []

    def maximand(self, per_user: bool, v: np.ndarray, base: np.ndarray) -> np.ndarray:
        """(v/2) (powers @ w) for the per_user curve's weights w on every
        row computed, -inf on the rest, each of which is certified below
        the maximum at the ascending abscissae v: the powers are
        base[:, None] ** k, base = 1 - v/u (see the class docstring)."""
        for walk in self._walks:
            if np.array_equal(walk.base, base):
                break
        else:
            walk = _Walk(base, self._weights)
            self._walks.append(walk)
        if not (walk.complete or any(np.array_equal(v, seen) for seen in walk.certified)):
            walk.certify(v)
            walk.certified.append(v.copy())
        return 0.5 * v * walk.products[int(per_user)]


class FhCurves:
    """The FH objectives of one load law at one band size u, as functions
    of the hop count v, vectorized over v:

      eta1  E{SMG(v, N)} = (v/2) sum_{n >= 1} n q_n (1 - v/u)^(n-1),
      eta2  E{SMG(v, N)/N} = (v/2) sum_{n >= 1} q_n (1 - v/u)^(n-1), the
            eta2 objective for v < u.

    curve() on more than one abscissa computes every row of the grid
    product (_grid_products). eta1 and eta2 maximize a private objective
    that reads the rows that can hold the maximum from a GridWalk of the
    law, and -inf on the rest, each certified strictly below the maximum
    (GridWalk.maximand): so it gives the same argmax and value bit for
    bit. Curves built on one shared GridWalk share its walks. A call on
    one abscissa x computes its row directly, on Python floats.
    """

    def __init__(self, pmf: UserCountPmf, u: float, walk: Optional[GridWalk] = None):
        if walk is not None and walk._pmf is not pmf:
            raise ValueError("walk holds the curves of another law")
        self.pmf = pmf
        self.u = u
        self._walk = GridWalk(pmf) if walk is None else walk

    def curve(self, per_user: bool) -> Callable[[np.ndarray], np.ndarray]:
        """The eta2 objective with per_user, else the eta1 one."""
        return self._curve(per_user, bounded=False)

    def _curve(self, per_user: bool, bounded: bool) -> Callable[[np.ndarray], np.ndarray]:
        """curve(per_user), or with bounded the maximizer's objective,
        which on a grid reads -inf where GridWalk.maximand leaves a row."""
        w = self._walk._weights[per_user]
        u, k = self.u, np.arange(self.pmf.n_top)

        def f(v: np.ndarray) -> np.ndarray:
            v = np.asarray(v, dtype=float)
            if v.size == 1:
                x = float(v[0])
                return np.array([0.5 * x * float(np.power(1.0 - x / u, k) @ w)])
            if bounded:
                return self._walk.maximand(per_user, v, 1.0 - v / u)
            return 0.5 * v * _grid_products(1.0 - v / u, (w,))[0]

        return f

    def eta1(self) -> Tuple[float, float]:
        """Best expected SMG and its hop count: (value, v_star)."""
        v_star, value = maximize_on_interval(self._curve(False, bounded=True), 0.0, self.u)
        return value, v_star

    def eta2(self) -> Tuple[float, float]:
        """Best expected worst-user gain with everyone served and its hop
        count: (value, v_dagger).

        The objective is continuous on [0, u); the boundary point v = u is
        scored separately under the service rule (only N = 1 counts
        there) and compared against the interior optimum.
        """
        u = self.u
        v_dag, value = maximize_on_interval(self._curve(True, bounded=True), 0.0, u)
        boundary = 0.5 * u * self.pmf.weights[1]
        if boundary > value:
            return boundary, u
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


def mean_load_conditions(
    pmf: UserCountPmf, walk: Optional[GridWalk] = None
) -> Dict[str, ConditionCheck]:
    """The mean-load tests guaranteeing that FH beats FD, keyed by measure,
    each with the direct comparison at u = 1 and n_des = n_max:

      eta1  E{N} < (1/2) ln((e^2 - 1) n_max)  gives  eta1_fh > eta1_fd,
      eta2  (1/E{N})(1 - 1/E{N})^(E{N}-1) > 1/n_max  gives  eta2_fh > eta2_fd.

    Their hypothesis is a finite load with no mass at N = 0; any other law
    (Poisson, or q[0] > 0) gets no checks. A condition that holds while its
    comparison fails would contradict the guarantee, so that combination
    raises. Both comparisons maximize over one FhCurves grid, taken from
    walk when one is given.
    """
    if not pmf.is_finite or pmf.weights[0] > 0.0:
        return {}
    n_max = pmf.n_max
    fd = FdConfig(n_des=n_max)
    curves = FhCurves(pmf, 1.0, walk)
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
    walk: Optional[GridWalk] = None,
) -> List[Measure]:
    """Every measure of FH, FD and AFH on a common user count law, in the
    order fh, fd, afh and eta1 to eta4 within a scheme; eta3 is left out
    when the load has no n_max.

    FH reports the hop count each measure was reached at (v_star,
    v_dagger, v = u/n_max, v), FD its n_des, AFH no parameter. epsilon is
    the hop-count backoff used for FH's service measure when the eta1
    optimum sits at v = u; it defaults to u/1000 and must lie in (0, u/2),
    as in epsilon_backoff_region. FH's curves come from walk when one is
    given.
    """
    if epsilon is None:
        epsilon = 1e-3 * u
    if not 0.0 < epsilon < 0.5 * u:
        raise ValueError("epsilon must lie in (0, u/2)")
    fd_cfg = FdConfig(n_des=n_des) if n_des is not None else FdConfig.default_for(pmf, u)
    n_max = pmf.n_max

    curves = FhCurves(pmf, u, walk)
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
