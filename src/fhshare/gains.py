"""Sum multiplexing gain algebra and hopping-parameter selection.

The asymptotic per-user rate grows like (vbar_i / 2) * prod_{k != i}
(1 - vbar_k / u) per doubling of SNR; the sum of those prefactors is the
sum multiplexing gain (SMG). This module provides the SMG forms, the
fair (common-v) special case, integer hop-count mixing for fractional
targets, occupancy sampling, and the certified maximizer of the FH measure
curves.
"""
from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from ._blocks import row_ranges
from .model import HoppingProfile

# maximize_on_interval: the cells it starts from, the ways an open cell
# splits, and its margins, 1e-9 relative and 1e-300 absolute, far above
# the rounding of a sum of n_top nonnegative terms; no chord is drawn to
# a sum below the smallest normal double, whose rounding is not relative.
_START = np.arange(129) / 128.0
_SPLIT = np.arange(1, 16) / 16.0
_SLACK = 1e-9
_FLOOR = 1e-300
_NORMAL = np.finfo(float).tiny


def _leave_one_out_products(factors: np.ndarray) -> np.ndarray:
    """prod_{k != i} factors[k] for every i, tolerant of zero factors: the
    product of the prefix before i and the suffix after it, each
    accumulated in sequence."""
    prefix = np.concatenate(([1.0], np.cumprod(factors[:-1])))
    suffix = np.concatenate((np.cumprod(factors[:0:-1])[::-1], [1.0]))
    return prefix * suffix


def per_user_gains(vbar, u: float) -> np.ndarray:
    """Asymptotic rate prefactor (bits per doubling of SNR) of each user."""
    arr = np.asarray(vbar, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("vbar must be a nonempty vector")
    if np.any(arr < 0) or np.any(arr > u):
        raise ValueError("each mean hop count must lie in [0, u]")
    return 0.5 * arr * _leave_one_out_products(1.0 - arr / u)


def smg_fair(v: float, n: int, u: float) -> float:
    """SMG when all n users share the hop count v: (n/2) v (1-v/u)^(n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= v <= u:
        raise ValueError("v must lie in [0, u]")
    return 0.5 * n * v * (1.0 - v / u) ** (n - 1)


def v_opt(n: int, u: float) -> float:
    """Maximizer of smg_fair over v: spread the band evenly, v = u/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return u / n


def integer_hop_mixture(v_real: float, u: float) -> Tuple[int, int, float]:
    """Split a fractional hop count across two integers.

    Returns (v_floor, v_ceil, mu) with mu = probability of using v_floor,
    chosen so mu*v_floor + (1-mu)*v_ceil = v_real exactly. An integer
    v_real keeps all mass on itself (mu = 1).
    """
    if not 0 <= v_real <= u:
        raise ValueError("v_real must lie in [0, u]")
    floor = math.floor(v_real)
    if floor == v_real:
        return int(floor), int(floor) + 1, 1.0
    ceil = floor + 1
    return int(floor), int(ceil), float(ceil - v_real)


def two_generator_profile(v_real: float, u: int) -> HoppingProfile:
    """Hopping profile realizing a fractional mean hop count exactly."""
    floor, ceil, mu = integer_hop_mixture(v_real, u)
    w = np.zeros(u + 1)
    w[floor] += mu
    if mu < 1.0:
        w[ceil] += 1.0 - mu
    return HoppingProfile.from_pmf(w)


def sample_occupancy(
    profile: HoppingProfile, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Vectorized occupancy draws for one user.

    Fills the boolean (n_slots, u) array out with rows that are uniformly
    random v-subsets and returns the per-slot hop counts v. The scores
    that pick the subsets are drawn and ranked in row ranges of about
    _blocks.BLOCK_DOUBLES cells; draws in sequence give the same stream as
    one draw of every row, so the ranges change no bit.
    """
    n_slots, u = out.shape
    why = profile.misfit(u)
    if why is not None:
        raise ValueError(f"the profile {why}")
    if profile.is_fixed:
        counts = np.full(n_slots, profile.fixed_v, dtype=np.int64)
    else:
        counts = rng.choice(u + 1, size=n_slots, p=np.array(profile.pmf)).astype(np.int64)
    for start, stop in row_ranges(n_slots, u):
        _mark_smallest(rng.random((stop - start, u)), counts[start:stop], out[start:stop])
    return counts


def _mark_smallest(scores: np.ndarray, counts: np.ndarray, out: np.ndarray) -> None:
    """Set out[r] to the sub-bands holding row r's counts[r] smallest
    scores: those at or below the row's counts[r]-th smallest score."""
    u = scores.shape[1]
    ranked = np.sort(scores, axis=1)
    rows = np.arange(scores.shape[0])
    threshold = ranked[rows, np.maximum(counts - 1, 0)]
    np.less_equal(scores, threshold[:, None], out=out)
    out[counts == 0] = False
    # A row marks more than v sub-bands exactly when its (v+1)-th smallest
    # score equals the v-th; such rows take the first v sub-bands of the
    # argsort order instead.
    tied = np.flatnonzero(
        (counts > 0) & (counts < u) & (ranked[rows, np.minimum(counts, u - 1)] == threshold)
    )
    if tied.size:
        order = np.argsort(scores[tied], axis=1)
        redo = np.empty((tied.size, u), dtype=bool)
        np.put_along_axis(redo, order, np.arange(u) < counts[tied, None], axis=1)
        out[tied] = redo


def maximize_on_interval(
    sums: Callable[[np.ndarray], np.ndarray], u: float
) -> Tuple[float, float]:
    """Certified maximum of an FH curve f(v) = (v/2) S(1 - v/u) over the
    hop counts v in [0, u]: (v, f(v)).

    sums maps a 1-D array of hop counts to the (3, len(v)) array of S, S'
    and S'' at x = 1 - v/u, where S(x) = sum_k w_k x^k has every w_k >= 0.
    So S, S' and S'' fall as v rises, ln S is convex in t = ln x, and
    f' = g/2 with g = S - (v/u) S'. A cell [a, b] is closed when
      - the chord of ln S in t, S(v) <= S_a (x/x_a)^beta with beta =
        (ln S_a - ln S_b)/(t_a - t_b) >= 0 (0 where S_b is below the
        smallest normal double or x_a = x_b), keeps f, whose bound peaks
        at v = clip(u/(1 + beta), a, b), within (best + 1e-300)(1 + 1e-9)
        of the largest f evaluated;
      - f rises over it: S_b > (b/u) S'_a;
      - f is concave on it, (b/u) S''_a <= 2 S'_b as f'' = ((v/u) S'' -
        2 S')/(2u), and g does not turn from + to - between its ends;
      - or no double lies inside it.
    This is branch and bound, Piyavskii and Shubert's scheme with the
    chord bound in place of a Lipschitz constant. S is evaluated at the
    ends of 128 equal cells. Then, until nothing is added: from the best
    point (the smallest v among equal f) the sign of g is followed to
    where it turns, and that root of g is closed in on down to adjacent
    doubles (_turning_point); once it is, every open cell is split 16
    ways, or where f is concave searched the same way. No double in
    [0, u] then has f above the margins of best. The point returned is
    the end of the turn next to the best point with the larger f (the
    smaller on a tie), where that f is within 1e-9 relative of best:
    near a flat maximum rounding picks the best point, not the turn.
    Otherwise it is the best point.
    """
    if not (u > 0.0 and math.isfinite(u)):
        raise ValueError("need a positive finite u")
    v = u * _START
    sd = sums(v)
    while True:
        s, ds, _ = sd
        f = 0.5 * v * s
        g = s - (v / u) * ds
        i = int(np.argmax(f))
        m, lo = _turn(g, i)
        added = [_turning_point(sums, u, v[lo : lo + 2], sd[:, lo : lo + 2])] if lo >= 0 else []
        if not (added and added[0][0].size):
            split, peaks = _open_cells(v, sd, g, u, f[i])
            if split.any():
                a, b = v[:-1][split, None], v[1:][split, None]
                inner = a + (b - a) * _SPLIT
                # ascending already; a cell a few doubles wide rounds some
                # points onto its ends or each other (np.unique loads numpy.ma)
                inner = inner[(a < inner) & (inner < b)]
                inner = inner[np.append(True, inner[1:] != inner[:-1])]
                added.append((inner, sums(inner)))
            added += [_turning_point(sums, u, v[c : c + 2], sd[:, c : c + 2])
                      for c in np.flatnonzero(peaks)]
        added = [(x, y) for x, y in added if x.size]
        if not added:
            break
        order = np.argsort(np.concatenate([v] + [x for x, _ in added]))
        v = np.concatenate([v] + [x for x, _ in added])[order]
        sd = np.concatenate([sd] + [y for _, y in added], axis=1)[:, order]
    if lo >= 0:
        m = lo + int(f[lo + 1] > f[lo])
    if f[m] >= (1.0 - _SLACK) * f[i]:
        i = m
    return float(v[i]), float(f[i])


def _open_cells(
    v: np.ndarray, sd: np.ndarray, g: np.ndarray, u: float, best: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the cells between the points v that maximize_on_interval
    cannot close (best is the largest f): those where f is not concave,
    to be split, and those where it is and g turns, to be searched."""
    s, ds, d2s = sd
    a, b = v[:-1], v[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(1.0 - v / u)
        ln_s = np.log(s)
        span = t[:-1] - t[1:]
        chord = (s[1:] >= _NORMAL) & (span > 0.0)
        beta = np.where(chord, np.fmax((ln_s[:-1] - ln_s[1:]) / span, 0.0), 0.0)
        peak = np.minimum(np.maximum(u / (1.0 + beta), a), b)
        rise = np.where(beta > 0.0, beta * (np.log(1.0 - peak / u) - t[:-1]), 0.0)
        bound = np.log(0.5 * peak) + ln_s[:-1] + rise
    bv = (1.0 + _SLACK) * (b / u)
    concave = bv * d2s[:-1] <= 2.0 * ds[1:]
    closed = (bound <= math.log((best + _FLOOR) * (1.0 + _SLACK))) | (s[1:] > bv * ds[:-1])
    cut = ~(closed | concave & ~((g[:-1] > 0.0) & (g[1:] < 0.0)))
    return cut & ~concave, cut & concave


def _turn(g: np.ndarray, i: int) -> Tuple[int, int]:
    """From point i, follow the sign of g to where it turns: (m, lo) with
    lo the cell where g goes from + to -, or -1 and m the point where g
    is 0 or the end it runs to."""
    if g[i] > 0.0:
        after = np.flatnonzero(g[i:] <= 0.0)
        m = i + int(after[0]) if after.size else g.size - 1
        return m, m - 1 if g[m] < 0.0 else -1
    if g[i] < 0.0:
        before = np.flatnonzero(g[:i] >= 0.0)
        m = int(before[-1]) if before.size else 0
        return m, m if g[m] > 0.0 else -1
    return i, -1


def _turning_point(
    sums: Callable[[np.ndarray], np.ndarray], u: float, ends: np.ndarray, sd: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The points strictly between ends, where g = S - (v/u) S' turns
    from + to -, at which a search for its root down to adjacent doubles
    (or a zero of g) evaluated the sums, and their sums columns. Newton's
    method on g, g' = ((v/u) S'' - 2 S')/u, runs from the end with the
    smaller |g| while each step stays in the bracket and halves |g|, with
    bisections in between. Where it stalls in the rounding of g, its step
    at most a sixteenth of the bracket, the search creeps toward the far
    end by that step or one double, doubling, until g changes sign, and
    bisects from there."""
    (a, b), seen = ends.tolist(), {}
    g_ends = sd[0] - (ends / u) * sd[1]
    near = int(abs(g_ends[1]) < abs(g_ends[0]))
    x, col = float(ends[near]), sd[:, near]
    # creep: 0 for Newton, the creep's step, then inf (bisect) past the root
    g_last, creep = math.inf, 0.0
    while True:
        g_x = float(col[0] - (x / u) * col[1])
        if g_x == 0.0:
            break
        if g_x > 0.0:
            a = x
        else:
            b = x
        if creep and (g_x > 0.0) != (g_last > 0.0):
            creep = math.inf
        c = math.nan
        if not creep:
            dg = ((x / u) * float(col[2]) - 2.0 * float(col[1])) / u
            step = -g_x / dg if dg < 0.0 else math.nan
            halves = abs(g_x) <= 0.5 * abs(g_last)
            if abs(step) <= (b - a) / 16.0 and (step + x == x or not halves):
                creep = max(abs(step), math.ulp(x))
            elif halves:
                c = x + step
        if creep:
            c = x + math.copysign(creep, a + b - 2.0 * x)
            creep *= 2.0
        if not a < c < b:
            c = a + 0.5 * (b - a)
            if not a < c < b:
                break
        g_last, x = g_x, c
        col = seen[x] = sums(np.array([x]))[:, 0]
    points = sorted(seen)
    return np.array(points), np.array([seen[c] for c in points]).reshape(-1, 3).T
