"""Sum multiplexing gain algebra and hopping-parameter selection.

The asymptotic per-user rate grows like (vbar_i / 2) * prod_{k != i}
(1 - vbar_k / u) per doubling of SNR; the sum of those prefactors is the
sum multiplexing gain (SMG). This module provides the SMG forms, the
fair (common-v) special case, integer hop-count mixing for fractional
targets, occupancy sampling, and the 1-D maximizer used by the measure
optimizers.
"""
from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .model import HoppingProfile

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# maximize_on_interval: abscissae of the coarse grid (both ends included),
# and the final bracket width relative to the interval.
GRID_POINTS = 4097
BRACKET_REL_TOL = 1e-9


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
    profile: HoppingProfile, u: int, rng: np.random.Generator, n_slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized occupancy draws for one user.

    Returns (occupancy, counts): a boolean (n_slots, u) matrix whose rows
    are uniformly random v-subsets, and the per-slot hop counts v.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    why = profile.misfit(u)
    if why is not None:
        raise ValueError(f"the profile {why}")
    if profile.is_fixed:
        counts = np.full(n_slots, profile.fixed_v, dtype=np.int64)
    else:
        counts = rng.choice(u + 1, size=n_slots, p=np.array(profile.pmf)).astype(np.int64)
    scores = rng.random((n_slots, u))
    # the sub-bands holding the v smallest scores: those at or below the
    # row's v-th smallest score
    ranked = np.sort(scores, axis=1)
    rows = np.arange(n_slots)
    threshold = ranked[rows, np.maximum(counts - 1, 0)]
    occupancy = scores <= threshold[:, None]
    occupancy[counts == 0] = False
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
        occupancy[tied] = redo
    return occupancy, counts


def maximize_on_interval(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> Tuple[float, float]:
    """Deterministic 1-D maximizer: coarse grid, then golden-section.

    f must accept a 1-D numpy array and return values elementwise. The
    grid holds GRID_POINTS evenly spaced abscissae including both ends;
    the best bracket is refined until its width is BRACKET_REL_TOL *
    (hi - lo). Ties resolve toward the smaller argument.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    xs = np.linspace(lo, hi, GRID_POINTS)
    fx = np.asarray(f(xs), dtype=float)
    if fx.shape != xs.shape:
        raise ValueError("objective must map arrays elementwise")
    i = int(np.argmax(fx))
    best_x, best_f = float(xs[i]), float(fx[i])

    def f_scalar(x: float) -> float:
        return float(np.asarray(f(np.array([x])), dtype=float)[0])

    a = float(xs[i - 1]) if i > 0 else float(xs[0])
    b = float(xs[i + 1]) if i + 1 < xs.size else float(xs[-1])
    tol = BRACKET_REL_TOL * (hi - lo)
    if b - a > tol:
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = f_scalar(c), f_scalar(d)
        while b - a > tol:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = f_scalar(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = f_scalar(d)
        for xx, ff in ((c, fc), (d, fd), ((a + b) / 2.0, f_scalar((a + b) / 2.0))):
            if ff > best_f or (ff == best_f and xx < best_x):
                best_x, best_f = float(xx), float(ff)
    return best_x, best_f
