"""Zero-mean Gaussian mixtures: densities, entropies, and entropy bounds.

Everything that reports an entropy does so in bits (log base 2); raw log
densities are natural logs. Every mixture log-density, at a Monte Carlo
sample or a quadrature node, goes through one row-wise log-sum-exp kernel
that works on bounded chunks in place. The kernel raises every term below the
row maximum by more than 700 to exactly that floor before exponentiating,
which keeps exp off its slow path for subnormal and zero results and
changes no bit of any density (see _log_mixture_rows).

Scalar mixtures get a deterministic quadrature entropy: composite
Gauss-Kronrod (G7/K15) panels on half of a symmetric window, refined by
bisection until the panels' |K15 - G7| error estimates sum to at most
1.25e-7, so the doubled integral is certified to within 2.5e-7 bits of the
windowed value. The window spans 9.4513 standard deviations of the widest
component, so the mixture mass outside it is at most 2 Phi(-9.4513) =
3.3e-21. Vector mixtures with diagonal covariances get a Monte Carlo
plug-in estimate that is reproducible for a fixed seed and independent of
how its sample partitions are scheduled across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._blocks import generator, map_blocks, row_ranges

_LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
# Every law's probabilities (mixture weights, pmfs, levels) sum to 1 within this.
PROB_TOL = 1e-12

# Relative variance gap within which merge_levels joins adjacent levels,
# for interference spectra and for entropy_upper_bound's level entropy.
MERGE_REL_TOL = 1e-9

# Sample partition width for Monte Carlo entropy. Fixed so that results do
# not depend on the worker count: partition j always owns the same samples.
MC_PARTITION = 1 << 16

# Fewest samples entropy_mc accepts.
MC_MIN_SAMPLES = 100

# Floor for the log-sum-exp terms once the row maximum is subtracted. exp
# of an argument in [-745, -708] is subnormal and takes a slow path that
# costs over 100x an in-range exp (below -745 it is 0, still about 20x).
_LOG_TERM_FLOOR = -700.0

# entropy_quadrature's tolerance, and the half-width of its window in
# standard deviations of the widest component: 4 plus the upper standard
# normal quantile of _QUAD_TOL / 40, written out so that no quantile is
# computed at run time.
_QUAD_TOL = 1e-6
_QUAD_WINDOW_Z = 9.451310437845478

# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15), half of it from the
# outer node in to 0: Kronrod nodes and weights, and 7-point Gauss weights
# (0 on the Kronrod-only nodes).
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
_GK_X = np.concatenate([-_XK, _XK[-2::-1]])
_GK_WK = np.concatenate([_WK, _WK[-2::-1]])
_GK_WG = np.concatenate([_WG, _WG[-2::-1]])


def check_probabilities(weights, name: str) -> None:
    """ValueError unless every weight lies in [0, 1 + PROB_TOL] (NaN fails).
    A weight above 1 fails a law's sum check anyway; testing each one first
    keeps that sum from overflowing ([1e308, 1e308])."""
    w = np.asarray(weights, dtype=float)
    if not np.all((w >= 0) & (w <= 1.0 + PROB_TOL)):
        raise ValueError(f"{name} must be probabilities in [0, 1], not NaN")


def gaussian_entropy(variance: float) -> float:
    """Differential entropy of N(0, variance), in bits."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return 0.5 * math.log2(2.0 * math.pi * math.e * variance)


@dataclass(frozen=True, eq=False)
class GaussianMixtureDiag:
    """Zero-mean vector Gaussian mixture with diagonal covariances.

    variances has shape (n_components, dim) and holds positive, finite
    values only. Weights are nonnegative and sum to 1; components of
    weight 0 are dropped.
    """

    weights: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        v = np.array(self.variances, dtype=float)
        if v.ndim != 2:
            raise ValueError("variances must be 2-D (components x dim)")
        if w.ndim != 1 or w.shape[0] != v.shape[0]:
            raise ValueError("one weight per component required")
        check_probabilities(w, "weights")
        if abs(w.sum() - 1.0) > PROB_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if not (np.isfinite(v).all() and (v > 0).all()):
            raise ValueError("variances must be positive and finite")
        keep = w > 0
        w, v = w[keep], v[keep]
        if w.size == 0:
            raise ValueError("mixture needs at least one component")
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.variances.shape[1]

    def as_diag(self) -> "GaussianMixtureDiag":
        """The mixture itself (perfbench/spans.py still calls this)."""
        return self


class GaussianMixture1D(GaussianMixtureDiag):
    """Finite zero-mean scalar Gaussian mixture: one coordinate, built
    from (weight, variance) pairs."""

    def __init__(self, components):
        pairs = np.array(components, dtype=float).reshape(len(components), 2)
        super().__init__(weights=pairs[:, 0], variances=pairs[:, 1:])

    @classmethod
    def of(cls, *components: Tuple[float, float]) -> "GaussianMixture1D":
        return cls(components)

    @property
    def components(self) -> tuple:
        return tuple(zip(self.weights.tolist(), self.variances[:, 0].tolist()))

    def variance(self) -> float:
        """Total variance of the mixture."""
        return float((self.weights * self.variances[:, 0]).sum())


def _log_mixture_rows(
    x: np.ndarray, log_coef: np.ndarray, inv_2var: np.ndarray
) -> np.ndarray:
    """log sum_l exp(log_coef[l] - sum_j inv_2var[l, j] x[i, j]^2) per row i.

    x is (n, dim), log_coef (k,), inv_2var (k, dim) and positive. Rows go
    through in _blocks.row_ranges of (rows x components) doubles, 2 rows
    or more each, so that with two or more components no row's value
    depends on the chunking. Each chunk's log-sum-exp runs in place
    (subtract the row maximum, raise to _LOG_TERM_FLOOR, exp, sum). A row
    to which no component contributes (one with an infinite coordinate)
    gives -inf, without a floating-point warning. A finite coordinate
    whose square overflows raises ValueError.

    The floor changes no bit of the result. A term it raises changed from
    exp(t) with t < -700 to exp(-700), by less than 1e-304, and the row
    sum holds the maximum's term exp(0) = 1, so the sum is at least 1 and
    rounding to its ulp of 2.2e-16 or more absorbs the change (tests check
    the bytes against the unfloored kernel). In exchange
    exp never sees an argument whose result is subnormal or 0, where
    numpy's vectorized exp leaves its fast path for the whole vector.
    """
    out = np.empty(x.shape[0])
    for s, stop in row_ranges(x.shape[0], log_coef.shape[0], multiple=2):
        xs = x[s:stop]
        with np.errstate(over="ignore"):
            sq = xs * xs
        if np.isinf(sq).any() and (np.isinf(sq) & np.isfinite(xs)).any():
            raise ValueError("mixture log-density: the square of a point overflows")
        with np.errstate(over="ignore"):  # an overflowing term is a zero density
            block = sq @ inv_2var.T
        np.subtract(log_coef, block, out=block)
        top = block.max(axis=1)
        empty = top == -np.inf
        top[empty] = 0.0
        block -= top[:, None]
        np.maximum(block, _LOG_TERM_FLOOR, out=block)
        np.exp(block, out=block)
        np.log(block.sum(axis=1), out=out[s:stop])
        out[s:stop] += top
        out[s:stop][empty] = -np.inf
    return out


def _density_coefficients(m: GaussianMixtureDiag):
    """(log_coef, inv_2var) of m for _log_mixture_rows."""
    var = m.variances
    logdet = -0.5 * (m.dim * _LN_2PI + np.log(var).sum(axis=1))
    return np.log(m.weights) + logdet, 0.5 / var


def _log_density_rows(m: GaussianMixtureDiag, x: np.ndarray) -> np.ndarray:
    """Natural-log densities for rows of x, shape (n, dim) -> (n,)."""
    log_coef, inv_2var = _density_coefficients(m)
    return _log_mixture_rows(np.asarray(x, dtype=float), log_coef, inv_2var)


def entropy_quadrature(m: GaussianMixture1D) -> float:
    """Differential entropy of a scalar mixture in bits, by adaptive
    Gauss-Kronrod quadrature of -p log2 p.

    The integration window [-span, span] is 9.4513 standard deviations of
    the widest component on each side, so the mixture mass outside it is
    at most 2 Phi(-9.4513) = 3.3e-21. The integrand is even, so [0, span]
    is integrated and doubled. It starts as panels cut at break points
    seeded on the components' own scales; each round evaluates the 15
    Kronrod nodes of every open panel in one pass and takes |K15 - G7| as
    the panel's error. Once the errors of all panels sum to at most
    1.25e-7 the K15 sums are returned, doubled, so the value is within
    2.5e-7 bits of the windowed integral. Otherwise each open panel whose
    error fits its share of 1.25e-7 (in proportion to its width) is
    accepted and every other one is bisected. RuntimeError is raised when
    [-span, span] would need more than max(200, 20 + 10 * (number of
    +-break points)) panels, and ValueError when the window is so wide
    that the square of a node overflows.

    The value is certified against closed forms, each O(K) (Huber et al.,
    "On entropy approximation for Gaussian mixture random vectors", MFI
    2008): L = sum_i a_i h(sigma_i^2) <= h, since conditioning on the
    component cannot raise the entropy, and h <= min(h(sum_i a_i
    sigma_i^2), L + H(a)), the entropy of a Gaussian of the same variance
    and the entropy of the pair (Y, component). A value outside them by
    more than 1e-6 bits is a RuntimeError, not a result.
    """
    if not isinstance(m, GaussianMixture1D):
        raise TypeError("entropy_quadrature takes a 1-D mixture")
    sig = np.sqrt(m.variances[:, 0])
    log_coef, inv_2var = _density_coefficients(m)
    span = _QUAD_WINDOW_Z * float(sig.max())

    # Seed break points on each component's own scale so narrow spikes
    # are not stepped over; 8 per smallest sigma, coarser for the rest.
    pts = set()
    for s in sorted(set(sig.tolist()))[:12]:
        for k in (1.0, 2.0, 4.0, 8.0):
            pts.add(k * s)
    s_min = float(sig.min())
    for k in range(1, 9):
        pts.add(k * s_min)
    cuts = sorted(p for p in pts if p < span)
    # Panels on [-span, span], counting both mirror images.
    limit = max(200, 20 + 20 * len(cuts))

    edges = np.array([0.0] + cuts + [span])
    lo, hi = edges[:-1], edges[1:]
    budget = _QUAD_TOL / 8.0
    value = 0.0
    err_done = 0.0
    n_done = 0
    while True:
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X
        lp = _log_mixture_rows(x.reshape(-1, 1), log_coef, inv_2var).reshape(x.shape)
        # lp is finite on the window; where exp(lp) underflows f is 0.
        f = np.exp(lp) * lp * (-1.0 / _LN2)
        k15 = half * (f @ _GK_WK)
        err = np.abs(half * (f @ (_GK_WK - _GK_WG)))
        total_err = err_done + float(err.sum())
        if total_err <= budget:
            h = 2.0 * (value + float(k15.sum()))
            break
        ok = err <= budget * (hi - lo) / span
        value += float(k15[ok].sum())
        err_done += float(err[ok].sum())
        n_done += int(ok.sum())
        lo, hi = lo[~ok], hi[~ok]
        if 2 * (n_done + 2 * lo.size) > limit:
            raise RuntimeError(
                "entropy quadrature did not converge: estimated error "
                f"{2.0 * total_err:g} > tol/4 = {_QUAD_TOL / 4.0:g} within {limit} panels"
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    # Panels can pass the error test while missing whole components, so
    # the value must also lie within the closed-form bounds.
    lower = float(m.weights @ np.log2(2.0 * math.pi * math.e * m.variances[:, 0])) / 2.0
    upper = min(gaussian_entropy(m.variance()), lower + discrete_entropy(m.weights))
    if not lower - _QUAD_TOL <= h <= upper + _QUAD_TOL:
        raise RuntimeError(
            f"entropy quadrature is not certified: {h:.6g} bits lies outside "
            f"[{lower:.6g}, {upper:.6g}] by more than tol = {_QUAD_TOL:g}"
        )
    return h


def entropy_mc(
    m: GaussianMixtureDiag,
    n_samples: int,
    seed: int,
    threads: int = 1,
    stream: int = 0,
) -> Tuple[float, float]:
    """Plug-in Monte Carlo entropy of a mixture, in bits.

    Returns (estimate, standard_error). Samples are drawn in fixed-size
    partitions whose generators are keyed by (seed, stream, partition), so
    the result depends only on (n_samples, seed, stream), never on the
    worker count.
    """
    if n_samples < MC_MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MC_MIN_SAMPLES}")
    std = np.sqrt(m.variances)

    def one(j: int, size: int) -> Tuple[float, float]:
        rng = generator(seed, (int(stream), j))
        idx = rng.choice(m.n_components, size=size, p=m.weights)
        z = rng.standard_normal((size, m.dim))
        x = z * std[idx, :]
        ll = _log_density_rows(m, x) / _LN2
        return float(ll.sum()), float((ll * ll).sum())

    results = map_blocks(one, n_samples, MC_PARTITION, threads)
    total = 0.0
    total_sq = 0.0
    for s, s2 in results:
        total += s
        total_sq += s2
    mean = total / n_samples
    var = max((total_sq - n_samples * mean * mean) / (n_samples - 1), 0.0)
    se = math.sqrt(var / n_samples)
    return -mean, se


def merge_levels(
    c: Sequence[float],
    p: Sequence[float],
    base: float,
    scale: float,
    rel_tol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge adjacent levels whose variances agree within rel_tol.

    c holds ascending level parameters and p their probabilities; level l
    has variance base + c[l] * scale. Walking up the levels, a level joins
    the one before it when its variance exceeds that level's by at most
    rel_tol times the latter; the merged level keeps the probability-
    weighted mean parameter and the summed probability, so the first two
    moments are preserved. No level joins a first level at c = 0. Returns
    the merged (c, p) arrays, the inputs themselves when no level joins
    another, and, for each input level, the index of the merged level it
    joined.

    The walk only has work to do near ties. While the level before is
    alone in its group, the join test is the array test `tie` below, so
    levels pass through unchanged up to the next tie. From a tie the walk
    runs level by level until a level does not join; that level is alone
    in its group again.
    """
    c = np.asarray(c, dtype=float)
    p = np.asarray(p, dtype=float)
    var = base + c * scale
    tie = var[1:] - var[:-1] <= rel_tol * var[:-1]  # level l + 1 joins a lone level l
    tie[:1] &= c[:1] != 0.0
    if not tie.any():
        return c, p, np.arange(c.size)
    first = np.ones(c.size, dtype=bool)  # input level l opens a merged level
    c_list, p_list, var_list = c.tolist(), p.tolist(), var.tolist()
    out_c, out_p = [], []
    done = 0
    for t in np.flatnonzero(tie).tolist():
        if t < done:
            continue
        out_c += c_list[done:t]
        out_p += p_list[done:t]
        c_rep, p_rep = c_list[t], p_list[t]
        done = t + 1
        while done < c.size:
            v_rep = base + c_rep * scale
            if not var_list[done] - v_rep <= rel_tol * v_rep:
                break
            c_new, p_new = c_list[done], p_list[done]
            c_rep = (c_rep * p_rep + c_new * p_new) / (p_rep + p_new)
            p_rep = p_rep + p_new
            done += 1
        first[t + 1:done] = False
        out_c.append(c_rep)
        out_p.append(p_rep)
    out_c += c_list[done:]
    out_p += p_list[done:]
    return np.array(out_c), np.array(out_p), first.cumsum() - 1


def discrete_entropy(p: np.ndarray) -> float:
    """Entropy of a law with positive probabilities p, in bits."""
    return float(-(p * np.log2(p)).sum())


def entropy_upper_bound(m: GaussianMixture1D) -> float:
    """Closed-form entropy bound for a scalar mixture, in bits.

    With levels sorted by variance, ambient variance s0 and top variance
    sL, the bound is

        (1 - a0)/2 * log2(sL / s0) + log2(sqrt(2 pi e) * sqrt(s0)) + H,

    where a0 is the ambient level's probability and H the entropy of the
    level index. Always >= the true mixture entropy.
    """
    if not isinstance(m, GaussianMixture1D):
        raise TypeError("entropy_upper_bound takes a 1-D mixture")
    var = m.variances[:, 0]
    order = np.argsort(var)
    # H counts distinct levels only: merge variances within MERGE_REL_TOL.
    v, a, _ = merge_levels(var[order], m.weights[order], 0.0, 1.0, MERGE_REL_TOL)
    top, low = float(v[-1]), float(v[0])
    spread = top / low  # inf, without a warning, where the quotient overflows
    log_spread = math.log2(spread) if spread < math.inf else math.log2(top) - math.log2(low)
    return (
        0.5 * (1.0 - a[0]) * log_spread
        + 0.5 * math.log2(2.0 * math.pi * math.e * v[0])
        + discrete_entropy(a)
    )
