"""Zero-mean Gaussian mixtures: densities, entropies, and entropy bounds.

Everything that reports an entropy does so in bits (log base 2); raw log
densities are natural logs. Every mixture log-density, pointwise, Monte
Carlo or quadrature node, goes through one row-wise log-sum-exp kernel that
works on bounded chunks in place.

Scalar mixtures get a deterministic quadrature entropy: composite
Gauss-Kronrod (G7/K15) panels on half of a symmetric window, refined by
bisection until the panels' |K15 - G7| error estimates sum to at most tol/8,
so the doubled integral is certified to within tol/4 of the windowed value
(the window's tail mass is far below that). Vector mixtures with diagonal
covariances get a Monte Carlo plug-in estimate that is reproducible for a
fixed seed and independent of how its sample partitions are scheduled
across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtri

from ._blocks import generator, map_blocks

_LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
_WEIGHT_TOL = 1e-12

# Sample partition width for Monte Carlo entropy. Fixed so that results do
# not depend on the worker count: partition j always owns the same samples.
MC_PARTITION = 1 << 16

# Largest (rows x components) block the log-density kernel holds at once.
_BLOCK_DOUBLES = 1 << 20

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


def gaussian_entropy(variance: float) -> float:
    """Differential entropy of N(0, variance), in bits."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return 0.5 * math.log2(2.0 * math.pi * math.e * variance)


@dataclass(frozen=True, eq=False)
class GaussianMixture1D:
    """Finite zero-mean scalar Gaussian mixture.

    components is a tuple of (weight, variance) pairs; weights sum to 1
    and variances are strictly positive.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), float(v)) for w, v in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if any(w < 0 for w, _ in comps):
            raise ValueError("weights must be nonnegative")
        if abs(sum(w for w, _ in comps) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        comps = tuple((w, v) for w, v in comps if w > 0)
        if any(v <= 0 for _, v in comps):
            raise ValueError("variances must be positive")
        object.__setattr__(self, "components", comps)

    @classmethod
    def of(cls, *components: Tuple[float, float]) -> "GaussianMixture1D":
        return cls(components=tuple(components))

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])

    @property
    def component_variances(self) -> np.ndarray:
        return np.array([v for _, v in self.components])

    def variance(self) -> float:
        """Total variance of the mixture."""
        return float((self.weights * self.component_variances).sum())

    def as_diag(self) -> "GaussianMixtureDiag":
        return GaussianMixtureDiag(
            weights=self.weights, variances=self.component_variances[:, None]
        )


@dataclass(frozen=True, eq=False)
class GaussianMixtureDiag:
    """Zero-mean vector Gaussian mixture with diagonal covariances.

    variances has shape (n_components, dim) and may contain zeros: such a
    coordinate is an exact point mass at 0 for that component, and the
    density is taken with respect to Lebesgue measure on the non-degenerate
    coordinates.
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
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if np.any(v < 0):
            raise ValueError("variances must be nonnegative")
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
        return self


AnyMixture = Union[GaussianMixture1D, GaussianMixtureDiag]


def _log_mixture_rows(
    x: np.ndarray,
    log_coef: np.ndarray,
    inv_2var: np.ndarray,
    dead: Optional[np.ndarray] = None,
) -> np.ndarray:
    """log sum_l exp(log_coef[l] - sum_j inv_2var[l, j] x[i, j]^2) per row i.

    x is (n, dim), log_coef (k,), inv_2var (k, dim). Where dead[l, j] is
    1.0 (else 0.0), component l is a point mass at 0 on coordinate j and
    adds nothing to rows with x[i, j] != 0 (inv_2var[l, j] must then be 0).
    Rows go through in chunks of at most _BLOCK_DOUBLES (rows x components)
    doubles; each chunk's log-sum-exp runs in place (subtract the row
    maximum, exp, sum). A row to which no component contributes gives -inf.
    """
    n = x.shape[0]
    out = np.empty(n)
    step = max(1, _BLOCK_DOUBLES // max(log_coef.shape[0], 1))
    for s in range(0, n, step):
        xs = x[s : s + step]
        block = (xs * xs) @ inv_2var.T
        np.subtract(log_coef, block, out=block)
        if dead is not None:
            block[((xs != 0.0).astype(float) @ dead.T) > 0.0] = -np.inf
        top = block.max(axis=1)
        top[top == -np.inf] = 0.0
        block -= top[:, None]
        np.exp(block, out=block)
        with np.errstate(divide="ignore"):
            np.log(block.sum(axis=1), out=out[s : s + step])
        out[s : s + step] += top
    return out


def _log_density_rows(m: GaussianMixtureDiag, x: np.ndarray) -> np.ndarray:
    """Natural-log densities for rows of x, shape (n, dim) -> (n,).

    Components with zero-variance coordinates live on a subspace: they
    contribute only where x is exactly 0 on those coordinates, with the
    density taken over their live coordinates.
    """
    var = m.variances
    live = var > 0.0
    safe = np.where(live, var, 1.0)
    logdet = -0.5 * (live.sum(axis=1) * _LN_2PI + np.log(safe).sum(axis=1))
    return _log_mixture_rows(
        np.asarray(x, dtype=float),
        np.log(m.weights) + logdet,
        np.where(live, 0.5 / safe, 0.0),
        dead=None if live.all() else (~live).astype(float),
    )


def log_density(m: AnyMixture, x: Sequence[float]) -> float:
    """Natural-log mixture density at one point x (length = dim)."""
    diag = m.as_diag()
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != diag.dim:
        raise ValueError(f"x has length {x.shape[0]}, mixture dim is {diag.dim}")
    return float(_log_density_rows(diag, x[None, :])[0])


def entropy_quadrature(m: GaussianMixture1D, tol: float = 1e-6) -> float:
    """Differential entropy of a scalar mixture in bits, by adaptive
    Gauss-Kronrod quadrature of -p log2 p.

    The integration window [-span, span] is wide enough that the neglected
    tail mass is below tol/10. The integrand is even, so [0, span] is
    integrated and doubled. It starts as panels cut at break points seeded
    on the components' own scales; each round evaluates the 15 Kronrod
    nodes of every open panel in one pass and takes |K15 - G7| as the
    panel's error. Once the errors of all panels sum to at most tol/8 the
    K15 sums are returned, doubled, so the value is within tol/4 of the
    windowed integral. Otherwise each open panel whose error fits its share
    of tol/8 (in proportion to its width) is accepted and every other one
    is bisected. RuntimeError is raised when [-span, span] would need more
    than max(200, 20 + 10 * (number of +-break points)) panels.
    """
    if not isinstance(m, GaussianMixture1D):
        raise TypeError("entropy_quadrature takes a 1-D mixture")
    if tol <= 0:
        raise ValueError("tol must be positive")
    var = m.component_variances
    sig = np.sqrt(var)
    log_coef = np.log(m.weights) - 0.5 * (_LN_2PI + np.log(var))
    inv_2var = (0.5 / var)[:, None]
    # Window: the normal quantile on the widest component keeps tail mass
    # << tol/10.
    z = float(-ndtri(min(tol, 1e-3) / 40.0)) + 4.0
    span = z * float(sig.max())

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
    budget = tol / 8.0
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
            return 2.0 * (value + float(k15.sum()))
        ok = err <= budget * (hi - lo) / span
        value += float(k15[ok].sum())
        err_done += float(err[ok].sum())
        n_done += int(ok.sum())
        lo, hi = lo[~ok], hi[~ok]
        if 2 * (n_done + 2 * lo.size) > limit:
            raise RuntimeError(
                "entropy quadrature did not converge: estimated error "
                f"{2.0 * total_err:g} > tol/4 = {tol / 4.0:g} within {limit} panels"
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def entropy_mc(
    m: AnyMixture,
    n_samples: int,
    seed: int,
    threads: int = 1,
    stream: int = 0,
) -> Tuple[float, float]:
    """Plug-in Monte Carlo entropy of a mixture, in bits.

    Returns (estimate, standard_error). Samples are drawn in fixed-size
    partitions whose generators are keyed by (seed, stream, partition), so
    the result depends only on (n_samples, seed, stream), never on the
    worker count. Zero-variance coordinates are sampled exactly at 0 and
    handled by the density's support rule.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    diag = m.as_diag()
    std = np.sqrt(diag.variances)
    w = diag.weights

    def one(j: int, size: int) -> Tuple[float, float]:
        rng = generator(seed, (int(stream), j))
        idx = rng.choice(diag.n_components, size=size, p=w)
        z = rng.standard_normal((size, diag.dim))
        x = z * std[idx, :]
        ll = _log_density_rows(diag, x) / _LN2
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
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge adjacent levels whose variances agree within rel_tol.

    c holds ascending level parameters and p their probabilities; level l
    has variance base + c[l] * scale. Walking up the levels, a level joins
    the one before it when its variance exceeds that level's by at most
    rel_tol times the latter; the merged level keeps the probability-
    weighted mean parameter and the summed probability, so the first two
    moments are preserved. Returns the merged (c, p) arrays.
    """
    out_c, out_p = [], []
    for c_new, p_new in zip(np.asarray(c).tolist(), np.asarray(p).tolist()):
        if out_c:
            c_rep, p_rep = out_c[-1], out_p[-1]
            v_rep = base + c_rep * scale
            if base + c_new * scale - v_rep <= rel_tol * v_rep:
                out_c[-1] = (c_rep * p_rep + c_new * p_new) / (p_rep + p_new)
                out_p[-1] = p_rep + p_new
                continue
        out_c.append(c_new)
        out_p.append(p_new)
    return np.array(out_c), np.array(out_p)


def entropy_upper_bound(m: GaussianMixture1D) -> float:
    """Closed-form entropy bound for a scalar mixture, in bits.

    With levels sorted by variance, ambient variance s0 and top variance
    sL, the bound is

        (1 - a0)/2 * log2(sL / s0) + log2(sqrt(2 pi e) * sqrt(s0)) + H,

    where a0 is the ambient level's probability and H the entropy of the
    level index. Always >= the true mixture entropy.
    """
    order = np.argsort(m.component_variances)
    # H counts distinct levels only: merge variances within 1e-9 relative.
    v, a = merge_levels(
        m.component_variances[order], m.weights[order], 0.0, 1.0, 1e-9
    )
    h_levels = float(-(a * np.log2(a)).sum())
    return (
        0.5 * (1.0 - a[0]) * math.log2(v[-1] / v[0])
        + 0.5 * math.log2(2.0 * math.pi * math.e * v[0])
        + h_levels
    )
