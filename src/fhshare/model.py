"""Network model for decentralized frequency-hopping spectrum sharing.

A scenario holds N transmitter-receiver pairs sharing u orthogonal
sub-bands. Each pair hops to a fresh uniformly random subset of sub-bands
every slot, either a fixed number v of them or a number drawn from a
per-user distribution. Signals are zero-mean Gaussian with the total
transmit power P split evenly over the chosen sub-bands.

On any single sub-band, the interference-plus-noise seen by a receiver is
a finite zero-mean Gaussian mixture: every subset of interferers that can
land on that sub-band contributes one power level. This module enumerates
that mixture exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .mixture import (
    MERGE_REL_TOL,
    PROB_TOL,
    GaussianMixture1D,
    check_probabilities,
    discrete_entropy,
    merge_levels,
)

# Cells in one convolution round's grid. With fixed hop counts a round has
# at most as many cells as there are joint placements, so this admits every
# spectrum with under 2^24 of them (bounds.MAX_REALIZATIONS is 10^7).
MAX_ROUND_CELLS = 1 << 23


@dataclass(frozen=True, eq=False)
class NetworkScenario:
    """Static description of the shared channel.

    gains[k, i] is the real amplitude of the link from transmitter k to
    receiver i, so the diagonal holds the direct links. total_power is the
    per-user transmit power budget P and noise_power the per-sub-band
    noise variance sigma^2.
    """

    n_users: int
    n_subbands: int
    gains: np.ndarray
    total_power: float
    noise_power: float

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.n_subbands < 1:
            raise ValueError("n_subbands must be >= 1")
        g = np.array(self.gains, dtype=float)
        if g.shape != (self.n_users, self.n_users):
            raise ValueError(
                f"gains must be ({self.n_users}, {self.n_users}), got {g.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite")
        g.flags.writeable = False
        object.__setattr__(self, "gains", g)
        if not (self.total_power > 0 and math.isfinite(self.total_power)):
            raise ValueError("total_power must be positive")
        if not (self.noise_power > 0 and math.isfinite(self.noise_power)):
            raise ValueError("noise_power must be positive")
        # Every level variance is at most sigma^2 + P * sum_k gains[k, i]^2.
        with np.errstate(over="ignore"):
            top = self.noise_power + self.total_power * (g * g).sum(axis=0)
            snr = np.float64(self.total_power) / self.noise_power
        if not (np.isfinite(top).all() and np.isfinite(snr)):
            raise ValueError("sigma2 + P * sum_k g_ki^2 and P / sigma2 must be finite")

    def snr(self) -> float:
        """Transmit SNR gamma = P / sigma^2."""
        return self.total_power / self.noise_power


@dataclass(frozen=True)
class HoppingProfile:
    """Per-user law of the number of occupied sub-bands.

    Either a fixed count v, or a pmf over counts 0..u where pmf[v] is the
    probability of hopping onto v sub-bands in a slot. The chosen subset
    itself is always uniform over the v-subsets. hops holds the law's
    (v, weight) pairs of positive weight in increasing v, ((v, 1.0),) for
    a fixed v; every reader of the law reads it there.
    """

    fixed_v: Optional[int] = None
    pmf: Optional[tuple] = None
    hops: tuple = field(init=False, repr=False, compare=False)
    _mean_v: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.fixed_v is None) == (self.pmf is None):
            raise ValueError("exactly one of fixed_v / pmf must be given")
        if self.fixed_v is not None:
            if int(self.fixed_v) != self.fixed_v or self.fixed_v < 0:
                raise ValueError("fixed_v must be a nonnegative integer")
            object.__setattr__(self, "fixed_v", int(self.fixed_v))
            hops = ((self.fixed_v, 1.0),)
        else:
            w = tuple(float(x) for x in self.pmf)
            if len(w) < 1:
                raise ValueError("pmf must be nonempty")
            check_probabilities(w, "pmf entries")
            if abs(sum(w) - 1.0) > PROB_TOL:
                raise ValueError("pmf must sum to 1 within 1e-12")
            object.__setattr__(self, "pmf", w)
            hops = tuple((v, x) for v, x in enumerate(w) if x > 0)
        object.__setattr__(self, "hops", hops)
        # Weights may sum to a little over 1; the mean stays in the support.
        mean = min(float(sum(v * x for v, x in hops)), float(self.max_v()))
        object.__setattr__(self, "_mean_v", mean)

    @classmethod
    def fixed(cls, v: int) -> "HoppingProfile":
        return cls(fixed_v=v)

    @classmethod
    def from_pmf(cls, weights: Sequence[float]) -> "HoppingProfile":
        return cls(pmf=tuple(weights))

    @property
    def is_fixed(self) -> bool:
        return self.fixed_v is not None

    def mean_v(self) -> float:
        """Mean count, at most max_v()."""
        return self._mean_v

    def max_v(self) -> int:
        """Largest count that can occur."""
        return self.hops[-1][0]

    def misfit(self, u: int) -> Optional[str]:
        """The rule the profile breaks on u sub-bands, or None when it fits:
        it may use at most u of them, and a pmf covers exactly 0..u."""
        if self.max_v() > u:
            return f"uses more than u={u} sub-bands"
        if self.pmf is not None and len(self.pmf) != u + 1:
            return f"pmf length {len(self.pmf)} != u+1 = {u + 1}"
        return None


@dataclass(frozen=True, eq=False)
class InterferenceSpectrum:
    """Exact per-sub-band interference-plus-noise mixture at one receiver.

    Level l has probability probabilities[l], power increment c_values[l]
    and variance variances[l] = sigma^2 + c_values[l] * P; the three are
    read-only float arrays. Levels are sorted by c, strictly increasing,
    and their probabilities sum to 1. Levels with zero probability are
    dropped, so the c = 0 level is present exactly when some slot leaves
    the sub-band interference-free. Variances are nondecreasing: a hit
    level whose c * P is below the rounding of sigma^2 has variance
    sigma^2 but stays a level of its own. law is the InterferenceLaw at
    receiver law.receiver that the levels were merged from, and the
    read-only level_of[j] is the level that law.c_values[j] joined. A
    read-only float array passed in is kept, not copied.
    """

    noise_power: float
    total_power: float
    probabilities: np.ndarray
    c_values: np.ndarray
    variances: np.ndarray
    law: InterferenceLaw
    level_of: np.ndarray

    def __post_init__(self):
        for name in ("probabilities", "c_values", "variances"):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.dtype != float or arr.flags.writeable:
                arr = np.array(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        p, c, var = self.probabilities, self.c_values, self.variances
        if p.size == 0:
            raise ValueError("spectrum needs at least one level")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"level probabilities sum to {total}, not 1")
        if np.any(c[1:] <= c[:-1]) or np.any(var[1:] < var[:-1]):
            raise ValueError("level increments must be strictly increasing")

    @property
    def n_levels(self) -> int:
        return self.probabilities.size

    @property
    def a0(self) -> float:
        """Probability of the interference-free level (0 if always hit)."""
        return float(self.probabilities[0]) if self.c_values[0] == 0.0 else 0.0

    @property
    def c_max(self) -> float:
        return float(self.c_values[-1])

    def discrete_entropy(self) -> float:
        """Entropy of the level index, in bits."""
        return discrete_entropy(self.probabilities)

    def to_mixture(self) -> GaussianMixture1D:
        """The mixture itself, as a zero-mean 1-D Gaussian mixture."""
        return GaussianMixture1D(np.column_stack((self.probabilities, self.variances)))


def check_profiles(scenario: NetworkScenario, profiles: Sequence[HoppingProfile]) -> None:
    """ValueError unless there is one profile per user and each fits the
    scenario's u sub-bands (HoppingProfile.misfit)."""
    if len(profiles) != scenario.n_users:
        raise ValueError("one profile per user required")
    for k, p in enumerate(profiles):
        why = p.misfit(scenario.n_subbands)
        if why is not None:
            raise ValueError(f"profile {k} {why}")


def check_user(
    scenario: NetworkScenario, profiles: Sequence[HoppingProfile], user: int
) -> int:
    """user, once the profiles pass check_profiles and it is an index
    0..N-1 (a negative index would count the user as its own
    interferer); ValueError otherwise."""
    check_profiles(scenario, profiles)
    n = scenario.n_users
    if not 0 <= user < n:
        raise ValueError(f"user index {user} out of range 0..{n - 1}")
    return user


def _interferer_outcomes(profile: HoppingProfile, gain: float, u: int):
    """Per-slot law of one interferer's variance increment on a sub-band.

    Returns arrays (c, p) of the outcomes with nonzero probability: c is
    |h|^2 / v when the interferer lands on the band while hopping over v
    sub-bands, and 0 otherwise. A user that never transmits contributes
    the single outcome (0, 1). The profile must fit u (check_profiles).
    """
    h2 = gain * gain
    c, p = [0.0], [1.0 - profile.mean_v() / u]
    for v, w in profile.hops:
        if v >= 1:
            q = w * v / u
            if q > 0.0:  # not an underflow
                c.append(h2 / v)
                p.append(q)
    if p[0] == 0.0:
        del c[0], p[0]
    return np.array(c), np.array(p)


def _add_interferer(c: np.ndarray, p: np.ndarray, c_k: np.ndarray, p_k: np.ndarray):
    """One convolution round: the law of c + c_k from the laws (c, p) and
    (c_k, p_k). Equal sums are pooled; the distinct sums come out in order
    of first appearance in the row-major (c, c_k) grid, and each pooled
    probability is summed along that grid in order, as a dict keyed by the
    sum and filled row by row would hold them. That fixes every bit of the
    result, whatever the grouping method.
    """
    keys = np.add.outer(c, c_k).ravel()
    probs = np.multiply.outer(p, p_k).ravel()
    order = keys.argsort(kind="stable")
    sorted_keys = keys[order]
    start = np.empty(keys.size, dtype=bool)
    start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=start[1:])
    if start.all():
        return keys, probs
    # The stable sort keeps each group's members in grid order, and
    # bincount adds them one after another (group ids start at 1).
    sums = np.bincount(start.cumsum(), weights=probs[order])[1:]
    first = order[start]
    by_appearance = first.argsort()
    return keys[first[by_appearance]], sums[by_appearance]


@dataclass(frozen=True, eq=False)
class InterferenceLaw:
    """Law of the interference increment c (the sum of the interferers'
    increments) on one sub-band at one receiver, before any power enters:
    read-only arrays c_values, strictly increasing, and probabilities, all
    above 0. It depends on the gains and hop counts only, so one law serves
    every noise and transmit power; spectrum() merges it into the
    InterferenceSpectrum at one of them.
    """

    receiver: int
    probabilities: np.ndarray
    c_values: np.ndarray

    def spectrum(self, noise_power: float, total_power: float) -> InterferenceSpectrum:
        """The mixture at noise power sigma^2 and transmit power P.

        Merges levels whose variances sigma^2 + c * P agree within
        mixture.MERGE_REL_TOL (relative). Merged levels keep the
        probability-weighted mean increment, which preserves the mixture's
        first two moments. merge_levels keeps the interference-free level
        (c = 0) apart, so a0 stays the probability that no interferer
        lands on the sub-band; where no levels merge, the spectrum holds
        the law's own c_values and probabilities.
        """
        c, p, level_of = merge_levels(
            self.c_values, self.probabilities, noise_power, total_power, MERGE_REL_TOL
        )
        variances = noise_power + c * total_power
        for arr in (c, p, variances, level_of):
            arr.flags.writeable = False
        return InterferenceSpectrum(
            noise_power=noise_power,
            total_power=total_power,
            probabilities=p,
            c_values=c,
            variances=variances,
            law=self,
            level_of=level_of,
        )


def interference_law(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    receiver: int,
) -> InterferenceLaw:
    """Convolve the independent per-interferer increment laws at one
    receiver. A round whose grid of sums exceeds MAX_ROUND_CELLS is a
    ValueError, raised before the grid is built.
    """
    check_user(scenario, profiles, receiver)
    u = scenario.n_subbands
    gains = scenario.gains[:, receiver].tolist()
    c, p = np.zeros(1), np.ones(1)
    for k in range(scenario.n_users):
        if k == receiver:
            continue
        c_k, p_k = _interferer_outcomes(profiles[k], gains[k], u)
        if c.size * c_k.size > MAX_ROUND_CELLS:
            raise ValueError(
                f"a convolution round of {c.size} x {c_k.size} levels exceeds "
                f"the enumeration budget ({MAX_ROUND_CELLS} cells)"
            )
        c, p = _add_interferer(c, p, c_k, p_k)

    order = np.argsort(c)  # the keys are distinct
    c, p = c[order], p[order]
    keep = p > 0.0
    c, p = c[keep], p[keep]
    c.flags.writeable = p.flags.writeable = False
    return InterferenceLaw(receiver=receiver, probabilities=p, c_values=c)


def enumerate_interference_spectrum(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    receiver: int,
) -> InterferenceSpectrum:
    """The exact interference-plus-noise mixture at one receiver:
    interference_law at the scenario's noise and transmit power."""
    law = interference_law(scenario, profiles, receiver)
    return law.spectrum(scenario.noise_power, scenario.total_power)


def scenario_to_json(
    scenario: NetworkScenario, profiles: Sequence[HoppingProfile]
) -> dict:
    """Plain-dict form of a scenario plus its hopping profiles."""
    users = []
    for p in profiles:
        if p.is_fixed:
            users.append({"v": p.fixed_v})
        else:
            users.append({"pmf": list(p.pmf)})
    return {
        "u": scenario.n_subbands,
        "users": users,
        "gains": [list(row) for row in scenario.gains.tolist()],
        "P": scenario.total_power,
        "sigma2": scenario.noise_power,
    }


def _is_number(x) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, name: str, integral: bool = False) -> float:
    if not _is_number(x) or integral and not float(x).is_integer():
        kind = "an integer" if integral else "a number"
        raise ValueError(f"scenario {name} must be {kind}, got {x!r}")
    return float(x)


def scenario_from_json(doc: dict):
    """Inverse of scenario_to_json, on the parsed document; u and v must be
    integral numbers, and no number may be a string or a bool."""
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    try:
        u = int(_number(doc["u"], "'u'", integral=True))
        users = doc["users"]
        gains = [[_number(g, "'gains' entry") for g in row] for row in doc["gains"]]
        power = _number(doc["P"], "'P'")
        sigma2 = _number(doc["sigma2"], "'sigma2'")
        if not isinstance(users, list) or not all(isinstance(x, dict) for x in users):
            raise ValueError("scenario 'users' must be a list of objects")
        profiles = []
        for spec in users:
            if "v" in spec:
                v = int(_number(spec["v"], "'v'", integral=True))
                profiles.append(HoppingProfile.fixed(v))
            elif "pmf" in spec:
                pmf = [_number(x, "'pmf' entry") for x in spec["pmf"]]
                profiles.append(HoppingProfile.from_pmf(pmf))
            else:
                raise ValueError("each user needs either 'v' or 'pmf'")
    except KeyError as exc:
        raise ValueError(f"scenario document missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"scenario document has a malformed field: {exc}") from exc
    scenario = NetworkScenario(
        n_users=len(profiles),
        n_subbands=u,
        gains=np.asarray(gains, dtype=float),
        total_power=power,
        noise_power=sigma2,
    )
    check_profiles(scenario, profiles)
    return scenario, profiles
