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

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .mixture import GaussianMixture1D

# Exhaustive enumeration over interferer subsets is exponential in N.
MAX_ENUMERATION_USERS = 20
_PROB_TOL = 1e-12


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

    def snr(self) -> float:
        """Transmit SNR gamma = P / sigma^2."""
        return self.total_power / self.noise_power


@dataclass(frozen=True)
class HoppingProfile:
    """Per-user law of the number of occupied sub-bands.

    Either a fixed count v, or a pmf over counts 0..u where pmf[v] is the
    probability of hopping onto v sub-bands in a slot. The chosen subset
    itself is always uniform over the v-subsets.
    """

    fixed_v: Optional[int] = None
    pmf: Optional[tuple] = None

    def __post_init__(self):
        if (self.fixed_v is None) == (self.pmf is None):
            raise ValueError("exactly one of fixed_v / pmf must be given")
        if self.fixed_v is not None:
            if int(self.fixed_v) != self.fixed_v or self.fixed_v < 0:
                raise ValueError("fixed_v must be a nonnegative integer")
            object.__setattr__(self, "fixed_v", int(self.fixed_v))
        else:
            w = tuple(float(x) for x in self.pmf)
            if len(w) < 1:
                raise ValueError("pmf must be nonempty")
            if any(x < 0 for x in w):
                raise ValueError("pmf entries must be nonnegative")
            if abs(sum(w) - 1.0) > _PROB_TOL:
                raise ValueError("pmf must sum to 1 within 1e-12")
            object.__setattr__(self, "pmf", w)

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
        if self.is_fixed:
            return float(self.fixed_v)
        return float(sum(v * w for v, w in enumerate(self.pmf)))

    def max_v(self) -> int:
        """Largest count that can occur."""
        if self.is_fixed:
            return self.fixed_v
        return max(v for v, w in enumerate(self.pmf) if w > 0)

    def occupancy_probability(self, u: int) -> float:
        """Probability that one given sub-band is occupied in a slot."""
        return self.mean_v() / u

    def pmf_for(self, u: int) -> np.ndarray:
        """Canonical length-(u+1) weight vector over counts 0..u."""
        if self.is_fixed:
            if self.fixed_v > u:
                raise ValueError(f"fixed_v={self.fixed_v} exceeds u={u}")
            w = np.zeros(u + 1)
            w[self.fixed_v] = 1.0
            return w
        if len(self.pmf) != u + 1:
            raise ValueError(f"pmf length {len(self.pmf)} != u+1 = {u + 1}")
        return np.asarray(self.pmf, dtype=float)


@dataclass(frozen=True)
class InterferenceLevel:
    """One mixture level: probability, power increment c (so that the
    level variance is sigma^2 + c * P), and the resulting variance."""

    probability: float
    c: float
    variance: float


@dataclass(frozen=True, eq=False)
class InterferenceSpectrum:
    """Exact per-sub-band interference-plus-noise mixture at one receiver.

    Levels are sorted by variance, strictly increasing after merging, and
    their probabilities sum to 1. Levels with zero probability are
    dropped, so the c = 0 level is present exactly when some slot leaves
    the sub-band interference-free.
    """

    receiver: int
    noise_power: float
    total_power: float
    levels: tuple

    def __post_init__(self):
        if not self.levels:
            raise ValueError("spectrum needs at least one level")
        total = sum(l.probability for l in self.levels)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"level probabilities sum to {total}, not 1")
        var = [l.variance for l in self.levels]
        if any(b <= a for a, b in zip(var, var[1:])):
            raise ValueError("level variances must be strictly increasing")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([l.probability for l in self.levels])

    @property
    def c_values(self) -> np.ndarray:
        return np.array([l.c for l in self.levels])

    @property
    def variances(self) -> np.ndarray:
        return np.array([l.variance for l in self.levels])

    @property
    def a0(self) -> float:
        """Probability of the interference-free level (0 if always hit)."""
        first = self.levels[0]
        return first.probability if first.c == 0.0 else 0.0

    @property
    def c_max(self) -> float:
        return self.levels[-1].c

    def discrete_entropy(self) -> float:
        """Entropy of the level index, in bits."""
        a = self.probabilities
        return float(-(a * np.log2(a)).sum())

    def mean_variance(self) -> float:
        return float((self.probabilities * self.variances).sum())

    def to_mixture(self) -> GaussianMixture1D:
        """The mixture itself, as a zero-mean 1-D Gaussian mixture."""
        return GaussianMixture1D.of(
            *zip(self.probabilities.tolist(), self.variances.tolist())
        )


def check_profiles(profiles: Sequence[HoppingProfile], u: int) -> None:
    for k, p in enumerate(profiles):
        if p.max_v() > u:
            raise ValueError(f"profile {k} uses more than u={u} sub-bands")
        if not p.is_fixed and len(p.pmf) != u + 1:
            raise ValueError(f"profile {k} pmf length != u+1")


def prob_interference_free(
    profiles: Sequence[HoppingProfile], receiver: int, u: int
) -> float:
    """Probability that a given sub-band of `receiver` sees no interference.

    Interferers occupy any fixed sub-band independently with probability
    mean_v/u, so this is the product of (1 - mean_v_k / u) over k != i.
    """
    check_profiles(profiles, u)
    if not 0 <= receiver < len(profiles):
        raise ValueError("receiver index out of range")
    out = 1.0
    for k, p in enumerate(profiles):
        if k != receiver:
            out *= 1.0 - p.mean_v() / u
    return out


def _interferer_outcomes(profile: HoppingProfile, gain: float, u: int):
    """Per-slot law of one interferer's variance increment on a sub-band.

    Returns [(c, prob), ...] where c is |h|^2 / v when the interferer lands
    on the band while hopping over v sub-bands, and 0 otherwise. A user
    that never transmits contributes the single outcome (0, 1).
    """
    h2 = gain * gain
    if profile.is_fixed:
        v = profile.fixed_v
        if v == 0:
            return [(0.0, 1.0)]
        p_occ = v / u
        return [(0.0, 1.0 - p_occ), (h2 / v, p_occ)]
    out = [(0.0, 1.0 - profile.mean_v() / u)]
    for v, w in enumerate(profile.pmf):
        if v >= 1 and w > 0:
            out.append((h2 / v, w * v / u))
    return out


def enumerate_interference_spectrum(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    receiver: int,
    merge_rel_tol: float = 1e-9,
) -> InterferenceSpectrum:
    """Enumerate the exact interference-plus-noise mixture at one receiver.

    Convolves the independent per-interferer increment laws, then merges
    levels whose variances agree within merge_rel_tol (relative). Merged
    levels keep the probability-weighted mean increment, which preserves
    the mixture's first two moments.
    """
    if len(profiles) != scenario.n_users:
        raise ValueError("one profile per user required")
    if not 0 <= receiver < scenario.n_users:
        raise ValueError("receiver index out of range")
    if scenario.n_users > MAX_ENUMERATION_USERS:
        raise ValueError(
            f"exhaustive enumeration limited to N <= {MAX_ENUMERATION_USERS} users"
        )
    u = scenario.n_subbands
    check_profiles(profiles, u)

    dist = {0.0: 1.0}
    for k in range(scenario.n_users):
        if k == receiver:
            continue
        outcomes = _interferer_outcomes(profiles[k], scenario.gains[k, receiver], u)
        new: dict = {}
        for c_prev, p_prev in dist.items():
            for c_k, p_k in outcomes:
                if p_k == 0.0:
                    continue
                key = c_prev + c_k
                new[key] = new.get(key, 0.0) + p_prev * p_k
        dist = new
        if len(dist) > (1 << 21):
            raise ValueError("interference level count exceeds enumeration budget")

    sigma2 = scenario.noise_power
    power = scenario.total_power
    entries = sorted((c, p) for c, p in dist.items() if p > 0.0)

    # Merge near-equal variances; probability-weighted mean keeps moments.
    merged = []
    for c, p in entries:
        if merged:
            c_rep, p_rep = merged[-1]
            v_rep = sigma2 + c_rep * power
            v_new = sigma2 + c * power
            if v_new - v_rep <= merge_rel_tol * v_rep:
                merged[-1] = ((c_rep * p_rep + c * p) / (p_rep + p), p_rep + p)
                continue
        merged.append((c, p))

    levels = tuple(
        InterferenceLevel(probability=p, c=c, variance=sigma2 + c * power)
        for c, p in merged
    )
    return InterferenceSpectrum(
        receiver=receiver, noise_power=sigma2, total_power=power, levels=levels
    )


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


def scenario_from_json(doc: Union[dict, str]):
    """Inverse of scenario_to_json. Accepts a dict or a JSON string."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    try:
        u = int(doc["u"])
        users = doc["users"]
        gains = doc["gains"]
        power = float(doc["P"])
        sigma2 = float(doc["sigma2"])
        if not isinstance(users, list) or not all(isinstance(x, dict) for x in users):
            raise ValueError("scenario 'users' must be a list of objects")
        profiles = []
        for spec in users:
            if "v" in spec:
                profiles.append(HoppingProfile.fixed(int(spec["v"])))
            elif "pmf" in spec:
                profiles.append(HoppingProfile.from_pmf(spec["pmf"]))
            else:
                raise ValueError("each user needs either 'v' or 'pmf'")
    except KeyError as exc:
        raise ValueError(f"scenario document missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"scenario document has a malformed field: {exc}") from exc
    scenario = NetworkScenario(
        n_users=len(profiles),
        n_subbands=u,
        gains=np.asarray(gains, dtype=float),
        total_power=power,
        noise_power=sigma2,
    )
    check_profiles(profiles, u)
    return scenario, profiles
