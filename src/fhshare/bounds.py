"""Achievable-rate bounds and Monte Carlo mutual information.

All rates are in bits per channel use across the whole band. The upper
bound averages the exact single-slot rate over every joint interferer
placement; the lower bound is the entropy-power form driven by the exact
interference spectrum. Both share the same high-SNR slope, which equals
the user's asymptotic multiplexing gain.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import mixture as mx
from .gains import per_user_gains
from .model import (
    HoppingProfile,
    NetworkScenario,
    check_profiles,
    check_user,
    enumerate_interference_spectrum,
)

MAX_REALIZATIONS = 10_000_000
MAX_MC_COMPONENTS = 20_000


class NotApplicable(ValueError):
    """The inputs lie outside the bound's hypothesis (a hop count that is
    a pmf where a fixed one is needed) or its enumeration budget."""


@dataclass(frozen=True)
class RateBound:
    """A rate bound split into a high-SNR slope (bits per doubling of the
    SNR) and a residual.

    value_bits = slope_bits_per_log2snr * log2(s) + residual_bits holds at
    the bound's own SNR gamma, where the SNR term s is the one the bound is
    built from: gamma for lower_bound_rate, 1 + |h|^2 gamma / v for
    upper_bound_rate.
    """

    value_bits: float
    slope_bits_per_log2snr: float
    residual_bits: float


def _interference_realizations(
    u: int, hop_counts: Sequence[int], amps: np.ndarray, n_coords: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Joint law of interference power on the first n_coords sub-bands.

    hop_counts/amps describe the interferers (amps[t] is interferer t's
    per-sub-band received power). Enumerates every joint choice of
    sub-band subsets, deduplicating by the per-coordinate occupancy
    pattern. Returns (weights, power_matrix) with power_matrix of shape
    (n_realizations, n_coords).
    """
    patterns = np.zeros((1, n_coords), dtype=np.int64)
    weights = np.array([1.0])
    for t, v_k in enumerate(hop_counts):
        subsets = list(itertools.combinations(range(u), v_k))
        occ = np.zeros((len(subsets), n_coords), dtype=np.int64)
        for s_idx, subset in enumerate(subsets):
            for j in subset:
                if j < n_coords:
                    occ[s_idx, j] = 1
        merged = (patterns[:, None, :] + (occ[None, :, :] << t)).reshape(-1, n_coords)
        w_new = np.repeat(weights, len(subsets)) / len(subsets)
        patterns, inverse = np.unique(merged, axis=0, return_inverse=True)
        weights = np.bincount(
            inverse.reshape(-1), weights=w_new, minlength=patterns.shape[0]
        )
    bits = (patterns[:, :, None] >> np.arange(len(hop_counts))) & 1
    power = bits @ np.asarray(amps, dtype=float)
    return weights, power


def _placements(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    user: int,
    budget: int,
    full_band: bool = False,
) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
    """(v, w, d): the user's hop count v and the weights w and powers d of
    every joint interferer placement on its v sub-bands (all u with
    full_band); w and d are None when v is 0.

    Every hop count must be fixed and the product of the interferers'
    C(u, v_k) at most budget, else NotApplicable; a hop count above u is a
    ValueError.
    """
    check_user(scenario, profiles, user)
    for k, p in enumerate(profiles):
        if not p.is_fixed:
            raise NotApplicable(f"the bound requires fixed hop counts (user {k} has a pmf)")
    u = scenario.n_subbands
    check_profiles(profiles, u)
    counts = [p.fixed_v for p in profiles]
    v = counts[user]
    if v == 0:
        return v, None, None

    interferers = [k for k in range(scenario.n_users) if k != user and counts[k] >= 1]
    # The product of the C(u, v_k), one exact factor (u - j)/(j + 1) at a
    # time, so that a huge u stops at the budget (math.comb(10**6, 5 * 10**5)
    # alone takes seconds).
    n_real = 1
    for k in interferers:
        for j in range(min(counts[k], u - counts[k])):
            n_real = n_real * (u - j) // (j + 1)
            if n_real > budget:
                raise NotApplicable(
                    f"the joint placements exceed the enumeration budget ({budget})"
                )
    power = scenario.total_power
    amps = np.array(
        [power * float(scenario.gains[k, user]) ** 2 / counts[k] for k in interferers]
    )
    w, d = _interference_realizations(
        u, [counts[k] for k in interferers], amps, u if full_band else v
    )
    return v, w, d


def multiplexing_gain(
    scenario: NetworkScenario, profiles: Sequence[HoppingProfile], user: int
) -> float:
    """The user's asymptotic rate prefactor, bits per doubling of SNR.

    per_user_gains over every user's mean hop count, where an interferer
    with a zero gain to the user counts as hopping on no sub-band: the
    bands it lands on stay interference-free for the user.
    """
    check_user(scenario, profiles, user)
    vbar = [
        p.mean_v() if k == user or scenario.gains[k, user] != 0.0 else 0.0
        for k, p in enumerate(profiles)
    ]
    return float(per_user_gains(vbar, scenario.n_subbands)[user])


def upper_bound_rate(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    user: int,
) -> RateBound:
    """Average-over-placements upper bound on one user's rate.

    The interference-free part contributes the slope term, the hit
    sub-bands the residual, averaged exactly over all joint interferer
    placements. It needs every hop count fixed and at most
    MAX_REALIZATIONS placements, else NotApplicable. The slope is
    multiplexing_gain, which, like the residual, counts the bands an
    interferer with a zero gain to the user lands on as free. The value is
    slope * log2(1 + |h|^2 gamma / v) + residual.
    """
    v, w, d = _placements(scenario, profiles, user, MAX_REALIZATIONS)
    if v == 0:
        return RateBound(0.0, 0.0, 0.0)
    slope = multiplexing_gain(scenario, profiles, user)

    power = scenario.total_power
    sigma2 = scenario.noise_power
    gamma = scenario.snr()
    h2_own = float(scenario.gains[user, user]) ** 2
    snr_term = math.log2(1.0 + h2_own * gamma / v)
    hit = d > 0.0
    with np.errstate(divide="ignore"):
        per_band = 0.5 * np.log2(1.0 + h2_own * power / (v * (d + sigma2)))
    residual = float((w * np.where(hit, per_band, 0.0).sum(axis=1)).sum())
    value = slope * snr_term + residual
    return RateBound(value, slope, residual)


def lower_bound_rate(
    scenario: NetworkScenario, profiles: Sequence[HoppingProfile], user: int
) -> RateBound:
    """Entropy-power lower bound on one user's rate.

    Driven by the user's exact interference spectrum: with level entropy H
    (bits), interference-free probability a0 and top increment c_max,

        R >= (v/2) log2( 2^(-2H) |h|^2 gamma
                         / (v (c_max gamma + 1)^(1 - a0)) + 1 ).

    Interferers may use pmf profiles; the user itself needs a fixed v
    (else NotApplicable). The value is slope * log2(gamma) + residual with
    slope (v/2) a0.
    """
    if not profiles[check_user(scenario, profiles, user)].is_fixed:
        raise NotApplicable("lower_bound_rate requires a fixed hop count for the user")
    v = profiles[user].fixed_v
    if v == 0:
        return RateBound(0.0, 0.0, 0.0)
    spectrum = enumerate_interference_spectrum(scenario, profiles, user)
    a0 = spectrum.a0
    h_levels = spectrum.discrete_entropy()
    c_max = spectrum.c_max
    gamma = scenario.snr()
    h2_own = float(scenario.gains[user, user]) ** 2

    shrink = 2.0 ** (-2.0 * h_levels)
    value = 0.5 * v * math.log2(
        shrink * h2_own * gamma / (v * (c_max * gamma + 1.0) ** (1.0 - a0)) + 1.0
    )
    slope = 0.5 * v * a0
    residual = 0.5 * v * math.log2(
        shrink * h2_own / (v * (c_max + 1.0 / gamma) ** (1.0 - a0)) + gamma ** (-a0)
    )
    return RateBound(value, slope, residual)


def regulated_rate(
    scenario: NetworkScenario, user: int, n_active: int, v_star: float
) -> float:
    """Distribution-free guaranteed rate when n_active users all follow a
    common hop count v_star.

    Worst-case form of the entropy-power bound for the symmetric policy:
    only the interferer count and the user's incoming gains enter.
    """
    if n_active < 1:
        raise ValueError("n_active must be >= 1")
    u = scenario.n_subbands
    if not 0.0 < v_star <= u:
        raise ValueError("v_star must lie in (0, u]")
    gamma = scenario.snr()
    h2_own = float(scenario.gains[user, user]) ** 2
    h2_in = sum(
        float(scenario.gains[j, user]) ** 2
        for j in range(scenario.n_users)
        if j != user
    )
    ratio = v_star / u
    m = n_active - 1
    # spread = 2^(-2H) for H = m binary-entropy bits; 0^0 = 1 covers the
    # v_star = u and n_active = 1 corners.
    spread = ratio ** (2.0 * m * ratio) * (1.0 - ratio) ** (2.0 * m * (1.0 - ratio))
    a0_sym = (1.0 - ratio) ** m
    denom = v_star * (1.0 + h2_in * gamma / v_star) ** (1.0 - a0_sym)
    return 0.5 * v_star * math.log2(spread * h2_own * gamma / denom + 1.0)


def mc_mutual_information(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    user: int,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> Tuple[float, float]:
    """Monte Carlo mutual information of one user's link, in bits.

    Computes h(Y) - h(Z) over the full band for the user's fixed state
    (its first v sub-bands), building the exact interference mixtures and
    estimating both entropies by the plug-in estimator. Like
    upper_bound_rate it raises NotApplicable unless every hop count is
    fixed and there are at most MAX_MC_COMPONENTS placements. Returns
    (estimate, standard_error); the SE combines both entropy estimates.
    """
    v, w, d = _placements(scenario, profiles, user, MAX_MC_COMPONENTS, full_band=True)
    if v == 0:
        return 0.0, 0.0

    power = scenario.total_power
    sigma2 = scenario.noise_power
    z_var = d + sigma2
    y_var = z_var.copy()
    y_var[:, :v] += float(scenario.gains[user, user]) ** 2 * power / v

    mix_y = mx.GaussianMixtureDiag(weights=w, variances=y_var)
    mix_z = mx.GaussianMixtureDiag(weights=w, variances=z_var)
    h_y, se_y = mx.entropy_mc(mix_y, n_samples, seed, threads=threads, stream=0)
    h_z, se_z = mx.entropy_mc(mix_z, n_samples, seed, threads=threads, stream=1)
    return h_y - h_z, math.hypot(se_y, se_z)
