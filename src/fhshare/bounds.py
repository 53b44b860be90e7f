"""Achievable-rate bounds and Monte Carlo mutual information.

All rates are in bits per channel use across the whole band. The upper
bound averages the exact single-slot rate over every joint interferer
placement, as v times its mean on one sub-band; the lower bound is the
entropy-power form. Both read the exact interference spectrum and share
the same high-SNR slope, the user's asymptotic multiplexing gain.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import mixture as mx
from .gains import per_user_gains
from .model import (
    HoppingProfile,
    InterferenceSpectrum,
    NetworkScenario,
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
    (n_realizations, n_coords), its rows in increasing pattern order.

    Only interferers on 1..u-1 sub-bands take a bit of the int64 pattern
    (63 of them make 2^63 placements, past any budget); one on 0 or u
    sub-bands occupies every coordinate alike in every placement. With
    n_coords == u no two placements share a pattern, and each weight is
    the running quotient 1 / C_1 / C_2 / ... of the subset counts; with
    fewer coordinates it is that quotient times the pattern's placement
    count.
    """
    constant = np.array([v_k >= u for v_k in hop_counts], dtype=np.int64)
    hopping = [t for t, v_k in enumerate(hop_counts) if 0 < v_k < u]
    patterns = np.zeros((1, n_coords), dtype=np.int64)
    weight = 1.0
    for bit, t in enumerate(hopping):
        subsets = np.array(list(itertools.combinations(range(u), hop_counts[t])))
        occ = np.zeros((len(subsets), u), dtype=np.int64)
        np.put_along_axis(occ, subsets, 1, axis=1)
        patterns = (patterns[:, None, :] + (occ[None, :, :n_coords] << bit)).reshape(-1, n_coords)
        weight /= len(subsets)
    patterns, inverse = np.unique(patterns, axis=0, return_inverse=True)
    # every placement has the same weight, so a pattern's is its count times it
    weights = np.bincount(inverse.reshape(-1), minlength=patterns.shape[0]) * weight
    bits = np.broadcast_to(constant, patterns.shape + constant.shape).copy()
    bits[:, :, hopping] = (patterns[:, :, None] >> np.arange(len(hopping))) & 1
    power = bits @ np.asarray(amps, dtype=float)
    return weights, power


def _fixed_counts(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    user: int,
    budget: int,
) -> List[int]:
    """Every user's hop count, once every hop count is fixed and, unless
    the user's is 0, the joint placements (the product of the
    interferers' C(u, v_k)) number at most budget; else NotApplicable.
    check_user's ValueError comes first."""
    check_user(scenario, profiles, user)
    for k, p in enumerate(profiles):
        if not p.is_fixed:
            raise NotApplicable(f"the bound requires fixed hop counts (user {k} has a pmf)")
    u = scenario.n_subbands
    counts = [p.fixed_v for p in profiles]
    if counts[user] == 0:
        return counts
    # The product of the C(u, v_k), one exact factor (u - j)/(j + 1) at a
    # time, so that a huge u stops at the budget (math.comb(10**6, 5 * 10**5)
    # alone takes seconds).
    n_real = 1
    for v_k in counts[:user] + counts[user + 1:]:
        for j in range(min(v_k, u - v_k)):
            n_real = n_real * (u - j) // (j + 1)
            if n_real > budget:
                raise NotApplicable(
                    f"the joint placements exceed the enumeration budget ({budget})"
                )
    return counts


def _occupying_mean_v(profile: HoppingProfile, h2: float) -> float:
    """An interferer's mean hop count at a user it reaches with squared
    gain h2, where a hop count v whose increment h2 / v is 0.0 counts as
    no hop: the spectrum pools those bands into its free level."""
    v_max = profile.max_v()
    if v_max == 0 or h2 / v_max != 0.0:  # then h2 / v != 0.0 for every v <= v_max
        return profile.mean_v()
    return float(sum(w * v for v, w in profile.hops if v >= 1 and h2 / v != 0.0))


def multiplexing_gain(
    scenario: NetworkScenario, profiles: Sequence[HoppingProfile], user: int
) -> float:
    """The user's asymptotic rate prefactor, bits per doubling of SNR.

    per_user_gains over every user's mean hop count, where an interferer's
    hop count v counts as no hop when its increment |g|^2 / v to the user
    is 0.0 (a zero gain, or a square that underflows), as in the spectrum:
    the bands it lands on stay interference-free for the user.
    """
    check_user(scenario, profiles, user)
    gains = scenario.gains[:, user].tolist()
    vbar = [
        p.mean_v() if k == user else _occupying_mean_v(p, gains[k] * gains[k])
        for k, p in enumerate(profiles)
    ]
    return float(per_user_gains(vbar, scenario.n_subbands)[user])


def _check_spectrum(
    spectrum: Optional[InterferenceSpectrum], scenario: NetworkScenario, user: int
) -> None:
    """ValueError unless spectrum is None or the user's at the scenario's
    noise and transmit power."""
    if spectrum is not None and (
        spectrum.law.receiver != user
        or spectrum.noise_power != scenario.noise_power
        or spectrum.total_power != scenario.total_power
    ):
        raise ValueError(
            f"the spectrum of receiver {spectrum.law.receiver} at sigma2 = "
            f"{spectrum.noise_power!r}, P = {spectrum.total_power!r} is not user "
            f"{user}'s at sigma2 = {scenario.noise_power!r}, P = {scenario.total_power!r}"
        )


def upper_bound_rate(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    user: int,
    *,
    spectrum: Optional[InterferenceSpectrum] = None,
) -> RateBound:
    """Average-over-placements upper bound on one user's rate.

    The single-slot rate sum_{j<v} log2(1 + |h|^2 P / (v sigma_j^2)) / 2,
    averaged exactly over all joint interferer placements, is v times its
    mean on one sub-band, whose law is the interference spectrum: the
    value is v sum_l a_l log2(1 + |h|^2 P / (v sigma_l^2)) / 2. It needs
    every hop count fixed and at most MAX_REALIZATIONS placements (which
    model.MAX_ROUND_CELLS admits), else NotApplicable. The slope is
    multiplexing_gain, which, like the spectrum, counts the bands an
    interferer adds an increment of 0.0 to as free; the residual is
    value - slope * log2(1 + |h|^2 gamma / v), the hit bands' share.

    spectrum, if given, must be the user's at the scenario's noise and
    transmit power (else ValueError); it is enumerated otherwise. It is
    read only when the hypothesis holds and v >= 1.
    """
    _check_spectrum(spectrum, scenario, user)
    v = _fixed_counts(scenario, profiles, user, MAX_REALIZATIONS)[user]
    if v == 0:
        return RateBound(0.0, 0.0, 0.0)
    slope = multiplexing_gain(scenario, profiles, user)
    if spectrum is None:
        spectrum = enumerate_interference_spectrum(scenario, profiles, user)

    h2_own = float(scenario.gains[user, user]) ** 2
    per_band = 0.5 * np.log2(1.0 + h2_own * scenario.total_power / (v * spectrum.variances))
    value = v * float(spectrum.probabilities @ per_band)
    residual = value - slope * math.log2(1.0 + h2_own * scenario.snr() / v)
    return RateBound(value, slope, residual)


def lower_bound_rate(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    user: int,
    *,
    spectrum: Optional[InterferenceSpectrum] = None,
) -> RateBound:
    """Entropy-power lower bound on one user's rate.

    Driven by the user's exact interference spectrum: with level entropy H
    (bits), interference-free probability a0 and top increment c_max,

        R >= (v/2) log2( 2^(-2H) |h|^2 gamma
                         / (v (c_max gamma + 1)^(1 - a0)) + 1 ).

    Interferers may use pmf profiles; the user itself needs a fixed v
    (else NotApplicable). The value is slope * log2(gamma) + residual with
    slope (v/2) a0. spectrum is taken or enumerated as in upper_bound_rate.
    """
    _check_spectrum(spectrum, scenario, user)
    if not profiles[check_user(scenario, profiles, user)].is_fixed:
        raise NotApplicable("lower_bound_rate requires a fixed hop count for the user")
    v = profiles[user].fixed_v
    if v == 0:
        return RateBound(0.0, 0.0, 0.0)
    if spectrum is None:
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
    counts = _fixed_counts(scenario, profiles, user, MAX_MC_COMPONENTS)
    v = counts[user]
    if v == 0:
        return 0.0, 0.0

    power = scenario.total_power
    interferers = [k for k in range(scenario.n_users) if k != user and counts[k] >= 1]
    amps = np.array(
        [power * float(scenario.gains[k, user]) ** 2 / counts[k] for k in interferers]
    )
    w, d = _interference_realizations(
        scenario.n_subbands, [counts[k] for k in interferers], amps, scenario.n_subbands
    )
    sigma2 = scenario.noise_power
    z_var = d + sigma2
    y_var = z_var.copy()
    y_var[:, :v] += float(scenario.gains[user, user]) ** 2 * power / v

    mix_y = mx.GaussianMixtureDiag(weights=w, variances=y_var)
    mix_z = mx.GaussianMixtureDiag(weights=w, variances=z_var)
    h_y, se_y = mx.entropy_mc(mix_y, n_samples, seed, threads=threads, stream=0)
    h_z, se_z = mx.entropy_mc(mix_z, n_samples, seed, threads=threads, stream=1)
    return h_y - h_z, math.hypot(se_y, se_z)
