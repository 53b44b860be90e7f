"""Slot-level simulation of the hopping network.

Every user redraws its sub-band subset each slot; the simulator tallies,
per user, the empirical frequency of each interference level on the
sub-bands the user occupies, and the number of its free sub-bands: those
on the c = 0 level, where no interferer adds a nonzero increment (an
interferer whose gain to the user is zero leaves the band free). Those
tallies are the ground truth the closed forms are checked against.

A block of slots is sampled for all users at once, into one boolean
(user, slot, sub-band) occupancy array; no float array over all its cells
is made. A receiver's interference increment is summed on its own cells
only: g_ki^2 / v_k over the interferers k on the cell, in index order.
The level tally is sparse: the distinct (slot, level) pairs a receiver
hits, with their hit counts, summed per level with bincount. The free
count of a slot is its hit count on the c = 0 level.

Sampling is reproducible: slots are processed in fixed-size blocks and
each (user, block) pair owns a generator seeded from (master_seed, user,
block), so results are identical for any worker count.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial, reduce
from typing import Sequence, Tuple

import numpy as np

from ._blocks import generator, map_blocks
from .gains import sample_occupancy
from .model import (
    HoppingProfile,
    NetworkScenario,
    check_profiles,
    check_user,
    enumerate_interference_spectrum,
)

SLOT_BLOCK = 1 << 14
# Most (user, slot, sub-band) cells of one block. A block holds one byte
# of occupancy per cell; the sampler's and one receiver's temporaries come
# on top. Traced peaks per cell at 16 sub-bands: 4-5 bytes for 6-8 users
# hopping on 1-3 sub-bands (the benchmark's blocks), 12.4 for 8 users on
# every sub-band, 67 for one user on every sub-band. It also caps the
# (sample, sub-band) cells of a sample dump (check_dump_cells).
MAX_BLOCK_CELLS = 1 << 24

_DUMP_HEADER = struct.Struct("<QQ")


@dataclass(frozen=True)
class SimConfig:
    scenario: NetworkScenario
    profiles: tuple
    n_slots: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))
        check_profiles(self.scenario, self.profiles)
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")


@dataclass(frozen=True, eq=False)
class SimStats:
    """Aggregates over all simulated slots.

    free_mean/free_se: per-user mean and standard error of the count of
    the user's own sub-bands in a slot that are free: on the c = 0 level,
    where no interferer adds a nonzero increment (0 when the user's
    spectrum has no such level).
    level_c/level_freq/level_se: per-user arrays aligned with the user's
    enumerated interference levels; frequencies are per-slot fractions of
    the user's occupied sub-bands, averaged over slots where the user
    occupied at least one sub-band (level_slots counts them).
    """

    n_slots: int
    free_mean: np.ndarray
    free_se: np.ndarray
    level_c: tuple
    level_freq: tuple
    level_se: tuple
    level_slots: np.ndarray


def _match_levels(c_sorted: np.ndarray, realized: np.ndarray) -> np.ndarray:
    """Indices of realized increments within the enumerated level grid."""
    idx = np.searchsorted(c_sorted, realized)
    idx = np.clip(idx, 0, len(c_sorted) - 1)
    left = np.clip(idx - 1, 0, len(c_sorted) - 1)
    use_left = np.abs(realized - c_sorted[left]) < np.abs(realized - c_sorted[idx])
    idx = np.where(use_left, left, idx)
    err = np.abs(realized - c_sorted[idx])
    tol = 1e-6 * np.maximum(np.abs(c_sorted[idx]), 1.0) + 1e-12
    if np.any(err > tol):
        raise RuntimeError("simulated interference level not in the enumerated grid")
    return idx


def _run_block(cfg: SimConfig, level_c: Sequence[np.ndarray], block: int, size: int):
    scenario = cfg.scenario
    n, u = scenario.n_users, scenario.n_subbands
    occ = np.empty((n, size, u), dtype=bool)
    counts = np.empty((n, size), dtype=np.int64)
    for k in range(n):
        rng = generator(cfg.master_seed, (k, block))
        occ[k], counts[k] = sample_occupancy(cfg.profiles[k], u, rng, size)

    g2 = np.square(scenario.gains)
    np.fill_diagonal(g2, 0.0)
    hop_counts = np.maximum(counts, 1)

    # Sparse level tally: one (slot, level, hits) triple per level a slot
    # hits, in slot order, so each level's sums run over slots in order.
    # A slot's free count is its hits on the c = 0 level; the counts are
    # integers, so their sums are exact.
    free_sum = np.zeros(n)
    free_sq = np.zeros(n)
    freq_sum, freq_sq = [], []
    for i in range(n):
        n_lvl = len(level_c[i])
        flat = np.flatnonzero(occ[i])
        slot = flat // u
        c_real = np.zeros(flat.size)
        # the zero diagonal drops the self term; a zero gain adds nothing
        for k in np.flatnonzero(g2[:, i]):
            hit = np.take(g2[k, i] / hop_counts[k], slot)
            hit *= np.take(occ[k], flat)
            c_real += hit
        lvl = _match_levels(level_c[i], c_real)
        keys, hits = np.unique(slot * n_lvl + lvl, return_counts=True)
        frac = hits / counts[i, keys // n_lvl]
        hit_lvl = keys % n_lvl
        freq_sum.append(np.bincount(hit_lvl, weights=frac, minlength=n_lvl))
        freq_sq.append(np.bincount(hit_lvl, weights=frac * frac, minlength=n_lvl))
        if level_c[i][0] == 0.0:
            free = hits[hit_lvl == 0]
            free_sum[i] = free.sum()
            free_sq[i] = (free * free).sum()
    freq_slots = (counts > 0).sum(axis=1)
    return free_sum, free_sq, freq_sum, freq_sq, freq_slots


def _check_block_cells(n: int, n_slots: int, u: int) -> None:
    """ValueError, before anything is allocated, when a block's
    (n, min(n_slots, SLOT_BLOCK), u) arrays exceed MAX_BLOCK_CELLS."""
    size = min(n_slots, SLOT_BLOCK)
    if n * size * u > MAX_BLOCK_CELLS:
        raise ValueError(
            f"a block of {n} users x {size} slots x {u} sub-bands exceeds the "
            f"simulation budget of {MAX_BLOCK_CELLS} cells"
        )


def check_dump_cells(n_samples: int, u: int) -> None:
    """ValueError when a dump of n_samples rows of u sub-bands exceeds
    MAX_BLOCK_CELLS (sample, sub-band) cells. sample_received keeps every
    block's y and z and then concatenates each: traced peaks of 32.0-33.4
    bytes per cell for 2-7 users at 16 and 64 sub-bands, so about 0.56 GB
    at the cap."""
    if n_samples * u > MAX_BLOCK_CELLS:
        raise ValueError(
            f"a dump of {n_samples} samples x {u} sub-bands exceeds the "
            f"dump budget of {MAX_BLOCK_CELLS} cells"
        )


def _mean_se(total, total_sq, m):
    """Sample mean and its standard error from m draws' sum and sum of squares."""
    mean = total / m
    var = np.maximum((total_sq - m * mean**2) / max(m - 1, 1), 0.0)
    return mean, np.sqrt(var / m)


def run(cfg: SimConfig, threads: int = 1) -> SimStats:
    """Simulate cfg.n_slots slots and aggregate the tallies."""
    n = cfg.scenario.n_users
    _check_block_cells(n, cfg.n_slots, cfg.scenario.n_subbands)
    spectra = [
        enumerate_interference_spectrum(cfg.scenario, cfg.profiles, i) for i in range(n)
    ]
    level_c = [s.c_values for s in spectra]

    parts = map_blocks(partial(_run_block, cfg, level_c), cfg.n_slots, SLOT_BLOCK, threads)

    # the blocks' tallies summed in block order, the level tallies user by user
    fs, f2, qs, q2, qn = zip(*parts)
    free_sum, free_sq, freq_slots = (reduce(np.add, col) for col in (fs, f2, qn))
    freq_sum, freq_sq = ([reduce(np.add, user) for user in zip(*col)] for col in (qs, q2))

    free_mean, free_se = _mean_se(free_sum, free_sq, cfg.n_slots)
    freq_mean = []
    freq_se = []
    for i in range(n):
        if freq_slots[i] > 0:
            mean, se = _mean_se(freq_sum[i], freq_sq[i], freq_slots[i])
        else:
            mean, se = np.full((2, len(level_c[i])), np.nan)
        freq_mean.append(mean)
        freq_se.append(se)

    return SimStats(
        n_slots=cfg.n_slots,
        free_mean=free_mean,
        free_se=free_se,
        level_c=tuple(level_c),
        level_freq=tuple(freq_mean),
        level_se=tuple(freq_se),
        level_slots=freq_slots,
    )


def sample_received(
    scenario: NetworkScenario,
    profiles: Sequence[HoppingProfile],
    user: int,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw received-signal samples for one user's fixed state.

    The user transmits on its first v sub-bands; interferers hop. Returns
    (y, z), both (n_samples, u): z is interference plus noise, y adds the
    user's own signal. Rows are independent slots. More samples than
    check_dump_cells admits are a ValueError, raised before any is drawn.
    """
    check_dump_cells(n_samples, scenario.n_subbands)
    if not profiles[check_user(scenario, profiles, user)].is_fixed:
        raise ValueError("sample_received requires a fixed hop count for the user")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n, u = scenario.n_users, scenario.n_subbands
    _check_block_cells(n, n_samples, u)
    v = profiles[user].fixed_v
    power = scenario.total_power
    sigma = float(np.sqrt(scenario.noise_power))

    def one(block, size):
        rng = generator(seed, (block,))
        z = rng.standard_normal((size, u))
        z *= sigma
        for k in range(n):
            if k == user:
                continue
            occ, counts = sample_occupancy(profiles[k], u, rng, size)
            std = np.where(counts > 0, np.sqrt(power / np.maximum(counts, 1)), 0.0)
            # occ * (g * (normal * std)), formed in place
            x = rng.standard_normal((size, u))
            x *= std[:, None]
            x *= float(scenario.gains[k, user])
            x *= occ
            z += x
        y = z.copy()
        if v > 0:
            own = rng.standard_normal((size, v)) * np.sqrt(power / v)
            y[:, :v] += float(scenario.gains[user, user]) * own
        return y, z

    parts = map_blocks(one, n_samples, SLOT_BLOCK, threads)
    y = np.concatenate([p[0] for p in parts], axis=0)
    z = np.concatenate([p[1] for p in parts], axis=0)
    return y, z


def write_sample_dump(path, samples: np.ndarray) -> None:
    """Binary columnar dump: header (u, n_samples) as little-endian
    uint64, then row-major little-endian float64 payload."""
    arr = np.ascontiguousarray(np.asarray(samples, dtype="<f8"))
    if arr.ndim != 2:
        raise ValueError("samples must be 2-D (n_samples, u)")
    with open(path, "wb") as fh:
        fh.write(_DUMP_HEADER.pack(arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes(order="C"))


def read_sample_dump(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_DUMP_HEADER.size)
        if len(head) != _DUMP_HEADER.size:
            raise ValueError("truncated dump header")
        u, n = _DUMP_HEADER.unpack(head)
        payload = fh.read()
    expect = u * n * 8
    if len(payload) != expect:
        raise ValueError(f"dump payload has {len(payload)} bytes, expected {expect}")
    return np.frombuffer(payload, dtype="<f8").reshape(n, u).copy()
