"""Seeded fixed-size blocks, mapped in order on one or more threads, and
the working-set size the kernels walk their arrays in.

Randomized kernels split their work into blocks of a fixed size and give
each block generators of its own, keyed by (seed, spawn key). The block
layout and the keys depend only on the work size, never on the worker
count, so results are byte-identical for any number of threads.

Kernels walk large arrays in row_ranges of about BLOCK_DOUBLES cells. A
kernel that multiplies each range by a matrix asks for a row multiple, so
that no row's value depends on its range: BLAS sums a one-row product by
gemv, not gemm (the mixture kernel: multiple=2), and gemv sums rows in
groups of 4 and the rest another way (the FH grid: multiple=8).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

_ENTROPY_MASK = (1 << 128) - 1

# Size of the working set a kernel walks a large array in: 512 KiB of
# doubles, so each pass over it runs from L2 cache, and the temporaries
# of a pass stay that size whatever the array's. Kernels read it from
# this module at call time, so a test that shrinks it here reaches all.
BLOCK_DOUBLES = 1 << 16


def generator(seed: int, key: Tuple[int, ...]) -> np.random.Generator:
    """The generator of one block: SeedSequence(seed mod 2**128, key)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) & _ENTROPY_MASK, spawn_key=key)
    )


def map_blocks(
    fn: Callable[[int, int], T], total: int, block: int, threads: int = 1
) -> List[T]:
    """[fn(index, size) for each block of `total` items], in block order.

    Blocks hold `block` items each, the last one the remainder. With
    threads > 1 and more than one block they run on a thread pool.
    """
    blocks = [
        (b, min(block, total - start)) for b, start in enumerate(range(0, total, block))
    ]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda a: fn(*a), blocks))
    return [fn(*a) for a in blocks]


def row_ranges(n_rows: int, width: int, multiple: int = 1) -> List[Tuple[int, int]]:
    """(start, stop) of consecutive row ranges covering n_rows rows of
    `width` cells each: BLOCK_DOUBLES // width rows, rounded down to a
    multiple of `multiple` and at least that, but a last range shorter
    than `multiple` joins the one before it."""
    step = max(multiple, BLOCK_DOUBLES // max(width, 1) // multiple * multiple)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] < multiple:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_rows]))
