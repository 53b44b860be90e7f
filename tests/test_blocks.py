"""The working-set partition: row ranges of about BLOCK_DOUBLES cells."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhshare import _blocks
from fhshare._blocks import row_ranges


def fixed_step_ranges(n_rows, width):
    """Ranges of BLOCK_DOUBLES // width rows (at least one), the last one
    the remainder: the partition before row_ranges took a multiple."""
    step = max(1, _blocks.BLOCK_DOUBLES // max(width, 1))
    return [(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n_rows=st.one_of(st.integers(0, 40), st.integers(0, 5000)),
    width=st.integers(0, 300),
    multiple=st.sampled_from([1, 2, 3, 8]),
    cells=st.one_of(st.integers(1, 64), st.integers(1, 1 << 16)),
)
def test_row_ranges_tile_the_rows_in_multiples(n_rows, width, multiple, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "BLOCK_DOUBLES", cells)
        ranges = row_ranges(n_rows, width, multiple)
        if multiple == 1:
            assert ranges == fixed_step_ranges(n_rows, width)
            assert ranges == row_ranges(n_rows, width)
    # the ranges tile 0..n_rows in order
    edges = [0] + [b for _, b in ranges]
    assert [a for a, _ in ranges] == edges[:-1] and edges[-1] == n_rows
    sizes = [b - a for a, b in ranges]
    assert all(size > 0 for size in sizes)
    # every range but the last holds the working set's rows, rounded down
    # to a multiple of `multiple` and at least `multiple`
    step = max(multiple, cells // max(width, 1) // multiple * multiple)
    assert step % multiple == 0
    assert all(size == step for size in sizes[:-1])
    if sizes:
        # a last range shorter than `multiple` joined the one before it
        assert sizes[-1] >= min(multiple, n_rows)
        assert sizes[-1] < step + multiple
        full, rest = divmod(n_rows, step)
        assert len(sizes) == max(1, full + (rest >= multiple))
