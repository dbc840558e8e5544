"""Property-based invariants for the sorted index (seeded generators).

Every test drives :class:`repro.indexing.sorted_index.SortedIndex` with
randomized (but seeded, hence reproducible) columns and lookup sequences
and checks what the whole adaptive tier rests on:

* the permutation is exactly the stable value order of the column's
  non-NaN rows, and its run fences are the values at each run's ends;
* range lookups return exactly the rowids a brute-force scan returns —
  NaN rows never, rows merged past the permutation as a scanned gap;
* a lookup inspects at most two runs (plus the gap), however often it
  repeats (hypothesis: lookups equal the mask across merges too).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.filter import Comparison, Predicate
from repro.indexing.sorted_index import PERMUTATION_GAP_SHARE, SortedIndex
from repro.storage.column import Column
from repro.storage.dtypes import type_from_name

SEEDS = [1, 7, 19, 83]


def random_column(rng: np.random.Generator) -> Column:
    """A randomized numeric column: dtype, size and NaN-ness vary."""
    n = int(rng.integers(1, 4000))
    kind = rng.integers(4)
    if kind == 0:
        values = rng.integers(-500, 500, size=n, dtype=np.int64)
    elif kind == 1:
        values = rng.normal(0.0, 200.0, size=n)
    elif kind == 2:  # heavy duplication: many equal values
        values = rng.integers(-5, 5, size=n, dtype=np.int64)
    else:  # floats with NaN holes
        values = rng.normal(0.0, 200.0, size=n)
        values[rng.random(n) < 0.1] = np.nan
    return Column("c", values)


def assert_stable_order(index: SortedIndex, column: Column) -> None:
    """The built permutation is the stable argsort of the non-NaN rows of
    ``[0, covered)``, fenced by the values at each run's first/last rowid."""
    runs = index._sorted
    values = np.asarray(column.values)[: runs.covered]
    order = np.argsort(values, kind="stable")
    valid = runs.covered - int(np.count_nonzero(values != values))
    assert np.array_equal(runs.rowids, order[:valid])
    starts = np.arange(0, valid, runs.run_rows)
    lasts = np.minimum(starts + runs.run_rows, valid) - 1
    assert np.array_equal(runs.lows, values[order[starts]])
    assert np.array_equal(runs.highs, values[order[lasts]])


def brute_force(column: Column, low: float, high: float) -> np.ndarray:
    values = column.values.astype(np.float64)
    return np.nonzero((values >= low) & (values < high))[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_lookups_equal_brute_force_scan(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        column = random_column(rng)
        index = SortedIndex(column)
        for _ in range(15):
            a, b = sorted(rng.normal(0.0, 300.0, size=2))
            result = index.rowids_in_range(float(a), float(b))
            assert np.array_equal(result, brute_force(column, a, b))
        assert_stable_order(index, column)
        # open-ended and empty ranges agree too
        assert np.array_equal(
            index.rowids_in_range(-np.inf, np.inf),
            brute_force(column, -np.inf, np.inf),
        )
        probe = float(rng.normal())
        assert index.rowids_in_range(probe, probe).size == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_repeated_lookups_never_scan_more(seed):
    """Repeating a range inspects the same at most two runs every time."""
    rng = np.random.default_rng(seed)
    column = Column("c", rng.normal(0.0, 200.0, size=3000))
    index = SortedIndex(column)
    bound = 2 * (math.isqrt(len(column) - 1) + 1)
    for _ in range(10):
        a, b = sorted(rng.normal(0.0, 300.0, size=2))
        costs = []
        for _ in range(3):
            before = index.values_scanned_total
            index.rowids_in_range(float(a), float(b))
            costs.append(index.values_scanned_total - before)
        assert costs[0] == costs[1] == costs[2] <= bound


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_paged_cracker_scans_the_chunks_a_clustered_zonemap_keeps(seed, tmp_path):
    """On a column clustered on the key, narrow lookups are exact scans of
    the zonemap's candidate chunks and hold no index state."""
    from repro.persist.diskstore import DiskColumnStore

    rng = np.random.default_rng(seed)
    data = np.sort(rng.normal(0.0, 10_000.0, size=20_000))
    store = DiskColumnStore(tmp_path, cache_bytes=1 << 22)
    store.write_column(Column("c", data), chunk_rows=1024)
    paged = store.open_column("c")
    index = SortedIndex(paged)
    column = Column("c", data)
    for _ in range(60):
        a = float(rng.uniform(-30_000, 30_000))
        b = a + float(rng.uniform(0.0, 2_000.0))
        scanned = index.values_scanned_total
        result = index.rowids_in_range(a, b)
        assert np.array_equal(result, brute_force(column, a, b))
        candidates = len(paged.chunks_for_predicate(a, b))
        assert index.values_scanned_total - scanned <= candidates * 1024
    assert index.size_bytes == 0


@pytest.mark.parametrize(
    "kind",
    ["int64 around 2**53", "float64 with NaN and inf", "int64 spanning 2**62", "float32 tenths"],
)
def test_over_cap_paged_lookups_equal_the_mask(kind, tmp_path):
    """Both answers of the paged index agree with ``Predicate.mask`` for
    every comparison: a sorted column whose every range keeps at most
    ``SCAN_MAX_CHUNKS`` zonemap candidates is scanned, a uniform one whose
    ranges offer more answers from the value-sorted permutation — and so do
    rows appended past a validity window that ends mid-chunk, before and
    after the merge that folds them in."""
    from repro.indexing.manager import IndexManager, predicate_range
    from repro.indexing.sorted_index import SCAN_MAX_CHUNKS
    from repro.persist.diskstore import DiskColumnStore

    rng = np.random.default_rng(17)
    if kind == "int64 around 2**53":
        # float64 cannot tell 2**53 from 2**53 + 1: the native comparison must
        data = 2**53 + rng.integers(-300, 300, size=6_000)
        operands = [float(2**53), float(2**53 - 1), float(2**53 + 2), 2.0**53 - 400, 2.0**53 + 400]
    elif kind == "int64 spanning 2**62":
        # too wide to pack beside the rowid bits: the permutation is an argsort
        data = rng.integers(-(2**62), 2**62, size=6_000)
        operands = [-1e18, -3.5, 0.0, 1e18, 2.0**61]
    elif kind == "float32 tenths":
        # a float32 column compares in float32: an inclusive bound on 0.1
        # must step from float32(0.1), not from the float64 operand
        grid = np.asarray([0.1, 0.2, 0.3, 1.5, 2.0], dtype=np.float32)
        data = rng.choice(grid, size=6_000)
        operands = [0.1, 0.2, 0.3, 1.5]
    else:
        data = rng.uniform(-100.0, 100.0, size=6_000)
        data[rng.random(6_000) < 0.1] = np.nan
        data[rng.integers(0, 6_000, 40)] = np.inf
        data[rng.integers(0, 6_000, 40)] = -np.inf
        operands = [-100.5, -3.25, 0.0, 99.0]
    finite = data[np.isfinite(data)]
    operands += [float(value) for value in finite[:4]]  # exact hits for EQ / LE / GE
    width = 0.2 if kind == "float32 tenths" else 150.0
    predicates = [
        Predicate(comparison, operand, upper=operand + width)
        for operand in operands
        for comparison in Comparison
        if comparison is not Comparison.NE
    ]
    store = DiskColumnStore(tmp_path, cache_bytes=1 << 20)
    layouts = {"sorted": (np.sort(data), 128), "uniform": (data, 64)}
    paged = {}
    for name, (values, chunk_rows) in layouts.items():
        assert len(values) % chunk_rows  # the validity window ends mid-chunk
        column = Column(name, values, dtype=type_from_name(str(values.dtype)))
        store.write_column(column, chunk_rows=chunk_rows)
        paged[name] = store.open_column(name)
    # no range over the sorted column, appended chunk included, can offer more
    # chunks than the cap; nearly every range over the uniform one offers all
    assert paged["sorted"].num_chunks + 1 <= SCAN_MAX_CHUNKS < paged["uniform"].num_chunks
    manager = IndexManager()

    def lookups_equal_the_mask() -> int:
        over_cap = 0
        for name, column in paged.items():
            values = np.asarray(column.values)
            for predicate in predicates:
                bounds = predicate_range(predicate, column.dtype.numpy_dtype)
                candidates = column.chunks_for_predicate(*bounds)
                over_cap += name == "uniform" and len(candidates) > SCAN_MAX_CHUNKS
                found = manager.select_rowids(name, None, column, predicate).rowids
                assert np.array_equal(found, np.nonzero(predicate.mask(values))[0]), predicate
        return over_cap

    assert lookups_equal_the_mask() >= 4 * len(operands)
    for name, column in paged.items():  # rows drawn from the column: hits, NaN included
        column.append_batch(rng.choice(layouts[name][0], size=100))
        manager.extend_valid_prefix(name)
    lookups_equal_the_mask()  # the manager scans the tail past the window
    assert manager.merge_tails() == 200
    lookups_equal_the_mask()
    assert manager.cracker_for("sorted").size_bytes == 0  # scanned, never permuted
    assert manager.cracker_for("uniform").size_bytes > 0  # the permutation


def test_nan_rows_never_returned_even_from_fully_covered_pieces():
    """Regression: NaNs must not ride along with a run taken whole."""
    values = np.array([1.0, np.nan, 2.0, np.nan, 3.0, 0.0])
    column = Column("c", values)
    index = SortedIndex(column)
    # a range covering every real value takes each run whole
    result = index.rowids_in_range(0.0, 4.0)
    assert np.array_equal(result, np.array([0, 2, 4, 5]))
    assert index._sorted.rowids.size == 4  # the NaN rows are cut off
    # an all-NaN column has an empty permutation and empty lookups
    all_nan = SortedIndex(Column("n", np.full(16, np.nan)))
    assert all_nan.rowids_in_range(-np.inf, np.inf).size == 0
    assert all_nan._sorted.rowids.size == 0


# --------------------------------------------------------------------- #
# merged rows are a scanned gap, and a rebuild past the gap share is the
# stable order again (hypothesis)
# --------------------------------------------------------------------- #
@st.composite
def merge_cases(draw):
    """(base, tails, ranges) over one dtype, on a small value grid.

    The grid makes duplicate values and exact bound hits common; floats
    sit at ``cell / 10`` (inexact in binary, and differently so in
    float32) with bounds a hair either side of a *stored* value, and the
    int64 grid can sit beyond 2**53 where float64 cannot tell neighbours
    apart.
    """
    kind = draw(st.sampled_from(["int64", "int32", "float64", "float32"]))
    floating = kind.startswith("float")
    offset = draw(st.sampled_from([0, 2**53, 2**60])) if kind == "int64" else 0
    cell = st.integers(-5, 5)
    if floating:
        cell = st.one_of(cell, cell, cell, st.none())  # None is a NaN row

    def array(cells) -> np.ndarray:
        if floating:
            grid = [np.nan if c is None else c / 10 for c in cells]
            return np.asarray(grid, dtype=kind)
        return np.asarray([offset + c for c in cells], dtype=kind)

    def bound(c: int, nudge: float) -> float:
        return float(array([c])[0]) + nudge

    nudges = st.sampled_from([0.0, 1e-12, -1e-12] if floating else [0.0, 0.5])
    bounds = st.builds(bound, st.integers(-6, 6), nudges)
    base = array(draw(st.lists(cell, min_size=1, max_size=60)))
    tails = draw(st.lists(st.lists(cell, max_size=120), min_size=1, max_size=3))
    tails = [array(cells) for cells in tails]
    pairs = draw(st.lists(st.tuples(bounds, bounds), min_size=1, max_size=4))
    ranges = [tuple(sorted(pair)) for pair in pairs]
    return base, tails, ranges


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=merge_cases())
def test_merged_gap_lookups_equal_the_mask(case):
    base, tails, ranges = case
    column = Column("c", base.copy(), dtype=type_from_name(str(base.dtype)))
    assert column.values.dtype == base.dtype
    index = SortedIndex(column)
    index.rowids_in_range(-np.inf, np.inf)  # the first build
    for tail in tails:
        column.append_batch(tail)
        full = np.asarray(column.values)
        built = index._sorted
        assert index.merge_tail() == tail.shape[0]
        assert index._sorted is built and index.covered_rows == full.shape[0]
        # lookups agree with the mask (the gap is scanned, or the
        # permutation rebuilt)
        for low, high in ranges:
            at_least, below = Predicate(Comparison.GE, low), Predicate(Comparison.LT, high)
            expected_rowids = np.nonzero(at_least.mask(full) & below.mask(full))[0]
            assert np.array_equal(index.rowids_in_range(low, high), expected_rowids)
        gap = full.shape[0] - built.covered
        assert (index._sorted is built) == (gap <= built.covered * PERMUTATION_GAP_SHARE)
        assert_stable_order(index, column)
