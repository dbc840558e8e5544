"""Property-based invariants for the sorted index (seeded generators).

Every test drives :class:`repro.indexing.sorted_index.SortedIndex` with
randomized (but seeded, hence reproducible) columns and lookup sequences
and checks what the whole adaptive tier rests on:

* the sorted runs partition the validity window in rowid order, and each
  holds its rows in the stable value order, NaN rows cut off: a packed
  run's keys decode to the sorted values, a permutation run's fences are
  the values at each piece's ends;
* range lookups return exactly the rowids a brute-force scan returns, and
  the values beside them — NaN rows never, across appends, merges,
  compactions and folds, for every integer width, uint64 and floats, with
  bounds at ±2**53, at the dtype limits and at ±inf;
* a lookup inspects a bounded number of values however often it repeats.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.filter import Comparison, Predicate
from repro.indexing.manager import IndexManager
from repro.indexing.sorted_index import FOLD_SHARE, MAX_RUNS, SortedIndex
from repro.storage.column import Column
from repro.storage.dtypes import FixedWidthType, TypeKind, type_from_name

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
    """The built runs partition ``[0, covered)`` in rowid order, and each
    holds the stable argsort of its non-NaN rows: a packed run's keys
    decode to them and their sorted values, a permutation run is fenced by
    the values at each piece's first and last rowid."""
    values = np.asarray(column.values)
    assert [run.start for run in index._runs] == [0] + [run.stop for run in index._runs[:-1]]
    assert index._runs[-1].stop == index.covered_rows
    for run in index._runs:
        part = values[run.start : run.stop]
        order = np.argsort(part, kind="stable")
        order = order[: part.size - int(np.count_nonzero(part != part))]
        if hasattr(run, "keys"):
            rowids = run.keys & np.uint64((1 << run.bits) - 1)
            assert np.array_equal(rowids, order + run.start)
            offsets = run.keys >> np.uint64(run.bits)
            decoded = (offsets + np.uint64(run.lo % 2**64)).astype(values.dtype)
            assert np.array_equal(decoded, part[order])
            continue
        assert np.array_equal(run.rowids, order + run.start)
        starts = np.arange(0, order.size, run.piece_rows)
        lasts = np.minimum(starts + run.piece_rows, order.size) - 1
        assert np.array_equal(run.lows, part[order[starts]])
        assert np.array_equal(run.highs, part[order[lasts]])


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
            result = index.rows_in_range(float(a), float(b))[0]
            assert np.array_equal(result, brute_force(column, a, b))
        assert_stable_order(index, column)
        # open-ended and empty ranges agree too
        assert np.array_equal(
            index.rows_in_range(-np.inf, np.inf)[0],
            brute_force(column, -np.inf, np.inf),
        )
        probe = float(rng.normal())
        assert index.rows_in_range(probe, probe)[0].size == 0


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
            index.rows_in_range(float(a), float(b))
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
        result = index.rows_in_range(a, b)[0]
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
    result = index.rows_in_range(0.0, 4.0)[0]
    assert np.array_equal(result, np.array([0, 2, 4, 5]))
    assert index._runs[0].rowids.size == 4  # the NaN rows are cut off
    # an all-NaN column has an empty permutation and empty lookups
    all_nan = SortedIndex(Column("n", np.full(16, np.nan)))
    assert all_nan.rows_in_range(-np.inf, np.inf)[0].size == 0
    assert all_nan._runs[0].rowids.size == 0


# --------------------------------------------------------------------- #
# merged rows become sorted runs, compacted past MAX_RUNS and folded past
# FOLD_SHARE, and every lookup equals the mask, values included
# (hypothesis)
# --------------------------------------------------------------------- #
KINDS = ["int8", "int16", "int32", "int64", "uint64", "float32", "float64"]


def column_type(kind: str) -> FixedWidthType:
    """The storage type of ``kind``; the type system names no uint64, so
    the index is driven over one built here."""
    if kind == "uint64":
        return FixedWidthType("uint64", TypeKind.INTEGER, np.dtype(np.uint64))
    return type_from_name(kind)


def _offsets(kind: str) -> list[int]:
    """Where a kind's value grid may sit: near zero, past 2**53 (where
    float64 cannot tell neighbours apart) and at the dtype's limits."""
    if kind.startswith("float"):
        return [0]
    info = np.iinfo(kind)
    near = [0 if info.min < 0 else 6, info.min + 6, info.max - 6]
    if info.max > 2**53:
        near += [2**53, 2**60] + ([-(2**53)] if info.min < 0 else [2**63])
    return near


def _special_bounds(kind: str) -> list[float]:
    """Bounds past which a comparison in float64 rounds: ±2**53, the
    dtype limits as floats (2**63 and 2**64 compare equal to the largest
    int64 / uint64) and ±inf."""
    bounds = [-math.inf, math.inf, 2.0**53, -(2.0**53), 2.0**53 + 2]
    if not kind.startswith("float"):
        info = np.iinfo(kind)
        bounds += [float(info.min), float(info.max), float(info.max) - 0.5, float(info.min) + 0.5]
    return bounds


@st.composite
def merge_cases(draw):
    """(kind, base, tails, ranges) on a small value grid of one dtype.

    The grid makes duplicate values and exact bound hits common; floats
    sit at ``cell / 10`` (inexact in binary, and differently so in
    float32) with bounds a hair either side of a *stored* value; an
    integer grid sits at one of :func:`_offsets`.  Up to a dozen tails
    drive the merges through compaction and folds.
    """
    kind = draw(st.sampled_from(KINDS))
    floating = kind.startswith("float")
    offset = draw(st.sampled_from(_offsets(kind)))
    cell = st.integers(-6, 6)
    if floating:
        cell = st.one_of(cell, cell, cell, st.none())  # None is a NaN row

    def array(cells) -> np.ndarray:
        if floating:
            grid = [np.nan if c is None else c / 10 for c in cells]
            return np.asarray(grid, dtype=kind)
        return np.asarray([offset + c for c in cells], dtype=kind)

    def bound(c: int, nudge: float) -> float:  # past the grid's ends too
        return (float(array([c])[0]) if floating else float(offset + c)) + nudge

    nudges = st.sampled_from([0.0, 1e-12, -1e-12] if floating else [0.0, 0.5, -0.5])
    bounds = st.one_of(
        st.builds(bound, st.integers(-7, 7), nudges), st.sampled_from(_special_bounds(kind))
    )
    base = array(draw(st.lists(cell, min_size=1, max_size=60)))
    tails = draw(st.lists(st.lists(cell, min_size=1, max_size=40), min_size=1, max_size=12))
    tails = [array(cells) for cells in tails]
    pairs = draw(st.lists(st.tuples(bounds, bounds), min_size=1, max_size=4))
    ranges = [tuple(sorted(pair)) for pair in pairs]
    return kind, base, tails, ranges


def _mask(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """``low <= values < high`` as ``Predicate.mask`` compares; an infinite
    ``high`` bounds nothing, as the index's half-open ranges read it."""
    mask = Predicate(Comparison.GE, low).mask(values)
    if high != math.inf:
        mask &= Predicate(Comparison.LT, high).mask(values)
    return mask


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=merge_cases())
def test_merged_runs_lookups_equal_the_mask(case):
    kind, base, tails, ranges = case
    column = Column("c", base.copy(), dtype=column_type(kind))
    assert column.values.dtype == base.dtype
    index = SortedIndex(column)
    index.rows_in_range(-np.inf, np.inf)  # the first build
    for tail in tails:
        column.append_batch(tail)
        full = np.asarray(column.values)
        before, covered = index._runs, index.covered_rows
        assert index.merge_tail() == tail.shape[0]
        runs = index._runs
        # a merge sorts only its rows into a new run; the one that would
        # keep more than MAX_RUNS tail runs sorts them with it; the one
        # taking the tail runs past FOLD_SHARE of run 0 rebuilds run 0
        if full.shape[0] - before[0].stop > before[0].stop * FOLD_SHARE:
            assert len(runs) == 1 and runs[0] is not before[0]
        elif len(before) > MAX_RUNS:
            assert runs[0] is before[0] and len(runs) == 2
            assert runs[1].start == before[1].start
        else:
            assert runs[:-1] == before and runs[-1].start == covered
        assert len(runs) <= MAX_RUNS + 1 and index.covered_rows == full.shape[0]
        assert_stable_order(index, column)
        for low, high in ranges:
            expected = np.flatnonzero(_mask(full, low, high))
            rowids, values = index.rows_in_range(low, high)
            assert np.array_equal(rowids, expected)
            if values is not None:
                assert values.dtype == full.dtype
                assert np.array_equal(values, full[expected])
            # packed runs answer the values themselves; a permutation run
            # (floats, or appended values below run 0's lo) leaves the gather
            assert (values is None) == any(hasattr(run, "rowids") for run in index._runs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=merge_cases(), data=st.data())
def test_manager_selections_equal_the_mask_with_values(case, data):
    """Every comparison through the manager — unmerged tail included —
    returns the mask's rowids, and the values a gather of them returns."""
    kind, base, tails, ranges = case
    column = Column("c", base.copy(), dtype=column_type(kind))
    manager = IndexManager()
    operands = [low for low, _ in ranges if math.isfinite(low)] or [0.0]
    predicates = [
        Predicate(comparison, operand, upper=operand + data.draw(st.sampled_from([0.0, 1.5, 3.0])))
        for operand in operands
        for comparison in Comparison
        if comparison is not Comparison.NE
    ]
    for step, tail in enumerate([None, *tails]):
        if tail is not None:
            column.append_batch(tail)
            manager.extend_valid_prefix("c")
            if step % 2:
                manager.merge_tails("c")
        full = np.asarray(column.values)
        for predicate in predicates:
            selection = manager.select_rowids("c", None, column, predicate)
            if selection is None:  # a non-finite bound: the kernel scans
                continue
            expected = np.flatnonzero(predicate.mask(full))
            assert np.array_equal(selection.rowids, expected), predicate
            if selection.values is not None:
                assert selection.values.dtype == full.dtype
                assert np.array_equal(selection.values, full[expected]), predicate
