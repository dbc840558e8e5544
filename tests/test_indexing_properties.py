"""Property-based invariants for the sorted index (seeded generators).

Every test drives :class:`repro.indexing.sorted_index.SortedIndex` with
randomized (but seeded, hence reproducible) columns and lookup sequences
and checks what the whole adaptive tier rests on:

* the sorted runs partition the validity window in rowid order, and each
  is one sort of ``uint64`` keys whose high bits are each row's image
  shifted right by the run's ``drop`` — the stable argsort where nothing
  is dropped — with NaN rows in the all-ones image, past every range;
* range lookups return exactly the rowids a brute-force scan returns, and
  the values beside them — NaN rows never, across appends (also outside
  run 0's range), merges, compactions and folds, for every integer width,
  uint64 and floats (±0.0, ±inf, subnormals, ties), lossless and lossy
  runs, with bounds at ±2**53, at the dtype limits and at ±inf, and
  Python int operands compared exactly;
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


def image(values: np.ndarray, lo: int) -> np.ndarray:
    """The order-keeping ``uint64`` image of each value, computed apart from
    the index: ``value - lo`` for an integer; for a float, widened to
    float64, its bits with −0.0 made +0.0, every bit of a negative value
    flipped and the sign bit of any other set — and all ones for NaN."""
    if values.dtype.kind == "f":
        wide = values.astype(np.float64) + 0.0
        raw = wide.view(np.uint64)
        flipped = np.where(np.signbit(wide), ~raw, raw | np.uint64(1 << 63))
        return np.where(np.isnan(wide), np.uint64(2**64 - 1), flipped)
    return np.array([int(value) - lo for value in values.tolist()], dtype=np.uint64)


def assert_run_holds(run, values: np.ndarray) -> np.ndarray:
    """The one-run invariant over rows ``[run.start, run.stop)``: the keys
    are sorted, their low ``bits`` name every row of the run once, their
    high bits are the row's image shifted right by ``drop``, and a run
    that drops nothing is the stable argsort.  Returns the run's rowids
    in key order."""
    part = values[run.start : run.stop]
    rowids = (run.keys & np.uint64((1 << run.bits) - 1)).astype(np.int64)
    assert (run.keys[:-1] <= run.keys[1:]).all()
    assert np.array_equal(np.sort(rowids), np.arange(run.start, run.stop))
    shifted = image(values[rowids], run.lo) >> np.uint64(run.drop)
    assert np.array_equal(run.keys >> np.uint64(run.bits), shifted)
    if run.drop == 0:
        assert np.array_equal(rowids - run.start, np.argsort(part, kind="stable"))
    return rowids


def assert_runs_hold(index: SortedIndex, column: Column) -> None:
    """The built runs partition ``[0, covered)`` in rowid order, and each
    holds the one-run invariant."""
    values = np.asarray(column.values)
    assert [run.start for run in index._runs] == [0] + [run.stop for run in index._runs[:-1]]
    assert index._runs[-1].stop == index.covered_rows
    for run in index._runs:
        assert_run_holds(run, values)


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
        assert_runs_hold(index, column)
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
    ranges offer more answers from the value-sorted runs — and so do
    rows appended past a validity window that ends mid-chunk, before and
    after the merge that folds them in."""
    from repro.indexing.manager import IndexManager, predicate_range
    from repro.indexing.sorted_index import SCAN_MAX_CHUNKS
    from repro.persist.diskstore import DiskColumnStore

    rng = np.random.default_rng(17)
    if kind == "int64 around 2**53":
        # float64 cannot tell 2**53 from 2**53 + 1: the native comparison must;
        # a Python int operand compares exactly, as the mask compares it
        data = 2**53 + rng.integers(-300, 300, size=6_000)
        operands = [float(2**53), float(2**53 - 1), float(2**53 + 2), 2.0**53 - 400, 2.0**53 + 400]
        operands += [2**53 + 1, 2**53 - 1, 2**53 + 3, 2**53 - 301, 2**53 + 299]
    elif kind == "int64 spanning 2**62":
        # too wide to keep beside the rowid bits: a lossy run filters its
        # boundary buckets
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
    width = 0.2 if kind == "float32 tenths" else 150  # an int operand keeps an int upper
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
    assert manager.cracker_for("sorted").size_bytes == 0  # scanned, never sorted
    assert manager.cracker_for("uniform").size_bytes > 0  # the runs


def test_float_images_keep_the_order():
    """The float image the runs sort by orders every float64 and float32
    value as ``<`` does: −0.0 and +0.0 share an image, subnormals and
    infinities sit where they belong, and NaN takes the all-ones image."""
    from repro.indexing.sorted_index import _float_images

    for kind in ("float64", "float32"):
        info = np.finfo(kind)
        sub = info.smallest_subnormal
        ordered = np.array(
            [-np.inf, info.min, -1.5, -sub, -0.0, 0.0, sub, info.tiny, 1.0, 1.5, info.max, np.inf],
            dtype=kind,
        )
        images = _float_images(ordered.astype(np.float64))
        assert np.array_equal(images, image(ordered, 0))
        assert (images[:-1] < images[1:]).sum() == ordered.size - 2  # only ±0.0 tie
        assert images[4] == images[5]
        nan = _float_images(np.array([np.nan, -np.nan]))
        assert (nan == np.uint64(2**64 - 1)).all() and images[-1] < nan[0]


def test_nan_rows_never_returned_even_from_fully_covered_pieces():
    """Regression: NaNs must not ride along with buckets taken whole."""
    values = np.array([1.0, np.nan, 2.0, np.nan, 3.0, 0.0])
    column = Column("c", values)
    index = SortedIndex(column)
    # a range covering every real value takes each bucket whole
    result = index.rows_in_range(0.0, 4.0)[0]
    assert np.array_equal(result, np.array([0, 2, 4, 5]))
    assert np.array_equal(index.rows_in_range(-np.inf, np.inf)[0], result)
    (run,) = index._runs
    nan_bucket = np.uint64((2**64 - 1) >> run.drop)
    assert np.array_equal(assert_run_holds(run, values)[-2:], [1, 3])  # NaN sorts last
    assert np.count_nonzero(run.keys >> np.uint64(run.bits) == nan_bucket) == 2
    # an all-NaN column keeps every row in that bucket and answers nothing
    all_nan = SortedIndex(Column("n", np.full(16, np.nan)))
    assert all_nan.rows_in_range(-np.inf, np.inf)[0].size == 0
    (run,) = all_nan._runs
    assert (run.keys >> np.uint64(run.bits) == np.uint64((2**64 - 1) >> run.drop)).all()


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


def _offsets(kind: str) -> list[int | str]:
    """Where a kind's value grid may sit: near zero, past 2**53 (where
    float64 cannot tell neighbours apart) and at the dtype's limits; for
    64-bit integers also ``"wide"``, cells 2**42 apart (too wide for 32
    rowid bits, whole beside as many as the run's last rowid needs, which
    differ between runs), and ``"full"``, the dtype's whole range (int64
    past ±2**62, uint64 from 0 to 2**64 − 1): a lossy run."""
    if kind.startswith("float"):
        return [0]
    info = np.iinfo(kind)
    near = [0 if info.min < 0 else 6, info.min + 6, info.max - 6]
    if info.max > 2**53:
        near += [2**53, 2**60, "wide", "full"] + ([-(2**53)] if info.min < 0 else [2**63])
    return near


def _float_specials(kind: str) -> list[float]:
    """Float cells where an order-keeping image can go wrong: ±0.0, ±inf
    and the least subnormals of either sign."""
    tiny = float(np.finfo(kind).smallest_subnormal)
    return [0.0, -0.0, math.inf, -math.inf, tiny, -tiny]


def _special_bounds(kind: str) -> list[float]:
    """Bounds past which a comparison in float64 rounds: ±2**53, the
    dtype limits as floats (2**63 and 2**64 compare equal to the largest
    int64 / uint64) and ±inf."""
    bounds = [-math.inf, math.inf, 2.0**53, -(2.0**53), 2.0**53 + 2]
    if kind.startswith("float"):
        bounds += _float_specials(kind)
    else:
        info = np.iinfo(kind)
        bounds += [float(info.min), float(info.max), float(info.max) - 0.5, float(info.min) + 0.5]
    return bounds


@st.composite
def merge_cases(draw):
    """(kind, base, tails, ranges) on a small value grid of one dtype.

    The grid makes duplicate values and exact bound hits common; floats
    sit at ``cell / 10`` (inexact in binary, and differently so in
    float32) or at one of :func:`_float_specials`, with bounds a hair
    either side of a *stored* value; an integer grid sits at one of
    :func:`_offsets`.  The base draws from the grid's middle and the
    tails from all of it, so appends often fall outside run 0's range.
    Up to a dozen tails drive the merges through compaction and folds.
    """
    kind = draw(st.sampled_from(KINDS))
    floating = kind.startswith("float")
    offset = draw(st.sampled_from(_offsets(kind)))
    info = None if floating else np.iinfo(kind)

    def cells(reach: int):
        cell = st.integers(-reach, reach)
        if floating:  # None is a NaN row
            return st.one_of(cell, cell, cell, st.none(), st.sampled_from(_float_specials(kind)))
        return cell

    def number(c):
        if floating:
            return math.nan if c is None else c if isinstance(c, float) else c / 10
        if offset == "full":
            return info.min + (info.max - info.min) * (c + 6) // 12
        if offset == "wide":
            return (c + 6) * 2**42
        return offset + c

    def array(cells) -> np.ndarray:
        return np.asarray([number(c) for c in cells], dtype=kind)

    def bound(c: int, nudge: float) -> float:  # past the grid's ends too
        return (float(array([c])[0]) if floating else float(number(c))) + nudge

    nudges = st.sampled_from([0.0, 1e-12, -1e-12] if floating else [0.0, 0.5, -0.5])
    bounds = st.one_of(
        st.builds(bound, st.integers(-7, 7), nudges), st.sampled_from(_special_bounds(kind))
    )
    base = array(draw(st.lists(cells(3), min_size=1, max_size=60)))
    tails = draw(st.lists(st.lists(cells(6), min_size=1, max_size=40), min_size=1, max_size=12))
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
        assert_runs_hold(index, column)
        for low, high in ranges:
            expected = np.flatnonzero(_mask(full, low, high))
            rowids, values = index.rows_in_range(low, high)
            assert np.array_equal(rowids, expected)
            if values is not None:
                assert values.dtype == full.dtype
                assert np.array_equal(values, full[expected])
            # runs that drop nothing answer the values themselves when their
            # images fit beside the widest rowid bits; a lossy run (floats,
            # integers too wide for their rowid bits) leaves the gather
            top = max(run.bits for run in index._runs)
            whole = all(
                not run.drop and int(run.keys[-1]) >> run.bits < 2 ** (64 - top)
                for run in index._runs
            )
            assert (values is None) != whole


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=merge_cases(), data=st.data())
def test_manager_selections_equal_the_mask_with_values(case, data):
    """Every comparison through the manager — unmerged tail included —
    returns the mask's rowids, and the values a gather of them returns;
    on an integer column a Python int operand (and upper) compares
    exactly, also past 2**53, as the mask compares it."""
    kind, base, tails, ranges = case
    column = Column("c", base.copy(), dtype=column_type(kind))
    manager = IndexManager()
    operands = [low for low, _ in ranges if math.isfinite(low)] or [0.0]
    if not kind.startswith("float"):
        operands += base[:2].tolist()
    widths = st.sampled_from([0, 1.5, 3])  # 0 and 3 keep an int operand's upper an int
    predicates = [
        # an int plus a float rounds in float64, maybe below the operand
        Predicate(comparison, operand, upper=max(operand, operand + data.draw(widths)))
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
