"""Property-based invariants for the cracker index (seeded generators).

Every test drives :class:`repro.indexing.cracking.CrackerIndex` with
randomized (but seeded, hence reproducible) columns and crack/lookup
sequences and checks the structural invariants the whole adaptive tier
rests on:

* the pieces always partition the column's valid (non-NaN) prefix;
* piece bounds nest correctly after arbitrary crack sequences — bounds
  sorted, pivots strictly increasing, every piece's values inside its
  ``[low, high)`` envelope;
* the rowid array stays a permutation of the base rowids;
* range lookups return exactly the rowids a brute-force scan returns;
* an in-place ripple ``merge_tail`` leaves everything a lookup can observe
  exactly as a wholesale rebuild of the arrays would (hypothesis).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.filter import Comparison, Predicate
from repro.errors import StorageError
from repro.indexing.cracking import CrackerIndex, CrackerState
from repro.storage.column import Column
from repro.storage.dtypes import FLOAT32, type_from_name

SEEDS = [1, 7, 19, 83]


def random_column(rng: np.random.Generator) -> Column:
    """A randomized numeric column: dtype, size and NaN-ness vary."""
    n = int(rng.integers(0, 4000))
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


def random_pivots(rng: np.random.Generator, count: int) -> list[float]:
    pivots = rng.normal(0.0, 250.0, size=count)
    # include exact data-ish values and repeats to hit duplicate-pivot paths
    extras = rng.integers(-500, 500, size=count // 2)
    return [float(p) for p in np.concatenate([pivots, extras, extras[:2]])]


def assert_invariants(index: CrackerIndex, column: Column) -> None:
    values = column.values.astype(np.float64)
    n = len(column)
    # NaN segregation: valid prefix + parked NaNs account for every row
    assert index.num_valid + index.num_nan == n
    assert index.num_nan == int(np.isnan(values).sum())
    # bounds nest: sorted, anchored at 0 and num_valid
    bounds = index._bounds
    assert bounds[0] == 0 and bounds[-1] == index.num_valid
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    # pivots strictly increase and there is one piece per gap
    pivots = index._pivots
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert len(bounds) == len(pivots) + 2
    # pieces partition the valid prefix exactly
    pieces = index.pieces
    assert sum(p.num_rows for p in pieces) == index.num_valid
    for previous, current in zip(pieces, pieces[1:]):
        assert previous.stop == current.start
        assert previous.high == current.low
    # every piece's values lie inside its [low, high) envelope
    for piece in pieces:
        segment = index._values[piece.start : piece.stop]
        assert not np.isnan(segment).any()
        if segment.size:
            assert segment.min() >= piece.low
            assert segment.max() < piece.high
    # the rowid array stays a permutation of the base rowids
    assert np.array_equal(np.sort(index._rowids), np.arange(n, dtype=np.int64))


def brute_force(column: Column, low: float, high: float) -> np.ndarray:
    values = column.values.astype(np.float64)
    return np.nonzero((values >= low) & (values < high))[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold_under_arbitrary_crack_sequences(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        column = random_column(rng)
        index = CrackerIndex(column)
        assert_invariants(index, column)
        for pivot in random_pivots(rng, 12):
            index.crack(pivot)
            assert_invariants(index, column)


@pytest.mark.parametrize("seed", SEEDS)
def test_lookups_equal_brute_force_scan(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        column = random_column(rng)
        index = CrackerIndex(column)
        for _ in range(15):
            a, b = sorted(rng.normal(0.0, 300.0, size=2))
            crack = bool(rng.random() < 0.7)
            result = index.rowids_in_range(float(a), float(b), crack=crack)
            assert np.array_equal(result, brute_force(column, a, b))
            assert_invariants(index, column)
        # open-ended and empty ranges agree too
        assert np.array_equal(
            index.rowids_in_range(-np.inf, np.inf),
            brute_force(column, -np.inf, np.inf),
        )
        probe = float(rng.normal())
        assert index.rowids_in_range(probe, probe).size == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_repeated_lookups_never_scan_more(seed):
    """Adaptivity is monotone: repeating a range cannot scan more data."""
    rng = np.random.default_rng(seed)
    column = Column("c", rng.normal(0.0, 200.0, size=3000))
    index = CrackerIndex(column)
    for _ in range(10):
        a, b = sorted(rng.normal(0.0, 300.0, size=2))
        cost_before = index.scan_cost_for_range(a, b)
        index.rowids_in_range(float(a), float(b))
        assert index.scan_cost_for_range(a, b) <= cost_before
        # and the range is exactly covered afterwards: zero residual cost
        assert index.scan_cost_for_range(a, b) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_export_import_roundtrip_preserves_lookups(seed):
    rng = np.random.default_rng(seed)
    column = random_column(rng)
    index = CrackerIndex(column)
    for pivot in random_pivots(rng, 8):
        index.crack(pivot)
    revived = CrackerIndex.from_state(column, index.export_state())
    assert_invariants(revived, column)
    assert revived.cracks_performed == index.cracks_performed
    for _ in range(10):
        a, b = sorted(rng.normal(0.0, 300.0, size=2))
        assert np.array_equal(
            revived.rowids_in_range(float(a), float(b), crack=False),
            index.rowids_in_range(float(a), float(b), crack=False),
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_coalescing_keeps_invariants_and_exact_lookups(seed):
    """Piece merging under the cap never loses rows or breaks lookups."""
    rng = np.random.default_rng(seed)
    column = Column("c", rng.normal(0.0, 200.0, size=3000))
    cap = int(rng.integers(4, 12))
    index = CrackerIndex(column, max_pieces=cap, min_piece_rows=1)
    for pivot in random_pivots(rng, 40):
        index.crack(pivot)
        assert index.num_pieces <= cap
        assert_invariants(index, column)
    assert index.coalesces_performed > 0  # the cap actually bit
    assert index.pieces_merged >= index.coalesces_performed
    for _ in range(15):
        a, b = sorted(rng.normal(0.0, 300.0, size=2))
        assert np.array_equal(
            index.rowids_in_range(float(a), float(b), crack=False),
            brute_force(column, a, b),
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_coalescing_bounds_pieces_under_lookup_driven_cracking(seed):
    """A long adaptive session keeps its piece count capped, not linear
    in the number of distinct predicates."""
    rng = np.random.default_rng(seed)
    column = Column("c", rng.integers(-10_000, 10_000, size=5000).astype(np.int64))
    index = CrackerIndex(column, max_pieces=16, min_piece_rows=1)
    for _ in range(200):
        a, b = sorted(rng.uniform(-10_000, 10_000, size=2))
        result = index.rowids_in_range(float(a), float(b))
        assert np.array_equal(result, brute_force(column, a, b))
        assert index.num_pieces <= 16
    assert index.cracks_performed > 16


@pytest.mark.parametrize("seed", SEEDS)
def test_stochastic_cracking_is_seed_deterministic(seed):
    """MDD1R mixing: equal seeds give bit-identical piece structures,
    different seeds diverge, and lookups stay exact either way."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 200.0, size=2500)
    pivots = random_pivots(rng, 10)
    ranges = [sorted(rng.normal(0.0, 300.0, size=2)) for _ in range(10)]

    def build(crack_seed):
        column = Column("c", values)
        index = CrackerIndex(column, stochastic=True, seed=crack_seed)
        for pivot in pivots:
            index.crack(pivot)
        for a, b in ranges:
            assert np.array_equal(
                index.rowids_in_range(float(a), float(b)),
                brute_force(column, a, b),
            )
            assert_invariants(index, column)
        return index

    first, twin, other = build(7), build(7), build(8)
    assert first.stochastic_cracks > 0
    assert first.stochastic_cracks == twin.stochastic_cracks
    assert np.array_equal(first._pivots, twin._pivots)
    assert np.array_equal(first._bounds, twin._bounds)
    assert np.array_equal(first._rowids, twin._rowids)
    assert not np.array_equal(first._pivots, other._pivots)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_paged_cracker_scans_the_chunks_a_clustered_zonemap_keeps(seed, tmp_path):
    """On a column clustered on the key, narrow lookups are exact scans of
    the zonemap's candidate chunks and hold no index state."""
    from repro.indexing.paged import PagedCrackerIndex
    from repro.persist.diskstore import DiskColumnStore

    rng = np.random.default_rng(seed)
    data = np.sort(rng.normal(0.0, 10_000.0, size=20_000))
    store = DiskColumnStore(tmp_path, cache_bytes=1 << 22)
    store.write_column(Column("c", data), chunk_rows=1024)
    paged = store.open_column("c")
    index = PagedCrackerIndex(paged)
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
    assert index.cracks_performed == 0


@pytest.mark.parametrize(
    "kind", ["int64 around 2**53", "float64 with NaN and inf", "int64 spanning 2**62"]
)
def test_over_cap_paged_lookups_equal_the_mask(kind, tmp_path):
    """Both answers of the paged index agree with ``Predicate.mask`` for
    every comparison: a sorted column whose every range keeps at most
    ``SCAN_MAX_CHUNKS`` zonemap candidates is scanned, a uniform one whose
    ranges offer more answers from the value-sorted permutation — and so do
    rows appended past a validity window that ends mid-chunk, before and
    after the merge that folds them in."""
    from repro.indexing.manager import IndexManager, predicate_range
    from repro.indexing.paged import SCAN_MAX_CHUNKS
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
    else:
        data = rng.uniform(-100.0, 100.0, size=6_000)
        data[rng.random(6_000) < 0.1] = np.nan
        data[rng.integers(0, 6_000, 40)] = np.inf
        data[rng.integers(0, 6_000, 40)] = -np.inf
        operands = [-100.5, -3.25, 0.0, 99.0]
    finite = data[np.isfinite(data)]
    operands += [float(value) for value in finite[:4]]  # exact hits for EQ / LE / GE
    predicates = [
        Predicate(comparison, operand, upper=operand + 150.0)
        for operand in operands
        for comparison in Comparison
        if comparison is not Comparison.NE
    ]
    store = DiskColumnStore(tmp_path, cache_bytes=1 << 20)
    layouts = {"sorted": (np.sort(data), 128), "uniform": (data, 64)}
    paged = {}
    for name, (values, chunk_rows) in layouts.items():
        assert len(values) % chunk_rows  # the validity window ends mid-chunk
        store.write_column(Column(name, values), chunk_rows=chunk_rows)
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
                candidates = column.chunks_for_predicate(*predicate_range(predicate))
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
    assert manager.stats_snapshot()["cracks_performed"] == 0


def test_from_state_rejects_malformed_states():
    column = Column("c", np.arange(100, dtype=np.int64))
    index = CrackerIndex(column)
    index.crack(50.0)
    good = index.export_state()

    # wrong length for the bound column
    with pytest.raises(StorageError):
        CrackerIndex.from_state(Column("c", np.arange(99, dtype=np.int64)), good)
    # rowids not a permutation
    bad_rowids = good.rowids.copy()
    bad_rowids[0] = bad_rowids[1]
    with pytest.raises(StorageError):
        CrackerIndex.from_state(
            column,
            CrackerState(good.values, bad_rowids, good.pivots, good.bounds, good.num_valid),
        )
    # unsorted bounds
    with pytest.raises(StorageError):
        CrackerIndex.from_state(
            column,
            CrackerState(
                good.values, good.rowids, (40.0, 60.0), (0, 80, 50, 100), good.num_valid
            ),
        )
    # bounds not spanning the valid prefix
    with pytest.raises(StorageError):
        CrackerIndex.from_state(
            column,
            CrackerState(good.values, good.rowids, good.pivots, (0, 50, 99), good.num_valid),
        )
    # non-increasing pivots
    with pytest.raises(StorageError):
        CrackerIndex.from_state(
            column,
            CrackerState(good.values, good.rowids, (50.0, 50.0), (0, 50, 50, 100), good.num_valid),
        )
    # non-finite pivots
    with pytest.raises(StorageError):
        CrackerIndex.from_state(
            column,
            CrackerState(good.values, good.rowids, (np.inf,), (0, 100, 100), good.num_valid),
        )
    # a non-numeric column cannot host a cracker at all
    with pytest.raises(StorageError):
        CrackerIndex.from_state(Column("s", ["a"] * 100), good)
    # state built from *different data of the same shape* (a reload that
    # raced past the snapshot) fails the sampled consistency probe
    with pytest.raises(StorageError):
        CrackerIndex.from_state(Column("c", np.arange(100, dtype=np.int64) + 1), good)


def test_crack_rejects_non_finite_pivots():
    index = CrackerIndex(Column("c", np.arange(10, dtype=np.int64)))
    for pivot in (np.nan, np.inf, -np.inf):
        with pytest.raises(StorageError):
            index.crack(pivot)
    # infinite range bounds are skipped, not cracked
    index.crack_range(-np.inf, 5.0)
    assert index.cracks_performed == 1


def test_nan_rows_never_returned_even_from_fully_covered_pieces():
    """Regression: NaNs used to ride along with wholesale piece appends."""
    values = np.array([1.0, np.nan, 2.0, np.nan, 3.0, 0.0])
    column = Column("c", values)
    index = CrackerIndex(column)
    # crack tightly around the data so lookups hit fully covered pieces
    index.crack(0.0)
    index.crack(4.0)
    result = index.rowids_in_range(0.0, 4.0)
    assert np.array_equal(result, np.array([0, 2, 4, 5]))
    # an all-NaN column has an empty piece structure and empty lookups
    all_nan = CrackerIndex(Column("n", np.full(16, np.nan)))
    assert all_nan.num_valid == 0
    assert all_nan.rowids_in_range(-np.inf, np.inf).size == 0


# --------------------------------------------------------------------- #
# ripple merge_tail ≡ rebuilding the arrays (the pre-ripple algorithm, kept
# here as the oracle)
# --------------------------------------------------------------------- #
def rebuild_merge(index: CrackerIndex, full: np.ndarray):
    """What ``merge_tail`` must amount to, computed the slow obvious way.

    Allocates full-length arrays, routes each tail row pivot by pivot with
    the very comparison ``crack()`` uses, and copies every piece.  Returns
    ``(values, rowids, bounds, num_valid)`` for the column ``full``.
    """
    n, covered = full.shape[0], index.covered_rows
    tail, tail_rowids = full[covered:], np.arange(covered, n, dtype=np.int64)
    nan_mask = tail != tail
    valid, valid_rowids = tail[~nan_mask], tail_rowids[~nan_mask]
    piece_idx = np.zeros(valid.shape[0], dtype=np.int64)
    for pivot in index._pivots.tolist():
        piece_idx += valid >= pivot
    order = np.argsort(piece_idx, kind="stable")
    valid, valid_rowids = valid[order], valid_rowids[order]
    counts = np.bincount(piece_idx, minlength=index.num_pieces)
    shifts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    old_bounds, new_bounds = index._bounds, index._bounds + shifts
    values, rowids = np.empty(n, dtype=full.dtype), np.empty(n, dtype=np.int64)
    for i in range(index.num_pieces):
        start, stop, new_start = int(old_bounds[i]), int(old_bounds[i + 1]), int(new_bounds[i])
        mid, new_stop = new_start + stop - start, int(new_bounds[i + 1])
        values[new_start:mid] = index._values[start:stop]
        rowids[new_start:mid] = index._rowids[start:stop]
        values[mid:new_stop] = valid[shifts[i] : shifts[i + 1]]
        rowids[mid:new_stop] = valid_rowids[shifts[i] : shifts[i + 1]]
    num_valid = index.num_valid + valid.shape[0]
    parked = num_valid + index.num_nan
    values[num_valid:parked] = index._values[index.num_valid : covered]
    rowids[num_valid:parked] = index._rowids[index.num_valid : covered]
    values[parked:], rowids[parked:] = tail[nan_mask], tail_rowids[nan_mask]
    return values, rowids, new_bounds, num_valid


def assert_same_pieces(index: CrackerIndex, expected) -> None:
    """Same structure, and per piece the same multiset of (value, rowid)."""
    values, rowids, bounds, num_valid = expected
    assert np.array_equal(index._bounds, bounds)
    assert index.num_valid == num_valid
    assert index.covered_rows == values.shape[0]
    assert index._values.shape == values.shape and index._rowids.shape == rowids.shape
    edges = [*bounds.tolist(), values.shape[0]]  # the last block is the parked NaNs
    for start, stop in zip(edges, edges[1:]):
        got, want = np.argsort(index._rowids[start:stop]), np.argsort(rowids[start:stop])
        assert np.array_equal(index._rowids[start:stop][got], rowids[start:stop][want])
        assert np.array_equal(
            index._values[start:stop][got], values[start:stop][want], equal_nan=True
        )


def assert_crack_membership(index: CrackerIndex) -> None:
    """``pivot[i-1] <= v < pivot[i]`` in the comparison ``crack()`` splits with."""
    pivots = index._pivots.tolist()
    for i in range(index.num_pieces):
        segment = index._values[index._bounds[i] : index._bounds[i + 1]]
        if i:
            assert not (segment < pivots[i - 1]).any()
        if i < len(pivots):
            assert (segment < pivots[i]).all()
    parked = index._values[index.num_valid :]
    assert (parked != parked).all()


@st.composite
def merge_cases(draw):
    """(base, pivots, tails, ranges) over one dtype, on a small value grid.

    The grid makes empty pieces, duplicate values and exact pivot hits
    common; floats sit at ``cell / 10`` (inexact in binary, and differently
    so in float32) with pivots a hair either side of a *stored* value, and
    the int64 grid can sit beyond 2**53 where float64 cannot tell
    neighbours apart.
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
    base = array(draw(st.lists(cell, max_size=60)))
    pivots = draw(st.lists(bounds, max_size=8))  # none: a single-piece index
    tails = draw(st.lists(st.lists(cell, max_size=120), min_size=1, max_size=3))
    tails = [array(cells) for cells in tails]
    pairs = draw(st.lists(st.tuples(bounds, bounds), min_size=1, max_size=4))
    ranges = [tuple(sorted(pair)) for pair in pairs]
    return base, pivots, tails, ranges


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=merge_cases())
def test_ripple_merge_equals_rebuilding_the_arrays(case):
    base, pivots, tails, ranges = case
    column = Column("c", base.copy(), dtype=type_from_name(str(base.dtype)))
    assert column.values.dtype == base.dtype
    index = CrackerIndex(column)
    for pivot in pivots:
        index.crack(pivot)
    for tail in tails:
        column.append_batch(tail)
        full = np.asarray(column.values)
        expected = rebuild_merge(index, full)
        kept_pivots = index._pivots.copy()
        assert index.merge_tail() == tail.shape[0]
        assert np.array_equal(index._pivots, kept_pivots)
        assert index.num_nan == int((full != full).sum())
        assert_same_pieces(index, expected)
        assert_crack_membership(index)
        assert np.array_equal(np.sort(index._rowids), np.arange(full.shape[0]))
        # lookups agree with the mask, before and after further cracking,
        # on the live index and on a revived copy of it
        revived = CrackerIndex.from_state(column, index.export_state())
        assert_same_pieces(revived, (index._values, index._rowids, index._bounds, index.num_valid))
        for low, high in ranges:
            at_least, below = Predicate(Comparison.GE, low), Predicate(Comparison.LT, high)
            expected_rowids = np.nonzero(at_least.mask(full) & below.mask(full))[0]
            for crack in (False, True):
                found = revived.rowids_in_range(low, high, crack=crack)
                assert np.array_equal(found, expected_rowids)
        index = revived  # the next tail merges into the round-tripped index


def test_merge_routes_float32_rows_by_the_float32_rounded_pivot():
    """``crack()`` compares a float32 column against the pivot *rounded to
    float32*; a float64 binary search would send this row one piece left."""
    stored = np.float32(0.1)
    pivot = float(stored) + 1e-12  # above the value in float64, equal to it in float32
    assert not (np.asarray([stored]) < pivot).any()  # crack() keeps it right of the pivot
    assert float(stored) < pivot  # ...where float64 arithmetic says left
    column = Column("c", np.asarray([0.0, 0.05, 0.2, 0.3], dtype=np.float32), dtype=FLOAT32)
    index = CrackerIndex(column)
    index.crack(pivot)
    column.append_batch(np.asarray([stored, 0.05, stored], dtype=np.float32))
    full = np.asarray(column.values)
    expected = rebuild_merge(index, full)
    index.merge_tail()
    assert_same_pieces(index, expected)
    assert_crack_membership(index)
    assert index._bounds.tolist() == [0, 3, 7]  # both 0.1f rows joined the right piece
    assert index.rowids_in_range(pivot, 1.0).tolist() == [2, 3, 4, 6]
    assert np.array_equal(
        index.rowids_in_range(pivot, 1.0), np.nonzero(Predicate(Comparison.GE, pivot).mask(full))[0]
    )


def test_merge_of_a_tail_larger_than_the_index_moves_every_piece_whole():
    """Every shift exceeds its piece's width: whole pieces relocate."""
    rng = np.random.default_rng(5)
    base = rng.integers(0, 100, 40).astype(np.int64)
    column = Column("c", base.copy())
    index = CrackerIndex(column)
    for pivot in (20.0, 40.0, 60.0, 80.0):
        index.crack(pivot)
    # 50 rows below every pivot come first, so every later piece shifts by
    # more than the widest piece holds
    tail = np.concatenate([rng.integers(0, 20, 50), rng.integers(0, 100, 400)]).astype(np.int64)
    assert 50 > np.diff(index._bounds).max()
    column.append_batch(tail)
    expected = rebuild_merge(index, np.asarray(column.values))
    assert index.merge_tail() == 450
    assert_same_pieces(index, expected)
    assert_crack_membership(index)
    # moved = the 450 tail rows + every row of pieces 1.. (piece 0 never shifts)
    assert index.rows_moved_total == 450 + 40 - int((base < 20).sum())
    assert np.array_equal(index.rowids_in_range(10.0, 70.0), brute_force(column, 10.0, 70.0))
