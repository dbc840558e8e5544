"""A selection costs its matches: the counted guard of the sorted runs.

64 append → merge → select cycles run through
:class:`~repro.service.LocalExplorationService`, on an in-memory and a
paged column of int64 and of float64 values, at ``N`` and ``16 * N``
rows.  Every sort the index makes goes through its one run builder, so
the test wraps it and counts the rows it sorts — a count, not a clock:

* one full sort per index, the first selection's, and no ``np.argsort``;
* each merge sorts exactly the rows it merges, plus, when it would keep
  more than ``MAX_RUNS`` tail runs, the tail runs it compacts;
* a selection builds nothing: it binary-searches every run (its
  ``rows_scanned`` counts the probes and the rows of a bucket a bound
  falls inside) and sorts only its hits;
* never more than ``MAX_RUNS + 1`` runs;
* rowids equal ``Predicate.mask``, and values equal a gather of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commands import AppendCommand, ShowColumn
from repro.core.kernel import KernelConfig
from repro.engine.filter import Comparison, Predicate
from repro.indexing import sorted_index
from repro.indexing.sorted_index import FOLD_SHARE, MAX_RUNS
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService
from repro.storage.column import Column
from repro.touchio.device import DeviceProfile

N = 20_000
CYCLES = 64
#: Rows appended per cycle: all cycles together stay within FOLD_SHARE of
#: the smaller column, so no merge folds and the first sort is the only one.
BATCH = 64
#: Rows per chunk of the paged layout: 79 chunks at ``N``, past
#: SCAN_MAX_CHUNKS, so the sorted runs answer rather than a chunk scan.
CHUNK_ROWS = 256
#: Width of every selected range: about 1 % of the column.
WIDTH = N // 100

PROFILE = DeviceProfile(
    name="sorted-runs",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=20.0,
    finger_width_cm=0.08,
)


@pytest.fixture
def sorts(monkeypatch):
    """Rows sorted by each run build, in call order; fails the test if
    anything calls ``np.argsort``."""
    counted: list[int] = []
    build, argsort = sorted_index._sort_run, np.argsort
    argsorts: list[int] = []

    def counting(parts, start, stop):
        counted.append(stop - start)
        return build(parts, start, stop)

    def counting_argsort(*args, **kwargs):
        argsorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(sorted_index, "_sort_run", counting)
    monkeypatch.setattr(np, "argsort", counting_argsort)
    yield counted
    assert argsorts == []


def open_service(n: int, paged: bool, dtype, root) -> LocalExplorationService:
    values = np.random.default_rng(n).permutation(n).astype(dtype)
    service = LocalExplorationService(profile=PROFILE, config=KernelConfig(latency_budget_s=1e6))
    if paged:
        catalog = StoreCatalog(DiskColumnStore(root))
        catalog.persist_column(Column("col", values), chunk_rows=CHUNK_ROWS, hierarchy=False)
        StoreCatalog.open_read_only(root, cache_bytes=1 << 20).attach(service.catalog)
    else:
        service.load_column("col", values)
    service.execute(ShowColumn(object_name="col", view_name="c"))
    return service


@pytest.mark.parametrize("rows", [N, 16 * N])
@pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
def test_a_selection_sorts_only_its_hits(sorts, tmp_path, rows, paged):
    """Over int64 values, whose runs keep the whole value."""
    cycle(sorts, tmp_path, rows, paged, np.int64)


@pytest.mark.parametrize("rows", [N, 16 * N])
@pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
def test_a_float_selection_sorts_only_its_hits(sorts, tmp_path, rows, paged):
    """Over float64 values, whose runs drop the image's low bits."""
    cycle(sorts, tmp_path, rows, paged, np.float64)


def cycle(sorts: list[int], tmp_path, rows: int, paged: bool, dtype) -> None:
    assert CYCLES * BATCH <= N * FOLD_SHARE
    service = open_service(rows, paged, dtype, tmp_path)
    column = service.catalog.column("col")
    manager = service.kernel.index_manager
    rng = np.random.default_rng(7)

    def select():
        low = int(rng.integers(0, rows - WIDTH))
        predicate = Predicate(Comparison.BETWEEN, low, upper=low + WIDTH)
        before = len(sorts)
        selection = service.select_where("c", predicate)
        values = np.asarray(column.values)
        assert np.array_equal(selection.rowids, np.flatnonzero(predicate.mask(values)))
        assert selection.values.dtype == values.dtype
        assert np.array_equal(selection.values, column.read_batch(selection.rowids))
        assert selection.strategy == "index"
        return sorts[before:], selection, np.count_nonzero(values == predicate.upper)

    built, _, _ = select()
    assert built == [rows]  # the one full sort
    index = manager.cracker_for("col")
    for _ in range(CYCLES):
        service.execute(AppendCommand.of("col", values=rng.integers(0, rows, BATCH)))
        runs, before = index._runs, len(sorts)
        assert service.merge_index_tails() == BATCH
        compacted = sum(run.stop - run.start for run in runs[1:]) if len(runs) > MAX_RUNS else 0
        assert sorts[before:] == [BATCH + compacted]
        assert index._runs[0] is runs[0] and len(index._runs) <= MAX_RUNS + 1
        built, selection, at_upper = select()
        assert built == []  # nothing sorted but the hits
        if dtype is np.int64:  # nothing dropped: two binary searches a run
            expected = sum(2 * (run.stop - run.start).bit_length() for run in index._runs)
        else:
            # an integral float's image ends in zero bits, so the lower bound
            # starts a bucket; the upper one, stepped past ``upper`` by
            # nextafter, falls inside the bucket of the rows equal to
            # ``upper``: one more search a run, and those rows filtered
            expected = sum(3 * (run.stop - run.start).bit_length() for run in index._runs)
            expected += at_upper
        assert selection.rows_scanned == expected  # binary searches, no gap, no tail
    assert sum(sorts) - rows <= CYCLES * BATCH * (1 + MAX_RUNS)
