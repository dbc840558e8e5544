"""A selection costs its matches: the counted guard of the sorted runs.

64 append → merge → select cycles run through
:class:`~repro.service.LocalExplorationService`, on an in-memory and a
paged column, at ``N`` and ``16 * N`` rows.  Every sort the index makes
goes through one of its two run builders, so the test wraps both and
counts the rows each sorts — a count, not a clock:

* one full sort per index, the first selection's;
* each merge sorts exactly the rows it merges, plus, when it would keep
  more than ``MAX_RUNS`` tail runs, the tail runs it compacts;
* a selection builds nothing: it binary-searches every run (its
  ``rows_scanned`` counts the probes) and sorts only its hits;
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
def sorts(monkeypatch) -> list[int]:
    """Rows sorted by each run build, in call order."""
    counted: list[int] = []
    for name in ("_pack", "_permute"):
        build = getattr(sorted_index, name)

        def counting(parts, start, stop, *args, _build=build):
            counted.append(stop - start)
            return _build(parts, start, stop, *args)

        monkeypatch.setattr(sorted_index, name, counting)
    return counted


def open_service(n: int, paged: bool, root) -> LocalExplorationService:
    values = np.random.default_rng(n).permutation(n).astype(np.int64)
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
    assert CYCLES * BATCH <= N * FOLD_SHARE
    service = open_service(rows, paged, tmp_path)
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
        return sorts[before:], selection

    built, _ = select()
    assert built == [rows]  # the one full sort
    index = manager.cracker_for("col")
    for _ in range(CYCLES):
        service.execute(AppendCommand.of("col", values=rng.integers(0, rows, BATCH)))
        runs, before = index._runs, len(sorts)
        assert service.merge_index_tails() == BATCH
        compacted = sum(run.stop - run.start for run in runs[1:]) if len(runs) > MAX_RUNS else 0
        assert sorts[before:] == [BATCH + compacted]
        assert index._runs[0] is runs[0] and len(index._runs) <= MAX_RUNS + 1
        built, selection = select()
        assert built == []  # nothing sorted but the hits
        probes = sum(2 * (run.stop - run.start).bit_length() for run in index._runs)
        assert selection.rows_scanned == probes  # binary searches, no gap, no tail
    assert sum(sorts) - rows <= CYCLES * BATCH * (1 + MAX_RUNS)
