"""Every touch shows its own row's data.

A slide displays one result per touch, tagged with the touched rowid.  The
value it shows must be read from that row: a scan shows ``column[rowid]``,
and a select-where slide shows a row only when that row's own where-value
satisfies the predicate.  Both are checked over three slides that revisit
each other's rows (out, back, and across the middle), on an in-memory and
a paged object, on the batch path and on the per-touch loop.

The sample hierarchy serves coarse scan slides from a strided sample by
design: a touch at stride > 1 reads the sample row ``r - r % step``, so
its result names that row, not the touched one.  The scan check therefore
runs twice — with samples off, where every result names its touched row,
and with samples on, where some results come from a sample level and each
still shows ``column[result.rowid]``.  A table has no hierarchy, so the
select-where check runs on the defaults.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import scan_action, select_where_action
from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile

PROFILE = DeviceProfile(
    name="own-row",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=60.0,
    finger_width_cm=0.08,
)
ROWS = 100_000
#: (start fraction, end fraction, seconds): out, back, and across the middle
SLIDES = ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.25, 0.75, 1.0))

LAYOUTS = pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
PATHS = pytest.mark.parametrize("batch", [True, False], ids=["batch", "per_touch"])


def _session(batch: bool, **config) -> ExplorationSession:
    return ExplorationSession(
        profile=PROFILE,
        config=KernelConfig(batch_execution=batch, latency_budget_s=1e6, **config),
    )


def _slides(session, view):
    return [
        session.slide(view, duration=seconds, start_fraction=start, end_fraction=end)
        for start, end, seconds in SLIDES
    ]


def _scan_slides(paged: bool, batch: bool, samples: bool, tmp_path):
    """Three scan slides over a random column; returns (column, outcomes)."""
    values = np.random.default_rng(5).integers(0, 1_000_000, ROWS, dtype=np.int64)
    session = _session(batch, enable_samples=samples)
    if paged:
        StoreCatalog(DiskColumnStore(tmp_path)).persist_column(
            Column("c", values), chunk_rows=1024
        )
        StoreCatalog.open_read_only(tmp_path).attach(session.kernel.catalog)
    else:
        session.load_column("c", values)
    view = session.show_column("c", height_cm=10.0)
    session.choose_action(view, scan_action())
    return values, _slides(session, view)


def _assert_each_value_is_its_rows(values, outcomes):
    shown = [result for outcome in outcomes for result in outcome.results]
    assert len(shown) > 150
    rowids = np.array([result.rowid for result in shown])
    wrong = np.array([result.value for result in shown]) != values[rowids]
    assert not wrong.any(), f"{int(wrong.sum())} of {len(shown)} values are another row's"
    return rowids


@LAYOUTS
@PATHS
def test_a_scan_slide_shows_each_rows_own_value(paged, batch, tmp_path):
    values, outcomes = _scan_slides(paged, batch, False, tmp_path)
    rowids = _assert_each_value_is_its_rows(values, outcomes)
    touched = np.concatenate([outcome.rowids_touched for outcome in outcomes])
    assert rowids.tolist() == touched.tolist()


@LAYOUTS
@PATHS
def test_a_coarse_scan_slide_names_the_sample_row_it_shows(paged, batch, tmp_path):
    values, outcomes = _scan_slides(paged, batch, True, tmp_path)
    rowids = _assert_each_value_is_its_rows(values, outcomes)
    # the arm is coarse: sample levels served touches, and the rows they
    # read are not the rows touched
    assert any(level > 0 for outcome in outcomes for level in outcome.served_level_counts)
    touched = np.concatenate([outcome.rowids_touched for outcome in outcomes])
    assert rowids.size == touched.size and (rowids != touched).any()
    assert (rowids <= touched).all()


@LAYOUTS
@PATHS
def test_a_select_where_slide_shows_only_rows_that_satisfy_it(paged, batch, tmp_path):
    ids = np.arange(ROWS, dtype=np.int64)
    w = ids % 2
    session = _session(batch)
    if paged:
        StoreCatalog(DiskColumnStore(tmp_path)).persist_table(
            Table.from_arrays("t", {"w": w, "id": ids}), chunk_rows=1024
        )
        StoreCatalog.open_read_only(tmp_path).attach(session.kernel.catalog)
    else:
        session.load_table("t", {"w": w, "id": ids})
    view = session.show_table("t", height_cm=10.0, width_cm=8.0)
    session.choose_action(view, select_where_action("w", Predicate(Comparison.EQ, 1), ["id"]))

    for outcome in _slides(session, view):
        shown = np.array([result.value["id"] for result in outcome.results], dtype=np.int64)
        assert shown.tolist() == [result.rowid for result in outcome.results]
        failing = int(np.count_nonzero(w[shown] != 1))
        assert failing == 0, f"{failing} of {shown.size} rows shown have w == 0"
        # and every touched row that satisfies the predicate is shown
        touched = outcome.rowids_touched
        assert shown.tolist() == touched[w[touched] == 1].tolist()
