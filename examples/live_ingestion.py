"""Live ingestion: explore a column while new rows keep arriving.

The dbTouch promise does not pause for the data to finish loading.  This
example walks the whole streaming-append story on one session:

1. **load and explore** — show a sensor column and run a few range
   selections: the first sorts the column once into run 0 (adaptive
   indexing as a side effect of what is touched; a float column's run is
   one ``uint64`` sort of order-keeping keys, like an integer column's),
   and every later one binary-searches it;
2. **append mid-session** — new readings land via
   :meth:`repro.ExplorationSession.append` (a recorded, replayable
   gesture command).  The index is *not* thrown away: its sorted runs
   keep answering for the frozen prefix through a validity window while
   the appended hot tail is scanned;
3. **merge the tail** — advance the window over the tail (on a server this
   runs on the background lane; here we call it directly).  The merge
   sorts only the merged rows, into a run of their own behind run 0, so
   the next selection searches two runs and re-sorts nothing;
4. **compact and re-attach** — persist the column, append more rows, fold
   the in-memory tail into the chunk files with
   :meth:`repro.StoreCatalog.compact_appends`, and restart from the
   snapshot with every appended row present.  Indexes are not persisted:
   a fresh manager's first selection on the grown column sorts its run 0,
   exactly as the first selection of step 1 did.

Run it with::

    python examples/live_ingestion.py

It exits non-zero if the snapshot holds an index column (``#perm``), or
if the selection on the restarted, grown column differs from a full scan.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    Catalog,
    Column,
    DiskColumnStore,
    ExplorationSession,
    IndexManager,
    StoreCatalog,
)
from repro.engine.filter import Comparison, Predicate

BASE_ROWS = 200_000
BATCH_ROWS = 20_000


def fresh_readings(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(500.0, 150.0, size=n)


def window_report(manager: IndexManager, name: str) -> str:
    index = manager.cracker_for(name)
    if index is None:
        return "no index yet"
    return (
        f"{index.size_bytes:,} bytes, valid over rows [0, {index.covered_rows:,}), "
        f"hot tail: {index.tail_rows:,} rows"
    )


def main() -> int:
    rng = np.random.default_rng(11)

    # ---------------------------------------------------------------- #
    # 1. load and explore: the first selection sorts the column once
    # ---------------------------------------------------------------- #
    session = ExplorationSession()
    live_index = session.kernel.index_manager
    session.load_column("sensor", fresh_readings(rng, BASE_ROWS))
    view = session.show_column("sensor")
    hot = Predicate(Comparison.BETWEEN, 440.0, upper=460.0)
    for predicate in (hot, Predicate(Comparison.BETWEEN, 600.0, upper=630.0)):
        selection = session.select_where(view.name, predicate)
        print(
            f"selected {len(selection.rowids):,} rows via {selection.strategy!r}, "
            f"scanned {selection.rows_scanned:,}"
        )
    print(f"index after exploring : {window_report(live_index, 'sensor')}")

    # ---------------------------------------------------------------- #
    # 2. rows arrive mid-session: the index keeps its sorted runs
    # ---------------------------------------------------------------- #
    new_length = session.append("sensor", values=fresh_readings(rng, BATCH_ROWS).tolist())
    print(f"\nappended {BATCH_ROWS:,} rows -> column holds {new_length:,}")
    print(f"index after append    : {window_report(live_index, 'sensor')}")
    selection = session.select_where(view.name, hot)
    print(
        f"hot range still exact : {len(selection.rowids):,} rows "
        f"(sorted runs answer the prefix, the tail is scanned)"
    )

    # ---------------------------------------------------------------- #
    # 3. merge the hot tail into the window: it becomes a sorted run
    # ---------------------------------------------------------------- #
    merged = session.service.merge_index_tails()
    print(f"\nmerged {merged:,} tail rows into the index's window")
    print(f"index after merge     : {window_report(live_index, 'sensor')}")
    selection = session.select_where(view.name, hot)
    print(
        f"hot range after merge : {len(selection.rowids):,} rows, "
        f"scanned {selection.rows_scanned:,} (two runs searched, nothing re-sorted)"
    )

    # ---------------------------------------------------------------- #
    # 4. persist, append onto the paged column, compact, re-attach
    # ---------------------------------------------------------------- #
    with tempfile.TemporaryDirectory(prefix="dbtouch-ingest-") as root:
        catalog = StoreCatalog(DiskColumnStore(Path(root)))
        # 1,024-row chunks: the zonemap of an unclustered column keeps every
        # one of them, so restarted selections read the sorted runs
        catalog.persist_column(
            Column("sensor", np.asarray(session.catalog.column("sensor").values)),
            chunk_rows=1_024,
        )
        paged = catalog.load_column("sensor")
        paged.append_batch(fresh_readings(rng, BATCH_ROWS))
        print(
            f"\npaged column: {paged.base_rows:,} rows on disk "
            f"+ {paged.tail_rows:,} in the in-memory tail"
        )
        compacted = catalog.compact_appends("sensor")
        print(f"compact_appends -> {compacted:,} rows, all in chunk files")
        index_columns = [name for name in catalog.store.column_names if name.endswith("#perm")]
        if index_columns:
            print(f"FAILED: the snapshot holds index columns {index_columns}", file=sys.stderr)
            return 1

        restarted = StoreCatalog(DiskColumnStore(Path(root)))
        runtime = Catalog()
        restarted.attach(runtime)
        reopened = runtime.resolve_column("sensor")
        print(
            f"re-attach             : {len(reopened):,} rows, "
            f"tail {reopened.tail_rows} (everything served from chunks)"
        )
        manager = IndexManager()
        selection = manager.select_rowids("sensor", None, reopened, hot)
        print(f"index after restart   : {window_report(manager, 'sensor')}")
        expected = np.nonzero(hot.mask(np.asarray(reopened.values)))[0]
        print(
            f"hot range after restart: {len(selection.rowids):,} rows via "
            f"{selection.strategy!r}, scanned {selection.rows_scanned:,}"
        )
        if not np.array_equal(selection.rowids, expected):
            print("FAILED: the selection differs from a full scan", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
