"""E-out-of-core: the persistent tier versus in-memory exploration.

The dbTouch promise is touch-speed exploration over data far larger than
what fits on the device: gestures touch only the data under the finger,
which is exactly the access pattern the ``repro.persist`` tier exploits.
This benchmark drives a dataset whose on-disk size exceeds the configured
chunk-cache byte budget many times over and asserts the three properties
the tier is for:

* **Bounded residency, exact results** — a slide over a narrow band of a
  larger-than-budget table gathers its rows through the mapping and
  materialises nothing (no chunk inserted, zero bytes cached), stays
  within the interactive per-touch latency bound, and produces
  *bit-identical* deterministic outcome counters versus the all-in-RAM
  path.
* **Chunk-cache locality** — a dense back-and-forth trace of summary
  taps (stride-1 windows, range reads through the chunk layer) is served
  > 80 % from resident chunks.
* **Warm cold-start** — reopening a snapshot (manifest + mmap, sample
  levels included) is >= 10x faster than re-ingesting the same table from
  CSV and rebuilding its hierarchies.
* **Size-independent selection** — a warm range selection over a column
  the zonemap cannot prune inspects O(sqrt(n)) values, and one over a
  clustered column at most the two chunks the zonemap keeps, counted at
  1M and 4M rows.

The generated dataset lives under ``.bench-data/v<DATASET_VERSION>`` and
is reused across runs; CI caches the directory keyed on this module's
content, so the generator version bumps the cache key automatically.
Headline numbers land in ``benchmark.extra_info``.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.actions import summary_action
from repro.core.kernel import KernelConfig
from repro.engine.filter import Comparison, Predicate
from repro.indexing.manager import IndexManager
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService
from repro.storage.column import Column
from repro.storage.loader import load_table_from_csv_file
from repro.storage.sample import SampleHierarchy
from repro.storage.table import Table

from conftest import print_comparison

#: Bump when the generated dataset changes shape; CI keys its cache on it.
DATASET_VERSION = 1
#: Rows in the out-of-core table (3 columns, ~46 MiB on disk).
ROWS = 2_000_000
#: Rows per chunk (128 KiB of int64): ~123 chunks per column.
CHUNK_ROWS = 16_384
#: Chunk-cache byte budget — more than 20x smaller than the dataset.
CACHE_BYTES = 2 << 20
#: Rows of the CSV used for the cold-start comparison.
CSV_ROWS = 250_000
#: The narrow slide band (fractions of the object) for the residency test.
BAND = (0.50, 0.53)
#: Summary taps per sweep of the dense trace (several per chunk of the band).
TAPS_PER_SWEEP = 60
#: Acceptance floors.
MAX_CHUNK_FRACTION = 0.05
MIN_HIT_RATE = 0.80
MIN_COLD_START_SPEEDUP = 10.0
#: The paper's interactive bound on a single touch.
LATENCY_BOUND_S = 0.05

DATA_DIR = Path(__file__).resolve().parent.parent / ".bench-data" / f"v{DATASET_VERSION}"


def make_arrays(num_rows: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(1729)
    return {
        "flux": rng.integers(0, 1_000_000, num_rows),
        "mag": rng.normal(50.0, 10.0, num_rows),
        "band": rng.integers(0, 64, num_rows),
    }


def ensure_dataset() -> Path:
    """Generate (once) the on-disk store and the cold-start CSV."""
    store_dir = DATA_DIR / "store"
    csv_store_dir = DATA_DIR / "csv-store"
    csv_path = DATA_DIR / "ingest.csv"
    if (store_dir / "catalog.json").is_file() and csv_path.is_file():
        return DATA_DIR
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    table = Table.from_arrays("sky", make_arrays(ROWS))
    catalog = StoreCatalog(DiskColumnStore(store_dir, cache_bytes=CACHE_BYTES))
    catalog.persist_table(table, chunk_rows=CHUNK_ROWS, replace=True)

    small = make_arrays(CSV_ROWS)
    header = ",".join(small)
    rows = "\n".join(
        f"{flux},{mag!r},{band}"
        for flux, mag, band in zip(
            small["flux"].tolist(), small["mag"].tolist(), small["band"].tolist()
        )
    )
    csv_path.write_text(header + "\n" + rows + "\n", encoding="utf-8")
    small_table = Table.from_arrays("sky_small", small)
    csv_catalog = StoreCatalog(DiskColumnStore(csv_store_dir, cache_bytes=CACHE_BYTES))
    csv_catalog.persist_table(small_table, chunk_rows=CHUNK_ROWS, replace=True)
    return DATA_DIR


@pytest.fixture(scope="module")
def dataset() -> Path:
    return ensure_dataset()


def open_store(dataset: Path) -> StoreCatalog:
    return StoreCatalog(DiskColumnStore(dataset / "store", cache_bytes=CACHE_BYTES))


def pinned_config(**overrides) -> KernelConfig:
    return KernelConfig(latency_budget_s=1e6, **overrides)


def narrow_band_service(catalog: StoreCatalog) -> LocalExplorationService:
    service = LocalExplorationService(config=pinned_config())
    service.load_table("sky", catalog.load_table("sky"))
    for key in catalog.iter_hierarchy_keys():
        service.catalog.adopt_hierarchy(*key, catalog.load_hierarchy(*key))
    return service


def slide_narrow_band(service: LocalExplorationService):
    """Scan-slide the mag attribute over the narrow band, both directions."""
    session_view = service.kernel.show_column(
        "sky", column_name="mag", view_name="v", height_cm=10.0
    )
    outcomes = []
    for start, end in (BAND, BAND[::-1]):
        stream = service.synthesizer.slide(
            session_view,
            duration=1.0,
            start_fraction=start,
            end_fraction=end,
            start_time=service.device.now,
        )
        service.device.advance_clock(stream.duration)
        outcomes.append(service.kernel.handle_stream(stream))
    return outcomes


def test_out_of_core_narrow_slide_residency_and_parity(benchmark, dataset):
    """Nothing materialised, latency-bounded, counters == in-memory."""
    catalog = open_store(dataset)
    paged_service = narrow_band_service(catalog)
    paged_outcomes = benchmark.pedantic(
        lambda: slide_narrow_band(paged_service), rounds=1, iterations=1
    )

    memory_service = LocalExplorationService(config=pinned_config())
    memory_service.load_table("sky", Table.from_arrays("sky", make_arrays(ROWS)))
    memory_outcomes = slide_narrow_band(memory_service)

    for paged, reference in zip(paged_outcomes, memory_outcomes):
        assert paged.entries_returned == reference.entries_returned
        assert paged.tuples_examined == reference.tuples_examined
        assert paged.rowids_touched.tolist() == reference.rowids_touched.tolist()
        assert paged.max_touch_latency_s < LATENCY_BOUND_S

    mag = catalog.load_table("sky").column("mag")
    touched_fraction = mag.fraction_chunks_touched
    on_disk = catalog.store.on_disk_bytes()
    assert on_disk > 10 * CACHE_BYTES, "dataset must dwarf the cache budget"
    assert touched_fraction < MAX_CHUNK_FRACTION
    # a narrow slide materialises nothing: its rows are gathered
    assert catalog.store.cache.stats.insertions == 0
    assert catalog.store.cache.stats.bytes_cached == 0

    benchmark.extra_info.update(
        {
            "on_disk_bytes": on_disk,
            "cache_budget_bytes": CACHE_BYTES,
            "chunks_touched": mag.chunks_touched,
            "num_chunks": mag.num_chunks,
            "touched_fraction": round(touched_fraction, 4),
            "max_touch_latency_s": max(
                outcome.max_touch_latency_s for outcome in paged_outcomes
            ),
        }
    )
    print_comparison(
        f"narrow slide over {on_disk / 2**20:.0f} MiB on disk / "
        f"{CACHE_BYTES / 2**20:.0f} MiB budget: touched {mag.chunks_touched}/"
        f"{mag.num_chunks} chunks ({touched_fraction:.1%})"
    )


def test_out_of_core_chunk_cache_hit_rate(benchmark, dataset):
    """A dense back-and-forth trace of summary windows hits resident chunks > 80%."""
    # the trace's working set — the chunks under the touched band — must
    # be residentable for locality to show; the dataset still dwarfs this
    # budget 15x
    budget = 2 * CACHE_BYTES
    catalog = StoreCatalog(DiskColumnStore(dataset / "store", cache_bytes=budget))
    service = LocalExplorationService(config=pinned_config())
    service.load_table("sky", catalog.load_table("sky"))
    for key in catalog.iter_hierarchy_keys():
        service.catalog.adopt_hierarchy(*key, catalog.load_hierarchy(*key))
    view = service.kernel.show_column(
        "sky", column_name="flux", view_name="v", height_cm=10.0
    )
    # a tap's stride-1 summary window is a *range* read (``slice``), the
    # chunk layer's product; a scan slide gathers rows past the cache
    service.kernel.set_action("v", summary_action(k=64))

    def dense_trace():
        # the trace's union band stays ~11% of the rows: revisits of a
        # residentable region must hit, not thrash
        for round_index in range(6):
            lo = 0.30 + 0.002 * round_index
            forward = np.linspace(lo, lo + 0.10, TAPS_PER_SWEEP)
            for fraction in (*forward, *forward[::-1]):
                stream = service.synthesizer.tap(
                    view, fraction=float(fraction), start_time=service.device.now
                )
                service.device.advance_clock(stream.duration)
                service.kernel.handle_stream(stream)

    benchmark.pedantic(dense_trace, rounds=1, iterations=1)
    stats = catalog.store.cache.stats
    assert stats.lookups > 0
    assert stats.hit_rate > MIN_HIT_RATE
    benchmark.extra_info.update(
        {
            "hit_rate": round(stats.hit_rate, 4),
            "lookups": stats.lookups,
            "misses": stats.misses,
            "resident_bytes": stats.bytes_cached,
            "cache_budget_bytes": budget,
        }
    )
    print_comparison(
        f"dense summary-tap trace: {stats.hits}/{stats.lookups} chunk lookups hit "
        f"({stats.hit_rate:.1%}), {stats.bytes_cached / 2**20:.2f} MiB resident"
    )


def test_paged_select_cost_independent_of_column_size(tmp_path):
    """A warm selection inspects what its answer needs, at 1M rows as at
    4M — on every layout.

    ``uniform``: the zonemap cannot prune a paged column not clustered on
    the key, so a 1 %-wide range binary-searches the value-sorted run —
    at most 2 * ceil(sqrt(n)) values inspected — where a chunk path would
    visit every chunk.  ``clustered`` (the same values, sorted):
    a range holding about one chunk's worth of rows scans the at most two
    chunks the zonemap keeps — 2 * 4,096 values — and holds no index state.
    ``in_memory`` (the uniform values as a plain ``Column``, which has no
    zonemap): the sorted runs answer, and after n/32 rows are appended and
    merged into a run of their own a selection still inspects no more (no
    gap is scanned).  The first selection, which sorts run 0, allocates at
    most 12 bytes a row (8-byte sort keys, 4-byte rowids), traced.  Counts,
    not a clock.
    """
    chunk_rows = 4_096
    layouts = ("uniform", "clustered", "in_memory")
    for layout, rows in itertools.product(layouts, (1_000_000, 4_000_000)):
        data = np.random.default_rng(rows).integers(0, 1_000_000, rows)
        if layout == "clustered":
            data = np.sort(data)
            # ~4,000 rows' worth of values, bounds between stored integers
            width = 4_000 * 1_000_000 / rows
            predicate = Predicate(Comparison.BETWEEN, 420_000.5, upper=420_000.5 + width)
        else:
            predicate = Predicate(Comparison.BETWEEN, 420_000.0, upper=430_000.0)
        if layout == "in_memory":
            column = Column("flux", data)
        else:
            catalog = StoreCatalog(
                DiskColumnStore(tmp_path / f"{layout}{rows}", cache_bytes=CACHE_BYTES)
            )
            # 4,096-row chunks: a uniform range offers all 245 / 977 of them
            catalog.persist_column(Column("flux", data), chunk_rows=chunk_rows, hierarchy=False)
            column = catalog.load_column("flux")
        manager = IndexManager()
        tracemalloc.start()
        try:
            manager.select_rowids("flux", None, column, predicate)  # builds any run
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * rows * 1.01, f"{layout} {rows}: {peak / rows:.2f} B/row"
        warm = manager.select_rowids("flux", None, column, predicate)
        assert np.array_equal(warm.rowids, np.nonzero(predicate.mask(data))[0])
        runs = 2 * (math.isqrt(rows - 1) + 1)  # the square-root law, as a bound
        if layout == "clustered":
            assert warm.rows_scanned <= 2 * chunk_rows
            assert manager.cracker_for("flux").size_bytes == 0
        else:
            assert warm.rows_scanned <= runs
        if layout == "in_memory":
            appended = np.random.default_rng(rows + 1).integers(0, 1_000_000, rows // 32)
            column.append_batch(appended)
            manager.extend_valid_prefix("flux")
            assert manager.merge_tails("flux") == rows // 32
            merged = manager.select_rowids("flux", None, column, predicate)
            grown = np.concatenate([data, appended])
            assert np.array_equal(merged.rowids, np.nonzero(predicate.mask(grown))[0])
            assert merged.rows_scanned <= runs
        assert manager.stats_snapshot()["crackers_built"] == 1


def cold_start_from_csv(csv_path: Path) -> Table:
    """What a restart without the persistent tier pays: parse + re-stride."""
    table = load_table_from_csv_file("sky_small", csv_path)
    for column in table.columns:
        if column.is_numeric:
            SampleHierarchy(column)
    return table


def cold_start_from_snapshot(store_dir: Path) -> Table:
    """What a restart with the tier pays: manifest read + mmap calls."""
    catalog = StoreCatalog(DiskColumnStore(store_dir, cache_bytes=CACHE_BYTES))
    table = catalog.load_table("sky_small")
    for name in table.column_names:
        catalog.load_hierarchy("sky_small", name)
    return table


@pytest.fixture(scope="module")
def cold_start_run(dataset):
    """Both cold starts, run once for the equivalence test and its gate."""

    @functools.cache
    def run():
        started = time.perf_counter()
        csv_table = cold_start_from_csv(dataset / "ingest.csv")
        csv_seconds = time.perf_counter() - started
        rounds = 3
        started = time.perf_counter()
        for _ in range(rounds):
            snapshot_table = cold_start_from_snapshot(dataset / "csv-store")
        snapshot_seconds = (time.perf_counter() - started) / rounds
        return csv_table, snapshot_table, csv_seconds, snapshot_seconds

    return run


def test_out_of_core_cold_start_speedup(benchmark, cold_start_run):
    """A snapshot reopen restores what CSV re-ingest + sample rebuild builds;
    the speedup is reported here and gated by the ``_gate`` test."""
    csv_table, snapshot_table, csv_seconds, snapshot_seconds = benchmark.pedantic(
        cold_start_run, rounds=1, iterations=1
    )
    assert snapshot_table.schema == csv_table.schema
    assert len(snapshot_table) == len(csv_table) == CSV_ROWS
    speedup = csv_seconds / snapshot_seconds

    benchmark.extra_info.update(
        {
            "csv_ingest_s": round(csv_seconds, 4),
            "snapshot_open_s": round(snapshot_seconds, 6),
            "speedup": round(speedup, 1),
            "rows": CSV_ROWS,
        }
    )
    print_comparison(
        f"cold start: CSV re-ingest {csv_seconds * 1e3:.0f} ms vs snapshot "
        f"{snapshot_seconds * 1e3:.2f} ms ({speedup:.0f}x)"
    )


@pytest.mark.wallclock
def test_out_of_core_cold_start_speedup_gate(cold_start_run):
    """Snapshot reopen >= 10x faster than CSV re-ingest + sample rebuild."""
    _, _, csv_seconds, snapshot_seconds = cold_start_run()
    assert csv_seconds / snapshot_seconds >= MIN_COLD_START_SPEEDUP
