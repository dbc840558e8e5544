"""Differential gesture harness: indexing on vs. indexing off, bit for bit.

The adaptive indexing tier is built and consulted only by bulk
``select_where`` queries, never by a gesture — so replaying any gesture
script with indexing enabled must produce exactly the outcomes of the
same script with indexing disabled: identical counters, identical touched
rowids, identical displayed values.
This harness generates seeded random gesture scripts and replays each on
a kernel-with-indexing and an indexing-disabled reference, across dtypes,
dataset sizes and in-memory vs. paged columns, asserting bit-identical
results; the bulk selections themselves are cross-checked against a
brute-force scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import (
    aggregate_action,
    scan_action,
    select_where_action,
    summary_action,
)
from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.indexing.manager import IndexManager
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile

FAST_PROFILE = DeviceProfile(
    name="diff-device",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=25.0,
    finger_width_cm=0.08,
)

COMPARISONS = [
    Comparison.LT,
    Comparison.LE,
    Comparison.GT,
    Comparison.GE,
    Comparison.EQ,
    Comparison.NE,
    Comparison.BETWEEN,
]


def normalize(value):
    """Recursively convert numpy scalars/arrays so ``==`` is structural.

    NaN is mapped to a sentinel: two scripts that both display NaN at the
    same position are identical, while ``nan != nan`` would flag them.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and np.isnan(value):
        return "<NaN>"
    if isinstance(value, np.ndarray):
        return [normalize(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


def outcome_fingerprint(outcome) -> dict:
    """Everything observable about a gesture outcome, normalized."""
    return {
        "gesture_type": outcome.gesture_type.value,
        "view_name": outcome.view_name,
        "object_name": outcome.object_name,
        "entries_returned": outcome.entries_returned,
        "tuples_examined": outcome.tuples_examined,
        "rowids_touched": list(outcome.rowids_touched),
        "served_level_counts": dict(outcome.served_level_counts),
        "final_aggregate": normalize(outcome.final_aggregate),
        "join_matches": outcome.join_matches,
        "result_values": [normalize(r.value) for r in outcome.results],
        "result_rowids": [r.rowid for r in outcome.results],
    }


def make_column_data(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """Deterministic column contents for one dtype scenario."""
    if kind == "int64":
        return rng.integers(0, 1_000, size=n, dtype=np.int64)
    if kind == "float64":
        return rng.normal(500.0, 150.0, size=n)
    if kind == "float64-nan":
        values = rng.normal(500.0, 150.0, size=n)
        values[rng.random(n) < 0.05] = np.nan
        return values
    raise AssertionError(f"unknown column kind {kind!r}")


def random_predicate(rng: np.random.Generator) -> Predicate:
    comparison = COMPARISONS[int(rng.integers(len(COMPARISONS)))]
    operand = float(rng.integers(0, 1_000))
    if comparison is Comparison.BETWEEN:
        upper = operand + float(rng.integers(0, 300))
        return Predicate(comparison, operand, upper=upper)
    return Predicate(comparison, operand)


def random_action(rng: np.random.Generator):
    """A random column-object action, usually carrying a predicate."""
    roll = rng.random()
    predicate = random_predicate(rng) if rng.random() < 0.8 else None
    if roll < 0.45:
        return scan_action(predicate)
    if roll < 0.75:
        return aggregate_action("sum", predicate)
    return summary_action(k=int(rng.integers(2, 9)), predicate=predicate)


def drive_column_script(session: ExplorationSession, view, rng: np.random.Generator):
    """Replay one seeded script of actions/gestures; return fingerprints."""
    fingerprints = []
    for _ in range(10):
        move = rng.random()
        if move < 0.3:
            session.choose_action(view, random_action(rng))
            continue
        if move < 0.8:
            a, b = rng.random(), rng.random()
            outcome = session.slide(
                view,
                duration=float(rng.uniform(0.2, 0.8)),
                start_fraction=min(a, b),
                end_fraction=max(a, b),
            )
        elif move < 0.9:
            outcome = session.tap(view, fraction=float(rng.random()))
        else:
            outcome = session.zoom_in(view, duration=0.3)
        fingerprints.append(outcome_fingerprint(outcome))
    return fingerprints


def indexed_and_reference_sessions():
    on = ExplorationSession(
        profile=FAST_PROFILE, config=KernelConfig(enable_indexing=True)
    )
    off = ExplorationSession(
        profile=FAST_PROFILE, config=KernelConfig(enable_indexing=False)
    )
    return on, off


@pytest.mark.parametrize("kind", ["int64", "float64", "float64-nan"])
@pytest.mark.parametrize("rows", [512, 20_000])
@pytest.mark.parametrize("seed", [11, 29])
def test_column_scripts_bit_identical(kind, rows, seed):
    """Random scripts over in-memory columns replay identically on/off."""
    data = make_column_data(np.random.default_rng(seed), kind, rows)
    on, off = indexed_and_reference_sessions()
    results = []
    for session in (on, off):
        session.load_column("data", data.copy())
        view = session.show_column("data")
        results.append(drive_column_script(session, view, np.random.default_rng(seed + 1)))
    assert results[0] == results[1]
    # the indexed session actually exercised the tier
    assert on.kernel.index_manager is not None
    assert off.kernel.index_manager is None


@pytest.mark.parametrize("seed", [3, 17])
def test_paged_column_scripts_bit_identical(tmp_path, seed):
    """The same differential property holds over out-of-core paged columns."""
    data = make_column_data(np.random.default_rng(seed), "int64", 30_000)
    store = DiskColumnStore(tmp_path / "store", cache_bytes=1 << 20)
    catalog = StoreCatalog(store)
    catalog.persist_column(Column("data", data))
    on, off = indexed_and_reference_sessions()
    results = []
    for session in (on, off):
        session.service.catalog.register_column(catalog.load_column("data"))
        view = session.show_column("data")
        results.append(drive_column_script(session, view, np.random.default_rng(seed + 1)))
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", [7, 31])
def test_disk_resident_cracker_scripts_bit_identical(tmp_path, seed):
    """The disk-resident cracker arm: a paged column clustered on the key,
    served by an IndexManager, replays seeded scripts bit-identically to the
    indexing-off reference, and bulk selections stay exact on both answers
    of its index — narrow ranges scan the chunks the zonemap keeps, ranges
    over more than ``SCAN_MAX_CHUNKS`` chunks read the sorted runs."""
    rng = np.random.default_rng(seed)
    data = np.sort(rng.integers(0, 1_000_000, size=30_000, dtype=np.int64))
    store = DiskColumnStore(tmp_path / "store", cache_bytes=1 << 20)
    catalog = StoreCatalog(store)
    catalog.persist_column(Column("data", data), chunk_rows=256)  # 118 chunks
    manager = IndexManager()
    on = ExplorationSession(profile=FAST_PROFILE, config=KernelConfig(enable_indexing=True))
    on.service.adopt_index_manager(manager)
    off = ExplorationSession(
        profile=FAST_PROFILE, config=KernelConfig(enable_indexing=False)
    )
    results = []
    for session in (on, off):
        session.service.catalog.register_column(catalog.load_column("data"))
        view = session.show_column("data")
        results.append(drive_column_script(session, view, np.random.default_rng(seed + 1)))
    assert results[0] == results[1]
    # narrow bulk selections walk the key space a chunk or two at a time:
    # scans, no index state; then ranges over 70+ chunks: the sorted runs
    script_rng = np.random.default_rng(seed + 2)
    for width, cracker_bytes_held in ((5_000.0, False), (600_000.0, True)):
        for _ in range(15):
            low = float(script_rng.uniform(0, 1_000_000 - width))
            predicate = Predicate(Comparison.BETWEEN, low, upper=low + width)
            selection = on.select_where("data-view", predicate)
            assert selection.strategy == "index"
            assert np.array_equal(selection.rowids, np.nonzero(predicate.mask(data))[0])
        stats = on.kernel.index_manager.stats_snapshot()
        assert (stats["cracker_bytes"] > 0) == cracker_bytes_held
    assert stats["crackers_built"] == 1


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("batch", [True, False])
def test_select_where_table_scripts_bit_identical(seed, batch):
    """Seeded select-where slides over tables are unchanged by indexing.

    Every where-value a slide shows is read, on the batch path and on the
    per-touch loop alike: every counter — ``tuples_examined`` included —
    must equal the indexing-off replay's.
    """
    rng = np.random.default_rng(seed)
    n = 5_000
    table_data = {
        "amount": rng.integers(0, 1_000, size=n, dtype=np.int64),
        "customer": rng.integers(0, 40, size=n, dtype=np.int64),
        "score": rng.normal(0.0, 1.0, size=n),
    }
    sessions = [
        ExplorationSession(
            profile=FAST_PROFILE,
            config=KernelConfig(enable_indexing=enabled, batch_execution=batch),
        )
        for enabled in (True, False)
    ]
    on, off = sessions
    results = []
    for session in sessions:
        session.load_table("orders", Table.from_arrays("orders", dict(table_data)))
        view = session.show_table("orders")
        script_rng = np.random.default_rng(seed + 1)
        fingerprints = []
        for _ in range(8):
            predicate = random_predicate(script_rng)
            session.choose_action(
                view, select_where_action("amount", predicate, ["customer", "score"])
            )
            a, b = script_rng.random(), script_rng.random()
            outcome = session.slide(
                view,
                duration=float(script_rng.uniform(0.2, 0.6)),
                start_fraction=min(a, b),
                end_fraction=max(a, b),
            )
            fingerprints.append(outcome_fingerprint(outcome))
        results.append(fingerprints)
    assert results[0] == results[1]
    # the slides left the where-attribute unindexed: gestures build nothing
    assert on.kernel.index_manager.cracker_for("orders", "amount") is None


@pytest.mark.parametrize("kind", ["int64", "float64-nan"])
def test_bulk_selections_match_brute_force_and_reference(kind):
    """select_where agrees with the scan reference and a brute-force mask."""
    data = make_column_data(np.random.default_rng(41), kind, 20_000)
    on, off = indexed_and_reference_sessions()
    for session in (on, off):
        session.load_column("data", data.copy())
        session.show_column("data")
    script_rng = np.random.default_rng(42)
    for _ in range(12):
        predicate = random_predicate(script_rng)
        indexed = on.select_where("data-view", predicate)
        reference = off.select_where("data-view", predicate)
        brute = np.nonzero(predicate.mask(data))[0]
        assert reference.strategy == "scan"
        assert np.array_equal(indexed.rowids, brute)
        assert np.array_equal(reference.rowids, brute)
        assert np.array_equal(
            indexed.values,
            data[brute],
            equal_nan=bool(np.issubdtype(data.dtype, np.floating)),
        )
    # repeated range predicates must have started scanning less than a scan
    stats = on.kernel.index_manager.stats
    assert stats.indexed_consultations > 0


def test_serial_vs_concurrent_shared_index_counters(tmp_path):
    """A shared index manager under the scheduler keeps counters identical.

    Two servers replay the same per-session command sequences — one
    serial without indexing, one concurrent with a shared index manager —
    and every session's deterministic counters must match exactly.
    """
    from repro.core.commands import ChooseAction, ShowColumn, Slide
    from repro.service import (
        LocalExplorationService,
        MultiSessionServer,
        SchedulerConfig,
    )

    rng = np.random.default_rng(7)
    data = rng.integers(0, 1_000, size=30_000, dtype=np.int64)

    def commands_for(seed: int):
        script_rng = np.random.default_rng(seed)
        commands = [ShowColumn(object_name="data", view_name="v")]
        for _ in range(6):
            commands.append(
                ChooseAction(view="v", action=scan_action(random_predicate(script_rng)))
            )
            a, b = script_rng.random(), script_rng.random()
            commands.append(
                Slide(
                    view="v",
                    duration=0.4,
                    start_fraction=min(a, b),
                    end_fraction=max(a, b),
                )
            )
        return commands

    def run(server: MultiSessionServer) -> dict[str, dict]:
        server.load_shared_column("data", Column("data", data))
        counters = {}
        sessions = [server.open_session(f"s{i}") for i in range(4)]
        for offset, sid in enumerate(sessions):
            for command in commands_for(100 + offset):
                server.execute(sid, command)
        server.drain(timeout=30.0)
        for sid in sessions:
            counters[sid] = server.metrics(sid).counters_snapshot()
        server.shutdown()
        return counters

    serial = run(
        MultiSessionServer(
            service_factory=lambda: LocalExplorationService(
                profile=FAST_PROFILE, config=KernelConfig(enable_indexing=False)
            )
        )
    )
    concurrent = run(
        MultiSessionServer(
            service_factory=lambda: LocalExplorationService(profile=FAST_PROFILE),
            scheduler=SchedulerConfig(num_workers=4),
            shared_index=True,
        )
    )
    assert serial == concurrent

@pytest.mark.parametrize("kind", ["int64", "float64", "float64-nan"])
@pytest.mark.parametrize("paged", [False, True])
def test_append_mid_script_bit_identical(tmp_path, kind, paged):
    """Live appends mid-script leave the differential property intact.

    Both arms replay the identical command history — gestures, bulk
    selections, and two ``session.append`` batches landing between script
    segments — and every observable outcome must match bit for bit.  The
    indexed arm additionally proves the appends *extended* its indexes'
    validity windows rather than invalidating them, and that a mid-run
    background-style ``merge_index_tails`` is outcome-invisible too.
    """
    seed = 47
    data_rng = np.random.default_rng(seed)
    base = make_column_data(data_rng, kind, 8_000)
    batches = [make_column_data(data_rng, kind, 500) for _ in range(2)]
    on, off = indexed_and_reference_sessions()
    results = []
    for arm, session in enumerate((on, off)):
        if paged:
            store = DiskColumnStore(tmp_path / f"store-{arm}", cache_bytes=1 << 20)
            catalog = StoreCatalog(store)
            catalog.persist_column(Column("data", base.copy()), chunk_rows=1024)
            session.service.catalog.register_column(catalog.load_column("data"))
        else:
            session.load_column("data", base.copy())
        view = session.show_column("data")
        script_rng = np.random.default_rng(seed + 1)
        fingerprints = []
        for batch in (None, batches[0], batches[1]):
            if batch is not None:
                new_length = session.append("data", values=batch.tolist())
                fingerprints.append(("appended", new_length))
            fingerprints.extend(drive_column_script(session, view, script_rng))
            for _ in range(4):
                predicate = random_predicate(script_rng)
                selection = session.select_where(view.name, predicate)
                fingerprints.append(
                    ("select", normalize(selection.rowids), normalize(selection.values))
                )
            if batch is batches[0]:
                # merging the hot tail mid-run must not change any outcome
                session.service.merge_index_tails()
        results.append(fingerprints)
    assert results[0] == results[1]
    stats = on.kernel.index_manager.stats_snapshot()
    # the appends narrowed validity windows; they never tore the index down
    assert stats["prefix_extensions"] >= 2
    assert stats["invalidations"] == 0


@pytest.mark.parametrize("kind", ["int64", "float64-nan"])
def test_preload_vs_incremental_append_converge(kind):
    """Preloading everything vs. arriving incrementally: same end state.

    One indexed session loads base+tail up front; the other loads only the
    base, then ingests the tail in two ``session.append`` batches (with a
    tail merge between them).  Once both hold the same rows, identical
    gesture scripts and bulk selections must produce bit-identical
    outcomes — the index's very different build histories notwithstanding.
    Caching is disabled so outcomes are a pure function of data + command.
    """
    seed = 53
    data_rng = np.random.default_rng(seed)
    base = make_column_data(data_rng, kind, 6_000)
    tail = make_column_data(data_rng, kind, 1_000)
    full = np.concatenate([base, tail])

    def fresh_session():
        return ExplorationSession(
            profile=FAST_PROFILE,
            config=KernelConfig(enable_indexing=True),
        )

    results = []
    for preloaded in (True, False):
        session = fresh_session()
        session.load_column("data", (full if preloaded else base).copy())
        view = session.show_column("data")
        warm_rng = np.random.default_rng(seed + 1)
        for _ in range(6):  # index each arm along its own history
            session.select_where(view.name, random_predicate(warm_rng))
        if not preloaded:
            session.append("data", values=tail[:400].tolist())
            session.service.merge_index_tails()
            session.append("data", values=tail[400:].tolist())
        script_rng = np.random.default_rng(seed + 2)
        fingerprints = drive_column_script(session, view, script_rng)
        for _ in range(8):
            predicate = random_predicate(script_rng)
            selection = session.select_where(view.name, predicate)
            brute = np.nonzero(predicate.mask(full))[0]
            assert np.array_equal(selection.rowids, brute)
            fingerprints.append(("select", normalize(selection.values)))
        results.append(fingerprints)
    assert results[0] == results[1]
