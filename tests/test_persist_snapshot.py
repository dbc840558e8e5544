"""Unit tests for the snapshot catalog and deferred hierarchy materialization."""

import json

import numpy as np
import pytest

from repro.core.scheduler import GestureScheduler, SchedulerConfig
from repro.engine.filter import Comparison, Predicate
from repro.errors import SnapshotError
from repro.indexing.manager import IndexManager
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy
from repro.storage.table import Table


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


def make_catalog(root):
    return StoreCatalog(DiskColumnStore(root, cache_bytes=1 << 20))


def make_table(n=20_000):
    rng = np.random.default_rng(11)
    return Table.from_arrays(
        "readings",
        {
            "a": rng.integers(0, 1_000_000, n),
            "b": rng.normal(10.0, 2.0, n),
            "label": np.array([f"s{i % 7}" for i in range(n)]),
        },
    )


class TestRoundTrips:
    def test_table_schema_survives_reopen(self, root):
        table = make_table()
        make_catalog(root).persist_table(table, chunk_rows=1024)
        reopened = make_catalog(root).load_table("readings")
        assert reopened.schema == table.schema
        assert len(reopened) == len(table)
        for name in table.column_names:
            assert np.array_equal(
                reopened.column(name).values[:], table.column(name).values
            )

    def test_standalone_column_round_trip(self, root):
        column = Column("meas", np.arange(5000))
        make_catalog(root).persist_column(column, chunk_rows=512)
        reopened = make_catalog(root).load_column("meas")
        assert reopened.name == "meas"
        assert np.array_equal(reopened.values[:], column.values)

    def test_sample_level_contents_survive_reopen(self, root):
        column = Column("meas", np.arange(50_000))
        make_catalog(root).persist_column(column, factor=4, min_rows=64)
        hierarchy = make_catalog(root).load_hierarchy("meas")
        reference = SampleHierarchy(column, factor=4, min_rows=64)
        assert hierarchy.num_levels == reference.num_levels
        for loaded, built in zip(hierarchy.levels, reference.levels):
            assert loaded.step == built.step
            assert loaded.level == built.level
            assert np.array_equal(loaded.column.values[:], built.column.values)

    def test_zonemap_stats_survive_reopen(self, root):
        values = np.asarray([5, 1, 9, 3, 7, 7, 2, 8, 0, 6])
        make_catalog(root).persist_column(
            Column("z", values), hierarchy=False, chunk_rows=4
        )
        paged = make_catalog(root).load_column("z")
        assert paged.chunk_range(0) == (1, 9)
        assert paged.chunk_range(1) == (2, 8)
        assert paged.chunk_range(2) == (0, 6)

    def test_table_hierarchies_skip_non_numeric(self, root):
        catalog = make_catalog(root)
        catalog.persist_table(make_table(), chunk_rows=1024)
        reopened = make_catalog(root)
        assert reopened.hierarchy_steps("readings", "a")
        assert reopened.load_hierarchy("readings", "label") is None

    def test_existing_hierarchy_snapshotted_as_is(self, root):
        column = Column("meas", np.arange(10_000))
        hierarchy = SampleHierarchy(column, factor=8, min_rows=32)
        make_catalog(root).persist_column(column, hierarchy=hierarchy)
        steps = make_catalog(root).hierarchy_steps("meas")
        assert steps == [lvl.step for lvl in hierarchy.levels if lvl.step > 1]

    def test_name_collisions_rejected(self, root):
        catalog = make_catalog(root)
        catalog.persist_column(Column("x", np.arange(10)), hierarchy=False)
        with pytest.raises(SnapshotError):
            catalog.persist_table(Table.from_arrays("x", {"a": [1]}))

    def test_unknown_names_raise(self, root):
        catalog = make_catalog(root)
        with pytest.raises(SnapshotError):
            catalog.load_table("ghost")
        with pytest.raises(SnapshotError):
            catalog.load_column("ghost")


class TestManifestRobustness:
    def test_corrupted_manifest_raises_typed_error(self, root):
        catalog = make_catalog(root)
        catalog.persist_column(Column("m", np.arange(100)), hierarchy=False)
        catalog.manifest_path.write_text("{definitely not json")
        with pytest.raises(SnapshotError, match="corrupted"):
            make_catalog(root)

    def test_truncated_manifest_raises_typed_error(self, root):
        catalog = make_catalog(root)
        catalog.persist_column(Column("m", np.arange(100)), hierarchy=False)
        text = catalog.manifest_path.read_text()
        catalog.manifest_path.write_text(text[: len(text) // 2])
        with pytest.raises(SnapshotError):
            make_catalog(root)

    def test_foreign_version_raises_typed_error(self, root):
        catalog = make_catalog(root)
        catalog.persist_column(Column("m", np.arange(100)), hierarchy=False)
        payload = json.loads(catalog.manifest_path.read_text())
        payload["format_version"] = 99
        catalog.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="version"):
            make_catalog(root)

    def test_missing_sections_raise_typed_error(self, root):
        catalog = make_catalog(root)
        catalog.persist_column(Column("m", np.arange(100)), hierarchy=False)
        catalog.manifest_path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(SnapshotError, match="sections"):
            make_catalog(root)

    def test_malformed_record_raises_typed_error(self, root):
        catalog = make_catalog(root)
        catalog.persist_column(Column("m", np.arange(100)), hierarchy=False)
        payload = json.loads(catalog.manifest_path.read_text())
        del payload["columns"]["m"]["store_name"]
        catalog.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="malformed"):
            make_catalog(root)


class TestWarmStart:
    def test_attach_registers_everything(self, root):
        snapshot = make_catalog(root)
        snapshot.persist_table(make_table(), chunk_rows=1024)
        snapshot.persist_column(Column("meas", np.arange(10_000)))
        runtime = Catalog()
        names = make_catalog(root).attach(runtime)
        assert sorted(names) == ["meas", "readings"]
        assert runtime.table("readings").column_names == ["a", "b", "label"]
        assert runtime.column("meas").value_at(7) == 7

    def test_attach_skips_hierarchy_rebuild(self, root, monkeypatch):
        snapshot = make_catalog(root)
        snapshot.persist_column(Column("meas", np.arange(50_000)))
        runtime = Catalog()
        make_catalog(root).attach(runtime)

        def forbidden_build(self):  # pragma: no cover - failing is the assert
            raise AssertionError("warm start must not re-stride the base data")

        monkeypatch.setattr(SampleHierarchy, "_build", forbidden_build)
        hierarchy = runtime.hierarchy_for("meas")
        assert hierarchy.num_levels > 1
        value, level = hierarchy.read_at(40_000, stride_hint=16)
        assert level.step == 16


class TestReplace:
    """A replace leaves the snapshot attachable and the store holding only
    what the manifest names."""

    def test_replacing_a_table_forgets_the_old_schema(self, root):
        rng = np.random.default_rng(3)
        old = Table.from_arrays(
            "t", {"a": rng.integers(0, 1_000, 100_000), "b": rng.integers(0, 1_000, 100_000)}
        )
        catalog = make_catalog(root)
        catalog.persist_table(old)
        new = Table.from_arrays("t", {"a": np.arange(1_000)})
        catalog.persist_table(new, replace=True)
        assert list(catalog.iter_hierarchy_keys()) == [("t", "a")]
        # the dropped attribute's base and levels, and the levels 1k rows
        # no longer have, are gone from the store
        assert catalog.store.column_names == ["t/a", "t/a#s4"]
        for snapshot in (catalog, make_catalog(root), StoreCatalog.open_read_only(root)):
            runtime = Catalog()
            assert snapshot.attach(runtime) == ["t"]
            assert runtime.table("t").column_names == ["a"]
            assert runtime.hierarchy_for("t", "a").level(1).step == 4

    def test_replacing_an_indexed_column_deletes_its_levels(self, root):
        data = np.random.default_rng(4).integers(0, 1_000, 20_000)
        catalog = make_catalog(root)
        catalog.persist_column(Column("c", data))
        manager = IndexManager()
        manager.select_rowids("c", None, Column("c", data), Predicate(Comparison.LT, 100))
        # the index lives in RAM: the store holds the column and its levels
        suffixes = [name.partition("#")[2] for name in catalog.store.column_names]
        assert suffixes == ["", "s16", "s256", "s4", "s64"]
        catalog.persist_column(Column("c", np.arange(500)), hierarchy=False, replace=True)
        assert catalog.store.column_names == ["c"]
        assert np.array_equal(make_catalog(root).load_column("c").values[:], np.arange(500))


class TestOlderIndexFiles:
    """Snapshots written before indexes stopped being persisted still open;
    the index files they left are deleted by the next manifest write."""

    INDEX_FILES = ["hot#crk-d0", "hot#crk-r", "hot#crk-v", "hot#perm"]

    def test_manifests_without_indexes_section_still_load(self, root):
        catalog = make_catalog(root)
        catalog.persist_column(Column("c", np.arange(100, dtype=np.int64)))
        payload = json.loads(catalog.manifest_path.read_text())
        assert "indexes" not in payload
        for snapshot in (make_catalog(root), StoreCatalog.open_read_only(root)):
            assert snapshot.column_names == ["c"]

    def test_index_files_no_record_names_are_swept(self, root):
        data = np.random.default_rng(8).integers(0, 1_000, 5_000)
        catalog = make_catalog(root)
        catalog.persist_column(Column("hot", data), hierarchy=False)
        # a user column whose name merely ends like an index file
        catalog.persist_column(Column("x#perm", np.arange(10)), hierarchy=False)
        order = np.argsort(data, kind="stable").astype(np.int32)
        for name in self.INDEX_FILES:
            catalog.store.write_column(Column(name, order), name=name)
        # the manifest as older snapshots wrote it: an "indexes" section
        # naming the permutation, and a record of the two-array format
        payload = json.loads(catalog.manifest_path.read_text())
        payload["indexes"] = [
            {"object": "hot", "column": None, "num_rows": 5_000, "perm_store": "hot#perm"},
            {"object": "hot", "column": None, "values_store": "hot#crk-v",
             "rowids_store": "hot#crk-r", "deltas": [{"values_store": "hot#crk-d0"}]},
        ]  # fmt: skip
        catalog.manifest_path.write_text(json.dumps(payload))
        everything = sorted(["hot", "x#perm", *self.INDEX_FILES])

        # a read-only attacher opens it and deletes nothing
        runtime = Catalog()
        assert StoreCatalog.open_read_only(root).attach(runtime) == ["hot", "x#perm"]
        assert np.array_equal(runtime.column("hot").values[:], data)
        assert catalog.store.column_names == everything

        # a writable reopen's next manifest write sweeps them
        writable = make_catalog(root)
        assert writable.store.column_names == everything
        writable.persist_column(Column("fresh", np.arange(50)), hierarchy=False)
        assert writable.store.column_names == ["fresh", "hot", "x#perm"]
        payload = json.loads(writable.manifest_path.read_text())
        assert sorted(payload) == ["columns", "format_version", "hierarchies", "tables"]
        runtime = Catalog()
        assert make_catalog(root).attach(runtime) == ["fresh", "hot", "x#perm"]
        assert np.array_equal(runtime.column("x#perm").values[:], np.arange(10))


class TestBackgroundMaterialization:
    """Hierarchies persisted later: ``persist_hierarchy`` called directly
    or handed to a scheduler's background lane."""

    def test_synchronous_when_no_scheduler(self, root):
        snapshot = make_catalog(root)
        snapshot.persist_column(Column("meas", np.arange(50_000)), hierarchy=False)
        assert snapshot.load_hierarchy("meas") is None
        steps = snapshot.persist_hierarchy("meas")
        assert steps and steps[0] == 4
        assert snapshot.load_hierarchy("meas") is not None

    def test_builds_on_scheduler_background_lane(self, root):
        snapshot = make_catalog(root)
        table = make_table()
        snapshot.persist_table(table, hierarchies=False, chunk_rows=1024)
        assert snapshot.load_hierarchy("readings", "a") is None
        with GestureScheduler(SchedulerConfig(num_workers=2)) as scheduler:
            futures = {
                name: scheduler.submit_background(
                    lambda name=name: snapshot.persist_hierarchy("readings", name)
                )
                for name in table.column_names
            }
            assert sorted(futures) == ["a", "b", "label"]
            steps = {name: future.result(timeout=30) for name, future in futures.items()}
            assert scheduler.session_ids == []  # the lane is not a session
        assert steps["a"] and steps["b"]
        assert steps["label"] == []  # non-numeric: nothing to materialize
        reopened = make_catalog(root)
        assert reopened.hierarchy_steps("readings", "a") == steps["a"]
        assert reopened.load_hierarchy("readings", "b") is not None

    def test_background_builds_race_foreground_persists_losslessly(self, root):
        """Neither thread's manifest records may be lost to the other."""
        snapshot = make_catalog(root)
        for i in range(4):
            snapshot.persist_column(
                Column(f"col{i}", np.arange(20_000)), hierarchy=False
            )
        with GestureScheduler(SchedulerConfig(num_workers=2)) as scheduler:
            futures = [
                scheduler.submit_background(
                    lambda i=i: snapshot.persist_hierarchy(f"col{i}")
                )
                for i in range(4)
            ]
            # foreground keeps persisting while the lane builds hierarchies
            for i in range(4, 8):
                snapshot.persist_column(
                    Column(f"col{i}", np.arange(5_000)), hierarchy=False
                )
            for future in futures:
                assert future.result(timeout=30)
        reopened = make_catalog(root)
        assert reopened.column_names == [f"col{i}" for i in range(8)]
        for i in range(4):
            assert reopened.hierarchy_steps(f"col{i}")

    def test_materialized_levels_match_eager_build(self, root):
        snapshot = make_catalog(root)
        column = Column("meas", np.arange(30_000))
        snapshot.persist_column(column, hierarchy=False)
        snapshot.persist_hierarchy("meas")
        hierarchy = snapshot.load_hierarchy("meas")
        reference = SampleHierarchy(column)
        for loaded, built in zip(hierarchy.levels, reference.levels):
            assert np.array_equal(loaded.column.values[:], built.column.values)
