"""Unit tests for the catalog."""

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table


@pytest.fixture
def catalog(small_table, small_column):
    cat = Catalog()
    cat.register_table(small_table)
    cat.register_column(small_column)
    return cat


class TestRegistration:
    def test_register_and_lookup(self, catalog, small_table, small_column):
        assert catalog.table("events") is small_table
        assert catalog.column("small") is small_column

    def test_duplicate_table_rejected(self, catalog, small_table):
        with pytest.raises(CatalogError):
            catalog.register_table(small_table)

    def test_duplicate_table_replace(self, catalog, small_table):
        catalog.register_table(small_table, replace=True)
        assert catalog.table("events") is small_table

    def test_duplicate_column_rejected(self, catalog, small_column):
        with pytest.raises(CatalogError):
            catalog.register_column(small_column)

    def test_name_collision_between_kinds(self, catalog):
        with pytest.raises(CatalogError):
            catalog.register_column(Column("events", [1, 2]))
        with pytest.raises(CatalogError):
            catalog.register_table(Table.from_arrays("small", {"x": [1]}))

class TestLookups:
    def test_contains_and_iter(self, catalog):
        assert "events" in catalog
        assert "small" in catalog
        assert set(catalog) == {"events", "small"}

    def test_names(self, catalog):
        assert catalog.table_names == ["events"]
        assert catalog.column_names == ["small"]

    def test_unknown_table(self, catalog):
        with pytest.raises(CatalogError):
            catalog.table("missing")

    def test_unknown_column(self, catalog):
        with pytest.raises(CatalogError):
            catalog.column("missing")

    def test_resolve_standalone_column(self, catalog, small_column):
        assert catalog.resolve_column("small") is small_column

    def test_resolve_table_column(self, catalog, small_table):
        assert catalog.resolve_column("events", "value") is small_table.column("value")

    def test_resolve_missing_standalone(self, catalog):
        with pytest.raises(CatalogError):
            catalog.resolve_column("events")  # a table needs a column name


class TestDescribe:
    def test_describe_table(self, catalog, small_table):
        info = catalog.describe("events")
        assert info.kind == "table"
        assert info.num_rows == len(small_table)
        assert info.num_columns == small_table.num_columns
        assert info.column_names == tuple(small_table.column_names)

    def test_describe_column(self, catalog, small_column):
        info = catalog.describe("small")
        assert info.kind == "column"
        assert info.num_rows == len(small_column)
        assert info.num_columns == 1

    def test_describe_unknown(self, catalog):
        with pytest.raises(CatalogError):
            catalog.describe("missing")

    def test_describe_all(self, catalog):
        infos = catalog.describe_all()
        assert {i.name for i in infos} == {"events", "small"}


class TestHierarchies:
    def test_hierarchy_built_lazily_and_cached(self, catalog):
        h1 = catalog.hierarchy_for("small")
        h2 = catalog.hierarchy_for("small")
        assert h1 is h2

    def test_hierarchy_for_table_column(self, catalog):
        h = catalog.hierarchy_for("events", "value")
        assert h.base.name == "value"
