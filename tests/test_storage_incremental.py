"""Unit tests for incremental layout rotation."""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.storage.incremental import IncrementalRotation
from repro.storage.layout import LayoutKind
from repro.storage.table import Table


@pytest.fixture
def table():
    n = 10_000
    return Table.from_arrays(
        "t",
        {
            "a": np.arange(n, dtype=np.int64),
            "b": np.arange(n, dtype=np.int64) * 3,
        },
    )


class TestSetup:
    def test_target_kind_is_opposite(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE)
        assert rot.target_kind is LayoutKind.COLUMN_STORE
        rot = IncrementalRotation(table, LayoutKind.COLUMN_STORE)
        assert rot.target_kind is LayoutKind.ROW_STORE

    def test_hybrid_source_rejected(self, table):
        with pytest.raises(LayoutError):
            IncrementalRotation(table, "hybrid")

    def test_bad_step_rows(self, table):
        with pytest.raises(LayoutError):
            IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=0)

    def test_full_conversion_cost(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE)
        assert rot.full_conversion_cost_cells == len(table) * table.num_columns


class TestStepConversion:
    def test_single_step_converts_step_rows(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=1000)
        progress = rot.convert_step()
        assert progress.converted_rows == 1000
        assert progress.cells_copied == 1000 * table.num_columns
        assert not progress.complete

    def test_convert_all(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=3000)
        progress = rot.convert_all()
        assert progress.complete
        assert progress.converted_rows == len(table)
        assert progress.cells_copied == rot.full_conversion_cost_cells

    def test_step_after_complete_is_noop(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=len(table))
        rot.convert_step()
        steps_before = rot.progress.steps_taken
        rot.convert_step()
        assert rot.progress.steps_taken == steps_before

    def test_fraction_converted(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=2500)
        rot.convert_step()
        assert rot.progress.fraction_converted == pytest.approx(0.25)

    def test_convert_rows_for_sample(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE)
        progress = rot.convert_rows_for_sample(0.1)
        assert progress.converted_rows == pytest.approx(0.1 * len(table), abs=1)

    def test_convert_rows_for_sample_validation(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE)
        with pytest.raises(LayoutError):
            rot.convert_rows_for_sample(0.0)
        with pytest.raises(LayoutError):
            rot.convert_rows_for_sample(1.5)

    def test_sample_then_larger_sample_is_incremental(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE)
        rot.convert_rows_for_sample(0.1)
        cells_after_first = rot.progress.cells_copied
        rot.convert_rows_for_sample(0.2)
        assert rot.progress.cells_copied == pytest.approx(
            2 * cells_after_first, rel=0.05
        )


class TestReadsDuringConversion:
    def test_converted_rows_read_from_target(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=1000)
        rot.convert_step()
        value = rot.read_tuple(10)["b"]
        assert value == 30
        assert rot.progress.reads_from_target == 1
        assert rot.progress.reads_from_source == 0

    def test_unconverted_rows_read_from_source(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=1000)
        rot.convert_step()
        value = rot.read_tuple(5000)["b"]
        assert value == 15000
        assert rot.progress.reads_from_source == 1

    def test_read_tuple_routing(self, table):
        rot = IncrementalRotation(table, LayoutKind.ROW_STORE, step_rows=100)
        rot.convert_step()
        assert rot.read_tuple(50)["a"] == 50
        assert rot.read_tuple(5000)["a"] == 5000
        assert rot.progress.reads_from_target == 1
        assert rot.progress.reads_from_source == 1
