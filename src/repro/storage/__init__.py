"""Storage substrate: fixed-width numpy columns, tables, layouts and samples.

This subpackage provides everything below the dbTouch kernel:

* :mod:`repro.storage.dtypes` — the fixed-width type system;
* :mod:`repro.storage.column` — dense, fixed-width columns;
* :mod:`repro.storage.table` — tables and schemas;
* :mod:`repro.storage.layout` — row/column physical layouts;
* :mod:`repro.storage.incremental` — incremental layout rotation;
* :mod:`repro.storage.sample` — Sciborg-style sample hierarchies;
* :mod:`repro.storage.catalog` — the registry of explorable data objects;
* :mod:`repro.storage.loader` — CSV and generated-column loading.
"""

from repro.storage.catalog import Catalog, ObjectInfo
from repro.storage.column import CACHE_LINE_VALUES, Column
from repro.storage.dtypes import FixedWidthType, infer_type, type_from_name
from repro.storage.incremental import IncrementalRotation
from repro.storage.layout import (
    ColumnStoreLayout,
    LayoutKind,
    PhysicalLayout,
    RowStoreLayout,
    conversion_cost_cells,
)
from repro.storage.loader import generate_integer_column, load_table_from_csv_file
from repro.storage.sample import SampleHierarchy, SampleLevel
from repro.storage.table import Schema, Table

__all__ = [
    "CACHE_LINE_VALUES",
    "Catalog",
    "Column",
    "ColumnStoreLayout",
    "FixedWidthType",
    "IncrementalRotation",
    "LayoutKind",
    "ObjectInfo",
    "PhysicalLayout",
    "RowStoreLayout",
    "SampleHierarchy",
    "SampleLevel",
    "Schema",
    "Table",
    "conversion_cost_cells",
    "generate_integer_column",
    "infer_type",
    "load_table_from_csv_file",
    "type_from_name",
]
