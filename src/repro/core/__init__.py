"""The dbTouch kernel: the paper's primary contribution.

The core subpackage maps touch gestures onto query-processing actions:

* :mod:`repro.core.touch_mapping` — the Rule-of-Three touch → rowid map;
* :mod:`repro.core.actions` — declarative query actions bound to objects;
* :mod:`repro.core.commands` — serializable gesture commands and scripts;
* :mod:`repro.core.summaries` — interactive summaries;
* :mod:`repro.core.caching` — join hash-table reuse;
* :mod:`repro.core.optimizer` — adaptive, on-the-fly optimization;
* :mod:`repro.core.result_stream` — in-place, fading result presentation;
* :mod:`repro.core.kernel` — the kernel that executes gestures;
* :mod:`repro.core.scheduler` — the concurrent multi-session gesture
  scheduler (worker pool, per-session FIFO, admission control);
* :mod:`repro.core.session` — the high-level exploration facade.
"""

from repro.core.actions import (
    ActionKind,
    QueryAction,
    aggregate_action,
    group_by_action,
    scan_action,
    select_where_action,
    summary_action,
)
from repro.core.caching import HashTableCache
from repro.core.commands import (
    ChooseAction,
    DragColumnOut,
    GestureCommand,
    GestureScript,
    GroupColumns,
    Pan,
    Rotate,
    ShowColumn,
    ShowTable,
    Slide,
    SlidePath,
    Tap,
    TimedCommand,
    UngroupTable,
    ZoomIn,
    ZoomOut,
)
from repro.core.kernel import DbTouchKernel, GestureOutcome, KernelConfig
from repro.core.optimizer import AdaptiveOptimizer
from repro.core.result_stream import ResultStream, ResultValue
from repro.core.scheduler import GestureScheduler, SchedulerConfig, SchedulerStats
from repro.core.schema_gestures import SchemaGestureOutcome, SchemaGestures
from repro.core.session import ExplorationSession, SessionSummary
from repro.core.summaries import InteractiveSummarizer
from repro.core.touch_mapping import MappedTouch, TouchMapper

__all__ = [
    "ActionKind",
    "AdaptiveOptimizer",
    "ChooseAction",
    "DbTouchKernel",
    "DragColumnOut",
    "ExplorationSession",
    "GestureCommand",
    "GestureOutcome",
    "GestureScheduler",
    "GestureScript",
    "GroupColumns",
    "HashTableCache",
    "InteractiveSummarizer",
    "KernelConfig",
    "MappedTouch",
    "Pan",
    "QueryAction",
    "ResultStream",
    "ResultValue",
    "Rotate",
    "SchedulerConfig",
    "SchedulerStats",
    "SchemaGestureOutcome",
    "SchemaGestures",
    "SessionSummary",
    "ShowColumn",
    "ShowTable",
    "Slide",
    "SlidePath",
    "Tap",
    "TimedCommand",
    "TouchMapper",
    "UngroupTable",
    "ZoomIn",
    "ZoomOut",
    "aggregate_action",
    "group_by_action",
    "scan_action",
    "select_where_action",
    "summary_action",
]
