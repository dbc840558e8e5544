"""repro — a Python reproduction of *dbTouch: Analytics at your Fingertips*.

dbTouch (Idreos & Liarou, CIDR 2013) proposes database kernels tailored for
touch-based data exploration: data objects are drawn as shapes, gestures
are the query language, the user controls the data flow, and the system
processes only the data the gesture points at while staying interactive.

The public API has two layers.  The **command protocol** expresses an
exploration as data: gestures are serializable
:class:`~repro.core.commands.GestureCommand` objects collected into
:class:`~repro.GestureScript` containers with a JSON round-trip, and any
:class:`~repro.service.ExplorationService` backend can execute them — the
in-process :class:`~repro.LocalExplorationService`, the simulated
split-deployment :class:`~repro.RemoteExplorationService` (device-local
samples, server-side base data, a network policy per touch), or a
:class:`~repro.MultiSessionServer` hosting many isolated sessions.  The
**session facade**, :class:`~repro.ExplorationSession`, keeps the familiar
imperative surface: every method builds a command, executes it on the
backing service, and can record the whole run as a replayable script.

>>> from repro import ExplorationSession, GestureScript, LocalExplorationService
>>> session = ExplorationSession()
>>> _ = session.load_column("measurements", range(1_000_000))
>>> script = session.record()
>>> view = session.show_column("measurements", height_cm=10.0)
>>> session.choose_summary(view, k=10, aggregate="avg")
>>> outcome = session.slide(view, duration=2.0)
>>> outcome.entries_returned > 0
True
>>> replica = LocalExplorationService()
>>> _ = replica.load_column("measurements", range(1_000_000))
>>> envelopes = replica.run(GestureScript.from_json(script.to_json()))
>>> envelopes[-1].entries_returned == outcome.entries_returned
True

Subpackages
-----------
``repro.core``
    The dbTouch kernel (touch mapping, gestures, commands, summaries,
    adaptivity) and the session facade.
``repro.service``
    The backend-agnostic exploration protocol, the in-process backend
    and the multi-session server.
``repro.storage``
    Fixed-width numpy columns, tables, layouts, sample hierarchies.
``repro.persist``
    The out-of-core tier: mmap-backed chunked column files, the
    byte-budgeted chunk cache and snapshot catalogs for warm
    cold-starts.
``repro.touchio``
    The simulated touch OS: views, devices, gesture synthesis/recognition.
``repro.engine``
    Touch-driven operators: aggregates, predicates, joins, group-by.
``repro.indexing``
    The value-sorted index and the adaptive
    :class:`~repro.indexing.manager.IndexManager` tier that builds one per
    column consulted by bulk range selections.
``repro.baseline``
    The monolithic "traditional DBMS" comparison engine.
``repro.remote``
    The simulated split deployment of the paper's Section 2.9: server,
    link and per-rowid client, and the
    :class:`~repro.RemoteExplorationService` backend that composes them
    with the local backend as its device side.
``repro.workloads``
    Synthetic data generators, scenarios (as gesture scripts) and the
    exploration contest.
``repro.viz``
    Data-object shapes and text rendering of the screen.
``repro.metrics``
    Collectors and reporters used by the benchmark harness.
``repro.obs``
    The telemetry plane: per-gesture distributed tracing
    (:class:`~repro.Tracer`), the central
    :class:`~repro.TelemetryRegistry` of counters/gauges/histograms with
    Prometheus text exposition, and the bounded
    :class:`~repro.FlightRecorder` of recent and slow gesture traces.
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
from repro.core.scheduler import GestureScheduler, SchedulerConfig, SchedulerStats
from repro.core.session import ExplorationSession, SessionSummary
from repro.errors import (
    AdmissionError,
    DbTouchError,
    LoaderError,
    PersistError,
    ProtocolError,
    SnapshotError,
    WorkerCrashedError,
)
from repro.indexing import IndexManager, RangeSelection
from repro.obs import (
    FlightRecorder,
    TelemetryRegistry,
    Trace,
    TraceConfig,
    TraceContext,
    Tracer,
    stitch_traces,
    trace_span,
)
from repro.persist import (
    ChunkCache,
    DiskColumnStore,
    PagedColumn,
    StoreCatalog,
)
from repro.remote import RemoteExplorationService
from repro.service import (
    ExplorationService,
    LocalExplorationService,
    MultiSessionServer,
    OutcomeEnvelope,
    SessionMetrics,
)
from repro.serving import (
    ShardedClient,
    ShardedServer,
    ShardedServerConfig,
    WorkerConfig,
    shard_for_session,
)
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.device import IPAD1, IPAD1_PROTOTYPE, DeviceProfile

__version__ = "0.9.0"

__all__ = [
    "ActionKind",
    "AdmissionError",
    "Catalog",
    "ChooseAction",
    "ChunkCache",
    "Column",
    "DbTouchError",
    "DbTouchKernel",
    "DeviceProfile",
    "DiskColumnStore",
    "DragColumnOut",
    "ExplorationService",
    "ExplorationSession",
    "FlightRecorder",
    "GestureCommand",
    "GestureOutcome",
    "GestureScheduler",
    "GestureScript",
    "GroupColumns",
    "IPAD1",
    "IndexManager",
    "IPAD1_PROTOTYPE",
    "KernelConfig",
    "LoaderError",
    "LocalExplorationService",
    "MultiSessionServer",
    "OutcomeEnvelope",
    "PagedColumn",
    "Pan",
    "PersistError",
    "ProtocolError",
    "QueryAction",
    "RangeSelection",
    "RemoteExplorationService",
    "Rotate",
    "SchedulerConfig",
    "SchedulerStats",
    "SessionMetrics",
    "SessionSummary",
    "ShardedClient",
    "ShardedServer",
    "ShardedServerConfig",
    "ShowColumn",
    "ShowTable",
    "Slide",
    "SlidePath",
    "SnapshotError",
    "StoreCatalog",
    "Table",
    "Tap",
    "TelemetryRegistry",
    "TimedCommand",
    "Trace",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "UngroupTable",
    "WorkerConfig",
    "WorkerCrashedError",
    "ZoomIn",
    "ZoomOut",
    "aggregate_action",
    "group_by_action",
    "scan_action",
    "select_where_action",
    "shard_for_session",
    "stitch_traces",
    "summary_action",
    "trace_span",
    "__version__",
]
