"""Exception hierarchy for the dbTouch reproduction.

Every error raised by the library derives from :class:`DbTouchError` so
applications can catch library failures with a single ``except`` clause
while still being able to discriminate the individual failure modes.
"""

from __future__ import annotations


class DbTouchError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class StorageError(DbTouchError):
    """Problems in the storage layer (columns, tables, layouts, samples)."""


class SchemaError(StorageError):
    """A schema constraint was violated (unknown column, type mismatch...)."""


class CatalogError(StorageError):
    """A catalog lookup or registration failed."""


class LayoutError(StorageError):
    """A physical-layout operation (rotation, projection) failed."""


class SampleError(StorageError):
    """A sample-hierarchy operation failed."""


class LoaderError(StorageError):
    """Input data could not be read or decoded by a loader."""


class IngestError(StorageError):
    """A live append was refused (dtype drift, schema mismatch, read-only data)."""


class PersistError(StorageError):
    """Problems in the out-of-core persistent storage tier."""


class PersistFormatError(PersistError):
    """An on-disk column file is malformed, truncated or of a foreign version."""


class SnapshotError(PersistError):
    """A store-catalog manifest is missing, corrupted or of a foreign version."""


class TouchError(DbTouchError):
    """Problems in the simulated touch OS layer."""


class ViewError(TouchError):
    """A view-hierarchy operation failed (bad geometry, unknown view...)."""


class GestureError(TouchError):
    """A gesture could not be synthesized or recognized."""


class MappingError(DbTouchError):
    """A touch location could not be mapped to a tuple identifier."""


class ExecutionError(DbTouchError):
    """An operator failed while processing touch-driven input."""


class QueryError(ExecutionError):
    """A query action or plan is malformed."""


class OptimizationError(DbTouchError):
    """The adaptive optimizer could not produce a decision."""


class CommandError(DbTouchError):
    """A gesture command or script is malformed or cannot be decoded."""


class ServiceError(DbTouchError):
    """An exploration service could not execute a command or host a session."""


class AdmissionError(ServiceError):
    """The serving engine refused new work (queues full or backpressure timeout)."""


class ProtocolError(DbTouchError):
    """A wire-protocol frame or envelope violated the serving protocol."""


class MalformedFrameError(ProtocolError):
    """A frame could not be decoded (bad JSON, wrong shape, bad envelope)."""


class FrameTooLargeError(ProtocolError):
    """A frame exceeded the protocol's maximum frame size."""


class UnknownVerbError(ProtocolError):
    """A request named a verb the serving protocol does not define."""


class WorkerCrashedError(ServiceError):
    """A shard's worker process died; sessions pinned to it are lost."""


class RemoteError(DbTouchError):
    """The simulated remote-processing layer failed."""


class NetworkTimeoutError(RemoteError):
    """A simulated remote request exceeded its deadline."""


class BaselineError(DbTouchError):
    """The monolithic baseline engine failed (bad SQL, unknown table...)."""


class WorkloadError(DbTouchError):
    """A workload or scenario could not be generated."""


class ContestError(WorkloadError):
    """The exploration-contest harness was misconfigured."""


class VisualizationError(DbTouchError):
    """A visualization object could not be built or rendered."""


class MetricsError(DbTouchError):
    """Metric collection or reporting failed."""
