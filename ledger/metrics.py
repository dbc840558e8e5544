"""The ledger's metric catalogue: every name it prints, once.

``BENCHMARK.json`` repeats these names with their regression bounds (the
smoke test keeps the two in step); ``ledger/README.md`` says which
end-to-end metric each per-layer metric is expected to move.
"""

from __future__ import annotations

import math

#: (name, unit, better) — what a user of the system sees, on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("gesture_p50_ms", "ms", "lower"),
    ("gesture_p95_ms", "ms", "lower"),
    ("gestures_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) — single layers, from the traced run.  A metric of a
#: layer the workload never enters reads 0.
PER_LAYER = (
    ("touchio.synthesize_ms", "ms", "lower"),
    ("touchio.recognize_ms", "ms", "lower"),
    ("touchio.touches_per_gesture", "count", "lower"),
    ("core.kernel_ms", "ms", "lower"),
    ("core.batch_fallback_frac", "frac", "lower"),
    ("core.cache_hit_frac", "frac", "higher"),
    ("core.prefetch_hit_frac", "frac", "higher"),
    ("core.tuples_per_entry", "count", "lower"),
    ("core.touch_latency_max_us", "us", "lower"),
    ("core.scheduler_hop_ms", "ms", "lower"),
    ("service.envelope_ms", "ms", "lower"),
    ("service.slide_p50_ms", "ms", "lower"),
    ("service.tap_p50_ms", "ms", "lower"),
    ("service.select_p50_ms", "ms", "lower"),
    ("service.append_p50_ms", "ms", "lower"),
    ("service.merge_p50_ms", "ms", "lower"),
    ("service.gesture_p99_ms", "ms", "lower"),
    ("service.gesture_max_ms", "ms", "lower"),
    ("service.failed_frac", "frac", "lower"),
    ("storage.append_rows_per_s", "1/s", "higher"),
    ("storage.load_column_s", "s", "lower"),
    ("persist.read_ms", "ms", "lower"),
    ("persist.chunk_faults_per_gesture", "count", "lower"),
    ("persist.chunk_evictions_per_gesture", "count", "lower"),
    ("persist.chunk_hit_frac", "frac", "higher"),
    ("persist.persist_s", "s", "lower"),
    ("persist.open_snapshot_s", "s", "lower"),
    ("persist.disk_bytes_per_data_byte", "ratio", "lower"),
    ("indexing.select_ms", "ms", "lower"),
    ("indexing.refine_ms", "ms", "lower"),
    ("indexing.merge_tails_ms", "ms", "lower"),
    ("indexing.rows_scanned_per_match", "count", "lower"),
    ("indexing.indexed_frac", "frac", "higher"),
    ("indexing.cracks", "count", "lower"),
    ("indexing.piece_count", "count", "lower"),
    ("indexing.cracker_bytes", "bytes", "lower"),
    ("indexing.tail_merges", "count", "lower"),
    ("serving.hello_rtt_ms", "ms", "lower"),
    ("serving.wire_overhead_p50_ms", "ms", "lower"),
    ("serving.encode_us", "us", "lower"),
    ("serving.decode_us", "us", "lower"),
    ("serving.request_bytes", "bytes", "lower"),
    ("serving.response_bytes", "bytes", "lower"),
    ("serving.worker_queue_wait_ms", "ms", "lower"),
    ("serving.worker_kernel_ms", "ms", "lower"),
    ("serving.transport_ms", "ms", "lower"),
    ("serving.fleet_start_s", "s", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
)


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in ``(0, 1]``)."""
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]
