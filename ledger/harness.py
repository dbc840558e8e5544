"""Run one workload: set up, measure, check, and name every metric.

``run_workload`` is what ``python3 -m ledger --workload ...`` executes.
Untraced it reports the end-to-end metrics; traced it alternates untraced
and traced rounds and reports the per-layer metrics (so the tracing
overhead is the difference between rounds of the same run).

All loops are closed: a caller issues its next op when the previous one
has answered, with no think time.

Every round replays the same script on a fresh instance, so op ``i`` of one
round is the same work as op ``i`` of the next.  The ledger therefore keeps,
for each op, the fastest time it saw across the run's rounds before taking
percentiles: on a shared host, other tenants only ever add time, in bursts
that last seconds, and the floor is what repeats from run to run.  Costs the
program causes itself (its garbage collections included, which fall on the
same ops every round) stay in that floor.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.batch import BatchSlideExecutor
from repro.core.kernel import DbTouchKernel, GestureOutcome, KernelConfig
from repro.indexing.manager import IndexManager, RangeSelection
from repro.persist.paged_column import PagedColumn
from repro.service import OutcomeEnvelope
from repro.serving.protocol import Request, Response, decode_frame, encode_frame
from repro.storage.column import Column
from repro.touchio.recognizer import GestureRecognizer
from repro.touchio.synthesizer import GestureSynthesizer

from ledger.deployments import (
    Deployment,
    FleetDeployment,
    LocalDeployment,
    PagedDeployment,
    Round,
    SchedulerDeployment,
    SessionDeployment,
    clean_workdir,
)
from ledger.metrics import END_TO_END, PER_LAYER, nearest_rank
from ledger.tracer import LedgerTracer
from ledger.workloads import FULL, GENERATORS, SMOKE, Inputs, Op, Scale

#: Spare set-ups after each round (``setup_s`` is the fastest set-up of the
#: run, so its samples are spread over the run rather than taken in one
#: burst): at most this many, and at most this share of the measuring time —
#: ten for a service that opens in a millisecond, one for a fleet.
SPARE_SETUPS = 10
SPARE_SETUP_SHARE = 0.03
#: Frames timed standalone for ``serving.encode_us`` / ``decode_us``.
FRAME_SAMPLES = 1000


def oracle_config() -> KernelConfig:
    """The reference replay's kernel: per-touch loop, no adaptive index.

    The two mechanisms most likely to be optimised (the batch slide kernel
    and cracking) are both switched off, so expected counters come from
    the repository's own reference paths rather than from the code under
    measurement.
    """
    return KernelConfig(latency_budget_s=1e6, batch_execution=False, enable_indexing=False)


# --------------------------------------------------------------------- #
# what an op produced, reduced to something two runs can compare
# --------------------------------------------------------------------- #
def _rowid_record(rowids: np.ndarray) -> tuple:
    data = np.ascontiguousarray(rowids, dtype=np.int64)
    return (int(data.size), zlib.crc32(data.tobytes()))


def record_of(op: Op, out: Any) -> tuple:
    """The checked surface of one op's result."""
    if op.cls == "select":
        return _rowid_record(out.rowids)
    if op.cls == "append":
        return (int(out.payload["num_rows"]),)
    if op.cls == "merge":
        return ()  # index-tier maintenance: invisible in outcomes by contract
    return (
        int(out.entries_returned),
        int(out.tuples_examined),
        int(out.cache_hits),
        int(out.prefetch_hits),
    )


def reference_records(inputs: Inputs) -> list[list[tuple]]:
    """Expected records: a serial in-memory replay plus brute-force selections."""
    expected = []
    oracle = LocalDeployment(inputs, oracle_config).open_round()
    for call, script in zip(oracle.callers, inputs.scripts):
        truth, rows = _select_truth(inputs, script.ops)
        records = []
        for op in script.ops:
            if op.cls == "select":
                mask = op.predicate.mask(truth[:rows])
                records.append(_rowid_record(np.nonzero(mask)[0]))
            elif op.cls == "merge":
                records.append(())
            else:
                records.append(record_of(op, call(op)))
                if op.cls == "append":
                    batch = op.command.values
                    truth[rows : rows + len(batch)] = batch
                    rows += len(batch)
        expected.append(records)
    return expected


def _select_truth(inputs: Inputs, ops: list[Op]) -> tuple[np.ndarray, int]:
    """The column bulk selections restrict, with room for every append."""
    if inputs.select_source is None:
        return np.empty(0), 0
    name, column = inputs.select_source
    base = inputs.columns[name] if column is None else inputs.tables[name][column]
    grown = sum(len(op.command.values) for op in ops if op.cls == "append")
    truth = np.empty(len(base) + grown, dtype=base.dtype)
    truth[: len(base)] = base
    return truth, len(base)


# --------------------------------------------------------------------- #
# one round
# --------------------------------------------------------------------- #
@dataclass
class CallerResult:
    latencies: list[float]  # NaN where the op raised
    records: list[tuple]  # ("raised", error) where the op raised
    outcomes: "OutcomeCounts"


@dataclass
class OutcomeCounts:
    """Counts read off the results at the caller's side of the boundary."""

    counts: Counter = field(default_factory=Counter)
    touch_latency_max_s: list[float] = field(default_factory=list)

    def absorb(self, op: Op, out: Any) -> None:
        counts = self.counts
        if isinstance(out, RangeSelection):
            counts["select_rows_scanned"] += int(out.rows_scanned)
            counts["select_matches"] += int(out.rowids.size)
        elif isinstance(out, OutcomeEnvelope) and isinstance(out.payload, GestureOutcome):
            outcome = out.payload
            counts["entries"] += int(out.entries_returned)
            counts["tuples"] += int(out.tuples_examined)
            counts["cache_hits"] += int(out.cache_hits)
            counts["cache_misses"] += int(outcome.cache_misses)
            counts["prefetch_hits"] += int(out.prefetch_hits)
            counts["rows_touched"] += len(outcome.rowids_touched)
            if op.cls in ("slide", "tap"):
                self.touch_latency_max_s.append(float(out.max_touch_latency_s))
        elif op.cls == "append":
            counts["rows_appended"] += len(op.command.values)

    def merge(self, other: "OutcomeCounts") -> None:
        self.counts.update(other.counts)
        self.touch_latency_max_s.extend(other.touch_latency_max_s)


def run_caller(call: Callable[[Op], Any], ops: list[Op]) -> CallerResult:
    """Issue ``ops`` one after another, timing each from the caller's side."""
    clock = time.perf_counter
    latencies: list[float] = []
    records: list[tuple] = []
    outcomes = OutcomeCounts()
    for op in ops:
        t0 = clock()
        try:
            out = call(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result, counted by the caller
            latencies.append(float("nan"))
            records.append(("raised", repr(exc)))
            continue
        latencies.append(clock() - t0)
        records.append(record_of(op, out))
        outcomes.absorb(op, out)
    return CallerResult(latencies, records, outcomes)


def run_callers(round_: Round, scripts_ops: list[list[Op]]) -> list[CallerResult]:
    """Run every caller of a round; concurrent callers start together."""
    if not round_.concurrent:
        return [run_caller(call, ops) for call, ops in zip(round_.callers, scripts_ops)]
    results: list[CallerResult | None] = [None] * len(round_.callers)
    barrier = threading.Barrier(len(round_.callers))

    def drive(index: int) -> None:
        barrier.wait()
        results[index] = run_caller(round_.callers[index], scripts_ops[index])

    threads = [
        threading.Thread(target=drive, args=(i,), name=f"ledger-caller-{i}")
        for i in range(len(round_.callers))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def install_layers(tracer: LedgerTracer, counts: Counter) -> None:
    """Mark the layer boundaries: public entry points, wrapped by attribute."""

    def touches(stream) -> None:
        counts["streams"] += 1
        counts["touches"] += len(stream)

    def batch(outcome) -> None:
        counts["batch_calls"] += 1
        counts["batch_fallbacks"] += outcome is None

    tracer.wrap(GestureSynthesizer, "slide", "touchio.synthesize")
    for attr in ("slide_path", "tap", "zoom"):
        tracer.wrap(GestureSynthesizer, attr, "touchio.synthesize", touches)
    tracer.wrap(GestureRecognizer, "recognize", "touchio.recognize")
    tracer.wrap(DbTouchKernel, "handle_gesture", "core.kernel")
    tracer.wrap(DbTouchKernel, "select_where", "core.kernel")
    tracer.wrap(BatchSlideExecutor, "execute", None, batch)
    tracer.wrap(Column, "append_batch", "storage.append")
    for attr in ("value_at", "slice", "raw_slice", "read_batch", "gather"):
        tracer.wrap(PagedColumn, attr, "persist.read")
    tracer.wrap(IndexManager, "select_rowids", "indexing.select")
    tracer.wrap(IndexManager, "observe_predicate", "indexing.refine")
    tracer.wrap(IndexManager, "merge_tails", "indexing.merge_tails")


@dataclass
class RoundResult:
    traced: bool
    steps: dict[str, float]
    callers: list[CallerResult]
    stats: dict[str, Any]
    layers: dict[str, dict[str, float]]
    boundary_counts: Counter

    @property
    def completed(self) -> int:
        return sum(lat == lat for caller in self.callers for lat in caller.latencies)


def run_round(deployment: Deployment, inputs: Inputs, traced: bool) -> RoundResult:
    """Open a fresh instance, run every script once, read its stats, close it.

    The ledger's own tracer marks layers only where the program runs on the
    caller's thread; a fleet round is traced by the program's spans instead.
    """
    round_ = deployment.open_round(traced)
    tracer = LedgerTracer()
    boundary_counts: Counter = Counter()
    try:
        ops = [script.ops for script in inputs.scripts]
        if traced and not round_.concurrent:
            round_.callers = [tracer.span(call, "service.envelope") for call in round_.callers]
            with tracer.installed(lambda t: install_layers(t, boundary_counts)):
                callers = run_callers(round_, ops)
        else:
            callers = run_callers(round_, ops)
        stats = round_.finish()
    finally:
        round_.close()
        # kernels sit in reference cycles: collect the finished instance now,
        # so no round runs (or is sized) with its predecessors still alive
        gc.collect()
    return RoundResult(traced, round_.steps, callers, stats, tracer.drain(), boundary_counts)


def spare_setup(deployment: Deployment) -> float:
    """Set one more instance up and tear it down; returns the set-up time."""
    spare = deployment.open_round(False)
    spare.close()
    return spare.steps["total_s"]


# --------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------- #
def make_deployment(inputs: Inputs, scale: Scale, workdir: Path) -> Deployment:
    if inputs.name == "slide_inmem":
        return LocalDeployment(inputs)
    if inputs.name == "explore_paged":
        return PagedDeployment(inputs, scale, workdir)
    if inputs.name == "ingest_mixed":
        return SessionDeployment(inputs)
    return FleetDeployment(inputs, scale, workdir)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(latencies_s: list[float], q: float) -> float:
    return 1e3 * nearest_rank(sorted(latencies_s), q) if latencies_s else 0.0


def best_latencies(rounds: list[RoundResult]) -> list[list[float]]:
    """Per caller, each op's fastest latency across ``rounds`` (NaN if it never succeeded)."""
    if not rounds:
        return []
    best = []
    for index in range(len(rounds[0].callers)):
        per_round = [result.callers[index].latencies for result in rounds]
        best.append(
            [
                min((lat for lat in op if lat == lat), default=float("nan"))
                for op in zip(*per_round)
            ]
        )
    return best


@dataclass
class Timings:
    """What a set of rounds says about latency and throughput."""

    best: list[list[float]]
    inputs: Inputs

    @classmethod
    def of(cls, rounds: list[RoundResult], inputs: Inputs) -> "Timings":
        return cls(best_latencies(rounds), inputs)

    def latencies(self, cls: str | None = None) -> list[float]:
        """Every op's best latency, optionally of one latency class only."""
        return [
            lat
            for caller, script in zip(self.best, self.inputs.scripts)
            for lat, op in zip(caller, script.ops)
            if lat == lat and cls in (None, op.cls)
        ]

    def p_ms(self, q: float, cls: str | None = None) -> float:
        return _p(self.latencies(cls), q)

    @property
    def gestures_per_s(self) -> float:
        """Ops completed per second of the slowest caller's best-case round."""
        busy = [sum(lat for lat in caller if lat == lat) for caller in self.best]
        return _ratio(len(self.latencies()), max(busy, default=0.0))


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, workdir: Path
) -> dict[str, Any]:
    """Generate, set up, measure for ``seconds``, check, and summarise."""
    scale = SMOKE if smoke else FULL
    clock = time.perf_counter
    phases = {"start": clock()}
    inputs = GENERATORS[name](seed, scale)
    phases["generated"] = clock()
    expected = reference_records(inputs)
    gc.collect()  # the oracle's service must not sit in memory beside the measured ones
    phases["oracle"] = clock()
    deployment = make_deployment(inputs, scale, workdir)
    try:
        prepared: list[dict[str, float]] = []
        rounds: list[RoundResult] = []
        setups: list[float] = []
        deadline = clock() + seconds
        while True:
            # a traced run alternates, so both kinds of round see the same machine
            trace_this = traced and len(rounds) % 2 == 1
            prepared.append(deployment.prepare())
            rounds.append(run_round(deployment, inputs, trace_this))
            setup_s = rounds[-1].steps["total_s"]
            affordable = int(SPARE_SETUP_SHARE * seconds / setup_s)
            setups.append(setup_s)
            setups.extend(spare_setup(deployment) for _ in range(min(SPARE_SETUPS, affordable)))
            if len(rounds) >= (2 if traced else 1) and clock() >= deadline:
                break
        phases["measured"] = clock()
        extras = _traced_extras(inputs, rounds) if traced else {}
    finally:
        clean_workdir(workdir)

    attempted = sum(len(script.ops) for script in inputs.scripts) * len(rounds)
    failures = [
        f"round {number} caller {index} op {position} ({op.cls}): got {got}, expected {want}"
        for number, result in enumerate(rounds)
        for index, (caller, script) in enumerate(zip(result.callers, inputs.scripts))
        for position, (op, got, want) in enumerate(
            zip(script.ops, caller.records, expected[index])
        )
        if got != want
    ]
    failed = len(failures)
    digest = hashlib.sha256(repr([c.records for c in rounds[0].callers]).encode()).hexdigest()

    plain = [result for result in rounds if not result.traced]
    timings = Timings.of(plain, inputs)
    info = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "first_failure": failures[0] if failures else None,
        "latency_samples": len(timings.latencies()),
        "setup_samples": len(setups),
        "round_gestures_per_s": [
            round(Timings.of([result], inputs).gestures_per_s, 3) for result in plain
        ],
        "counters_digest": digest[:16],
        "phase_s": {
            later: round(phases[later] - phases[earlier], 3)
            for earlier, later in zip(phases, list(phases)[1:])
        },
    }
    if traced:
        metrics = _per_layer(inputs, deployment, prepared, rounds, extras, failed, attempted)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        info["traced_op_total_s"] = extras["traced_op_total_s"]
        info["traced_self_sum_s"] = extras["traced_self_sum_s"]
    else:
        metrics = {
            "setup_s": min((step["total_s"] for step in prepared if step), default=0.0)
            + min(setups),
            "gesture_p50_ms": timings.p_ms(0.50),
            "gesture_p95_ms": timings.p_ms(0.95),
            "gestures_per_s": timings.gestures_per_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {metric: unit for metric, unit, _ in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in metrics.items()
        },
        "info": info,
    }


# --------------------------------------------------------------------- #
# the traced run's extra measurements and the per-layer table
# --------------------------------------------------------------------- #
def _traced_extras(inputs: Inputs, rounds: list[RoundResult]) -> dict[str, Any]:
    """Measurements only the traced run takes, beyond its alternating rounds."""
    extras: dict[str, Any] = {}
    layered = [result for result in rounds if result.traced]
    if inputs.name == "fleet_wire":
        # the same scripts in-process: the baseline the wire overhead is a
        # delta against, and the only place the in-process layers can be seen
        replay = LocalDeployment(inputs)
        baseline = Timings.of([run_round(replay, inputs, False) for _ in range(3)], inputs)
        layered = [run_round(replay, inputs, True)]
        extras["inprocess_p50_ms"] = baseline.p_ms(0.50)
        extras.update(_frame_costs(inputs))
    if inputs.name == "slide_inmem":
        hop = run_round(SchedulerDeployment(inputs), inputs, False)
        extras["scheduler_p50_ms"] = Timings.of([hop], inputs).p_ms(0.50)
    layers: dict[str, dict[str, float]] = {}
    boundary: Counter = Counter()
    outcomes = OutcomeCounts()
    for result in layered:
        for layer, entry in result.layers.items():
            total = layers.setdefault(layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for key, value in entry.items():
                total[key] += value
        boundary.update(result.boundary_counts)
        for caller in result.callers:
            outcomes.merge(caller.outcomes)
    extras["layers"] = layers
    extras["boundary"] = boundary
    extras["outcomes"] = outcomes
    extras["layered_ops"] = sum(result.completed for result in layered)
    extras["traced_op_total_s"] = layers.get("*", {}).get("total_s", 0.0)
    extras["traced_self_sum_s"] = sum(
        entry["self_s"] for layer, entry in layers.items() if layer != "*"
    )
    return extras


def _frame_costs(inputs: Inputs) -> dict[str, float]:
    """Encode/decode cost and size of the workload's own frames, standalone."""
    ops = inputs.scripts[0].ops[:FRAME_SAMPLES]
    call = LocalDeployment(inputs).open_round().callers[0]
    envelopes = [call(op) for op in ops]
    clock = time.perf_counter
    encode_s, decode_s, request_bytes, response_bytes = [], [], [], []
    for index, (op, envelope) in enumerate(zip(ops, envelopes)):
        t0 = clock()
        request = Request(
            id=index, verb="execute", session="ledger-0", payload={"command": op.command.to_dict()}
        )
        frame = encode_frame(request.to_dict())
        encode_s.append(clock() - t0)
        request_bytes.append(len(frame))
        reply = encode_frame(Response.success(index, {"envelope": envelope.to_dict()}).to_dict())
        response_bytes.append(len(reply))
        t0 = clock()
        OutcomeEnvelope.from_dict(Response.from_dict(decode_frame(reply)).payload["envelope"])
        decode_s.append(clock() - t0)
    return {
        "encode_us": 1e6 * _median(encode_s),
        "decode_us": 1e6 * _median(decode_s),
        "request_bytes": _median(request_bytes),
        "response_bytes": _median(response_bytes),
    }


def _per_layer(
    inputs: Inputs,
    deployment: Deployment,
    prepared: list[dict[str, float]],
    rounds: list[RoundResult],
    extras: dict[str, Any],
    failed: int,
    attempted: int,
) -> dict[str, float]:
    plain = Timings.of([result for result in rounds if not result.traced], inputs)
    traced = Timings.of([result for result in rounds if result.traced], inputs)
    layers, boundary = extras["layers"], extras["boundary"]
    counts = extras["outcomes"].counts
    layered_ops = extras["layered_ops"]
    ops = sum(result.completed for result in rounds)

    def layer_ms(layer: str) -> float:
        return 1e3 * _ratio(layers.get(layer, {}).get("self_s", 0.0), layered_ops)

    def step(key: str) -> float:
        return min((r.steps[key] for r in rounds if key in r.steps), default=0.0)

    def gauge(key: str) -> float:
        return _median([float(r.stats.get("index", {}).get(key, 0)) for r in rounds])

    def chunks(key: str) -> float:
        return float(sum(r.stats.get("chunks", {}).get(key, 0) for r in rounds))

    def index_sum(key: str) -> float:
        return float(sum(r.stats.get("index", {}).get(key, 0) for r in rounds))

    touch_max = sorted(
        lat
        for r in rounds
        if not r.traced
        for caller in r.callers
        for lat in caller.outcomes.touch_latency_max_s
    )
    p50 = plain.p_ms(0.50)
    values = {
        "touchio.synthesize_ms": layer_ms("touchio.synthesize"),
        "touchio.recognize_ms": layer_ms("touchio.recognize"),
        "touchio.touches_per_gesture": _ratio(boundary["touches"], boundary["streams"]),
        "core.kernel_ms": layer_ms("core.kernel"),
        "core.batch_fallback_frac": _ratio(boundary["batch_fallbacks"], boundary["batch_calls"]),
        "core.cache_hit_frac": _ratio(
            counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]
        ),
        "core.prefetch_hit_frac": _ratio(counts["prefetch_hits"], counts["rows_touched"]),
        "core.tuples_per_entry": _ratio(counts["tuples"], counts["entries"]),
        "core.touch_latency_max_us": 1e6 * nearest_rank(touch_max, 0.95) if touch_max else 0.0,
        "core.scheduler_hop_ms": (
            extras["scheduler_p50_ms"] - p50 if "scheduler_p50_ms" in extras else 0.0
        ),
        "service.envelope_ms": layer_ms("service.envelope"),
        "service.slide_p50_ms": plain.p_ms(0.50, "slide"),
        "service.tap_p50_ms": plain.p_ms(0.50, "tap"),
        "service.select_p50_ms": plain.p_ms(0.50, "select"),
        "service.append_p50_ms": plain.p_ms(0.50, "append"),
        "service.merge_p50_ms": plain.p_ms(0.50, "merge"),
        "service.gesture_p99_ms": plain.p_ms(0.99),
        "service.gesture_max_ms": plain.p_ms(1.0),
        "service.failed_frac": _ratio(failed, attempted),
        "storage.append_rows_per_s": _ratio(
            counts["rows_appended"], layers.get("storage.append", {}).get("total_s", 0.0)
        ),
        "storage.load_column_s": step("load_column_s"),
        "persist.read_ms": layer_ms("persist.read"),
        "persist.chunk_faults_per_gesture": _ratio(chunks("misses"), ops),
        "persist.chunk_evictions_per_gesture": _ratio(chunks("evictions"), ops),
        "persist.chunk_hit_frac": _ratio(chunks("hits"), chunks("hits") + chunks("misses")),
        "persist.persist_s": min(
            (step["persist_s"] for step in prepared if "persist_s" in step), default=0.0
        ),
        "persist.open_snapshot_s": step("open_snapshot_s"),
        "persist.disk_bytes_per_data_byte": _ratio(
            deployment.disk_bytes, inputs.data_bytes
        ),
        "indexing.select_ms": layer_ms("indexing.select"),
        "indexing.refine_ms": layer_ms("indexing.refine"),
        "indexing.merge_tails_ms": layer_ms("indexing.merge_tails"),
        "indexing.rows_scanned_per_match": _ratio(
            counts["select_rows_scanned"], counts["select_matches"]
        ),
        "indexing.indexed_frac": _ratio(
            index_sum("indexed_consultations"), index_sum("consultations")
        ),
        "indexing.cracks": gauge("cracks_performed"),
        "indexing.piece_count": gauge("piece_count"),
        "indexing.cracker_bytes": gauge("cracker_bytes"),
        "indexing.tail_merges": gauge("tail_merges"),
        "obs.trace_overhead_frac": _ratio(traced.p_ms(0.50) - p50, p50),
    }
    values.update(_serving_metrics(rounds, extras, p50, traced.p_ms(0.50)))
    return {metric: values[metric] for metric, _, _ in PER_LAYER}


def _serving_metrics(
    rounds: list[RoundResult], extras: dict[str, Any], p50_ms: float, traced_p50_ms: float
) -> dict[str, float]:
    if "inprocess_p50_ms" not in extras:
        return {metric: 0.0 for metric, _, _ in PER_LAYER if metric.startswith("serving.")}
    spans: dict[str, list[float]] = {"queue_wait": [], "kernel_exec": []}
    hello: list[float] = []
    for result in rounds:
        for name, seconds in result.stats.get("spans", {}).items():
            spans[name].extend(seconds)
        hello.extend(result.stats.get("hello_s", []))
    queue_wait_ms = 1e3 * _median(spans["queue_wait"])
    kernel_ms = 1e3 * _median(spans["kernel_exec"])
    codec_ms = (extras["encode_us"] + extras["decode_us"]) / 1e3
    return {
        "serving.hello_rtt_ms": 1e3 * _median(hello),
        "serving.wire_overhead_p50_ms": p50_ms - extras["inprocess_p50_ms"],
        "serving.encode_us": extras["encode_us"],
        "serving.decode_us": extras["decode_us"],
        "serving.request_bytes": extras["request_bytes"],
        "serving.response_bytes": extras["response_bytes"],
        "serving.worker_queue_wait_ms": queue_wait_ms,
        "serving.worker_kernel_ms": kernel_ms,
        # the traced rounds' own round trip, minus what the spans and the
        # codec account for: sockets, front door and the worker pipe
        "serving.transport_ms": traced_p50_ms - queue_wait_ms - kernel_ms - codec_ms,
        "serving.fleet_start_s": min(
            (r.steps["fleet_start_s"] for r in rounds if "fleet_start_s" in r.steps), default=0.0
        ),
    }
