"""Mining recorded traces into an order-k gesture-transition model.

The model is deliberately simple — per-object Markov count matrices over
command kinds — because that is what a fleet can actually learn from
millions of sessions: after a user slid over ``sensor``, how often did the
next gesture zoom out versus keep sliding?  Counts are kept for every
context order from 0 (the unconditional kind distribution) up to ``order``,
so prediction backs off gracefully: an unseen order-k context falls back
to shorter suffixes, and an unseen object falls back to the fleet-global
stream.  Ties break deterministically from a seed, so equal corpora always
yield equal policies (the same bit-identical contract seeded gesture
synthesis honors).

The trained model is a JSON checkpoint artifact
(:meth:`GestureTransitionModel.save` / :meth:`~GestureTransitionModel.load`)
with a version tag and an exact round-trip, in the offline
batch-analysis → synthesis → checkpoint idiom of FeedForward's explorer
pipeline; :func:`mine_corpus` is the batch pass, with the corpus's
partial-failure accounting carried onto the :class:`MiningReport`.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.commands import (
    AppendCommand,
    ChooseAction,
    DragColumnOut,
    GestureCommand,
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
from repro.errors import MiningError, ModelCheckpointError
from repro.mining.corpus import TraceCorpus
from repro.persist.format import atomic_replace

#: Context padding token: "the stream started fewer than k gestures ago".
START = "^"

#: Scope holding the fleet-global stream every trace also folds into.
GLOBAL_SCOPE = "*"

#: Separator joining context tokens into checkpoint keys (command kinds
#: are kebab-case identifiers, so the unit separator can never collide).
_KEY_SEP = "\x1f"

#: Checkpoint format tag and version.
CHECKPOINT_FORMAT = "gesture-transition-model"
CHECKPOINT_VERSION = 1


def object_scope_of(command: GestureCommand, view_map: dict[str, str]) -> str | None:
    """Attribute one command to the data object it touches, if any.

    ``view_map`` accumulates the view-name → object-name bindings that
    show commands establish (mirroring the kernel's default view naming),
    so later gestures addressed at a view resolve to their object.
    """
    if isinstance(command, ShowColumn):
        view = command.view_name or f"{command.object_name}-view"
        view_map[view] = command.object_name
        return command.object_name
    if isinstance(command, ShowTable):
        view = command.view_name or f"{command.table_name}-view"
        view_map[view] = command.table_name
        return command.table_name
    if isinstance(command, (ChooseAction, Slide, SlidePath, Tap, ZoomIn, ZoomOut, Rotate, Pan)):
        return view_map.get(command.view)
    if isinstance(command, (DragColumnOut, UngroupTable)):
        return view_map.get(command.table_view)
    if isinstance(command, GroupColumns):
        return command.table_name
    if isinstance(command, AppendCommand):
        return command.object_name
    return None


def _as_commands(trace: Iterable[TimedCommand | GestureCommand]) -> list[GestureCommand]:
    return [item.command if isinstance(item, TimedCommand) else item for item in trace]


def scope_streams(
    trace: Iterable[TimedCommand | GestureCommand],
) -> dict[str, list[str]]:
    """Split one trace into per-object kind streams plus the global stream."""
    streams: dict[str, list[str]] = {GLOBAL_SCOPE: []}
    view_map: dict[str, str] = {}
    for command in _as_commands(trace):
        scope = object_scope_of(command, view_map)
        streams[GLOBAL_SCOPE].append(command.kind)
        if scope is not None:
            streams.setdefault(scope, []).append(command.kind)
    return streams


def _padded_context(tokens: Sequence[str], position: int, length: int) -> tuple[str, ...]:
    """The length-``length`` context preceding ``position``, START-padded."""
    start = max(0, position - length)
    window = list(tokens[start:position])
    return tuple([START] * (length - len(window)) + window)


class GestureTransitionModel:
    """Per-object order-k Markov counts over gesture kinds.

    Parameters
    ----------
    order:
        Longest context length maintained; counts for every shorter order
        are kept too, nesting consistently (summing an order-j table over
        its oldest context slot reproduces the order-(j-1) table exactly).
    seed:
        Deterministic tie-breaking seed for :meth:`predict`.
    """

    def __init__(self, order: int = 2, seed: int = 0) -> None:
        if order < 1:
            raise MiningError("transition-model order must be at least 1")
        self.order = int(order)
        self.seed = int(seed)
        #: scope → context tuple (length 0..order) → next kind → count
        self._counts: dict[str, dict[tuple[str, ...], dict[str, int]]] = {}
        self.traces_observed = 0
        self.transitions_observed = 0

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def observe_trace(self, trace: Iterable[TimedCommand | GestureCommand]) -> None:
        """Fold one recorded trace into the count matrices."""
        for scope, tokens in scope_streams(trace).items():
            table = self._counts.setdefault(scope, {})
            for position, token in enumerate(tokens):
                for length in range(self.order + 1):
                    context = _padded_context(tokens, position, length)
                    bucket = table.setdefault(context, {})
                    bucket[token] = bucket.get(token, 0) + 1
                if scope == GLOBAL_SCOPE:
                    self.transitions_observed += 1
        self.traces_observed += 1

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def _backoff_bucket(
        self, scope: str, context: Sequence[str]
    ) -> dict[str, int]:
        recent = list(context)[-self.order :]
        for table_scope in (scope, GLOBAL_SCOPE):
            table = self._counts.get(table_scope)
            if not table:
                continue
            for length in range(min(self.order, len(recent)), -1, -1):
                key = _padded_context(recent, len(recent), length)
                bucket = table.get(key)
                if bucket:
                    return bucket
        return {}

    def predict(self, scope: str, context: Sequence[str]) -> str | None:
        """The most likely next gesture kind after ``context`` on ``scope``.

        Backs off from the full order-k context through shorter suffixes
        to the unconditional distribution, then from the object scope to
        the global stream.  Ties break deterministically from the seed
        and the context, never from dict order.
        """
        bucket = self._backoff_bucket(scope, context)
        if not bucket:
            return None
        best = max(bucket.values())
        candidates = sorted(kind for kind, count in bucket.items() if count == best)
        if len(candidates) == 1:
            return candidates[0]
        key = f"{self.seed}|{scope}|{_KEY_SEP.join(list(context)[-self.order:])}"
        return candidates[zlib.crc32(key.encode("utf-8")) % len(candidates)]

    # ------------------------------------------------------------------ #
    # the checkpoint artifact
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Encode the model as a plain-data checkpoint payload."""
        counts = {
            scope: {
                _KEY_SEP.join(context): dict(sorted(bucket.items()))
                for context, bucket in sorted(table.items())
            }
            for scope, table in sorted(self._counts.items())
        }
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "order": self.order,
            "seed": self.seed,
            "traces_observed": self.traces_observed,
            "transitions_observed": self.transitions_observed,
            "counts": counts,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GestureTransitionModel":
        """Rebuild a model from :meth:`to_dict` output (exact round-trip)."""
        if not isinstance(payload, Mapping):
            raise ModelCheckpointError(
                f"checkpoint must be a mapping, got {type(payload).__name__}"
            )
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ModelCheckpointError(
                f"checkpoint format {payload.get('format')!r} is not {CHECKPOINT_FORMAT!r}"
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ModelCheckpointError(
                f"checkpoint version {payload.get('version')!r} is not the "
                f"supported {CHECKPOINT_VERSION}"
            )
        try:
            model = cls(order=int(payload["order"]), seed=int(payload["seed"]))
            model.traces_observed = int(payload["traces_observed"])
            model.transitions_observed = int(payload["transitions_observed"])
            counts = payload["counts"]
            if not isinstance(counts, Mapping):
                raise TypeError("counts must be a mapping")
            for scope, table in counts.items():
                decoded: dict[tuple[str, ...], dict[str, int]] = {}
                for key, bucket in table.items():
                    context = tuple(key.split(_KEY_SEP)) if key else ()
                    decoded[context] = {
                        str(kind): int(count) for kind, count in bucket.items()
                    }
                    if any(count < 0 for count in decoded[context].values()):
                        raise ValueError("negative count")
                model._counts[str(scope)] = decoded
        except MiningError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ModelCheckpointError(f"malformed checkpoint payload: {exc}") from exc
        return model

    def save(self, path: str | Path) -> Path:
        """Write the checkpoint artifact as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # atomically: a process loading the checkpoint must never read a
        # half-written model
        with atomic_replace(path, "w") as handle:
            handle.write(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "GestureTransitionModel":
        """Load a checkpoint artifact, raising :class:`ModelCheckpointError`."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ModelCheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ModelCheckpointError(f"checkpoint {path} is not UTF-8: {exc}") from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelCheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


# --------------------------------------------------------------------- #
# the offline mining pass
# --------------------------------------------------------------------- #


@dataclass
class MiningReport:
    """What one corpus-mining pass produced, failures included."""

    model: GestureTransitionModel
    traces: int = 0
    files: int = 0
    records: int = 0
    skipped: int = 0
    errors: list[str] = field(default_factory=list)


def mine_corpus(
    corpus: TraceCorpus | str | Path,
    order: int = 2,
    seed: int = 0,
    strict: bool = False,
) -> MiningReport:
    """Fold a whole trace corpus into a transition model.

    The default tolerant mode skips corrupt records and reports them on
    the returned :class:`MiningReport` (fleet corpora always contain torn
    writes); ``strict=True`` raises the typed corpus error instead.
    """
    if not isinstance(corpus, TraceCorpus):
        corpus = TraceCorpus(corpus)
    traces, read_report = corpus.read_traces(strict=strict)
    model = GestureTransitionModel(order=order, seed=seed)
    for commands in traces.values():
        model.observe_trace(commands)
    return MiningReport(
        model=model,
        traces=len(traces),
        files=read_report.files,
        records=read_report.records,
        skipped=read_report.skipped,
        errors=list(read_report.errors),
    )


# --------------------------------------------------------------------- #
# held-out scoring
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class HitRateReport:
    """Next-gesture prediction accuracy over a held-out trace set."""

    hits: int
    total: int

    @property
    def rate(self) -> float:
        """Hit fraction; 0.0 when nothing was scorable."""
        return self.hits / self.total if self.total else 0.0


def _scorable_events(
    traces: Iterable[Sequence[TimedCommand | GestureCommand]],
) -> Iterator[tuple[str, list[str], str]]:
    """Yield (scope, context-so-far, actual-next) per-object scoring events.

    Only events with at least one preceding gesture on the same object
    are scored, so the mined model and the persistence baseline answer
    the identical question on identical denominators.
    """
    for trace in traces:
        streams = scope_streams(trace)
        for scope, tokens in streams.items():
            if scope == GLOBAL_SCOPE:
                continue
            for position in range(1, len(tokens)):
                yield scope, tokens[:position], tokens[position]


def heldout_hit_rate(
    model: GestureTransitionModel,
    traces: Iterable[Sequence[TimedCommand | GestureCommand]],
) -> HitRateReport:
    """Score the mined model's next-gesture predictions on held-out traces."""
    hits = total = 0
    for scope, context, actual in _scorable_events(traces):
        total += 1
        if model.predict(scope, context) == actual:
            hits += 1
    return HitRateReport(hits=hits, total=total)


def persistence_hit_rate(
    traces: Iterable[Sequence[TimedCommand | GestureCommand]],
) -> HitRateReport:
    """The unmined baseline: predict that the last gesture kind repeats.

    This is the naive extrapolation of the current gesture, so the lift of
    the mined model over this baseline is the value the fleet's corpus
    added.
    """
    hits = total = 0
    for _, context, actual in _scorable_events(traces):
        total += 1
        if context[-1] == actual:
            hits += 1
    return HitRateReport(hits=hits, total=total)
