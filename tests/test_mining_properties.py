"""Property tests for the gesture-transition model.

The mined model's contract: every stored count is positive; the order-k
tables nest consistently
(summing any order-j table over its oldest context slot reproduces the
order-(j-1) table); checkpoints round-trip exactly; and predictions —
tie-breaks included — are a deterministic function of (corpus, seed).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import (
    Rotate,
    ShowColumn,
    Slide,
    Tap,
    TimedCommand,
    ZoomIn,
    ZoomOut,
)
from repro.errors import MiningError, ModelCheckpointError
from repro.mining import (
    GestureTransitionModel,
    heldout_hit_rate,
    persistence_hit_rate,
)
from repro.mining.model import _KEY_SEP, GLOBAL_SCOPE, START, scope_streams

KINDS = ["slide", "tap", "zoom-in", "zoom-out", "rotate"]

_GESTURES = {
    "slide": lambda view: Slide(
        view=view, duration=0.3, start_fraction=0.1, end_fraction=0.9
    ),
    "tap": lambda view: Tap(view=view, fraction=0.5),
    "zoom-in": lambda view: ZoomIn(view=view, duration=0.2),
    "zoom-out": lambda view: ZoomOut(view=view, duration=0.2),
    "rotate": lambda view: Rotate(view=view, duration=0.2),
}


def make_trace(kinds: list[str], obj: str = "data"):
    """One synthetic trace: show the object, then the given gesture kinds."""
    commands = [ShowColumn(object_name=obj, view_name=f"{obj}-v")]
    commands.extend(_GESTURES[kind](f"{obj}-v") for kind in kinds)
    return commands


def count_tables(model) -> dict[str, dict[tuple[str, ...], dict[str, int]]]:
    """``scope -> context -> next-kind counts``, read off the checkpoint payload."""
    return {
        scope: {tuple(key.split(_KEY_SEP)) if key else (): bucket for key, bucket in table.items()}
        for scope, table in model.to_dict()["counts"].items()
    }


kind_lists = st.lists(st.sampled_from(KINDS), min_size=0, max_size=12)
traces_strategy = st.lists(kind_lists, min_size=1, max_size=6)


@given(traces=traces_strategy, order=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_stored_counts_are_positive(traces, order):
    """Every stored context has a bucket, and every count in it is positive."""
    model = GestureTransitionModel(order=order)
    for kinds in traces:
        model.observe_trace(make_trace(kinds))
    for table in count_tables(model).values():
        for bucket in table.values():
            assert bucket, "stored contexts are never empty"
            assert all(count > 0 for count in bucket.values())


@given(traces=traces_strategy, order=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_order_k_context_nesting(traces, order):
    """Summing a length-j table over its oldest slot gives the (j-1) table.

    Counts are kept for every order 0..k over the same token stream, so
    each length-(j-1) context's bucket must equal the key-wise sum of the
    buckets of its length-j extensions — the invariant that makes back-off
    prediction coherent.
    """
    model = GestureTransitionModel(order=order)
    for kinds in traces:
        model.observe_trace(make_trace(kinds))
    for table in count_tables(model).values():
        for length in range(1, order + 1):
            summed: dict[tuple[str, ...], dict[str, int]] = {}
            for context in (key for key in table if len(key) == length):
                shorter = context[1:]
                target = summed.setdefault(shorter, {})
                for kind, count in table[context].items():
                    target[kind] = target.get(kind, 0) + count
            for shorter, bucket in summed.items():
                assert bucket == table.get(shorter, {})


@given(traces=traces_strategy, order=st.integers(1, 3), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_checkpoint_round_trip_exact(tmp_path_factory, traces, order, seed):
    """save → load reproduces the model bit for bit, predictions included."""
    model = GestureTransitionModel(order=order, seed=seed)
    for kinds in traces:
        model.observe_trace(make_trace(kinds))
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    model.save(path)
    loaded = GestureTransitionModel.load(path)
    assert loaded.to_dict() == model.to_dict()
    assert loaded.order == model.order and loaded.seed == model.seed
    assert loaded.traces_observed == model.traces_observed
    assert loaded.transitions_observed == model.transitions_observed
    for scope, table in count_tables(model).items():
        for context in table:
            assert loaded.predict(scope, list(context)) == model.predict(
                scope, list(context)
            )


@given(traces=traces_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_predictions_deterministic_under_fixed_seed(traces, seed):
    """Two models trained identically with one seed agree on every context."""
    models = [GestureTransitionModel(order=2, seed=seed) for _ in range(2)]
    for model in models:
        for kinds in traces:
            model.observe_trace(make_trace(kinds))
    first, second = models
    assert first.to_dict() == second.to_dict()
    probes = [[], ["slide"], ["tap", "slide"], ["zoom-in", "zoom-in", "slide"]]
    for scope in [*count_tables(first), "never-seen-object"]:
        for context in probes:
            assert first.predict(scope, context) == second.predict(scope, context)


def test_seed_changes_only_tie_breaks():
    """Different seeds may break exact ties differently — and only ties."""
    trace = make_trace(["slide", "tap", "slide", "tap"])
    predictions = set()
    for seed in range(8):
        model = GestureTransitionModel(order=1, seed=seed)
        model.observe_trace(trace)
        # after "slide" both tap(2) and... counts: slide→tap twice; no tie
        assert model.predict("data", ["slide"]) == "tap"
        # the unconditional bucket ties slide(2) with tap(2)
        predictions.add(model.predict("data", []))
    assert predictions <= {"slide", "tap"}
    assert len(predictions) == 2, "some seed must break the tie each way"


def test_backoff_unseen_context_and_scope():
    """Unseen contexts back off to suffixes; unseen objects to the fleet."""
    model = GestureTransitionModel(order=2)
    model.observe_trace(make_trace(["slide", "slide", "slide", "tap"]))
    # full context never observed → suffix ("slide",) answers
    assert model.predict("data", ["rotate", "slide"]) == "slide"
    # unknown object → global stream answers
    assert model.predict("ghost", ["slide"]) == "slide"
    # empty model → no prediction at all
    assert GestureTransitionModel().predict("data", ["slide"]) is None


def test_start_padding_contexts_are_distinct():
    """Stream-start contexts use the START token, not shorter keys."""
    model = GestureTransitionModel(order=2)
    model.observe_trace(make_trace(["slide", "tap"]))
    table = count_tables(model)["data"]
    first = table[(START, START)]
    assert first == {"show-column": 1}
    follow = table[(START, "show-column")]
    assert follow == {"slide": 1}


def test_scope_streams_split_per_object_plus_global():
    """Gestures attribute to their view's object; the global stream sees all."""
    trace = make_trace(["slide"], obj="a") + make_trace(["tap"], obj="b")
    streams = scope_streams(trace)
    assert streams["a"] == ["show-column", "slide"]
    assert streams["b"] == ["show-column", "tap"]
    assert streams[GLOBAL_SCOPE] == ["show-column", "slide", "show-column", "tap"]


def test_scope_streams_accept_timed_commands():
    """TimedCommand wrappers fold identically to bare commands."""
    bare = make_trace(["slide", "tap"])
    timed = [TimedCommand(command=c, think_s=0.25) for c in bare]
    assert scope_streams(timed) == scope_streams(bare)


def test_scoring_denominators_match():
    """Mined and persistence hit rates score the identical event set."""
    traces = [make_trace(["slide", "slide", "tap"]), make_trace(["zoom-in"])]
    model = GestureTransitionModel(order=2)
    for trace in traces:
        model.observe_trace(trace)
    mined = heldout_hit_rate(model, traces)
    baseline = persistence_hit_rate(traces)
    assert mined.total == baseline.total > 0
    assert 0.0 <= baseline.rate <= 1.0 and 0.0 <= mined.rate <= 1.0
    assert heldout_hit_rate(model, []).rate == 0.0


def test_invalid_order_and_checkpoints_raise_typed_errors():
    with pytest.raises(MiningError):
        GestureTransitionModel(order=0)
    with pytest.raises(ModelCheckpointError):
        GestureTransitionModel.from_dict({"format": "wrong"})
    with pytest.raises(ModelCheckpointError):
        GestureTransitionModel.from_dict(
            {"format": "gesture-transition-model", "version": 99}
        )
    good = GestureTransitionModel()
    good.observe_trace(make_trace(["slide"]))
    payload = good.to_dict()
    payload["counts"] = {"data": {"": {"slide": -3}}}
    with pytest.raises(ModelCheckpointError):
        GestureTransitionModel.from_dict(payload)
    payload = good.to_dict()
    del payload["order"]
    with pytest.raises(ModelCheckpointError):
        GestureTransitionModel.from_dict(payload)


def test_load_rejects_missing_and_garbage_files(tmp_path):
    with pytest.raises(ModelCheckpointError):
        GestureTransitionModel.load(tmp_path / "absent.json")
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelCheckpointError):
        GestureTransitionModel.load(garbage)
