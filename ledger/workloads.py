"""Seeded inputs for the four ledger workloads.

Everything random comes from ``--seed`` through :func:`numpy.random.default_rng`
streams keyed ``[seed, workload, purpose]``: the data, the op order, every
slide's geometry and the hot ranges.  The program under measurement receives
only the arrays and commands generated here.

A workload is a list of :class:`Script` objects (one per concurrent caller),
each a set-up prefix (show / choose-action) plus the measured ops.  What sets
the amount of work is fixed by count, not drawn: the op mix, the set of slide
lengths and durations (evenly spaced, dealt in seeded order), the hot/uniform
split of selections, and where zooms, appends and merges fall.  Two seeds thus
do the same amount of work on different data, at different places, in a
different order — which is what keeps one seed's numbers comparable with the
next's.  Why each workload exists is recorded in ``ledger/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.actions import (
    QueryAction,
    aggregate_action,
    scan_action,
    select_where_action,
    summary_action,
)
from repro.core.commands import (
    AppendCommand,
    ChooseAction,
    GestureCommand,
    ShowColumn,
    ShowTable,
    Slide,
    Tap,
    ZoomIn,
    ZoomOut,
)
from repro.engine.filter import Comparison, Predicate

WORKLOAD_NAMES = ("slide_inmem", "explore_paged", "ingest_mixed", "fleet_wire")

#: Value domain of every integer key column (``flux``, ``events``).
KEY_DOMAIN = 1_000_000
#: Hot BETWEEN ranges a selection draws from 80% of the time.
HOT_RANGES = 8
#: Width of every BETWEEN range, as a share of :data:`KEY_DOMAIN`.
RANGE_SHARE = 0.01


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the structure test."""

    inmem_rows: int
    inmem_ops: int
    paged_rows: int
    paged_ops: int
    paged_chunk_rows: int
    paged_cache_bytes: int
    ingest_rows: int
    ingest_ops: int
    append_rows: int
    fleet_rows: int
    fleet_ops: int
    fleet_workers: int
    fleet_clients: int


FULL = Scale(
    inmem_rows=1_000_000,
    inmem_ops=600,
    paged_rows=4_000_000,
    paged_ops=300,
    paged_chunk_rows=16_384,
    paged_cache_bytes=2 << 20,
    ingest_rows=2_000_000,
    ingest_ops=1_500,
    append_rows=2_000,
    fleet_rows=1_000_000,
    fleet_ops=2_000,
    fleet_workers=2,
    fleet_clients=2,
)

SMOKE = Scale(
    inmem_rows=20_000,
    inmem_ops=60,
    paged_rows=40_000,
    paged_ops=40,
    paged_chunk_rows=1_024,
    paged_cache_bytes=32 << 10,
    ingest_rows=20_000,
    ingest_ops=100,
    append_rows=50,
    fleet_rows=20_000,
    fleet_ops=60,
    fleet_workers=1,
    fleet_clients=1,
)


@dataclass(frozen=True)
class Op:
    """One measured operation: a gesture command or a facade call.

    ``cls`` is the latency class the op is reported under.  Commands carry
    ``command``; a bulk selection carries ``view`` + ``predicate``; a merge
    (``merge_index_tails``) carries nothing.
    """

    cls: str
    command: GestureCommand | None = None
    view: str | None = None
    predicate: Predicate | None = None


@dataclass
class Script:
    """One caller's round: set-up commands, then the measured ops."""

    setup: list[GestureCommand]
    ops: list[Op]


@dataclass
class Inputs:
    """Everything one workload feeds the program."""

    name: str
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    tables: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    scripts: list[Script] = field(default_factory=list)
    #: ``(object, column)`` the bulk selections restrict, for the brute-force check.
    select_source: tuple[str, str | None] | None = None

    @property
    def data_bytes(self) -> int:
        """Raw bytes of the generated arrays (the 'user data')."""
        arrays = list(self.columns.values())
        for table in self.tables.values():
            arrays.extend(table.values())
        return int(sum(a.nbytes for a in arrays))


def _rng(seed: int, workload: str, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_NAMES.index(workload), purpose])


def _dealt(rng: np.random.Generator, low: float, high: float, count: int) -> np.ndarray:
    """``count`` values evenly spaced over ``[low, high]``, in seeded order."""
    return rng.permutation(np.linspace(low, high, count))


def _slides(
    rng: np.random.Generator, view: str, count: int, durations: tuple[float, float]
) -> list[Slide]:
    """``count`` slides covering 5% to 65% of the object, either direction."""
    slides = []
    spans = _dealt(rng, 0.05, 0.65, count)
    for span, duration in zip(spans, _dealt(rng, *durations, count)):
        start = float(rng.uniform(0.0, 1.0 - span))
        end = start + float(span)
        if rng.random() < 0.5:
            start, end = end, start
        slides.append(
            Slide(view=view, duration=float(duration), start_fraction=start, end_fraction=end)
        )
    return slides


def _between(low: int) -> Predicate:
    return Predicate(
        Comparison.BETWEEN, float(low), upper=float(low + int(KEY_DOMAIN * RANGE_SHARE))
    )


def _range_predicates(rng: np.random.Generator, count: int) -> list[Predicate]:
    """``count`` BETWEEN ranges: 80% dealt evenly from the hot set, 20% uniform."""
    top = KEY_DOMAIN - int(KEY_DOMAIN * RANGE_SHARE)
    hot = [_between(int(low)) for low in rng.integers(0, top, size=HOT_RANGES)]
    picks = [hot[i % HOT_RANGES] for i in range(count * 8 // 10)]
    picks += [_between(int(low)) for low in rng.integers(0, top, size=count - len(picks))]
    return [picks[i] for i in rng.permutation(count)]


def _shuffled_classes(rng: np.random.Generator, counts: dict[str, int]) -> list[str]:
    classes = [cls for cls, count in counts.items() for _ in range(count)]
    return [classes[i] for i in rng.permutation(len(classes))]


def _paced(classes: list[str], cls: str, count: int) -> list[str]:
    """``classes`` with ``count`` ops of ``cls`` inserted at an even pace."""
    total = len(classes) + count
    at = {((2 * i + 1) * total) // (2 * count) for i in range(count)}
    rest = iter(classes)
    return [cls if index in at else next(rest) for index in range(total)]


def _rotating_actions() -> list[QueryAction]:
    return [summary_action(k=10), aggregate_action("avg"), scan_action()]


# --------------------------------------------------------------------- #
# slide_inmem
# --------------------------------------------------------------------- #
def slide_inmem(seed: int, scale: Scale) -> Inputs:
    """Slides, taps and action changes over one in-memory float64 column."""
    values = _rng(seed, "slide_inmem", 0).normal(20.0, 5.0, scale.inmem_rows)
    rng = _rng(seed, "slide_inmem", 1)
    total = scale.inmem_ops
    taps, chooses = total * 15 // 100, total * 10 // 100
    slides = iter(_slides(rng, "v", total - 2 - taps - chooses, (0.3, 1.0)))
    classes = _shuffled_classes(rng, {"tap": taps, "slide": total - 2 - taps - chooses})
    # the action rotates at an even pace, so each of the three drives the
    # same share of the slides whatever the seed
    classes = _paced(classes, "choose", chooses)
    # exactly one zoom-in / zoom-out pair: the view grows 4x for the middle
    # third and ends 16x smaller, so slides run at three object sizes (a
    # second pair is refused by the recognizer at the small size)
    classes.insert(total // 3, "zoom-in")
    classes.insert(2 * total // 3, "zoom-out")
    actions = _rotating_actions()
    chosen = 0
    ops = []
    for cls in classes:
        if cls == "slide":
            ops.append(Op("slide", next(slides)))
        elif cls == "tap":
            ops.append(Op("tap", Tap(view="v", fraction=float(rng.random()))))
        elif cls == "choose":
            chosen += 1
            ops.append(
                Op("choose", ChooseAction(view="v", action=actions[chosen % len(actions)]))
            )
        else:
            ops.append(Op("zoom", ZoomIn(view="v") if cls == "zoom-in" else ZoomOut(view="v")))
    setup = [
        ShowColumn(object_name="readings", view_name="v", height_cm=10.0),
        ChooseAction(view="v", action=actions[0]),
    ]
    return Inputs("slide_inmem", columns={"readings": values}, scripts=[Script(setup, ops)])


# --------------------------------------------------------------------- #
# explore_paged
# --------------------------------------------------------------------- #
def explore_paged(seed: int, scale: Scale) -> Inputs:
    """Slides and bulk selections over a snapshot far larger than its cache."""
    data_rng = _rng(seed, "explore_paged", 0)
    rows = scale.paged_rows
    table = {
        "flux": data_rng.integers(0, KEY_DOMAIN, rows, dtype=np.int64),
        "mag": data_rng.normal(20.0, 5.0, rows),
        "band": data_rng.integers(0, 6, rows, dtype=np.int64),
    }
    rng = _rng(seed, "explore_paged", 1)
    total = scale.paged_ops
    counts = {"vt": total * 25 // 100, "select": total * 20 // 100}
    column_slides = total - sum(counts.values())
    # scan over flux and running average over mag: both read base data
    # through the chunk cache (summaries would not, see README)
    counts["vf"], counts["vm"] = column_slides // 2, column_slides - column_slides // 2
    slides = {
        view: iter(_slides(rng, view, counts[view], (0.3, 1.0))) for view in ("vf", "vm", "vt")
    }
    predicates = iter(_range_predicates(rng, counts["select"]))
    ops = []
    for cls in _shuffled_classes(rng, counts):
        if cls == "select":
            ops.append(Op("select", view="vt", predicate=next(predicates)))
        else:
            ops.append(Op("slide", next(slides[cls])))
    low = int(rng.integers(0, KEY_DOMAIN * 7 // 10))
    wide = Predicate(Comparison.BETWEEN, float(low), upper=float(low + KEY_DOMAIN * 3 // 10))
    setup = [
        ShowColumn(object_name="sky", column_name="flux", view_name="vf", height_cm=10.0),
        ChooseAction(view="vf", action=scan_action()),
        ShowColumn(object_name="sky", column_name="mag", view_name="vm", x=3.0, height_cm=10.0),
        ChooseAction(view="vm", action=aggregate_action("avg")),
        ShowTable(table_name="sky", view_name="vt", x=6.0, height_cm=10.0),
        ChooseAction(view="vt", action=select_where_action("flux", wide, ["mag", "band"])),
    ]
    return Inputs(
        "explore_paged",
        tables={"sky": table},
        scripts=[Script(setup, ops)],
        select_source=("sky", "flux"),
    )


# --------------------------------------------------------------------- #
# ingest_mixed
# --------------------------------------------------------------------- #
def ingest_mixed(seed: int, scale: Scale) -> Inputs:
    """Range selections, appends, slides and tail merges on one int64 column."""
    data_rng = _rng(seed, "ingest_mixed", 0)
    values = data_rng.integers(0, KEY_DOMAIN, scale.ingest_rows, dtype=np.int64)
    rng = _rng(seed, "ingest_mixed", 1)
    total = scale.ingest_ops
    selects, appends, merges = total * 45 // 100, total * 15 // 100, total * 5 // 100
    slide_count = total - selects - appends - merges
    # data arrives and tails are merged at an even pace, as a feed and a
    # background lane would; reads land between them in seeded order
    classes = _shuffled_classes(rng, {"select": selects, "slide": slide_count})
    classes = _paced(_paced(classes, "append", appends), "merge", merges)
    predicates = _range_predicates(rng, selects + 1)
    slide_predicate = predicates.pop()
    picks = iter(predicates)
    slides = iter(_slides(rng, "v", slide_count, (0.5, 0.5)))
    ops = []
    for cls in classes:
        if cls == "select":
            ops.append(Op("select", view="v", predicate=next(picks)))
        elif cls == "append":
            batch = data_rng.integers(0, KEY_DOMAIN, scale.append_rows)
            ops.append(
                Op("append", AppendCommand(object_name="events", values=tuple(batch.tolist())))
            )
        elif cls == "merge":
            ops.append(Op("merge"))
        else:
            ops.append(Op("slide", next(slides)))
    setup = [
        ShowColumn(object_name="events", view_name="v", height_cm=10.0),
        # a filtered scan: every slide also cracks the column around a range
        ChooseAction(view="v", action=scan_action(slide_predicate)),
    ]
    return Inputs(
        "ingest_mixed",
        columns={"events": values},
        scripts=[Script(setup, ops)],
        select_source=("events", None),
    )


# --------------------------------------------------------------------- #
# fleet_wire
# --------------------------------------------------------------------- #
def fleet_wire(seed: int, scale: Scale) -> Inputs:
    """Cheap gestures from concurrent clients, so the wire is the cost."""
    values = _rng(seed, "fleet_wire", 0).normal(20.0, 5.0, scale.fleet_rows)
    actions = _rotating_actions()
    scripts = []
    for client in range(scale.fleet_clients):
        rng = _rng(seed, "fleet_wire", 1 + client)
        total = scale.fleet_ops
        slide_count, chooses = total * 30 // 100, total * 10 // 100
        slides = iter(_slides(rng, "v", slide_count, (0.1, 0.1)))
        classes = _shuffled_classes(
            rng, {"slide": slide_count, "tap": total - slide_count - chooses}
        )
        chosen = 0
        ops = []
        for cls in _paced(classes, "choose", chooses):
            if cls == "tap":
                ops.append(Op("tap", Tap(view="v", fraction=float(rng.random()))))
            elif cls == "slide":
                ops.append(Op("slide", next(slides)))
            else:
                chosen += 1
                ops.append(
                    Op("choose", ChooseAction(view="v", action=actions[chosen % len(actions)]))
                )
        setup = [
            ShowColumn(object_name="telemetry", view_name="v", height_cm=10.0),
            ChooseAction(view="v", action=actions[0]),
        ]
        scripts.append(Script(setup, ops))
    return Inputs("fleet_wire", columns={"telemetry": values}, scripts=scripts)


GENERATORS = {
    "slide_inmem": slide_inmem,
    "explore_paged": explore_paged,
    "ingest_mixed": ingest_mixed,
    "fleet_wire": fleet_wire,
}
