"""The north star as a property: no command's work grows with the column.

dbTouch answers every touch from a bounded amount of data — a sample
level, a summary window, one row per touch — so what a command costs should
depend on the gesture, not on how many rows sit behind the view.  This
guard runs one seeded script covering every registered
:class:`~repro.core.commands.GestureCommand` kind (plus a first and a
warm range selection) through :meth:`LocalExplorationService.execute`, on
an in-memory and a paged layout, at ``N`` and ``16 * N`` rows, and holds
each step to two rules:

* its ``tracemalloc`` peak at ``16 * N`` is at most its peak at ``N`` plus
  :data:`SLACK_BYTES`;
* its counted work is equal at both sizes: entries returned, tuples
  examined, chunk faults and rows gathered past the chunk cache.  A
  selection instead matches the same rows and follows the sorted index's
  square-root law: at most ``2 * (isqrt(n - 1) + 1)`` values inspected, and
  nothing gathered beyond them and the matches.

Peaks and work come from one run of the default kernel at each size.

Steps known to grow with the column are listed in :data:`KNOWN_O_N`, each
with the change that removes it.  The list can only shrink: an entry that
stops growing fails :func:`test_the_allow_list_only_shrinks`.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.actions import summary_action
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
    UngroupTable,
    ZoomIn,
    ZoomOut,
)
from repro.core.kernel import KernelConfig
from repro.engine.filter import Comparison, Predicate
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile
from repro.touchio.synthesizer import SlideSegment

#: The two column sizes compared; the larger is 16x the smaller.
N = 20_000
SIZES = (N, 16 * N)
#: Rows per chunk of the paged layout: 79 chunks at ``N``, so both sizes
#: answer selections from the sorted runs rather than a chunk scan.
CHUNK_ROWS = 256
#: How much more a step's traced peak may be at ``16 * N``.  The largest
#: growth outside the allow-list is a paged warm selection's zonemap pass,
#: which is linear in the chunk count (1,250 chunks at ``16 * N``): its
#: candidate array, +10.4 KiB (+33 KiB while it was a Python list); next
#: is an in-memory ungroup, +8.8 KiB.  The rest is margin for the allocator.
SLACK_BYTES = 16 << 10
#: Rows a selection matches, at either size (the column is a permutation).
MATCHES = 32
SEED = 13

#: Steps whose peak or work grows with the column, and what removes each.
#: This list may only shrink.
KNOWN_O_N = {
    # direction 2(a) (no index build on a touch): the first selection
    # sorts the column into its first run
    "select-first",
    # direction 10 (an append costs its batch): an in-memory append copies
    # the column into a doubled buffer, a paged one rebuilds the shown
    # view's sample hierarchy from a concatenated copy of the column
    "append",
}

PROFILE = DeviceProfile(
    name="size-independence",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=20.0,
    finger_width_cm=0.08,
)


def script(seed: int = SEED) -> list[tuple[str, GestureCommand | Predicate]]:
    """The seeded script: ``(step name, command or selection predicate)``."""
    rng = np.random.default_rng(seed)
    start, end = sorted(rng.uniform(0.05, 0.95, size=2))
    low = int(rng.integers(0, N - 2 * MATCHES))
    return [
        ("show-column", ShowColumn(object_name="col", view_name="c")),
        ("choose-action", ChooseAction(view="c", action=summary_action(k=8))),
        ("slide", Slide(view="c", duration=0.5, start_fraction=start, end_fraction=end)),
        (
            "slide-path",
            SlidePath(
                view="c",
                segments=(SlideSegment(start, end, 0.3), SlideSegment(end, start, 0.2)),
            ),
        ),
        ("tap", Tap(view="c", fraction=float(rng.uniform(0.05, 0.95)))),
        ("zoom-in", ZoomIn(view="c")),
        ("zoom-out", ZoomOut(view="c")),
        ("show-table", ShowTable(table_name="grid", view_name="t", x=3.0, width_cm=6.0)),
        ("rotate", Rotate(view="t")),
        ("pan", Pan(view="t", dx_cm=1.0)),
        (
            "drag-column-out",
            DragColumnOut(table_view="t", column_name="b", new_object_name="b_out", x=11.0),
        ),
        (
            "group-columns",
            GroupColumns(
                column_object_names=("col", "b_out"),
                table_name="pair",
                width_cm=4.0,
                height_cm=4.0,
            ),
        ),
        ("ungroup-table", UngroupTable(table_view="t", height_cm=4.0)),
        ("select-first", Predicate(Comparison.BETWEEN, low, upper=low + MATCHES - 1)),
        (
            "select-warm",
            Predicate(Comparison.BETWEEN, low + MATCHES, upper=low + 2 * MATCHES - 1),
        ),
        ("append", AppendCommand.of("col", values=np.arange(1_000, dtype=np.int64))),
    ]


def registered_kinds() -> set[str]:
    """Every command kind the vocabulary registers."""
    kinds, pending = set(), [GestureCommand]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.kind:
            kinds.add(cls.kind)
    return kinds


@dataclass(frozen=True)
class Step:
    """What one script step cost at one size."""

    peak_bytes: int
    #: entries returned, tuples examined (commands) or rows matched
    #: (selections), then chunk faults and rows gathered
    work: tuple[int, ...]
    #: values a selection inspected (0 for commands)
    rows_scanned: int = 0


#: The kernel every run uses.
CONFIG = KernelConfig(latency_budget_s=1e6)


def open_service(
    n: int, paged: bool, root, config: KernelConfig
) -> tuple[LocalExplorationService, object]:
    """A service over ``col`` (a permutation of ``range(n)``) and a 3-column
    table ``grid``, either loaded in memory or attached from a snapshot."""
    rng = np.random.default_rng(SEED)
    col = rng.permutation(n).astype(np.int64)
    grid = {
        "a": rng.integers(0, 1_000, n, dtype=np.int64),
        "b": rng.normal(size=n),
        "c": rng.integers(0, 50, n, dtype=np.int64),
    }
    service = LocalExplorationService(profile=PROFILE, config=config)
    if not paged:
        service.load_column("col", col)
        service.load_table("grid", grid)
        return service, None
    catalog = StoreCatalog(DiskColumnStore(root))
    catalog.persist_column(Column("col", col), chunk_rows=CHUNK_ROWS)
    catalog.persist_table(Table.from_arrays("grid", grid), chunk_rows=CHUNK_ROWS)
    snapshot = StoreCatalog.open_read_only(root, cache_bytes=1 << 20)
    snapshot.attach(service.catalog)
    return service, snapshot.store.cache.stats


def measure(n: int, paged: bool, root, config: KernelConfig) -> dict[str, Step]:
    """Run the script once at ``n`` rows; one :class:`Step` per step."""
    service, chunk_stats = open_service(n, paged, root, config)

    def chunk_counts() -> tuple[int, int]:
        if chunk_stats is None:
            return 0, 0
        return chunk_stats.misses, chunk_stats.rows_gathered

    steps: dict[str, Step] = {}
    tracemalloc.start()
    try:
        for name, step in script():
            faults, gathered = chunk_counts()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            if isinstance(step, Predicate):
                selection = service.select_where("c", step)
                work, scanned = (selection.matches,), selection.rows_scanned
            else:
                envelope = service.execute(step)
                work, scanned = (envelope.entries_returned, envelope.tuples_examined), 0
            peak = tracemalloc.get_traced_memory()[1] - base
            after = chunk_counts()
            steps[name] = Step(
                peak_bytes=peak,
                work=tuple(int(w) for w in work) + (after[0] - faults, after[1] - gathered),
                rows_scanned=int(scanned),
            )
    finally:
        tracemalloc.stop()
    return steps


def peak_growth(small: Step, large: Step) -> list[str]:
    """Why ``large``'s traced peak (at ``16 * n``) exceeds ``small``'s (at ``n``)."""
    if large.peak_bytes > small.peak_bytes + SLACK_BYTES:
        return [f"peak {small.peak_bytes} -> {large.peak_bytes} B"]
    return []


def work_growth(small: Step, large: Step, n: int) -> list[str]:
    """Why ``large``'s counted work (at ``16 * n``) differs from ``small``'s."""
    found = []
    if small.rows_scanned or large.rows_scanned:  # a selection
        matched = (small.work[0], large.work[0])
        if matched != (MATCHES, MATCHES):
            found.append(f"matched {matched}, expected {MATCHES}")
        for size, step in ((n, small), (16 * n, large)):
            bound = 2 * (math.isqrt(size - 1) + 1)
            if step.rows_scanned > bound:
                found.append(f"scanned {step.rows_scanned} > {bound} at {size} rows")
            if step.work[2] > step.rows_scanned + step.work[0]:
                found.append(f"gathered {step.work[2]} rows at {size} rows")
    elif small.work != large.work:
        found.append(f"work {small.work} -> {large.work}")
    return found


@pytest.fixture(scope="module")
def violations(tmp_path_factory) -> dict[str, dict[str, list[str]]]:
    """Per layout, the steps that grow with the column and how."""
    found: dict[str, dict[str, list[str]]] = {}
    for layout in ("in_memory", "paged"):
        paged = layout == "paged"
        # one small run first, so one-off process costs (lazy imports,
        # first-use caches) land on neither measured size
        measure(2_000, paged, tmp_path_factory.mktemp(f"{layout}-warm"), CONFIG)
        small, large = (
            measure(n, paged, tmp_path_factory.mktemp(f"{layout}-{n}"), CONFIG) for n in SIZES
        )
        found[layout] = {
            name: why
            for name in small
            if (
                why := peak_growth(small[name], large[name])
                + work_growth(small[name], large[name], N)
            )
        }
    return found


def test_every_command_kind_has_a_step():
    covered = {step.kind for _, step in script() if isinstance(step, GestureCommand)}
    assert registered_kinds() - covered == set()


@pytest.mark.parametrize("layout", ["in_memory", "paged"])
def test_no_command_grows_with_the_column(violations, layout):
    unexpected = {
        name: why for name, why in violations[layout].items() if name not in KNOWN_O_N
    }
    assert unexpected == {}


def test_the_allow_list_only_shrinks(violations):
    """An allow-listed step that no longer grows on any layout must leave
    :data:`KNOWN_O_N`."""
    still_growing = {name for found in violations.values() for name in found}
    assert KNOWN_O_N - still_growing == set()
