"""The touch cache is arrays: a slide's cache events cost no Python each.

Three guards:

* **Counted, no clock.**  Under ``sys.settrace``, the line events executed
  in ``repro/core/caching.py`` during one batch ``Slide`` through
  :meth:`LocalExplorationService.execute` are counted for a 40-touch and a
  400-touch stream, in memory and paged.  The counts are equal: the cache
  settles a gesture with whole-array passes, whatever its event count.
* **No Python per touch on the slide, but for one walk.**  The same count
  over ``core/batch.py``, ``core/prefetch.py``, ``core/result_stream.py``
  and ``core/caching.py`` — the executor, the proposal pass and the
  columnar result emission — is equal for the two streams too.  The
  prefetched-set walk (``BatchSlideExecutor._prefetch_membership``, one set
  lookup per read) is left out: it is the one per-touch loop the slide
  keeps, because at the sizes slides have it is cheaper than its sort-based
  replacement.
* **Exactness** (hypothesis).  On random event streams, namespaces and
  capacities (1, 7, 4,096 and 131,075 slots — past 2**16 the slots sort as
  ``int64``), :meth:`TouchCache.plan` and the ``settle`` it returns equal
  the per-touch loop's walk of :meth:`~TouchCache.get` /
  :meth:`~TouchCache.presence_probe` / :meth:`~TouchCache.put`: the same
  hits, writes and served values, the same final slot keys and values, and
  all four ``CacheStats`` fields.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch
import repro.core.caching as caching
import repro.core.prefetch as prefetch
import repro.core.result_stream as result_stream
from repro.core.caching import TouchCache
from repro.core.actions import scan_action
from repro.core.commands import ChooseAction, ShowColumn, Slide
from repro.core.kernel import KernelConfig
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService
from repro.storage.column import Column
from repro.touchio.device import DeviceProfile

# --------------------------------------------------------------------- #
# counted: the cache's Python work does not grow with the touches
# --------------------------------------------------------------------- #
PROFILE = DeviceProfile(
    name="cache-slots",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=60.0,
    finger_width_cm=0.08,
)
ROWS = 200_000


def _service(paged: bool, root) -> LocalExplorationService:
    values = np.random.default_rng(3).integers(0, 1_000_000, ROWS, dtype=np.int64)
    service = LocalExplorationService(profile=PROFILE, config=KernelConfig(latency_budget_s=1e6))
    if paged:
        catalog = StoreCatalog(DiskColumnStore(root))
        catalog.persist_column(Column("col", values), chunk_rows=1024)
        StoreCatalog.open_read_only(root, cache_bytes=1 << 20).attach(service.catalog)
    else:
        service.load_column("col", values)
    service.execute(ShowColumn(object_name="col", view_name="c"))
    service.execute(ChooseAction(view="c", action=scan_action()))
    return service


def _traced_slide(
    service, touches: int, start: float, end: float, modules=(caching,), skip=frozenset()
):
    """One slide of ``touches`` samples; returns (outcome, {file: lines run}).

    Lines of the functions whose code objects are in ``skip`` are not counted.
    """
    lines = {module.__file__: 0 for module in modules}

    def count_lines(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename] += 1
        return count_lines

    def on_call(frame, event, arg):
        code = frame.f_code
        return count_lines if code.co_filename in lines and code not in skip else None

    command = Slide(
        view="c",
        duration=(touches - 1) / PROFILE.sampling_rate_hz,
        start_fraction=start,
        end_fraction=end,
    )
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        envelope = service.execute(command)
    finally:
        sys.settrace(previous)
    return envelope.payload, lines


@pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
def test_a_slide_runs_the_same_cache_lines_for_40_and_400_touches(paged, tmp_path):
    service = _service(paged, tmp_path)
    service.execute(Slide(view="c", duration=0.5))  # first use of the namespace
    counted = {}
    for touches, start, end in ((40, 0.1, 0.4), (400, 0.9, 0.05)):
        outcome, lines = _traced_slide(service, touches, start, end)
        reads = outcome.cache_hits + outcome.cache_misses
        assert reads == len(outcome.rowids_touched) >= 0.9 * touches
        assert outcome.cache_misses > 0
        counted[touches] = lines[caching.__file__]
    assert counted[40] > 0
    assert counted[40] == counted[400]


SLIDE_MODULES = (batch, prefetch, result_stream, caching)
PER_TOUCH_WALK = frozenset({batch.BatchSlideExecutor._prefetch_membership.__code__})


@pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
def test_a_slide_runs_the_same_python_lines_for_40_and_400_touches(paged, tmp_path):
    service = _service(paged, tmp_path)
    service.execute(Slide(view="c", duration=0.5))  # first use of the namespace
    counted = {}
    for touches, start, end in ((40, 0.1, 0.4), (400, 0.9, 0.05)):
        outcome, lines = _traced_slide(
            service, touches, start, end, SLIDE_MODULES, PER_TOUCH_WALK
        )
        assert len(outcome.rowids_touched) >= 0.9 * touches
        assert len(outcome.results) == outcome.entries_returned > 0
        # proposals landed, so the proposal pass ran in full
        assert service.kernel.state_of("c").prefetched_rowids
        counted[touches] = lines
    assert all(counted[40].values()), counted[40]  # every module ran
    assert counted[40] == counted[400]


# --------------------------------------------------------------------- #
# exactness: the array plan is the scalar walk
# --------------------------------------------------------------------- #
NAMESPACES = [("a", "scan"), ("a", "summary:k4"), ("b", "scan"), "a"]

EVENT = st.tuples(
    st.integers(0, 2_000),  # rowid: 250 buckets of 8, so revisits happen
    st.integers(-1, 300),  # stride, including the clamp to 1
    st.booleans(),  # a read, or a prefetch proposal
)
GESTURE = st.tuples(
    st.sampled_from(range(len(NAMESPACES))),
    st.lists(EVENT, min_size=1, max_size=120),
    st.booleans(),  # invalidate object "a" before the gesture
)


def _scalar_walk(cache, namespace, events, value_of):
    """The per-touch loop's calls; returns (written events, served values)."""
    written, served = [], []
    for event, (rowid, stride, read) in enumerate(events):
        if read:
            value = cache.get(namespace, rowid, stride)
            if value is None:
                value = value_of(event)
                cache.put(namespace, rowid, value, stride)
                written.append(event)
            served.append(value)
        elif not cache.presence_probe(namespace, stride)(rowid):
            cache.put(namespace, rowid, value_of(event), stride)
            written.append(event)
    return written, served


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    capacity=st.sampled_from([1, 7, 4096, (1 << 17) + 3]),
    gestures=st.lists(GESTURE, min_size=1, max_size=5),
)
def test_plan_and_settle_equal_the_scalar_walk(capacity, gestures):
    scalar = TouchCache(capacity=capacity, bucket_rows=8)
    array = TouchCache(capacity=capacity, bucket_rows=8)
    for number, (ns_index, events, invalidate) in enumerate(gestures):
        if invalidate:
            assert scalar.invalidate("a") == array.invalidate("a")
        namespace = NAMESPACES[ns_index]

        def value_of(event):
            return float(number * 1_000 + event)

        written, served = _scalar_walk(scalar, namespace, events, value_of)
        hits_before = array.stats.hits

        rowids, strides, is_read = (np.array(column) for column in zip(*events))
        plan_written, num_hits, settle = array.plan(namespace, rowids, strides, is_read)
        assert np.flatnonzero(plan_written).tolist() == written
        values = np.full(len(events), np.nan)
        values[plan_written] = [value_of(event) for event in written]
        settle(values)

        assert values[is_read].tolist() == served
        assert num_hits == array.stats.hits - hits_before
        assert array.stats == scalar.stats  # hits, misses, insertions, evictions
        assert np.array_equal(array._keys, scalar._keys)
        assert array._values.tolist() == scalar._values.tolist()
    assert len(array) == len(scalar)
