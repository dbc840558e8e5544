"""Regression tests for displayed values across reloads, rotations, joins
and summary-window changes.

The classes are named after the bugs they were written for, which lived
in a touch cache and a prefetcher that no longer exist; each test keeps
the displayed-value assertions that pinned the bug:

* a select-where slide shows only rows whose where-value qualifies,
* the join hash-table cache is populated and reused,
* a reload, a rotation or a rescale never shows the replaced data,
* an interactive summary reads the window of the current effective ``k``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import join_action, scan_action, select_where_action, summary_action
from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile


@pytest.fixture
def profile() -> DeviceProfile:
    return DeviceProfile(
        name="fix-device",
        screen_width_cm=20.0,
        screen_height_cm=15.0,
        sampling_rate_hz=60.0,
        finger_width_cm=0.08,
    )


class TestPrefetchReadsActionColumn:
    """A select-where slide qualifies rows by the where attribute it reads."""

    @pytest.mark.parametrize("batch_execution", [False, True])
    def test_select_where_prefetch_does_not_poison_cache(self, profile, batch_execution):
        # column 0 holds values that PASS the predicate, the where attribute
        # holds values that FAIL it: a read of the wrong column qualifies
        n = 5000
        table = Table.from_arrays(
            "orders",
            {
                "id": np.full(n, 100, dtype=np.int64),
                "amount": np.full(n, 5, dtype=np.int64),
            },
        )
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(enable_samples=False, batch_execution=batch_execution),
        )
        session.load_table("orders", table)
        view = session.show_table("orders", height_cm=10.0, width_cm=8.0)
        session.choose_action(
            view,
            select_where_action("amount", Predicate(Comparison.GT, 10), ["id"]),
        )
        outcome = session.slide(view, duration=2.0)
        assert len(outcome.rowids_touched) > 0
        # no amount satisfies "> 10": nothing may qualify
        assert outcome.entries_returned == 0


class TestHashTableCacheReuse:
    """Tearing a join down caches its hash tables; re-attaching reuses them."""

    def _join_session(self, profile):
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(enable_samples=False),
        )
        keys = np.arange(500, dtype=np.int64) % 50
        session.load_column("left", keys)
        session.load_column("right", keys)
        left = session.show_column("left", height_cm=10.0, x=0.0)
        right = session.show_column("right", height_cm=10.0, x=5.0)
        session.choose_action(left, join_action("right"))
        session.choose_action(right, join_action("left"))
        session.slide(left, duration=1.0)
        session.slide(right, duration=1.0)
        return session, left, right

    def test_replacing_join_action_populates_cache(self, profile):
        session, left, right = self._join_session(profile)
        assert len(session.kernel.hash_table_cache) == 0
        session.choose_action(left, scan_action())
        assert len(session.kernel.hash_table_cache) == 1

    def test_teardown_ends_join_for_partner_until_reattach(self, profile):
        # a join is a pairwise agreement: one side replacing its action
        # ends it for the partner too (documented set_action semantics)
        session, left, right = self._join_session(profile)
        session.choose_action(left, scan_action())
        partner_outcome = session.slide(right, duration=0.5)
        assert partner_outcome.join_matches == 0
        session.choose_action(left, join_action("right"))
        resumed = session.slide(right, duration=0.5)
        assert resumed.join_matches > 0

    def test_rebinding_view_name_discards_cached_tables(self, profile):
        # hash-table snapshots are keyed by view names; reusing a view
        # name for a different object must not resurrect the old tables
        session, left, right = self._join_session(profile)
        session.choose_action(left, scan_action())  # snapshots under (left, right)
        assert len(session.kernel.hash_table_cache) == 1
        session.load_column("other", np.full(500, 9_999, dtype=np.int64))
        session.show_column("other", view_name=left.name, height_cm=10.0)
        session.choose_action(left.name, join_action("right"))
        rebuilt = session.kernel._join_for(left.name)
        # the join starts empty: the cached tables indexed the old object
        assert rebuilt.left_cardinality == 0 and rebuilt.right_cardinality == 0

    def test_reattached_join_starts_from_cached_tables(self, profile):
        session, left, right = self._join_session(profile)
        join_before = session.kernel._join_for(left.name)
        built_left = join_before.left_cardinality
        built_right = join_before.right_cardinality
        assert built_left > 0 and built_right > 0
        session.choose_action(left, scan_action())
        session.choose_action(left, join_action("right"))
        rebuilt = session.kernel._join_for(left.name)
        assert rebuilt is not join_before
        # the cached hash tables were reloaded before any new touch arrived
        assert session.kernel.hash_table_cache.stats.hits >= 1
        assert sum(len(v) for v in rebuilt._left.values()) >= built_left
        assert sum(len(v) for v in rebuilt._right.values()) >= built_right


class TestReloadAndRotation:
    """A mutated object never shows its replaced data."""

    @pytest.mark.parametrize("batch_execution", [False, True])
    def test_rotation_invalidates_cached_reads(self, profile, batch_execution):
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(enable_samples=False, batch_execution=batch_execution),
        )
        session.load_table(
            "events",
            {
                "a": np.arange(1000, dtype=np.int64),
                "b": np.arange(1000, dtype=np.int64) * 2,
            },
        )
        view = session.show_table("events", height_cm=10.0, width_cm=8.0)
        session.choose_action(
            view, select_where_action("a", Predicate(Comparison.GE, 0), ["b"])
        )
        for rotated in (False, True):
            if rotated:
                session.rotate(view)
            outcome = session.slide(view, duration=1.0)
            assert outcome.entries_returned > 0
            # every row shows its own b, before and after the layout changes
            assert [r.value for r in outcome.results] == [
                {"b": 2 * rowid} for rowid in outcome.rowids_touched.tolist()
            ]

    def test_data_reload_drops_stale_join_state(self, profile):
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(enable_samples=False),
        )
        keys = np.arange(500, dtype=np.int64) % 50
        session.load_column("left", keys)
        session.load_column("right", keys)
        left = session.show_column("left", height_cm=10.0, x=0.0)
        right = session.show_column("right", height_cm=10.0, x=5.0)
        session.choose_action(left, join_action("right"))
        session.choose_action(right, join_action("left"))
        session.slide(left, duration=1.0)
        assert session.kernel._join_for(left.name).left_cardinality > 0
        # reload the left column with values that share no join keys
        session.load_column("left", np.full(500, 10_000, dtype=np.int64), replace=True)
        rebuilt = session.kernel._join_for(left.name)
        # the join must restart empty: the old hash tables indexed values
        # that no longer exist
        assert rebuilt.left_cardinality == 0 and rebuilt.right_cardinality == 0
        outcome = session.slide(right, duration=1.0)
        assert outcome.join_matches == 0

    def test_data_reload_resets_incremental_rotation(self, profile):
        from repro.storage.layout import LayoutKind

        session = ExplorationSession(profile=profile)
        session.load_table(
            "t",
            {
                "a": np.arange(1000, dtype=np.int64),
                "b": np.arange(1000, dtype=np.int64),
            },
        )
        view = session.show_table("t", height_cm=10.0, width_cm=8.0)
        session.rotate(view)
        state = session.kernel.state_of(view.name)
        assert state.rotation is not None
        session.load_table(
            "t",
            {
                "a": np.arange(50, dtype=np.int64),
                "b": np.arange(50, dtype=np.int64),
            },
            replace=True,
        )
        # the rotation was converting the discarded table; it is dropped,
        # and layout reporting stays paired with the (still horizontal)
        # view orientation
        assert state.rotation is None
        assert state.layout_kind is LayoutKind.ROW_STORE
        assert view.properties.orientation == "horizontal"
        assert state.table is session.kernel.catalog.table("t")
        # a further rotate flips both back in sync
        session.rotate(view)
        assert view.properties.orientation == "vertical"
        assert state.layout_kind is LayoutKind.COLUMN_STORE

    def test_data_reload_rescales_view_mapping(self, profile):
        session = ExplorationSession(profile=profile)
        session.load_column("c", np.arange(1000, dtype=np.float64))
        view = session.show_column("c", height_cm=10.0)
        session.choose_scan(view)
        session.slide(view, duration=1.0)
        # reload with a different row count: the view metadata must re-scale
        # or every later touch maps through the stale extent
        session.load_column("c", np.arange(100, dtype=np.float64), replace=True)
        assert view.properties.num_tuples == 100
        outcome = session.slide(view, duration=1.0)
        assert 0 <= min(outcome.rowids_touched)
        assert max(outcome.rowids_touched) == 99

    def test_replace_on_remote_backend_rehosts_and_rescales(self):
        # replace-reloads used to be a local-only feature; the serving
        # engine's reload path now re-hosts on the server, rebuilds the
        # device-side sample clients and re-scales shown view metadata
        from repro.remote import RemoteExplorationService

        session = ExplorationSession(service=RemoteExplorationService())
        session.load_column("c", np.arange(1000, dtype=np.int64))
        view = session.show_column("c", height_cm=10.0)
        session.load_column("c", np.arange(100, dtype=np.int64), replace=True)
        assert view.properties.num_tuples == 100
        assert session.service.server.read_value("c", 99).values[0] == 99

    def test_data_reload_drops_stale_entries_and_values(self, profile):
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(enable_samples=False),
        )
        session.load_column("c", np.zeros(10_000, dtype=np.int64))
        view = session.show_column("c", height_cm=10.0)
        session.choose_scan(view)
        first = session.slide(view, duration=1.0)
        assert all(r.value == 0 for r in first.results)
        session.load_column("c", np.ones(10_000, dtype=np.int64), replace=True)
        second = session.slide(view, duration=1.0)
        # no zero read before the reload may survive it
        assert second.results and all(r.value == 1 for r in second.results)


class TestSummaryCacheTracksEffectiveK:
    """A summary computed at one k is never shown for a different k."""

    @pytest.mark.parametrize("batch_execution", [False, True])
    def test_shrunk_k_bypasses_stale_entries(self, profile, batch_execution):
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(enable_samples=False, batch_execution=batch_execution),
        )
        session.load_column("c", np.arange(100_000, dtype=np.int64))
        view = session.show_column("c", height_cm=10.0)
        session.choose_action(view, summary_action(k=10))
        first = session.slide(view, duration=1.0, start_fraction=0.3, end_fraction=0.7)
        assert first.tuples_examined == 21 * first.entries_returned

        # simulate sustained latency-budget violations: the optimizer
        # shrinks its summary allowance, changing the effective k; the
        # budget is pinned below any real touch latency so the allowance
        # cannot recover while the second slide runs
        optimizer = session.kernel.optimizer
        optimizer.latency_budget_s = 1e-9
        while optimizer.current_summary_k > 1:
            optimizer.observe_touch(optimizer.latency_budget_s * 10)
        k_eff = session.kernel._effective_summary_k(session.kernel.state_of(view.name))
        assert k_eff < 10

        second = session.slide(view, duration=1.0, start_fraction=0.3, end_fraction=0.7)
        # every touch of the revisit reads the shrunk window
        assert second.entries_returned > 0
        assert second.tuples_examined == (2 * k_eff + 1) * second.entries_returned
