"""End-to-end wiring of the trace-mining loop into serving.

Record → corpus → mine → checkpoint → adopt → speculate, across every
layer that carries the policy: the session facade, the local service
(adoption surviving reset), the multi-session server (serial inline and
background-lane execution, telemetry collector), and the sharded fleet
(checkpoint crossing the process boundary, stats-verb aggregation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commands import ChooseAction, ShowColumn, Slide, Tap, ZoomIn
from repro.core.actions import scan_action, summary_action
from repro.core.session import ExplorationSession
from repro.errors import MiningError, QueryError, ServiceError
from repro.mining import (
    GestureTransitionModel,
    SpeculativePolicy,
    TraceCorpus,
    mine_corpus,
)
from repro.service import (
    LocalExplorationService,
    MultiSessionServer,
    SchedulerConfig,
    _as_speculation_policy,
)
from repro.storage.column import Column
from repro.touchio.device import DeviceProfile

PROFILE = DeviceProfile(
    name="mining-device",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=25.0,
    finger_width_cm=0.08,
)


def slide_heavy_model(obj: str = "data", order: int = 2) -> GestureTransitionModel:
    """A model trained so slides predict more slides on ``obj``."""
    model = GestureTransitionModel(order=order)
    for _ in range(5):
        model.observe_trace(
            [ShowColumn(object_name=obj, view_name="v")]
            + [
                Slide(view="v", duration=0.4, start_fraction=0.1, end_fraction=0.9)
                for _ in range(6)
            ]
            + [Tap(view="v", fraction=0.5)]
        )
    return model


def exploring_session(policy=None) -> ExplorationSession:
    session = ExplorationSession(profile=PROFILE)
    if policy is not None:
        session.adopt_speculation(policy)
    rng = np.random.default_rng(3)
    session.load_column("data", rng.integers(0, 1_000, size=20_000, dtype=np.int64))
    return session


def test_record_mine_adopt_loop(tmp_path):
    """The full fleet loop: traces recorded live train the next policy."""
    corpus = TraceCorpus(tmp_path / "corpus")
    for seed in range(3):
        session = exploring_session()
        session.record_trace()
        view = session.show_column("data")
        rng = np.random.default_rng(seed)
        for _ in range(8):
            if rng.random() < 0.7:
                session.slide(view, duration=0.4, start_fraction=0.1, end_fraction=0.9)
            else:
                session.tap(view, fraction=float(rng.random()))
        corpus.append_trace(session.stop_trace())
    report = mine_corpus(corpus, order=2)
    assert report.traces == 3 and report.skipped == 0
    checkpoint = report.model.save(tmp_path / "policy.json")

    replay = exploring_session(
        SpeculativePolicy(GestureTransitionModel.load(checkpoint))
    )
    view = replay.show_column("data")
    for _ in range(6):
        replay.slide(view, duration=0.4, start_fraction=0.1, end_fraction=0.9)
    stats = replay.speculation_stats()
    assert stats["mined_predictions"] > 0
    assert stats["mined_hits"] > 0, "slide-heavy corpus must predict the slides"
    assert stats["speculations_completed"] == stats["speculations_scheduled"] > 0
    assert stats["speculation_errors"] == 0
    assert stats["model_transitions"] == report.model.transitions_observed


def test_adoption_survives_service_reset():
    """Like adopt_index_manager: reset() re-installs the adopted policy."""
    service = LocalExplorationService(profile=PROFILE)
    policy = SpeculativePolicy(slide_heavy_model())
    service.adopt_speculation(policy)
    rng = np.random.default_rng(5)
    service.load_column("data", rng.integers(0, 100, size=5_000, dtype=np.int64))
    service.reset()
    assert service.kernel.speculation is policy
    service.load_column("data", rng.integers(0, 100, size=5_000, dtype=np.int64))
    service.execute(ShowColumn(object_name="data", view_name="v"))
    service.execute(Slide(view="v", duration=0.3, start_fraction=0.1, end_fraction=0.9))
    service.execute(Slide(view="v", duration=0.3, start_fraction=0.1, end_fraction=0.9))
    stats = service.speculation_stats()
    assert stats["mined_predictions"] > 0
    assert stats["progress_reports"] > 0, "post-reset prefetchers rebind to the policy"


def test_adoption_binds_already_shown_views():
    """Adopting mid-session rebinds the live prefetchers, not just new ones."""
    session = exploring_session()
    view = session.show_column("data")
    policy = SpeculativePolicy(slide_heavy_model())
    session.adopt_speculation(policy)
    session.slide(view, duration=0.3, start_fraction=0.1, end_fraction=0.9)
    session.slide(view, duration=0.3, start_fraction=0.1, end_fraction=0.9)
    stats = policy.stats_snapshot()
    assert stats["progress_reports"] > 0
    assert stats["mined_predictions"] > 0


def test_serial_server_runs_speculation_inline():
    """Without a scheduler there is no background lane: warm-ups run inline."""
    server = MultiSessionServer(
        service_factory=lambda: LocalExplorationService(profile=PROFILE),
        speculation=slide_heavy_model(),
    )
    rng = np.random.default_rng(11)
    server.load_shared_column("data", Column("data", rng.integers(0, 100, size=10_000)))
    sid = server.open_session("inline")
    server.execute(sid, ShowColumn(object_name="data", view_name="v"))
    for _ in range(4):
        server.execute(
            sid, Slide(view="v", duration=0.3, start_fraction=0.1, end_fraction=0.9)
        )
    stats = server.speculation_stats()
    assert stats["speculations_scheduled"] > 0
    assert stats["speculations_completed"] == stats["speculations_scheduled"]
    server.shutdown()


def test_concurrent_server_telemetry_exposes_speculation():
    """The registry's speculation collector lands in snapshot + exposition."""
    server = MultiSessionServer(
        service_factory=lambda: LocalExplorationService(profile=PROFILE),
        scheduler=SchedulerConfig(num_workers=2),
        speculation=slide_heavy_model(),
    )
    rng = np.random.default_rng(13)
    server.load_shared_column("data", Column("data", rng.integers(0, 100, size=10_000)))
    sid = server.open_session("scraped")
    server.execute(sid, ShowColumn(object_name="data", view_name="v"))
    for _ in range(4):
        server.execute(
            sid, Slide(view="v", duration=0.3, start_fraction=0.1, end_fraction=0.9)
        )
    server.drain(timeout=30.0)
    snapshot = server.telemetry.snapshot()
    assert snapshot["speculation_mined_predictions"] > 0
    assert snapshot["speculation_speculations_completed"] > 0
    assert "speculation_speculation_errors" in snapshot
    assert "speculation_mined_predictions" in server.telemetry.exposition()
    server.shutdown()


def test_server_without_speculation_reports_none():
    server = MultiSessionServer(
        service_factory=lambda: LocalExplorationService(profile=PROFILE)
    )
    assert server.speculation is None
    assert server.speculation_stats() is None
    server.shutdown()


def test_as_speculation_policy_coercions(tmp_path):
    assert _as_speculation_policy(None) is None
    assert _as_speculation_policy(False) is None
    fresh = _as_speculation_policy(True)
    assert isinstance(fresh, SpeculativePolicy)
    assert fresh.model.transitions_observed == 0
    policy = SpeculativePolicy(slide_heavy_model())
    assert _as_speculation_policy(policy) is policy
    model = slide_heavy_model()
    wrapped = _as_speculation_policy(model)
    assert isinstance(wrapped, SpeculativePolicy) and wrapped.model is model
    path = model.save(tmp_path / "ckpt.json")
    loaded = _as_speculation_policy(str(path))
    assert loaded.model.to_dict() == model.to_dict()
    with pytest.raises(ServiceError):
        _as_speculation_policy(42)


def test_session_facade_rejects_backends_without_the_hook():
    class Backendless:
        pass

    session = ExplorationSession.__new__(ExplorationSession)
    session._service = Backendless()
    with pytest.raises(QueryError):
        session.adopt_speculation(SpeculativePolicy(slide_heavy_model()))
    assert session.speculation_stats() is None


def test_policy_plans_only_for_warmable_kinds():
    model = GestureTransitionModel(order=1)
    model.observe_trace(
        [
            ShowColumn(object_name="data", view_name="v"),
            ChooseAction(view="v", action=scan_action()),
            Slide(view="v", duration=0.3, start_fraction=0.1, end_fraction=0.9),
            ZoomIn(view="v", duration=0.2),
        ]
    )
    policy = SpeculativePolicy(model)
    # after show-column the corpus always chose an action: not warmable
    policy.observe_command("data", "show-column")
    assert policy.prediction("data") == "choose-action"
    assert policy.speculation_plan("data") is None
    # after a slide the corpus zoomed in: warmable
    policy.observe_command("data", "slide")
    assert policy.prediction("data") == "zoom-in"
    plan = policy.speculation_plan("data")
    assert plan is not None and plan.predicted_kind == "zoom-in"
    assert (plan.rowid, plan.direction, plan.stride, plan.num_tuples) == (-1, 0, 1, 0)
    policy.observe_progress("data", 120, 1, 4, 10_000)
    plan = policy.speculation_plan("data")
    assert (plan.rowid, plan.direction, plan.stride, plan.num_tuples) == (120, 1, 4, 10_000)


def test_policy_staging_store_is_lru_capped():
    policy = SpeculativePolicy(slide_heavy_model(), max_staged_levels=2)
    for stride in (2, 4, 8):
        policy.stage_level("data", stride, np.arange(stride))
    assert list(policy._staged) == [("data", 4), ("data", 8)]  # stride 2 evicted
    stats = policy.stats_snapshot()
    assert stats["levels_staged"] == 3
    assert stats["staged_levels"] == 2


def test_policy_rejects_degenerate_parameters():
    model = slide_heavy_model()
    with pytest.raises(MiningError):
        SpeculativePolicy(model, warm_window=0)
    with pytest.raises(MiningError):
        SpeculativePolicy(model, max_staged_levels=0)


def test_run_speculation_warms_every_plan_shape():
    """Each warmable kind maps to its own warming window; errors count."""
    from repro.mining import SpeculationPlan

    service = LocalExplorationService(profile=PROFILE)
    policy = SpeculativePolicy(slide_heavy_model())
    service.adopt_speculation(policy)
    rng = np.random.default_rng(21)
    service.load_column("data", rng.integers(0, 100, size=10_000, dtype=np.int64))
    n = 10_000

    def plan(kind, **kw):
        return SpeculationPlan(object_name="data", predicted_kind=kind, **kw)

    # forward slide window from the gesture's anchor, clipped to range
    assert service.run_speculation(plan("slide", rowid=100, direction=1, stride=2)) == 512
    assert service.run_speculation(plan("slide", rowid=n - 3, direction=1, stride=4)) == 0
    # backward slide and the no-progress default (anchor 0, forward)
    assert service.run_speculation(plan("slide-path", rowid=5_000, direction=-1)) == 512
    assert service.run_speculation(plan("slide")) == 512
    # a tap warms a centered window
    assert service.run_speculation(plan("tap", rowid=5_000)) == 513
    assert service.run_speculation(plan("tap")) == 513  # centered on the middle
    # zooms stage the predicted level in the policy's private store
    factor = max(2, service.kernel.config.sample_factor)
    warmed = service.run_speculation(plan("zoom-out", stride=4))
    assert warmed == min(512, len(range(0, n, 4 * factor)))
    assert ("data", 4 * factor) in policy._staged
    warmed = service.run_speculation(plan("zoom-in", stride=8))
    assert warmed == min(512, len(range(0, n, max(1, 8 // factor))))
    # non-column objects and unwarmable kinds are no-ops, not errors
    assert service.run_speculation(plan("rotate")) == 0
    assert (
        service.run_speculation(
            SpeculationPlan(object_name="missing", predicted_kind="slide")
        )
        == 0
    )
    stats = policy.stats_snapshot()
    assert stats["speculation_errors"] == 0
    assert stats["levels_staged"] == 2
    # unknown objects are a quiet no-op; a defective plan is swallowed
    # into the error counter, never raised into the background lane
    assert (
        service.run_speculation(
            SpeculationPlan(object_name=None, predicted_kind="slide")
        )
        == 0
    )
    assert service.run_speculation(plan("slide", rowid="boom")) == 0
    assert policy.stats_snapshot()["speculation_errors"] == 1


def test_sharded_fleet_aggregates_speculation(tmp_path):
    """A checkpoint path crosses the worker process boundary; the stats
    verb sums every shard's mined counters (None without a checkpoint)."""
    from repro.persist.diskstore import DiskColumnStore
    from repro.persist.snapshot import StoreCatalog
    from repro.serving import (
        ShardedClient,
        ShardedServer,
        ShardedServerConfig,
        WorkerConfig,
    )

    snapshot_root = tmp_path / "snap"
    rng = np.random.default_rng(17)
    catalog = StoreCatalog(DiskColumnStore(snapshot_root))
    catalog.persist_column(Column("telemetry", rng.normal(size=20_000)))
    checkpoint = slide_heavy_model(obj="telemetry").save(tmp_path / "policy.json")

    config = ShardedServerConfig(
        num_workers=2,
        worker=WorkerConfig(
            snapshot_path=str(snapshot_root),
            scheduler_workers=2,
            speculation_checkpoint=str(checkpoint),
        ),
    )
    with ShardedServer(config) as server:
        clients = [
            ShardedClient("127.0.0.1", server.port, session_id=f"spec-{i}")
            for i in range(3)
        ]
        try:
            for client in clients:
                client.execute(ShowColumn(object_name="telemetry", view_name="v"))
                client.execute(ChooseAction(view="v", action=summary_action(k=10)))
                for _ in range(3):
                    client.execute(
                        Slide(
                            view="v",
                            duration=0.5,
                            start_fraction=0.1,
                            end_fraction=0.8,
                        )
                    )
            stats = clients[0].stats()
        finally:
            for client in clients:
                client.close()
    speculation = stats["speculation"]
    assert speculation is not None
    assert speculation["mined_predictions"] > 0
    assert speculation["speculations_scheduled"] > 0
    assert speculation["model_transitions"] > 0
