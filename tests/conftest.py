"""Shared fixtures for the dbTouch reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.device import IPAD1, DeviceProfile


@pytest.fixture
def small_column() -> Column:
    """A tiny, fully predictable integer column (values 0..99)."""
    return Column("small", np.arange(100, dtype=np.int64))


@pytest.fixture
def medium_column() -> Column:
    """A 100k-row column of deterministic pseudo-random integers."""
    rng = np.random.default_rng(3)
    return Column("medium", rng.integers(0, 1_000_000, size=100_000, dtype=np.int64))


@pytest.fixture
def small_table() -> Table:
    """A 1000-row, 4-column table with predictable contents."""
    n = 1000
    return Table.from_arrays(
        "events",
        {
            "id": np.arange(n, dtype=np.int64),
            "value": np.arange(n, dtype=np.int64) * 2,
            "category": np.arange(n, dtype=np.int64) % 7,
            "score": np.linspace(0.0, 1.0, n),
        },
    )


@pytest.fixture
def fast_profile() -> DeviceProfile:
    """A device profile with a low sampling rate, keeping tests fast."""
    return DeviceProfile(
        name="test-device",
        screen_width_cm=20.0,
        screen_height_cm=15.0,
        sampling_rate_hz=20.0,
        finger_width_cm=0.08,
    )


@pytest.fixture
def session(fast_profile) -> ExplorationSession:
    """An exploration session on the fast test device with default config."""
    return ExplorationSession(profile=fast_profile)


@pytest.fixture
def bare_session(fast_profile) -> ExplorationSession:
    """A session with the sample hierarchy disabled.

    Useful when a test needs tuples_examined to reflect exactly the touches
    that were processed.
    """
    config = KernelConfig(enable_samples=False)
    return ExplorationSession(profile=fast_profile, config=config)


@pytest.fixture
def ipad_session() -> ExplorationSession:
    """A session using the paper's iPad 1 profile (60 Hz digitizer)."""
    return ExplorationSession(profile=IPAD1)
