"""Device-profile sensitivity: the physical limits that shape Figure 4.

The number of data entries a gesture can expose is bounded by the device's
touch sampling rate.  These tests pin that relationship across the built-in
device profiles, independently of the benchmarks.
"""

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.touchio.device import IPAD1, IPAD1_PROTOTYPE, MODERN_TABLET, PHONE


class TestSamplingRateScaling:
    def _entries(self, profile, duration=1.0):
        session = ExplorationSession(profile=profile)
        session.load_column("c", np.arange(1_000_000))
        view = session.show_column("c", height_cm=6.0)
        session.choose_scan(view)
        return session.slide(view, duration=duration).entries_returned

    def test_faster_digitizer_registers_more_entries(self):
        prototype = self._entries(IPAD1_PROTOTYPE)
        ipad = self._entries(IPAD1)
        modern = self._entries(MODERN_TABLET)
        assert prototype < ipad < modern

    def test_entries_roughly_track_sampling_rate(self):
        ipad = self._entries(IPAD1, duration=2.0)
        modern = self._entries(MODERN_TABLET, duration=2.0)
        ratio = modern / ipad
        expected = MODERN_TABLET.sampling_rate_hz / IPAD1.sampling_rate_hz
        assert ratio == pytest.approx(expected, rel=0.15)

    def test_phone_screen_still_explorable(self):
        session = ExplorationSession(profile=PHONE)
        session.load_column("c", np.arange(100_000))
        view = session.show_column("c", height_cm=6.0)
        session.choose_summary(view, k=10)
        outcome = session.slide(view, duration=1.0)
        assert outcome.entries_returned > 5
        assert outcome.max_touch_latency_s < 0.05
