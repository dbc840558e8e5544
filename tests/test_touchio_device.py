"""Unit tests for the simulated touch device."""

import pytest

from repro.errors import TouchError
from repro.touchio.device import (
    IPAD1,
    IPAD1_PROTOTYPE,
    MODERN_TABLET,
    PHONE,
    DeviceProfile,
    TouchDevice,
)
from repro.touchio.views import make_column_view


class TestDeviceProfile:
    def test_validation(self):
        with pytest.raises(TouchError):
            DeviceProfile("bad", -1, 10, 60, 0.08)
        with pytest.raises(TouchError):
            DeviceProfile("bad", 10, 10, 0, 0.08)
        with pytest.raises(TouchError):
            DeviceProfile("bad", 10, 10, 60, 0)

    def test_max_touches_scales_with_duration(self):
        assert IPAD1.max_touches_for_duration(1.0) == 60
        assert IPAD1.max_touches_for_duration(2.0) == 120
        assert IPAD1.max_touches_for_duration(0.0) == 1
        assert IPAD1.max_touches_for_duration(-1.0) == 1

    def test_builtin_profiles_are_distinct(self):
        names = {p.name for p in (IPAD1, IPAD1_PROTOTYPE, MODERN_TABLET, PHONE)}
        assert len(names) == 4

    def test_prototype_profile_is_slower_than_digitizer(self):
        assert IPAD1_PROTOTYPE.sampling_rate_hz < IPAD1.sampling_rate_hz


class TestTouchDevice:
    def test_root_view_matches_screen(self):
        device = TouchDevice(IPAD1)
        assert device.root.width == IPAD1.screen_width_cm
        assert device.root.height == IPAD1.screen_height_cm

    def test_add_and_find_view(self):
        device = TouchDevice(IPAD1)
        view = make_column_view("col", "obj", num_tuples=10, height_cm=10, width_cm=2)
        device.add_view(view)
        assert device.view("col") is view

    def test_view_must_fit_on_screen(self):
        device = TouchDevice(PHONE)
        too_tall = make_column_view("big", "obj", num_tuples=10, height_cm=50)
        with pytest.raises(TouchError):
            device.add_view(too_tall)
        too_wide = make_column_view("wide", "obj", num_tuples=10, height_cm=5, width_cm=50)
        with pytest.raises(TouchError):
            device.add_view(too_wide)

    def test_clock(self):
        device = TouchDevice(IPAD1)
        assert device.now == 0.0
        device.advance_clock(1.5)
        assert device.now == 1.5

    def test_clock_cannot_go_backwards(self):
        device = TouchDevice(IPAD1)
        with pytest.raises(TouchError):
            device.advance_clock(-0.1)
