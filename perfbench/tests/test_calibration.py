"""Timed pieces are scaled by the calibration readings around them."""

import time

from calibration import REFERENCE_S, HostSpeed


def test_calibration_scales_nested_pieces_by_their_own_readings():
    speed = HostSpeed()
    _, outer, outer_factor = speed.timed("all", lambda: speed.timed("numpy_calls", lambda: time.sleep(0.02)))
    inner_reading = speed.readings["numpy_calls"]
    inner_factor = REFERENCE_S["numpy_calls"] / (0.5 * (inner_reading[0] + inner_reading[1]))
    # The outer piece's own remainder is tiny; its time is the inner piece's.
    assert abs(outer - 0.02 * inner_factor) < 0.01 * inner_factor
    assert len(speed.readings["all"]) == 2 and outer_factor > 0
