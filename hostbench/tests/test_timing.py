"""Samples: a unit's seconds are scaled by the loops timed around it."""

import time

import pytest

from hostbench import timing


def test_units_are_scaled_by_the_loops_around_them(monkeypatch):
    # A machine running at half speed: every loop takes twice the reference.
    monkeypatch.setattr(timing, "calibration_loop", lambda: 2 * timing.REFERENCE_LOOP_S)
    samples = timing.Samples()
    samples.begin_rep()
    samples.add("create", 16, time.perf_counter() - 0.2)
    samples.add("resume", 16, time.perf_counter() - 0.1)
    assert samples.phases() == ("create", "resume")
    assert samples.seconds("create") == pytest.approx(0.1, abs=0.01)
    assert samples.seconds("create", "resume") == pytest.approx(0.15, abs=0.01)
    assert samples.each("resume") == [pytest.approx(0.05, abs=0.01)]
    assert samples.rate("resume") == pytest.approx(16 / 0.05, rel=0.1)
    assert samples.rate("read") is None
    assert samples.factor == pytest.approx(0.5)


def test_loops_cover_a_share_of_the_unit(monkeypatch):
    loops = []
    monkeypatch.setattr(timing, "calibration_loop", lambda: loops.append(1) or 0.01)
    samples = timing.Samples()
    samples.add("asbcheck", 200, time.perf_counter() - 0.95)
    assert len(loops) == 10 and samples.count("asbcheck") == 1
    samples.add("create", 16, time.perf_counter())
    assert len(loops) == 11  # never fewer than one


def test_only_nearby_loops_count(monkeypatch):
    speeds = iter([4.0, 1.0])
    monkeypatch.setattr(timing, "calibration_loop",
                        lambda: next(speeds) * timing.REFERENCE_LOOP_S)
    samples = timing.Samples()
    now = time.perf_counter()
    samples.add("create", 1, now)
    # As if that unit had run for 1 ms, 10 s ago.
    samples.units[0] = samples.units[0][:3] + (now - 10.0, now - 9.999)
    samples._loop_at[0] = now - 9.99
    samples.add("create", 1, time.perf_counter() - 0.001)
    assert samples.each("create") == [pytest.approx(0.00025, rel=0.01),
                                      pytest.approx(0.001, rel=0.2)]
