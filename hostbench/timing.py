"""Host time, in **calibrated seconds**.

This box's speed dips for a second or drifts by 20-40% for minutes
(README.md, "Noise"), and a stopwatch total over 10 s repeats no better
than that.  A fixed pure-Python loop timed right after every unit sees
the same slowdown, so a unit's seconds are scaled by
``REFERENCE_LOOP_S / the mean loop time around it`` — to what the quiet
machine would have taken.  The loop mixes what the program mixes
(arithmetic, allocation, dict and tuple work, a generator): a bare
arithmetic loop tracked the slowdown only half as well.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

#: What :func:`calibration_loop` takes on this box when it is quiet.
REFERENCE_LOOP_S = 1.9e-3
#: Loops are timed after a unit until they amount to this share of it.
LOOP_SHARE = 0.1
#: A unit is scaled by the loops timed from this long before it began to
#: this long after it ended.
WINDOW_S = 0.25


class _Entry:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: Tuple[int, int]) -> None:
        self.key = key
        self.pair = pair

    def first(self) -> int:
        return self.pair[0]


def _echo():
    value = 0
    while True:
        value = yield value


def calibration_loop() -> float:
    """Host seconds of a fixed pure-Python loop: how fast this machine
    is at this moment."""
    begun = time.perf_counter()
    table, recent, echo, total = {}, [], _echo(), 0
    next(echo)
    for i in range(2000):
        total += i * i
        entry = _Entry(i, (i, i + 1))
        table[i & 255] = entry
        recent.append(tuple(sorted((entry.first(), i ^ 5, i & 7))))
        echo.send(i)
        if len(recent) > 64:
            del recent[:32]
        merged = {**{1: 2}, i: i}
    return time.perf_counter() - begun


class Samples:
    """The timed units of a run — a wave, a cluster batch, a checker
    pass, a site build — each beside the calibration loops around it."""

    def __init__(self) -> None:
        #: ``(rep, phase, ops, start, end)`` in time order.
        self.units: List[Tuple[int, str, int, float, float]] = []
        self.rep = -1
        self._loop_at: List[float] = []
        self._loop_s: List[float] = []

    def begin_rep(self) -> None:
        self.rep += 1

    def add(self, phase: str, ops: int, begun: float) -> None:
        """A unit that began at *begun* and ends now, then its
        calibration loops."""
        end = time.perf_counter()
        self.units.append((self.rep, phase, ops, begun, end))
        owed = (end - begun) * LOOP_SHARE
        while True:
            loop = calibration_loop()
            self._loop_at.append(time.perf_counter())
            self._loop_s.append(loop)
            owed -= loop
            if owed <= 0:
                break

    # -- reading ---------------------------------------------------------

    def phases(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(unit[1] for unit in self.units))

    def count(self, phase: str) -> int:
        return sum(unit[1] == phase for unit in self.units)

    @property
    def loop_seconds(self) -> float:
        """The run's mean calibration loop."""
        return sum(self._loop_s) / len(self._loop_s)

    @property
    def factor(self) -> float:
        """Calibrated seconds per measured second over the whole run, for
        times taken inside units (span self times)."""
        return REFERENCE_LOOP_S / self.loop_seconds

    def _calibrated(self, unit: Tuple[int, str, int, float, float]) -> float:
        _, _, _, start, end = unit
        # The loops timed right after the unit are always in the window.
        low = bisect_left(self._loop_at, start - WINDOW_S)
        high = bisect_right(self._loop_at, end + WINDOW_S)
        near = self._loop_s[low:high]
        return (end - start) * REFERENCE_LOOP_S * len(near) / sum(near)

    def each(self, phase: str) -> List[float]:
        """Calibrated seconds of every unit of *phase*."""
        return [self._calibrated(unit) for unit in self.units if unit[1] == phase]

    def seconds(self, *phases: str) -> float:
        return sum(self._calibrated(unit) for unit in self.units if unit[1] in phases)

    def ops(self, *phases: str) -> int:
        return sum(unit[2] for unit in self.units if unit[1] in phases)

    def rate(self, *phases: str) -> Optional[float]:
        """Ops per calibrated host second over every rep; ``None`` if the
        phases never ran."""
        seconds = self.seconds(*phases)
        return self.ops(*phases) / seconds if seconds else None
