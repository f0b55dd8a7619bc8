"""Pluggable nondeterminism: every decision the kernel does not fully
determine flows through one :class:`NondetSource`.

Three call sites exist (see ``kernel.py`` and ``faults/injector.py``):

- ``choose("pick", options)`` — which runnable task steps next.  Option 0
  is always the plain FIFO head, so a source that answers 0 everywhere
  reproduces the deterministic round-robin exactly.
- ``choose("wake", ("timers", "task"))`` — with a due timer *and* a
  runnable task, which goes first.  Option 0 ("timers") is the kernel's
  historical order.
- ``chance(kind, p, target)`` — a fault-injection rule firing with
  probability *p*.

The split matters because it makes a run a pure function of
``(program, fault plan, source)``: the seeded PRNG that used to live
inside :class:`~repro.faults.injector.FaultInjector` becomes one source
(:class:`SeededSource`, byte-identical decision stream), and the
schedule-space explorer (:mod:`repro.analysis.sched`) becomes another
(:class:`ScriptedSource`, which replays a decision prefix and records
every choice point it was consulted at).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class ChoicePoint:
    """One consulted decision, as recorded by a :class:`ScriptedSource`."""

    seq: int                  # position in the decision stream
    kind: str                 # "pick", "wake", "chance:<rule kind>", ...
    options: Tuple[str, ...]  # human-readable option labels
    chosen: int               # index actually taken

    @property
    def forced(self) -> bool:
        """A point with one option carries no information."""
        return len(self.options) <= 1

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "chosen": self.chosen,
            "option": self.options[self.chosen] if self.options else "",
            "options": list(self.options),
        }


class NondetSource:
    """Base source: deterministic defaults (FIFO pick, timers-first wake,
    faults never fire).  Subclasses override either method."""

    def choose(self, kind: str, options: Sequence[str]) -> int:
        """Pick one of *options*; must return a valid index.  Index 0 is
        always the kernel's historical deterministic choice."""
        return 0

    def chance(self, kind: str, p: float, target: str = "") -> bool:
        """A probability-*p* event (fault rule firing): True = it fires."""
        return False


class SeededSource(NondetSource):
    """The classic seeded PRNG, now behind the interface.

    ``chance`` draws exactly one sample per call — the same
    ``random.Random(seed)`` stream, in the same order, as the PRNG that
    previously lived inside the fault injector — so existing (plan, seed)
    pairs replay their fault logs byte for byte.  ``choose`` stays at the
    FIFO default: scheduling was never randomised and must not start now.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)

    def chance(self, kind: str, p: float, target: str = "") -> bool:
        return self.rng.random() < p


class ScriptedSource(NondetSource):
    """Replays a decision prefix, answers the default beyond it, and logs
    every choice point — the explorer's window into the kernel.

    *script* is a list of option indices consumed in decision order.  An
    out-of-range or exhausted entry falls back to 0, so any prefix of any
    recorded run is a valid script.  A fractional-probability fault rule
    is an explicit two-way choice point ("skip"/"fire"), never a PRNG
    draw, so a (plan, schedule) pair fully determines a run; ``p <= 0``
    and ``p >= 1`` short-circuit without a choice point.
    """

    def __init__(self, script: Sequence[int] = ()):
        self.script = list(script)
        self.log: List[ChoicePoint] = []

    def _record(self, kind: str, options: Sequence[str]) -> int:
        seq = len(self.log)
        chosen = self.script[seq] if seq < len(self.script) else 0
        if not 0 <= chosen < len(options):
            chosen = 0
        self.log.append(ChoicePoint(seq, kind, tuple(options), chosen))
        return chosen

    def choose(self, kind: str, options: Sequence[str]) -> int:
        return self._record(kind, options)

    def chance(self, kind: str, p: float, target: str = "") -> bool:
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        name = f"chance:{kind}:{target}" if target else f"chance:{kind}"
        return self._record(name, ("skip", "fire")) == 1

    def decisions(self) -> List[int]:
        """The run's full decision vector (replaying it through a fresh
        kernel reproduces the run exactly)."""
        return [point.chosen for point in self.log]
