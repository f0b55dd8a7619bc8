"""The seeded fault injector the kernel consults at its choke points.

Determinism is the whole design: every probabilistic decision flows
through one :class:`~repro.kernel.nondet.NondetSource` — by default a
:class:`~repro.kernel.nondet.SeededSource` whose dedicated
``random.Random(seed)`` draws in the (already deterministic) order of
kernel events, so the same (plan, seed) pair replays the identical fault
sequence byte for byte.  The injector never touches the global
:mod:`random` state.  The schedule-space explorer
(:mod:`repro.analysis.sched`) passes its own source instead, turning
each fractional-probability rule into an explicit branch point, so a
(plan, seed, schedule) triple fully determines a run.

Every fired fault is recorded three ways:

- a :class:`FaultEvent` in :attr:`FaultInjector.events` (the canonical
  log; :meth:`events_json` is the byte-comparable form);
- a ``kernel.faults.<kind>`` metrics counter (when metrics are enabled),
  so campaigns can reconcile injected faults against the DropLog;
- an instant span on the kernel's span recorder (when spans are enabled),
  so faults show up in the Chrome trace next to the messages they ate.

The injector is *armed* or not: campaigns boot the site with the injector
disarmed (launch traffic stays reliable), then arm it for the measured
phase.  A kernel simply given ``KernelConfig(faults=...)`` is armed from boot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.faults.plan import FaultPlan, FaultRule
from repro.kernel.nondet import NondetSource, SeededSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the event log."""

    seq: int          # injector-local event number
    step: int         # kernel scheduler step at firing
    now: int          # virtual time (cycles) at firing
    kind: str         # rule kind
    rule: str         # rule id
    target: str       # victim: task name, "<sender>-><port>", ...
    detail: Dict[str, Any]

    def to_json(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "step": self.step,
            "now": self.now,
            "kind": self.kind,
            "rule": self.rule,
            "target": self.target,
            "detail": dict(self.detail),
        }


class FaultInjector:
    """Deterministic fault source for one kernel.

    The kernel calls the ``on_*`` hooks from its choke points; each hook
    is a no-op returning "no fault" unless the injector is armed and a
    live rule matches.  All hooks are cheap when the plan has no rule of
    the relevant kind (the per-kind rule tuples are precomputed).
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        kernel: Optional["Kernel"] = None,
        source: Optional[NondetSource] = None,
    ):
        self.plan = plan
        self.seed = seed
        self.source = source if source is not None else SeededSource(seed)
        self.armed = True
        self.events: List[FaultEvent] = []
        self._fires: Dict[str, int] = {}
        self._syscalls: Dict[str, int] = {}
        self._io_appends: Dict[str, int] = {}
        # Per-kind rule views, consulted in plan order.
        self._send_rules = plan.by_kind("drop", "delay")
        self._squeeze_rules = plan.by_kind("queue_limit")
        self._crash_rules = plan.by_kind("crash")
        self._stall_rules = plan.by_kind("stall")
        self._spawn_rules = plan.by_kind("spawn_fail")
        self._step_rules = plan.by_kind("kill_ep", "clock_noise")
        self._io_rules = plan.by_kind("crash_at_io")
        self._kernel: Optional["Kernel"] = None
        self._counters: Dict[str, Any] = {}
        if kernel is not None:
            self.attach(kernel)

    @property
    def rng(self):
        """The PRNG behind the decision source (determinism tests reach in
        to assert an armed-but-idle injector never advances it)."""
        return self.source.rng

    def attach(self, kernel: "Kernel") -> None:
        """Bind to *kernel*: register the ``kernel.faults.*`` counters."""
        self._kernel = kernel
        scope = kernel.metrics.scope("kernel.faults")
        self._counters = {kind: scope.counter(kind) for kind in _COUNTED_KINDS}
        self._counters["injected"] = scope.counter("injected")

    # -- arming -------------------------------------------------------------

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    # -- bookkeeping --------------------------------------------------------

    def _live(self, rule: FaultRule, step: int) -> bool:
        if not rule.in_window(step):
            return False
        if rule.max_fires is not None and self._fires.get(rule.id, 0) >= rule.max_fires:
            return False
        return True

    def _fire(self, rule: FaultRule, target: str, **detail: Any) -> None:
        kernel = self._kernel
        step = kernel.steps_executed if kernel is not None else 0
        now = kernel.clock.now if kernel is not None else 0
        self._fires[rule.id] = self._fires.get(rule.id, 0) + 1
        event = FaultEvent(
            seq=len(self.events) + 1,
            step=step,
            now=now,
            kind=rule.kind,
            rule=rule.id,
            target=target,
            detail=detail,
        )
        self.events.append(event)
        if kernel is not None:
            if self._counters:
                self._counters[rule.kind].inc()
                self._counters["injected"].inc()
            if kernel.spans is not None:
                kernel.spans.instant(
                    "fault", target, now, kind=rule.kind, rule=rule.id, **detail
                )
            kernel.debug_log("<faults>", f"{rule.kind}[{rule.id}] -> {target} {detail}")

    def fired(self, rule_id: str) -> int:
        """Total firings of one rule so far."""
        return self._fires.get(rule_id, 0)

    def events_json(self) -> bytes:
        """The canonical, byte-comparable event log (determinism tests
        compare these directly)."""
        doc = {
            "schema": "faultlog/v1",
            "seed": self.seed,
            "events": [event.to_json() for event in self.events],
        }
        return json.dumps(doc, indent=None, sort_keys=True, separators=(",", ":")).encode()

    def summary(self) -> Dict[str, int]:
        """Firing counts by kind (what ``kernel.faults.*`` mirrors)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- choke-point hooks ---------------------------------------------------

    def on_send(self, sender: str, port: int, step: int) -> Optional[Tuple[str, int]]:
        """Message admission.  Returns ``("drop", 0)``, ``("delay", rounds)``
        or ``None``.  Draws one PRNG sample per live matching rule, in plan
        order, so the decision stream is reproducible."""
        if not self.armed or not self._send_rules:
            return None
        for rule in self._send_rules:
            if not self._live(rule, step):
                continue
            if not rule.matches_port(port) or not rule.matches_name(sender):
                continue
            if not self.source.chance(rule.kind, rule.p, f"{sender}->{port:#x}"):
                continue
            if rule.kind == "drop":
                self._fire(rule, f"{sender}->{port:#x}")
                return ("drop", 0)
            self._fire(rule, f"{sender}->{port:#x}", rounds=rule.rounds)
            return ("delay", rule.rounds)
        return None

    def queue_limit(
        self, sender: str, port: int, step: int
    ) -> Optional[Tuple[int, FaultRule]]:
        """Active queue squeeze for *sender*'s message to *port*, if any
        (smallest matching limit).  The sender predicate lets a plan
        squeeze, say, only netd's delivery queues while leaving the
        workload harness's injection path untouched."""
        if not self.armed or not self._squeeze_rules:
            return None
        best: Optional[Tuple[int, FaultRule]] = None
        for rule in self._squeeze_rules:
            if not self._live(rule, step) or not rule.matches_port(port):
                continue
            if not rule.matches_name(sender):
                continue
            if best is None or rule.limit < best[0]:
                best = (rule.limit, rule)
        return best

    def note_squeeze_drop(self, rule: FaultRule, sender: str, port: int) -> None:
        """The kernel dropped a message because of a squeezed limit."""
        self._fire(rule, f"{sender}->{port:#x}", limit=rule.limit)

    def on_syscall(self, task_key: str, task_name: str, step: int) -> bool:
        """Per-syscall crash check.  Counts syscalls per task while armed;
        fires on ``at_syscall`` N or with probability ``p``."""
        if not self.armed or not self._crash_rules:
            return False
        count = self._syscalls.get(task_key, 0) + 1
        self._syscalls[task_key] = count
        for rule in self._crash_rules:
            if not self._live(rule, step) or not rule.matches_name(task_name):
                continue
            if rule.at_syscall is not None:
                if count != rule.at_syscall:
                    continue
            elif not self.source.chance(rule.kind, rule.p, task_name):
                continue
            self._fire(rule, task_name, syscall=count)
            return True
        return False

    def on_io(
        self, task_key: str, task_name: str, step: int, nbytes: int = 0
    ) -> Optional[int]:
        """Per-log-append crash check (``crash_at_io``).

        Counts appends per task while armed; on the ``at_io``-th append of
        a matching task, returns the rule's ``torn_bytes`` — the store
        persists that many bytes of the record and crashes the process.
        Returns ``None`` for "no fault".  Deterministic: never draws the
        PRNG, so arming a crash_at_io-only plan perturbs nothing before
        the crash itself."""
        if not self.armed or not self._io_rules:
            return None
        count = self._io_appends.get(task_key, 0) + 1
        self._io_appends[task_key] = count
        for rule in self._io_rules:
            if not self._live(rule, step) or not rule.matches_name(task_name):
                continue
            if count != rule.at_io:
                continue
            self._fire(rule, task_name, append=count, torn_bytes=rule.torn_bytes, nbytes=nbytes)
            return rule.torn_bytes
        return None

    def on_pick(self, task_name: str, step: int) -> bool:
        """Scheduler pick: True = stall (skip this turn, requeue)."""
        if not self.armed or not self._stall_rules:
            return False
        for rule in self._stall_rules:
            if not self._live(rule, step) or not rule.matches_name(task_name):
                continue
            if self.source.chance(rule.kind, rule.p, task_name):
                self._fire(rule, task_name)
                return True
        return False

    def on_spawn(self, name: str, step: int) -> bool:
        """True = fail this spawn with ResourceExhausted."""
        if not self.armed or not self._spawn_rules:
            return False
        for rule in self._spawn_rules:
            if not self._live(rule, step) or not rule.matches_name(name):
                continue
            if self.source.chance(rule.kind, rule.p, name):
                self._fire(rule, name)
                return True
        return False

    def on_step(self, kernel: "Kernel", step: int) -> None:
        """Once per scheduler step: scheduled EP kills and clock noise."""
        if not self.armed or not self._step_rules:
            return
        for rule in self._step_rules:
            if not self._live(rule, step):
                continue
            if rule.kind == "kill_ep":
                if step == rule.at_step:
                    self._kill_one_ep(kernel, rule)
            elif self.source.chance(rule.kind, rule.p, "<clock>"):  # clock_noise
                from repro.kernel.clock import OTHER

                kernel.clock.charge(OTHER, rule.cycles)
                self._fire(rule, "<clock>", cycles=rule.cycles)

    def _kill_one_ep(self, kernel: "Kernel", rule: FaultRule) -> None:
        """Destroy the oldest dormant event process whose base matches."""
        from repro.kernel.event_process import EventProcess
        from repro.kernel.process import TaskState

        for task in list(kernel.tasks.values()):
            if not isinstance(task, EventProcess):
                continue
            if task.state != TaskState.DORMANT:
                continue
            if not rule.matches_name(task.base.name):
                continue
            self._fire(rule, task.name)
            kernel._destroy_ep(task)
            return
        # Nothing matched at this step; record the miss so the log still
        # reflects the attempt (campaigns assert every fault accounted for).
        self._fire(rule, "<no-dormant-ep>", missed=True)


#: Kinds mirrored as ``kernel.faults.<kind>`` counters.
_COUNTED_KINDS = (
    "drop",
    "delay",
    "crash",
    "queue_limit",
    "kill_ep",
    "stall",
    "spawn_fail",
    "clock_noise",
    "crash_at_io",
)
