"""asbsched — systematic interleaving exploration over the real kernel.

asbcheck (:mod:`repro.analysis.check`) exhausts *label* state over an
abstract model; this module exhausts *schedules* over the real kernel.
Every nondeterministic decision — which runnable task steps next, whether
a due timer fires before or after a runnable task, whether a fractional
fault rule fires — flows through one
:class:`~repro.kernel.nondet.ScriptedSource`, so a run is a pure function
of ``(scenario, fault plan, seed, decision vector)``.  The explorer
re-executes the scenario from scratch with growing decision prefixes
(stateless model checking, in the CHESS style), checking the
:mod:`repro.policies.assertions` battery and the differential sanitizer
in every schedule.

Schedule pruning is dynamic partial-order reduction (Flanagan–Godefroid):
each step records a *footprint* — the ports it enqueued to or delivered
from, the inboxes (receiver run-queues) it touched, the tasks it
created — and only steps with intersecting footprints race.  After each
terminated run, for every step *j* the latest earlier step *i* of a
different task with an intersecting footprint adds *j*'s task to the
backtrack set of the choice point that scheduled *i*; independent steps
commute and fork no branches.  ``--exhaustive`` instead backtracks every
enabled option at every choice point (within the same depth bound), which
is the ground truth DPOR must agree with.

On a violation the offending decision vector is *shrunk* — prefix
truncation, then greedily restoring each decision to the FIFO default
while the violation persists — to a 1-minimal schedule, emitted as a
byte-identically replayable ``schedule/v1`` + ``faultplan/v1`` pair and
as SARIF via :mod:`repro.analysis.sarif`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.chunks import ChunkedLabel
from repro.kernel import syscalls as sc
from repro.kernel.config import KernelConfig
from repro.kernel.errors import SimulationError
from repro.kernel.event_process import EventProcess
from repro.kernel.kernel import Kernel
from repro.kernel.nondet import ChoicePoint, ScriptedSource
from repro.kernel.ports import Port
from repro.kernel.process import Task

from repro.analysis.extract import WIRE
from repro.analysis.model import Topology
from repro.analysis.replay import install_topology
from repro.policies.assertions import Breach, Policy, Scope, policies_from_json

SCHEDULE_SCHEMA = "schedule/v1"


class SchedError(Exception):
    """The scenario cannot be explored (unknown owner, bad schedule file)."""


# -- one run --------------------------------------------------------------------------


@dataclass
class StepRecord:
    """One scheduler step of one run, with its DPOR footprint."""

    index: int
    key: str                       # base-process scheduler key
    name: str                      # task name (EP name when an EP ran)
    choice: Optional[int]          # seq of the "pick" point that chose it
    footprint: Set[Tuple[str, Any]] = field(default_factory=set)


@dataclass
class RunResult:
    """Everything observable about one terminated schedule."""

    scenario: str
    decisions: List[ChoicePoint]
    steps: List[StepRecord]
    breaches: List[Breach]
    sanitizer_violations: List[str]
    delivered_edges: Set[str]
    quiescent: bool
    steps_executed: int
    fault_events: bytes            # faultlog/v1, b"" without a plan
    digest: bytes                  # canonical byte-comparable run record

    @property
    def violating(self) -> bool:
        return bool(self.breaches or self.sanitizer_violations)

    def decision_vector(self) -> List[int]:
        return [point.chosen for point in self.decisions]

    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "decisions": [point.to_json() for point in self.decisions],
            "steps": [step.key for step in self.steps],
            "breaches": [b.to_json() for b in self.breaches],
            "sanitizer_violations": list(self.sanitizer_violations),
            "quiescent": self.quiescent,
            "steps_executed": self.steps_executed,
        }


def _edge_of(payload: Any) -> str:
    """The topology edge a scenario message travels ("" for any other)."""
    return (payload.get("edge") or "") if isinstance(payload, dict) else ""


class _Observer:
    """Kernel hook: per-step footprints, pick alignment, and the policy
    battery judged on live events.

    The battery comes resolved (:meth:`Policy.resolve`, once per
    topology); the observer only chooses which events to show which
    clause — every send's effective send label to the emission clauses,
    every delivery over a non-declassifier edge to the delivery clauses,
    every send label the kernel writes to the label clauses — and keeps
    each distinct (policy, process, edge) breach once, however often the
    bad state recurs."""

    def __init__(
        self,
        source: ScriptedSource,
        battery: Sequence[Tuple[Policy, Scope]] = (),
        declassifiers: FrozenSet[str] = frozenset(),
    ):
        self.source = source
        self.kernel: Optional[Kernel] = None
        self.steps: List[StepRecord] = []
        #: Fork-port owners reset to these labels after each delivery —
        #: the kernel-side emulation of "each delivery lands on a fresh
        #: event process" (PortSpec.fork), keeping the live semantics
        #: aligned with the model's frozen-base reading.
        self.fresh_labels: Dict[str, Tuple[ChunkedLabel, ChunkedLabel]] = {}
        self.declassifiers = declassifiers
        self.breaches: List[Breach] = []
        self.delivered_edges: Set[str] = set()
        self._seen: Set[Tuple[Policy, str, str]] = set()
        self._labels = [(p, s) for p, s in battery if p.label]
        self._emissions = [(p, s) for p, s in battery if p.emission]
        self._deliveries = [(p, s) for p, s in battery if p.delivery]
        for policy, scope in battery:
            self._judge(policy, scope.problem, "", step=-1)

    def _judge(
        self,
        policy: Policy,
        message: Optional[str],
        process: str,
        edge: str = "",
        step: Optional[int] = None,
    ) -> None:
        if not message or (policy, process, edge) in self._seen:
            return
        self._seen.add((policy, process, edge))
        step = self._step_index() if step is None else step
        self.breaches.append(
            policy.breach(message, process=process, edge=edge, step=step)
        )

    def judge_label(self, process: str, label: Any, step: Optional[int] = None) -> None:
        for policy, scope in self._labels:
            self._judge(policy, policy.label(scope, process, label), process, step=step)

    @staticmethod
    def _base_key(task: Task) -> str:
        return task.base.key if isinstance(task, EventProcess) else task.key

    def _touch(self, *tokens: Tuple[str, Any]) -> None:
        if self.steps:
            self.steps[-1].footprint.update(tokens)

    def _step_index(self) -> int:
        return len(self.steps) - 1

    # -- kernel events ------------------------------------------------------

    def on_step(self, task: Task) -> None:
        choice = None
        log = self.source.log
        if log and log[-1].kind == "pick":
            choice = log[-1].seq
        key = self._base_key(task)
        self.steps.append(
            StepRecord(
                index=len(self.steps),
                key=key,
                name=task.name,
                choice=choice,
                footprint={("task", key)},
            )
        )

    def on_spawn(self, process: Task) -> None:
        self._touch(("task", process.key))

    def on_send(self, task: Task, request: sc.Send) -> None:
        self._touch(("port", request.port))
        if self._emissions:
            # ES = PS ⊔ CS, judged at send time: a send the kernel then
            # drops has still emitted its label.
            ps, cs = task.send_label, request.cs
            es = ps if cs is None else (lambda h: max(ps(h), cs(h)))
            edge = _edge_of(request.payload)
            for policy, scope in self._emissions:
                message = policy.emission(scope, task.name, edge, es)
                self._judge(policy, message, task.name, edge)
        kernel = self.kernel
        if kernel is not None:
            entry = kernel.ports.get(request.port)
            owner = kernel.tasks.get(entry.owner) if entry is not None else None
            if owner is not None:
                self._touch(("inbox", self._base_key(owner)))

    def on_recv(self, task: Task, request: sc.Recv) -> None:
        # A receive attempt depends on every enqueue to this task's
        # inbox — including the ones that *didn't* happen yet, which is
        # why the token is the inbox, not the (possibly empty) ports.
        self._touch(("inbox", self._base_key(task)))
        if request.port is not None:
            self._touch(("port", request.port))

    def on_deliver(
        self, task: Task, entry: Port, qmsg: Any, delivered: bool, qs: Any, qr: Any
    ) -> None:
        self._touch(("port", entry.handle), ("inbox", self._base_key(task)))
        if delivered:
            edge = _edge_of(qmsg.payload)
            if edge:
                self.delivered_edges.add(edge)
            if edge not in self.declassifiers:
                for policy, scope in self._deliveries:
                    message = policy.delivery(
                        scope, edge, task.name, qmsg.effective_send
                    )
                    self._judge(policy, message, task.name, edge)
            self.judge_label(task.name, task.send_label)
            fresh = self.fresh_labels.get(task.key)
            if fresh is not None:
                task.send_label, task.receive_label = fresh

    def on_change_label(self, task: Task, request: Any) -> None:
        self.judge_label(task.name, task.send_label)

    def on_port_touch(self, task: Task, handle: Any) -> None:
        self._touch(("port", handle))


class Scenario:
    """A reproducible kernel setup the explorer re-executes at will.

    *factory(kernel, observer)* spawns the processes, installs ports and
    labels, and injects wire traffic.  The policy *battery* — each policy
    with its :class:`~repro.policies.assertions.Scope`, resolved once —
    is judged on every run; *declassifiers* names the edges whose
    deliveries the delivery clauses skip.  The explorer calls
    :meth:`execute` once per schedule with a fresh kernel every time, so
    the factory must be deterministic.  *invariant*, when
    given, runs against the terminal kernel and returns an error string
    (or None) — scenario-specific assertions the policy battery cannot
    express.
    """

    def __init__(
        self,
        name: str,
        factory: Callable[[Kernel, _Observer], None],
        plan: Optional[Any] = None,
        fault_seed: int = 0,
        max_steps: int = 4000,
        invariant: Optional[Callable[[Kernel], Optional[str]]] = None,
        battery: Sequence[Tuple[Policy, Scope]] = (),
        declassifiers: Iterable[str] = (),
    ):
        self.name = name
        self.factory = factory
        self.plan = plan
        self.fault_seed = fault_seed
        self.max_steps = max_steps
        self.invariant = invariant
        self.battery = list(battery)
        self.declassifiers = frozenset(declassifiers)
        #: Edge names for dead-edge liveness (topology scenarios).
        self.edge_names: List[str] = []

    def execute(self, source: Optional[ScriptedSource] = None) -> RunResult:
        """One complete run under *source* (default: the all-FIFO script)."""
        if source is None:
            source = ScriptedSource()
        kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))
        # Every syscall is a scheduling point: interleavings the paper's
        # cooperative round-robin would fuse become visible to the
        # explorer.
        kernel.INLINE_SYSCALL_BUDGET = 1
        kernel.nondet = source
        if self.plan is not None:
            from repro.faults.injector import FaultInjector

            kernel.faults = FaultInjector(
                self.plan, seed=self.fault_seed, kernel=kernel, source=source
            )
        observer = _Observer(source, self.battery, self.declassifiers)
        observer.kernel = kernel
        kernel.hooks.append(observer)
        self.factory(kernel, observer)
        quiescent = True
        try:
            executed = kernel.run(max_steps=self.max_steps)
        except SimulationError:
            quiescent = False
            executed = self.max_steps
        for process in kernel.processes.values():
            observer.judge_label(process.name, process.send_label, step=-1)
        breaches = list(observer.breaches)
        if self.invariant is not None:
            problem = self.invariant(kernel)
            if problem:
                breaches.append(Breach("invariant", "scenario invariant", problem))
        sanitizer_violations = (
            [v.format() for v in kernel.sanitizer.violations]
            if kernel.sanitizer is not None
            else []
        )
        fault_events = (
            kernel.faults.events_json() if kernel.faults is not None else b""
        )
        digest_doc = {
            "scenario": self.name,
            "decisions": [point.to_json() for point in source.log],
            "steps": [step.key for step in observer.steps],
            "drops": [list(record) for record in kernel.drop_log.records],
            "breaches": [b.to_json() for b in breaches],
            "sanitizer": sanitizer_violations,
            "faultlog": fault_events.decode(),
            "labels": sorted(
                (
                    process.name,
                    sorted(process.send_label.to_label().entries()),
                    process.send_label.to_label().default,
                    sorted(process.receive_label.to_label().entries()),
                    process.receive_label.to_label().default,
                )
                for process in kernel.processes.values()
            ),
        }
        digest = json.dumps(
            digest_doc, sort_keys=True, separators=(",", ":")
        ).encode()
        return RunResult(
            scenario=self.name,
            decisions=list(source.log),
            steps=observer.steps,
            breaches=breaches,
            sanitizer_violations=sanitizer_violations,
            delivered_edges=observer.delivered_edges,
            quiescent=quiescent,
            steps_executed=executed,
            fault_events=fault_events,
            digest=digest,
        )


# -- scenarios from topologies --------------------------------------------------------


def _edge_body(edges: Sequence[Tuple[Any, Any]]) -> Callable[[Any], Any]:
    """A process body firing *edges* in order: poll the inbox (so queued
    traffic can contaminate the sender first — the racy part), then send;
    finally drain forever."""

    def body(ctx: Any) -> Any:
        for handle, edge in edges:
            yield sc.Recv(block=False)
            yield sc.Send(
                handle,
                {"edge": edge.name},
                cs=edge.cs,
                ds=edge.ds,
                v=edge.v,
                dr=edge.dr,
            )
        while True:
            yield sc.Recv()

    return body


def scenario_from_topology(
    topology: Topology,
    plan: Optional[Any] = None,
    fault_seed: int = 0,
    max_steps: int = 4000,
    policies: Optional[Sequence[Policy]] = None,
    name: Optional[str] = None,
) -> Scenario:
    """Animate *topology* as live kernel processes.

    Each process owns its PortSpec ports (exact handles and labels,
    installed white-box by :func:`repro.analysis.replay.install_topology`) and
    runs a body that fires its EdgeSpec sends in order, polling its inbox
    before each send so delivery-before-send interleavings contaminate it
    exactly as the model predicts.  ``<wire>`` edges are injected once at
    boot.  Fork ports get the model's fresh-EP semantics via the
    observer's label reset (see :class:`_Observer`).
    """
    battery = (
        list(policies)
        if policies is not None
        else policies_from_json(topology.policies)
    )
    problems = topology.validate()
    if problems:
        raise SchedError("; ".join(problems))

    def factory(kernel: Kernel, observer: _Observer) -> None:
        edges_by_sender: Dict[str, List[Any]] = {}
        for edge in topology.edges:
            edges_by_sender.setdefault(edge.sender, []).append(edge)

        def body_for(pname: str) -> Callable[[Any], Any]:
            return _edge_body(
                [
                    (topology.ports[edge.port].handle, edge)
                    for edge in edges_by_sender.get(pname, [])
                ]
            )

        tasks = install_topology(kernel, topology, body_for)
        for port in topology.ports.values():
            if port.fork:
                owner = tasks[port.owner]
                observer.fresh_labels[owner.key] = (
                    owner.send_label,
                    owner.receive_label,
                )
        for edge in edges_by_sender.get(WIRE, []):
            kernel.inject(topology.ports[edge.port].handle, {"edge": edge.name})

    scenario = Scenario(
        name or topology.name,
        factory,
        plan=plan,
        fault_seed=fault_seed,
        max_steps=max_steps,
        battery=[(policy, policy.resolve(topology)) for policy in battery],
        declassifiers=[edge.name for edge in topology.edges if edge.declassifier],
    )
    scenario.edge_names = [edge.name for edge in topology.edges]
    return scenario


def okws_scenario(
    policies: Optional[Sequence[Policy]] = None, **kwargs: Any
) -> Scenario:
    """The shipped OKWS topology, extracted from a live run, as a scenario.

    The animation replays every edge against the extraction's *final*
    label snapshot, so deliveries the real run made before its labels
    finished evolving can bounce on the Figure 4 checks — harmless drops,
    but they make liveness over the animation meaningless.  The dead-edge
    policy is therefore filtered out; the safety battery (isolation,
    confinement, mandatory declassification) is checked in full.
    """
    from repro.okws.topology import record_okws_topology
    from repro.policies.assertions import DeadEdges

    topology = record_okws_topology()
    battery = (
        list(policies)
        if policies is not None
        else [
            p
            for p in policies_from_json(topology.policies)
            if not isinstance(p, DeadEdges)
        ]
    )
    return scenario_from_topology(topology, policies=battery, **kwargs)


# -- the explorer ---------------------------------------------------------------------


@dataclass
class _Node:
    """One choice point on the current DFS prefix."""

    kind: str
    options: Tuple[str, ...]
    chosen: int
    done: Set[int]
    backtrack: Set[int]
    step_index: Optional[int] = None   # pick nodes: the step it scheduled


@dataclass
class ExploreReport:
    """The outcome of one exploration."""

    scenario: str
    mode: str                          # "dpor" | "exhaustive"
    schedules: int
    transitions: int
    depth: Optional[int]
    complete: bool                     # schedule space exhausted in budget
    violation: Optional[RunResult]
    minimized: Optional[List[int]]     # shrunk decision vector
    minimized_run: Optional[RunResult]
    shrink_trials: int
    dead_edges: List[Breach]
    elapsed: float
    max_choice_points: int

    @property
    def ok(self) -> bool:
        return self.violation is None and not self.dead_edges

    def counterexample_run(self) -> Optional[RunResult]:
        return self.minimized_run or self.violation

    def format(self) -> str:
        lines = [
            f"asbsched: {self.scenario} [{self.mode}"
            + (f", depth {self.depth}" if self.depth is not None else "")
            + f"]: {self.schedules} schedule(s), {self.transitions} "
            f"transition(s), {self.elapsed:.2f}s"
            + ("" if self.complete else " (budget exhausted, space truncated)")
        ]
        if self.ok:
            lines.append("  no policy or sanitizer violation in any explored schedule")
            return "\n".join(lines)
        run = self.counterexample_run()
        if run is not None:
            what = "minimized" if self.minimized is not None else "violating"
            vector = (
                self.minimized
                if self.minimized is not None
                else run.decision_vector()
            )
            lines.append(
                f"  {what} schedule ({len(vector)} decision(s), "
                f"{self.shrink_trials} shrink trial(s)): {vector}"
            )
            for point in run.decisions:
                if point.forced or point.chosen == 0:
                    continue
                lines.append(
                    f"    @{point.seq} {point.kind}: "
                    f"{point.options[point.chosen]}  (of {list(point.options)})"
                )
            for breach in run.breaches:
                lines.append(f"  BREACH [{breach.kind}] {breach.message}")
            for violation in run.sanitizer_violations:
                lines.append(f"  SANITIZER {violation}")
        for breach in self.dead_edges:
            lines.append(f"  BREACH [{breach.kind}] {breach.message}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        run = self.counterexample_run()
        return {
            "schema": "sched-report/v1",
            "scenario": self.scenario,
            "mode": self.mode,
            "schedules": self.schedules,
            "transitions": self.transitions,
            "depth": self.depth,
            "complete": self.complete,
            "ok": self.ok,
            "max_choice_points": self.max_choice_points,
            "elapsed": round(self.elapsed, 3),
            "shrink_trials": self.shrink_trials,
            "minimized": self.minimized,
            "counterexample": run.to_json() if run is not None else None,
            "dead_edges": [b.to_json() for b in self.dead_edges],
        }


def _analyze(
    nodes: List[_Node], result: RunResult, mode: str, depth: Optional[int]
) -> None:
    """Populate backtrack sets from one terminated run."""
    bound = len(nodes) if depth is None else min(depth, len(nodes))
    if mode == "exhaustive":
        for node in nodes[:bound]:
            node.backtrack = set(range(len(node.options)))
        return
    # DPOR.  Non-pick points (wake order, fault chance) are always both
    # ways: they gate timer/fault behaviour whose dependencies the
    # footprints do not model.
    for node in nodes[:bound]:
        if node.kind != "pick":
            node.backtrack = set(range(len(node.options)))
    steps = result.steps
    for j, sj in enumerate(steps):
        if sj.choice is None:
            continue
        for i in range(j - 1, -1, -1):
            si = steps[i]
            if si.key == sj.key:
                continue  # program order; scan on for earlier cross-task races
            if not (si.footprint & sj.footprint):
                continue
            # Racing pair: at the point that scheduled i, also try j's
            # task (if it was enabled there; a forced point has no
            # alternative and the race surfaces elsewhere).
            if si.choice is not None and si.choice < bound:
                node = nodes[si.choice]
                if sj.key in node.options:
                    node.backtrack.add(node.options.index(sj.key))
                else:
                    node.backtrack = set(range(len(node.options)))
            break  # only the latest racing predecessor (Flanagan–Godefroid)


def explore(
    scenario: Scenario,
    mode: str = "dpor",
    depth: Optional[int] = None,
    max_schedules: int = 20_000,
    time_budget: Optional[float] = None,
    shrink: bool = True,
) -> ExploreReport:
    """Enumerate *scenario*'s schedule space.

    *depth* bounds the number of choice points that may deviate from the
    FIFO default (the usual bounded-DFS guard for unbounded spaces);
    *max_schedules* and *time_budget* (seconds) cap the whole run.  The
    DFS stops at the first violating schedule and — with *shrink* —
    minimizes it.
    """
    if mode not in ("dpor", "exhaustive"):
        raise SchedError(f"unknown mode {mode!r} (expected dpor or exhaustive)")
    started = time.monotonic()
    nodes: List[_Node] = []
    script: List[int] = []
    schedules = 0
    transitions = 0
    max_points = 0
    delivered_union: Set[str] = set()
    violation: Optional[RunResult] = None
    complete = True
    while True:
        result = scenario.execute(ScriptedSource(script))
        schedules += 1
        transitions += len(result.steps)
        max_points = max(max_points, len(result.decisions))
        delivered_union |= result.delivered_edges
        for seq in range(len(nodes), len(result.decisions)):
            point = result.decisions[seq]
            nodes.append(
                _Node(
                    kind=point.kind,
                    options=point.options,
                    chosen=point.chosen,
                    done={point.chosen},
                    backtrack={point.chosen},
                )
            )
        for step in result.steps:
            if step.choice is not None and step.choice < len(nodes):
                nodes[step.choice].step_index = step.index
        _analyze(nodes, result, mode, depth)
        if result.violating:
            violation = result
            break
        next_seq = None
        for seq in range(len(nodes) - 1, -1, -1):
            if nodes[seq].backtrack - nodes[seq].done:
                next_seq = seq
                break
        if next_seq is None:
            break
        if schedules >= max_schedules or (
            time_budget is not None and time.monotonic() - started > time_budget
        ):
            complete = False
            break
        node = nodes[next_seq]
        choice = min(node.backtrack - node.done)
        node.done.add(choice)
        node.chosen = choice
        script = [nodes[seq].chosen for seq in range(next_seq)] + [choice]
        del nodes[next_seq + 1 :]

    minimized: Optional[List[int]] = None
    minimized_run: Optional[RunResult] = None
    trials = 0
    if violation is not None and shrink:
        minimized, trials = shrink_schedule(scenario, violation.decision_vector())
        minimized_run = scenario.execute(
            ScriptedSource(minimized)
        )
    dead: List[Breach] = []
    if violation is None and complete:
        never = {
            edge: "in no explored schedule"
            for edge in scenario.edge_names
            if edge not in delivered_union
        }
        for policy, scope in scenario.battery:
            message = policy.liveness(scope, never) if policy.liveness else None
            if message:
                dead.append(policy.breach(message))
    return ExploreReport(
        scenario=scenario.name,
        mode=mode,
        schedules=schedules,
        transitions=transitions,
        depth=depth,
        complete=complete,
        violation=violation,
        minimized=minimized,
        minimized_run=minimized_run,
        shrink_trials=trials,
        dead_edges=dead,
        elapsed=time.monotonic() - started,
        max_choice_points=max_points,
    )


def shrink_schedule(
    scenario: Scenario, decisions: Sequence[int]
) -> Tuple[List[int], int]:
    """Minimize a violating decision vector.

    Two phases to a 1-minimal fixpoint: (1) the shortest prefix that
    still violates (everything beyond a script falls back to the FIFO
    default anyway), then (2) greedily restore each remaining non-default
    decision to 0 while the violation persists.  Returns (vector, trials).
    """
    trials = 0

    def violates(script: Sequence[int]) -> bool:
        nonlocal trials
        trials += 1
        return scenario.execute(
            ScriptedSource(script)
        ).violating

    best = list(decisions)
    while best and best[-1] == 0:
        best.pop()
    for cut in range(len(best)):
        if violates(best[:cut]):
            best = best[:cut]
            break
    changed = True
    while changed:
        changed = False
        for index in range(len(best)):
            if best[index] == 0:
                continue
            trial = list(best)
            trial[index] = 0
            if violates(trial):
                best = trial
                changed = True
        while best and best[-1] == 0:
            best.pop()
    return best, trials


# -- schedule files -------------------------------------------------------------------


def schedule_to_json(
    scenario: Scenario,
    decisions: Sequence[int],
    annotated: Optional[Sequence[ChoicePoint]] = None,
) -> Dict[str, Any]:
    """A ``schedule/v1`` document: everything needed to byte-identically
    re-execute one schedule of *scenario*."""
    doc: Dict[str, Any] = {
        "schema": SCHEDULE_SCHEMA,
        "scenario": scenario.name,
        "fault_seed": scenario.fault_seed,
        "max_steps": scenario.max_steps,
        "decisions": list(decisions),
    }
    if annotated:
        doc["annotated"] = [point.to_json() for point in annotated]
    return doc


def schedule_from_json(doc: Dict[str, Any]) -> List[int]:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEDULE_SCHEMA:
        raise SchedError(f"not a {SCHEDULE_SCHEMA} document")
    decisions = doc.get("decisions")
    if not isinstance(decisions, list) or not all(
        isinstance(d, int) and d >= 0 for d in decisions
    ):
        raise SchedError("decisions must be a list of non-negative indices")
    return list(decisions)


def load_schedule(path: Union[str, Path]) -> List[int]:
    return schedule_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def replay_schedule(scenario: Scenario, decisions: Sequence[int]) -> RunResult:
    """Re-execute one schedule.  Replaying the same (scenario, plan,
    seed, decisions) always yields the identical ``RunResult.digest``."""
    return scenario.execute(ScriptedSource(decisions))


def write_counterexample(
    report: ExploreReport, scenario: Scenario, out_dir: Union[str, Path]
) -> List[Path]:
    """Emit the minimized schedule + fault plan for a violating report."""
    run = report.counterexample_run()
    if run is None:
        return []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vector = (
        report.minimized if report.minimized is not None else run.decision_vector()
    )
    schedule_path = out / f"{scenario.name}.schedule.json"
    schedule_path.write_text(
        json.dumps(
            schedule_to_json(scenario, vector, annotated=run.decisions), indent=2
        )
        + "\n",
        encoding="utf-8",
    )
    if scenario.plan is not None:
        plan_doc = scenario.plan.to_json()
    else:
        from repro.faults.plan import SCHEMA as PLAN_SCHEMA

        plan_doc = {"schema": PLAN_SCHEMA, "rules": []}
    plan_path = out / f"{scenario.name}.faultplan.json"
    plan_path.write_text(json.dumps(plan_doc, indent=2) + "\n", encoding="utf-8")
    return [schedule_path, plan_path]
