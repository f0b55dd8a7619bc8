"""asbcheck — the whole-system label-flow model checker.

asblint proves properties of one program's sends in isolation; the
paper's security argument is global: *no sequence of messages* moves one
user's taint somewhere it must not go (Section 7).  asbcheck closes that
gap by exhaustive exploration: given a :class:`~repro.analysis.model.
Topology`, it fires every send edge in every reachable label state under
the verbatim Figure 4 rules —

- ``ES = PS ⊔ CS``
- requirement (2): ``DS(h) < 3 ⇒ PS(h) = ⋆`` (send time)
- requirement (3): ``DR(h) > ⋆ ⇒ PS(h) = ⋆`` (send time)
- requirement (4): ``DR ⊑ pR`` (delivery time)
- requirement (1): ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` (delivery time)
- effects: ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)``, ``QR ← QR ⊔ DR``

— the exact operations the kernel executes (``repro.core.labelops``),
memoized over interned label ids so the OKWS model checks in seconds.
Policies (:mod:`repro.policies.assertions`) are verified over the
explored graph; a violation comes back as a shortest counterexample
trace, breadth-first by construction, replayable on the real kernel
(``repro.analysis.replay``).

**State-space reduction.**  A state is the tuple of (QS, QR) ids per
process; grant and contamination flows would otherwise make the
reachable set the product of the per-handle lattices of every process.
Two observations tame it:

1. *Eager closure.*  A delivery whose only send-label changes are
   lowerings at handles the current exploration does not watch (plus any
   receive-label raises) is saturated immediately instead of branched.
   Such steps only lower future effective send labels and raise receive
   bounds — every Figure 4 check is antitone in ES and monotone in QR,
   so they can only *enable* later deliveries — and they never change a
   watched handle's level anywhere.  Saturation therefore preserves
   every watched violation and every edge's deliverability.  Changes at
   watched handles, and all contamination raises, still branch.  A
   closure re-fires only the edges a step can have moved
   (:meth:`Exploration._closure`).
2. *Per-handle decomposition.*  The delivery effects are pointwise per
   handle, so a policy about handle ``h`` only needs the ``h``-projection
   of the state graph — which an exploration with ``watched = {h}``
   preserves exactly, by the same argument.  ``run_check`` runs one
   small exploration per policy handle (plus a fully-eager one for edge
   liveness) instead of one joint exploration watching every handle at
   once, whose reachable set is the product of the per-handle sets.

``exact=True`` disables the reduction entirely (used by the tests that
validate it against exhaustive exploration on small topologies).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.chunks import ChunkedLabel
from repro.core.labels import Label
from repro.kernel.errors import (
    DROP_DECONT_PRIVILEGE,
    DROP_LABEL_CHECK,
    DROP_PORT_LABEL,
)

from repro.analysis.model import LabelStore, Topology
from repro.policies import assertions as A

State = Tuple[int, ...]


class _Edge:
    """A topology edge compiled to label-store ids."""

    __slots__ = (
        "idx",
        "name",
        "sender",
        "s_idx",
        "receiver",
        "r_idx",
        "port",
        "pr",
        "cs",
        "ds",
        "v",
        "dr",
        "declassifier",
        "fork",
        "via",
    )

    def __init__(self, **kw: Any) -> None:
        for key, value in kw.items():
            setattr(self, key, value)


@dataclass(frozen=True)
class Firing:
    """The outcome of firing one edge in one state."""

    delivered: bool
    drop: Optional[str]
    es: int
    new_qs: int
    new_qr: int


class Engine:
    """The compiled transition system: fire edges, apply effects."""

    def __init__(
        self,
        topology: Topology,
        store: Optional[LabelStore] = None,
        skip_declassifiers: bool = False,
    ):
        problems = topology.validate()
        if problems:
            raise ValueError("; ".join(problems))
        self.topology = topology
        self.store = store if store is not None else LabelStore()
        self.proc_names: List[str] = list(topology.processes)
        self._proc_idx = {name: i for i, name in enumerate(self.proc_names)}
        self.edges: List[_Edge] = []
        for spec in topology.edges:
            if skip_declassifiers and spec.declassifier:
                continue
            port = topology.ports[spec.port]
            self.edges.append(
                _Edge(
                    idx=len(self.edges),
                    name=spec.name,
                    sender=spec.sender,
                    s_idx=self._proc_idx[spec.sender],
                    receiver=port.owner,
                    r_idx=self._proc_idx[port.owner],
                    port=spec.port,
                    pr=self.store.intern(port.label),
                    cs=self.store.intern(spec.cs),
                    ds=self.store.intern(spec.ds),
                    v=self.store.intern(spec.v),
                    dr=self.store.intern(spec.dr),
                    declassifier=spec.declassifier,
                    fork=port.fork,
                    via=spec.via,
                )
            )
        self.edges_by_sender: List[List[_Edge]] = [[] for _ in self.proc_names]
        # Per process, as bitmasks over edge indices, the edges whose firing
        # reads its QS (as the sender's PS or the receiver's QS) and its QR
        # (as the receiver's QR): the edges a change to that label can move.
        self.qs_readers: List[int] = [0] * len(self.proc_names)
        self.qr_readers: List[int] = [0] * len(self.proc_names)
        for edge in self.edges:
            self.edges_by_sender[edge.s_idx].append(edge)
            bit = 1 << edge.idx
            self.qs_readers[edge.s_idx] |= bit
            self.qs_readers[edge.r_idx] |= bit
            self.qr_readers[edge.r_idx] |= bit
        init: List[int] = []
        for name in self.proc_names:
            spec = topology.processes[name]
            init.append(self.store.intern(spec.send))
            init.append(self.store.intern(spec.receive))
        self.initial: State = tuple(init)
        self._fire_memo: Dict[Tuple[int, int, int, int], Firing] = {}

    def fire(self, state: State, edge: _Edge) -> Firing:
        """Figure 4, one message: send-time checks, delivery checks,
        effects.  Memoized on (edge, sender PS, receiver QS, receiver QR)
        — the only state the rules read."""
        ps = state[2 * edge.s_idx]
        rqs = state[2 * edge.r_idx]
        rqr = state[2 * edge.r_idx + 1]
        key = (edge.idx, ps, rqs, rqr)
        got = self._fire_memo.get(key)
        if got is not None:
            return got
        store = self.store
        es = store.lub(ps, edge.cs)
        if not store.privilege_ok(ps, edge.ds, edge.dr):
            firing = Firing(False, DROP_DECONT_PRIVILEGE, es, rqs, rqr)
        elif not store.leq(edge.dr, edge.pr):
            firing = Firing(False, DROP_PORT_LABEL, es, rqs, rqr)
        elif not store.check(es, rqr, edge.dr, edge.v, edge.pr):
            firing = Firing(False, DROP_LABEL_CHECK, es, rqs, rqr)
        elif edge.fork:
            # Fork ports (event-process base ports): the delivery spawns a
            # fresh EP — modelled separately — and the base's own labels
            # are frozen, so the effects never land on the port owner.
            firing = Firing(True, None, es, rqs, rqr)
        else:
            firing = Firing(
                True,
                None,
                es,
                store.effects(rqs, es, edge.ds),
                store.lub(rqr, edge.dr),
            )
        self._fire_memo[key] = firing
        return firing

    def apply(self, state: State, edge: _Edge, firing: Firing) -> State:
        r = edge.r_idx
        if state[2 * r] == firing.new_qs and state[2 * r + 1] == firing.new_qr:
            return state
        out = list(state)
        out[2 * r] = firing.new_qs
        out[2 * r + 1] = firing.new_qr
        return tuple(out)


@dataclass
class TraceStep:
    """One hop of a counterexample: the edge fired and the label merge."""

    index: int
    edge: str
    sender: str
    receiver: str
    port: str
    delivered: bool
    drop: Optional[str]
    es: Label
    qs_before: Label
    qs_after: Label
    qr_before: Label
    qr_after: Label

    def format(self, topology: Topology) -> str:
        fmt = topology.format_label
        verdict = "delivered" if self.delivered else f"DROPPED ({self.drop})"
        lines = [
            f"{self.index}. {self.sender} --[{self.edge}]--> "
            f"{self.receiver} via port {self.port!r}: {verdict}",
            f"     ES = {fmt(self.es)}",
        ]
        if self.qs_before != self.qs_after:
            lines.append(
                f"     {self.receiver}.QS {fmt(self.qs_before)} -> {fmt(self.qs_after)}"
            )
        if self.qr_before != self.qr_after:
            lines.append(
                f"     {self.receiver}.QR {fmt(self.qr_before)} -> {fmt(self.qr_after)}"
            )
        return "\n".join(lines)

    def to_json(self, topology: Topology) -> Dict[str, Any]:
        fmt = topology.format_label
        return {
            "index": self.index,
            "edge": self.edge,
            "sender": self.sender,
            "receiver": self.receiver,
            "port": self.port,
            "delivered": self.delivered,
            "drop": self.drop,
            "es": fmt(self.es),
            "qs_before": fmt(self.qs_before),
            "qs_after": fmt(self.qs_after),
            "qr_before": fmt(self.qr_before),
            "qr_after": fmt(self.qr_after),
        }


@dataclass
class PolicyResult:
    policy: A.Policy
    ok: bool
    violation: Optional[A.Breach] = None


def lowers_only_unwatched(a: ChunkedLabel, b: ChunkedLabel, watched: Set[int]) -> bool:
    """Whether ``a → b`` lowers levels only, and none at a *watched*
    handle, visiting only the chunks the two do not share (the argument is
    in :meth:`Exploration._qs_change_eager`)."""
    if a.default != b.default:
        return False
    shared = set(a.chunks).intersection(b.chunks)
    handles = set()
    for chunk in chain(a.chunks, b.chunks):
        if chunk not in shared:
            handles.update(chunk.handles)
    for handle in handles:
        before, after = a(handle), b(handle)
        if after > before or (after != before and handle in watched):
            return False
    return True


class Exploration:
    """The reachable (reduced) state graph plus per-edge liveness."""

    #: A closure stops at the first pass boundary with this many steps taken.
    CLOSURE_CAP = 10_000

    def __init__(self, engine: Engine, watched: Set[int], exact: bool, max_states: int):
        self.engine = engine
        self.watched = watched
        self.exact = exact
        self.max_states = max_states
        self.states: Dict[State, int] = {}
        self.order: List[State] = []
        #: state id → (parent state id or -1, edge idx sequence fired).
        self.parents: List[Tuple[int, Tuple[int, ...]]] = []
        self.edge_delivered: List[bool] = [False] * len(engine.edges)
        self.transitions = 0
        self.truncated = False
        #: Edge firings evaluated, memo hits included: what a run costs.
        self.edge_evaluations = 0
        #: state id → whether its closure converged, i.e. no edge steps from it.
        self._fixpoint: List[bool] = []
        self._qs_eager_memo: Dict[Tuple[int, int], bool] = {}
        self._run()

    # -- reduction ----------------------------------------------------------

    def _qs_change_eager(self, old: int, new: int) -> bool:
        """True when ``old → new`` only lowers levels, all at unwatched
        handles: a pure grant, safe to saturate (see module docstring).

        Only the chunks the two labels do not share are compared
        (:func:`lowers_only_unwatched`).  Each label's chunks split its
        explicit handles into disjoint sorted runs, and a chunk both
        labels hold is the same run, at the same levels, in both.  So a
        handle in a shared chunk is in no other chunk of either label and
        has one level on both sides; a handle explicit in neither label
        has the default on both sides (the defaults are compared first).
        Any handle whose level differs therefore lies in an unshared chunk
        of one side, and those are the handles visited."""
        key = (old, new)
        got = self._qs_eager_memo.get(key)
        if got is None:
            store = self.engine.store
            got = self._qs_eager_memo[key] = lowers_only_unwatched(
                store.chunked(old), store.chunked(new), self.watched
            )
        return got

    def _fire(self, state: State, edge: _Edge) -> Firing:
        self.edge_evaluations += 1
        firing = self.engine.fire(state, edge)
        if firing.delivered:
            self.edge_delivered[edge.idx] = True
        return firing

    def _closure(self, state: State, dirty: int) -> Tuple[State, Tuple[int, ...], bool]:
        """Saturate *state* with eager steps.  Returns the state, the edge
        indices stepped, and whether the closure converged (it stops at the
        first pass boundary past :attr:`CLOSURE_CAP` steps otherwise).

        The steps are those of passes over every edge in index order,
        repeated while a pass steps, but only edges that can have moved are
        fired.  A firing and its eager verdict read only (edge, sender PS,
        receiver QS, receiver QR), the keys of both memos, so a step that
        changes process ``r``'s QS can move only ``qs_readers[r]``, and one
        that changes only its QR only ``qr_readers[r]``.  Those edges are
        dirtied: one above the stepping edge's index fires later in this
        pass, one at or below it (the edge itself included) in the next,
        exactly where a full pass would next find it changed.  An edge no
        step dirtied would fire on the same key as last time, and so not
        step.  *dirty* is every edge for the initial state and below a
        capped closure; for a successor of a converged state (a fixpoint),
        it is the edges the BFS step into it dirtied.  A skipped firing
        repeats the outcome of one that ran, so ``edge_delivered`` is the
        full-pass closure's."""
        if self.exact:
            return state, (), True
        engine = self.engine
        edges, memo, eager_memo = engine.edges, engine._fire_memo, self._qs_eager_memo
        qs_readers, qr_readers = engine.qs_readers, engine.qr_readers
        delivered = self.edge_delivered
        steps: List[int] = []
        current, following = dirty, 0
        evaluations = 0
        while True:
            while current:
                low = current & -current
                current ^= low
                idx = low.bit_length() - 1
                edge = edges[idx]
                r = edge.r_idx
                qs_old, qr_old = state[2 * r], state[2 * r + 1]
                evaluations += 1
                firing = memo.get((idx, state[2 * edge.s_idx], qs_old, qr_old))
                if firing is None:
                    firing = engine.fire(state, edge)
                if not firing.delivered:
                    continue
                delivered[idx] = True
                if firing.new_qs != qs_old:
                    # Receive-label raises are always enabling-only; the send
                    # label must change by unwatched grants alone.
                    eager = eager_memo.get((qs_old, firing.new_qs))
                    if eager is None:
                        eager = self._qs_change_eager(qs_old, firing.new_qs)
                    if not eager:
                        continue
                    moved = qs_readers[r]
                elif firing.new_qr != qr_old:
                    moved = qr_readers[r]
                else:
                    continue
                state = engine.apply(state, edge, firing)
                steps.append(idx)
                later = moved & -(low << 1)  # the dirtied edges above idx
                current |= later
                following |= moved ^ later
            if not following or len(steps) >= self.CLOSURE_CAP:
                break
            current, following = following, 0
        self.edge_evaluations += evaluations
        return state, tuple(steps), not following

    # -- breadth-first search ------------------------------------------------

    def _register(
        self, state: State, parent: int, steps: Tuple[int, ...], converged: bool
    ) -> Optional[int]:
        if state in self.states:
            return None
        if len(self.states) >= self.max_states:
            self.truncated = True
            return None
        sid = len(self.order)
        self.states[state] = sid
        self.order.append(state)
        self.parents.append((parent, steps))
        self._fixpoint.append(converged)
        return sid

    def _run(self) -> None:
        engine = self.engine
        every = (1 << len(engine.edges)) - 1
        init, init_steps, converged = self._closure(engine.initial, every)
        self._register(init, -1, init_steps, converged)
        queue = deque([0])
        while queue:
            sid = queue.popleft()
            state = self.order[sid]
            fixpoint = self._fixpoint[sid]
            for edge in engine.edges:
                firing = self._fire(state, edge)
                if not firing.delivered:
                    continue
                succ = engine.apply(state, edge, firing)
                if succ == state:
                    continue
                self.transitions += 1
                if fixpoint:
                    # A step out of a fixpoint moves the receiver's QS: one
                    # moving only its QR would have been an eager step.
                    dirty = engine.qs_readers[edge.r_idx]
                    succ, steps, converged = self._closure(succ, dirty)
                else:
                    succ, steps, converged = self._closure(succ, every)
                new_sid = self._register(succ, sid, (edge.idx,) + steps, converged)
                if new_sid is not None:
                    queue.append(new_sid)

    # -- counterexample traces ----------------------------------------------

    def edge_sequence(self, sid: int) -> List[int]:
        """Edge indices fired from the pre-closure initial state to *sid*."""
        chunks: List[Tuple[int, ...]] = []
        while sid >= 0:
            parent, steps = self.parents[sid]
            chunks.append(steps)
            sid = parent
        out: List[int] = []
        for steps in reversed(chunks):
            out.extend(steps)
        return out

    def trace_to(self, sid: int, extra: Optional[_Edge] = None) -> List[TraceStep]:
        """Replay the path to *sid* (plus one final *extra* firing),
        rendering the label merge at each hop."""
        engine, store = self.engine, self.engine.store
        state = engine.initial
        steps: List[TraceStep] = []
        sequence = [engine.edges[i] for i in self.edge_sequence(sid)]
        if extra is not None:
            sequence.append(extra)
        for edge in sequence:
            firing = engine.fire(state, edge)
            r = edge.r_idx
            steps.append(
                TraceStep(
                    index=len(steps) + 1,
                    edge=edge.name,
                    sender=edge.sender,
                    receiver=edge.receiver,
                    port=edge.port,
                    delivered=firing.delivered,
                    drop=firing.drop,
                    es=store.label(firing.es),
                    qs_before=store.label(state[2 * r]),
                    qs_after=store.label(firing.new_qs),
                    qr_before=store.label(state[2 * r + 1]),
                    qr_after=store.label(firing.new_qr),
                )
            )
            if firing.delivered:
                state = engine.apply(state, edge, firing)
        return steps


# -- policy evaluation ------------------------------------------------------------


def _eval_states(
    policy: A.Policy, scope: A.Scope, engine: Engine, expl: Exploration
) -> Optional[A.Breach]:
    """Every explored state's send label of each process *scope* covers,
    and the effective send label of each edge it sends on, to the policy's
    label and emission clauses."""
    store, names = engine.store, engine.proc_names
    covered = [i for i, name in enumerate(names) if name in scope.names]
    for sid, state in enumerate(expl.order):
        for i in covered:
            name, qs = names[i], state[2 * i]
            message = policy.label(scope, name, store.chunked(qs))
            if message:
                return policy.breach(message, process=name, trace=expl.trace_to(sid))
            if policy.emission is None:
                continue
            for edge in engine.edges_by_sender[i]:
                es = store.chunked(store.lub(qs, edge.cs))
                message = policy.emission(scope, name, edge.name, es)
                if message:
                    return policy.breach(
                        message, process=name, edge=edge.name, trace=expl.trace_to(sid)
                    )
    return None


def _eval_deliveries(
    policy: A.Policy, scope: A.Scope, expl: Exploration
) -> Optional[A.Breach]:
    """Every delivery into a covered sink in *expl* — the exploration with
    declassifier edges removed — to the policy's delivery clause."""
    engine, store = expl.engine, expl.engine.store
    into = [edge for edge in engine.edges if edge.receiver in scope.names]
    for sid, state in enumerate(expl.order):
        for edge in into:
            firing = engine.fire(state, edge)
            if not firing.delivered:
                continue
            es = store.chunked(firing.es)
            message = policy.delivery(scope, edge.name, edge.receiver, es)
            if message:
                return policy.breach(
                    message,
                    process=edge.receiver,
                    edge=edge.name,
                    trace=expl.trace_to(sid, extra=edge),
                )
    return None


def _never_delivered(engine: Engine, expl: Exploration) -> Dict[str, str]:
    """Edge name → why, for each edge *expl* never delivered: its drop in
    the closed initial state, where the search fires every edge first (a
    memo hit)."""
    initial = expl.order[0]
    return {
        edge.name: engine.fire(initial, edge).drop
        for edge in engine.edges
        if not expl.edge_delivered[edge.idx]
    }


def _format_breach(breach: A.Breach, topology: Topology) -> str:
    lines = [breach.message]
    if breach.trace:
        noun = "message" if len(breach.trace) == 1 else "messages"
        lines.append(f"   counterexample ({len(breach.trace)} {noun}):")
        for step in breach.trace:
            lines.append("    " + step.format(topology).replace("\n", "\n    "))
    return "\n".join(lines)


# -- the report -------------------------------------------------------------------


@dataclass
class CheckReport:
    topology: Topology
    results: List[PolicyResult]
    states: int
    transitions: int
    dead_edges: List[Tuple[str, str]]
    elapsed: float
    truncated: bool
    labels_interned: int

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def violations(self) -> List[PolicyResult]:
        return [result for result in self.results if not result.ok]

    def format(self) -> str:
        topo = self.topology
        lines = [
            f"asbcheck: topology {topo.name!r} — {len(topo.processes)} processes, "
            f"{len(topo.edges)} edges; {self.states} states explored "
            f"({self.labels_interned} labels interned) in {self.elapsed:.2f}s"
        ]
        if self.truncated:
            lines.append("  WARNING: state space truncated at the max-states cap")
        for result in self.results:
            status = "ok" if result.ok else "VIOLATED"
            lines.append(f"  [{status:8}] {result.policy.describe()}")
            if result.violation is not None:
                lines.append(
                    "   " + _format_breach(result.violation, topo).replace("\n", "\n   ")
                )
        if self.dead_edges:
            lines.append("  dead edges (informational):")
            for name, reason in self.dead_edges:
                lines.append(f"    {name}: {reason}")
        bad = len(self.violations())
        noun = "policy" if len(self.results) == 1 else "policies"
        lines.append(
            f"asbcheck: {len(self.results)} {noun} checked, {bad} violated"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        topo = self.topology
        return {
            "version": 1,
            "tool": "asbcheck",
            "topology": topo.name,
            "ok": self.ok,
            "stats": {
                "processes": len(topo.processes),
                "edges": len(topo.edges),
                "states": self.states,
                "transitions": self.transitions,
                "labels_interned": self.labels_interned,
                "elapsed_s": round(self.elapsed, 4),
                "truncated": self.truncated,
            },
            "dead_edges": [
                {"edge": name, "reason": reason} for name, reason in self.dead_edges
            ],
            "policies": [
                {
                    **A.policy_to_json(result.policy),
                    "ok": result.ok,
                    "violation": (
                        None
                        if result.violation is None
                        else {
                            "message": result.violation.message,
                            "process": result.violation.process,
                            "edge": result.violation.edge,
                            "trace": [
                                step.to_json(topo) for step in result.violation.trace
                            ],
                        }
                    ),
                }
                for result in self.results
            ],
        }


def run_check(
    topology: Topology,
    policies: Optional[Sequence[A.Policy]] = None,
    exact: bool = False,
    max_states: int = 200_000,
) -> CheckReport:
    """Explore *topology* and verify *policies* (default: the ones
    embedded in the topology document)."""
    start = time.perf_counter()
    if policies is None:
        policies = A.policies_from_json(topology.policies)
    policies = list(policies)
    engine = Engine(topology)
    # One exploration per policy handle (see the module docstring), all
    # sharing the engine's label store and fire memo.  Exact mode ignores
    # the watched set, so a single exploration serves every policy.
    explorations: Dict[Optional[int], Exploration] = {}
    sub_explorations: Dict[Optional[int], Exploration] = {}
    sub_engines: List[Optional[Engine]] = [None]

    def explo(handle: Optional[int]) -> Exploration:
        key = None if exact else handle
        got = explorations.get(key)
        if got is None:
            watched = set() if key is None else {key}
            got = explorations[key] = Exploration(
                engine, watched, exact=exact, max_states=max_states
            )
        return got

    def sub_explo(handle: Optional[int]) -> Exploration:
        key = None if exact else handle
        got = sub_explorations.get(key)
        if got is None:
            if sub_engines[0] is None:
                sub_engines[0] = Engine(
                    topology, store=engine.store, skip_declassifiers=True
                )
            watched = set() if key is None else {key}
            got = sub_explorations[key] = Exploration(
                sub_engines[0], watched, exact=exact, max_states=max_states
            )
        return got

    live = explo(None)  # the fully-eager exploration: maximal deliverability
    never = _never_delivered(engine, live)
    results: List[PolicyResult] = []
    for policy in policies:
        scope = policy.resolve(topology)
        if scope.problem:
            violation: Optional[A.Breach] = policy.breach(scope.problem)
        elif policy.liveness:
            message = policy.liveness(scope, never)
            violation = policy.breach(message) if message else None
        elif policy.delivery:
            violation = _eval_deliveries(policy, scope, sub_explo(scope.handle))
        else:
            violation = _eval_states(policy, scope, engine, explo(scope.handle))
        results.append(PolicyResult(policy=policy, ok=violation is None, violation=violation))
    everything = list(explorations.values()) + list(sub_explorations.values())
    return CheckReport(
        topology=topology,
        results=results,
        states=sum(len(e.order) for e in everything),
        transitions=sum(e.transitions for e in everything),
        dead_edges=list(never.items()),
        elapsed=time.perf_counter() - start,
        truncated=any(e.truncated for e in everything),
        labels_interned=len(engine.store),
    )


# -- asblint ↔ asbcheck linking ----------------------------------------------------


def _qualname_matches(a: str, b: str) -> bool:
    if not a or not b:
        return False
    return a == b or a.endswith("." + b) or b.endswith("." + a)


def link_lint_findings(reports: Sequence[Any], topology: Topology) -> List[Any]:
    """Attach the asbcheck edges each asblint finding feeds.

    An ASB002 taint-creep finding says one program's send implicitly
    contaminates its receiver; the topology says *which* system edge that
    send becomes (matched through the program qualname recorded in
    ``EdgeSpec.via``).  Returns the reports with ``related_edges`` filled
    in on matching diagnostics."""
    from dataclasses import replace

    for report in reports:
        for attr in ("diagnostics", "suppressed"):
            updated = []
            for diag in getattr(report, attr):
                edges = tuple(
                    edge.name
                    for edge in topology.edges
                    if _qualname_matches(edge.via, diag.function)
                )
                if edges:
                    diag = replace(diag, related_edges=edges)
                updated.append(diag)
            setattr(report, attr, updated)
    return list(reports)
