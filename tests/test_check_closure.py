"""asbcheck's closure fires only the edges a step can have moved.

`Exploration._closure` used to re-fire every edge on every pass; it now
fires an edge only when a step changed a label its firing reads.  The
reference here is that earlier closure and BFS loop, kept verbatim (the
changes: the cap is read from ``CLOSURE_CAP``, so a small cap can reach
the capped path, and the last-drop slot the dead-edge reasons no longer
read is gone).  On generated topologies the two must agree on every
output of an exploration and of `run_check`, and the change must fire
exactly the reference's firings that the dependency argument keeps, in
the reference's order.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis import check
from repro.analysis.check import Engine, Exploration, Firing, State, _Edge, run_check
from repro.analysis.model import Topology
from repro.core.levels import L0, L1, L2, L3, STAR, level_name
from repro.kernel.errors import DROP_DECONT_PRIVILEGE, DROP_LABEL_CHECK, DROP_PORT_LABEL
from repro.okws.topology import record_okws_topology

Pick = Callable[[Sequence[Any]], Any]


# -- generated topologies ----------------------------------------------------------


def generated_topology(pick: Pick) -> Topology:
    """A small topology whose every choice is ``pick(options)``, the
    simplest option first: 2–6 processes, 1–3 user handles plus one handle
    per port, every level (⋆ defaults too), grants through ⋆ in ``DS``,
    contaminating ``CS``/``DR``, fork ports, declassifier edges and all
    four policy kinds."""
    topo = Topology("generated")
    procs = [f"p{i}" for i in range(pick(range(2, 7)))]
    users = [f"u{i}" for i in range(pick((1, 2, 3)))]
    owners = {f"{proc}.in{k}": proc for proc in procs for k in range(pick((1, 0, 2)))}
    if not owners:
        owners[f"{procs[0]}.in0"] = procs[0]
    ports = list(owners)
    handles = users + ports
    for name in handles:
        topo.handle(name)

    held = {}
    for proc in procs:
        # Per user handle a process is plain, tainted (3), its owner (⋆)
        # or something else; it is cleared to receive it (QR 3) or not.
        send = {u: pick((None, STAR, None, L3, STAR, None, L2)) for u in users}
        receive = {u: pick((L3, L3, None, L3, None, L1)) for u in users}
        # A port's creator holds its handle at ⋆ and may grant it; a
        # sender needs it at 0 or ⋆ to pass the port label's 0.
        for port, owner in owners.items():
            if owner == proc or pick((True,) * 7 + (False,)):
                send[port] = pick((STAR,) * 4 + (L0, L1))
        send = {h: level for h, level in send.items() if level is not None}
        held[proc] = [h for h in handles if send.get(h) == STAR]
        topo.add_process(
            proc,
            send=topo.label(send, pick((L1,) * 8 + (L0, L2, STAR, L3))),
            receive=topo.label(
                {u: level for u, level in receive.items() if level is not None},
                pick((L2, L3) * 4 + (L1, L0, STAR)),
            ),
        )
    for port, owner in owners.items():
        label = {port: L0}
        if pick((False, False, True)):
            label[pick(users)] = pick((L1, L2))
        default, fork = pick((L3, L3, L3, L2)), pick((False, False, False, True))
        topo.add_port(port, owner, label=topo.label(label, default), fork=fork)
    for _ in range(pick(range(1, 13))):
        sender = pick(procs)
        # Privilege is mostly spent on a handle the sender holds at ⋆.
        privileged = pick((users, held[sender])) or users
        kind = pick(
            ("plain", "grant", "raise", "grant", "contaminate", "raise", "verify", "privileged-raise")
        )
        spec: dict = {}
        if kind == "grant":
            spec["ds"] = topo.label({pick(privileged): pick((STAR, STAR, L0, L1))}, L3)
        elif kind == "contaminate":
            spec["cs"] = topo.label({pick(users): pick((L3, L2))}, STAR)
        elif kind == "raise":
            spec["dr"] = topo.label({pick(privileged): pick((L3, L1, L2))}, STAR)
        elif kind == "verify":
            spec["v"] = topo.label({pick(users): pick((L1, L0, L2))}, L3)
        elif kind == "privileged-raise":
            spec["ds"] = topo.label({pick(privileged): STAR}, L3)
            spec["dr"] = topo.label({pick(privileged): L3}, STAR)
        topo.add_edge(sender, pick(ports), declassifier=pick((False, False, True)), **spec)
    topo.policies.append({"kind": "dead-edge"})
    for _ in range(pick((1, 2, 3))):
        kind = pick(("isolation", "mandatory-declassifier", "capability-confinement"))
        user, level = pick(users), level_name(pick((L2, L1, L0, L3)))
        if kind == "isolation":
            process = pick(procs + ["*"])
            topo.policies.append(
                {"kind": kind, "process": process, "handle": user, "max_level": level}
            )
        elif kind == "mandatory-declassifier":
            sink = pick(procs)
            topo.policies.append({"kind": kind, "handle": user, "sink": sink, "max_level": level})
        else:
            topo.policies.append({"kind": kind, "handle": user, "allowed": [pick(procs)]})
    return topo


@st.composite
def topologies(draw: Any) -> Topology:
    return generated_topology(lambda options: draw(st.sampled_from(list(options))))


# -- the reference: the closure and BFS loop before the change, verbatim ---------------


class _Reference(Exploration):
    def _closure(self, state: State) -> Tuple[State, Tuple[int, ...]]:
        if self.exact:
            return state, ()
        steps: List[int] = []
        progress = True
        while progress and len(steps) < self.CLOSURE_CAP:
            progress = False
            for edge in self.engine.edges:
                firing = self._fire(state, edge)
                if not firing.delivered:
                    continue
                r = edge.r_idx
                qs_old, qr_old = state[2 * r], state[2 * r + 1]
                if firing.new_qs == qs_old and firing.new_qr == qr_old:
                    continue
                # Receive-label raises are always enabling-only; the send
                # label must change by unwatched grants alone.
                if firing.new_qs != qs_old and not self._qs_change_eager(
                    qs_old, firing.new_qs
                ):
                    continue
                state = self.engine.apply(state, edge, firing)
                steps.append(edge.idx)
                progress = True
        return state, tuple(steps)

    def _register(self, state: State, parent: int, steps: Tuple[int, ...]) -> Optional[int]:
        if state in self.states:
            return None
        if len(self.states) >= self.max_states:
            self.truncated = True
            return None
        sid = len(self.order)
        self.states[state] = sid
        self.order.append(state)
        self.parents.append((parent, steps))
        return sid

    def _run(self) -> None:
        init, init_steps = self._closure(self.engine.initial)
        self._register(init, -1, init_steps)
        queue = deque([0])
        while queue:
            sid = queue.popleft()
            state = self.order[sid]
            for edge in self.engine.edges:
                firing = self._fire(state, edge)
                if not firing.delivered:
                    continue
                succ = self.engine.apply(state, edge, firing)
                if succ == state:
                    continue
                self.transitions += 1
                succ, steps = self._closure(succ)
                new_sid = self._register(succ, sid, (edge.idx,) + steps)
                if new_sid is not None:
                    queue.append(new_sid)


class _Kept(_Reference):
    """The reference, logging the firings the dependency argument keeps.

    Outside a closure every firing is kept.  A closure keeps a firing of an
    edge only when a step since that edge last fired (or, for the first
    pass, since the BFS state it starts from) moved a label the edge reads:
    the QS of its sender or receiver, or its receiver's QR.  Every edge is
    kept in the first pass of the initial closure and of a closure below a
    capped one.  Steps are read off the states passed to ``_fire``."""

    def __init__(self, *args: Any) -> None:
        self.log: List[Tuple[int, int, int, int]] = []
        self.drops: List[Set[str]] = [set() for _ in args[0].edges]
        self._dirty: Optional[Set[int]] = None
        self._last = self._popped = None
        self._capped: List[bool] = []
        self._capped_now = False
        super().__init__(*args)

    def _moved(self, before: State, after: State) -> Set[int]:
        moved: Set[int] = set()
        for edge in self.engine.edges:
            s, r = 2 * edge.s_idx, 2 * edge.r_idx
            if before[s] != after[s] or before[r : r + 2] != after[r : r + 2]:
                moved.add(edge.idx)
        return moved

    def _fire(self, state: State, edge: _Edge) -> Firing:
        if self._dirty is None:
            self._popped = state
            keep = True
        else:
            if state != self._last:
                self._dirty |= self._moved(self._last, state)
                self._last = state
            keep = edge.idx in self._dirty
            self._dirty.discard(edge.idx)
        if keep:
            r = 2 * edge.r_idx
            self.log.append((edge.idx, state[2 * edge.s_idx], state[r], state[r + 1]))
        firing = super()._fire(state, edge)
        if not firing.delivered:
            self.drops[edge.idx].add(firing.drop)
        return firing

    def _closure(self, state: State) -> Tuple[State, Tuple[int, ...]]:
        popped = self._popped
        if popped is None or self._capped[self.states[popped]]:
            self._dirty = {edge.idx for edge in self.engine.edges}
        else:
            self._dirty = self._moved(popped, state)
        self._last = state
        try:
            out = super()._closure(state)
        finally:
            self._dirty = None
        self._capped_now = len(out[1]) >= self.CLOSURE_CAP
        return out

    def _register(self, state: State, parent: int, steps: Tuple[int, ...]) -> Optional[int]:
        sid = super()._register(state, parent, steps)
        if sid is not None:
            self._capped.append(self._capped_now)
        return sid


class _LoggedMemo(dict):
    """A fire memo that logs each firing's key once: on a hit, or on the
    store that follows a miss."""

    def __init__(self) -> None:
        super().__init__()
        self.log: List[Tuple[int, int, int, int]] = []

    def get(self, key: Any, default: Any = None) -> Any:
        got = super().get(key, default)
        if got is not None:
            self.log.append(key)
        return got

    def __setitem__(self, key: Any, value: Any) -> None:
        self.log.append(key)
        super().__setitem__(key, value)


def _capped(cls: type, cap: int) -> type:
    return type(cls.__name__, (cls,), {"CLOSURE_CAP": cap})


def _outputs(expl: Exploration) -> dict:
    return {
        "order": expl.order,
        "parents": expl.parents,
        "transitions": expl.transitions,
        "truncated": expl.truncated,
        "edge_delivered": expl.edge_delivered,
    }


def _compare(topology: Topology, watched: Set[int], exact: bool, max_states: int, cap: int) -> _Kept:
    kept = _capped(_Kept, cap)(Engine(topology), watched, exact, max_states)
    engine = Engine(topology)
    engine._fire_memo = memo = _LoggedMemo()
    changed = _capped(Exploration, cap)(engine, watched, exact, max_states)
    assert _outputs(changed) == _outputs(kept)
    assert memo.log == kept.log
    assert changed.edge_evaluations == len(kept.log)
    return kept


def _report(topology: Topology, exploration: type, exact: bool) -> dict:
    with mock.patch.object(check, "Exploration", exploration):
        doc = run_check(topology, exact=exact).to_json()
    del doc["stats"]["elapsed_s"]
    return doc


def _check_topology(topology: Topology) -> List[_Kept]:
    handles = {topology.handles[p["handle"]] for p in topology.policies if "handle" in p}
    runs = []
    for cap in (Exploration.CLOSURE_CAP, 1, 2):
        for watched in [set()] + [{h} for h in sorted(handles)]:
            runs.append(_compare(topology, watched, False, 200_000, cap))
        runs.append(_compare(topology, set(), False, 3, cap))
    runs.append(_compare(topology, set(), True, 200_000, Exploration.CLOSURE_CAP))
    for exact in (False, True):
        assert _report(topology, Exploration, exact) == _report(topology, _Reference, exact)
    return runs


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_the_closure_equals_the_full_pass_closure(topology):
    _check_topology(topology)


def test_the_generator_makes_closures_and_mixed_drop_reasons():
    # The strategy must reach what the change can get wrong: real eager
    # closures, capped ones, and edges that drop for more than one reason
    # over a run, dead ones for each reason.
    rng = random.Random(29)
    steps = capped = mixed = 0
    dead_reasons: Set[str] = set()
    for _ in range(200):
        topology = generated_topology(lambda options: rng.choice(list(options)))
        for kept in _check_topology(topology):
            # A state's step sequence is the BFS step, then its closure's.
            steps += len(kept.parents[0][1]) + sum(len(s) - 1 for _, s in kept.parents[1:])
            capped += sum(kept._capped)
            mixed += sum(len(d) > 1 for d in kept.drops)
            dead_reasons.update(check._never_delivered(kept.engine, kept).values())
    # 381 steps, 119 capped closures and 23 mixed edges at this seed.
    assert steps >= 300
    assert capped >= 100
    assert mixed >= 20
    assert dead_reasons == {DROP_DECONT_PRIVILEGE, DROP_LABEL_CHECK, DROP_PORT_LABEL}


def test_a_dead_edges_reason_is_its_drop_in_the_closed_initial_state():
    # `a` sends to `b` granting u, so it drops for privilege until `a`
    # holds u at ⋆.  `y` gives `a` ⋆ and taint w at once, after which `b`
    # refuses the taint (label-check); `y2` gives the taint alone.  `z`
    # raises u at `c` and `z2` lowers it back: a cycle, since u is
    # watched.  The edge drops for both reasons over the run, and its
    # reason is the one it drops for first, in the closed initial state.
    topo = Topology("first-pass-restore")
    topo.handle("u")
    topo.handle("w")
    procs = ("a", "b", "c", "y", "y2", "z", "z2")
    for proc in procs:
        topo.handle(f"{proc}.in")
    holds = {"y": {"u": STAR, "w": L3}, "y2": {"w": L3}, "z": {"u": L2}, "z2": {"u": STAR}}
    for proc in procs:
        access = {f"{p}.in": STAR for p in procs}
        receive = {} if proc == "b" else {"w": L3}
        topo.add_process(
            proc,
            send=topo.label({**access, **holds.get(proc, {})}, L1),
            receive=topo.label(receive, L3 if proc == "c" else L2),
        )
        topo.add_port(f"{proc}.in", proc)
    grant = topo.label({"u": STAR}, L3)
    topo.add_edge("a", "b.in", ds=grant, name="a->b")
    topo.add_edge("y", "a.in", ds=grant, name="y->a")
    topo.add_edge("y2", "a.in", name="y2->a")
    topo.add_edge("z", "c.in", name="z->c")
    topo.add_edge("z2", "c.in", ds=topo.label({"u": L1}, L3), name="z2->c")
    topo.policies.append({"kind": "isolation", "process": "c", "handle": "u", "max_level": "1"})
    _check_topology(topo)
    kept = _compare(topo, {topo.handles["u"]}, False, 200_000, Exploration.CLOSURE_CAP)
    assert check._never_delivered(kept.engine, kept) == {"a->b": DROP_DECONT_PRIVILEGE}
    assert kept.drops[0] == {DROP_DECONT_PRIVILEGE, DROP_LABEL_CHECK}


# -- the oracles workload's topology -----------------------------------------------------


def test_the_oracles_topology_is_pinned_and_fires_few_edges():
    # `run_check` on the 4-user recorded OKWS topology, as hostbench's
    # `oracles` workload runs it.  The counts and the report are the
    # full-pass closure's, which fired 1,432,948 edges (515,642 now).
    made: List[Exploration] = []

    class Counted(Exploration):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            made.append(self)
            super().__init__(*args, **kwargs)

    topology = record_okws_topology(tuple((f"u{i}", f"pw-{i}") for i in range(4)))
    with mock.patch.object(check, "Exploration", Counted):
        report = run_check(topology)
    assert (report.states, report.transitions, report.labels_interned) == (221, 2_882, 1_325)
    doc = report.to_json()
    del doc["stats"]["elapsed_s"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "322dc75bbc10ffe35704e1bd10a617b60f2ca11bb49a05052e88405436407591"
    assert sum(e.edge_evaluations for e in made) <= 600_000
