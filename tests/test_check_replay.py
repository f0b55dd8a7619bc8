"""Cross-validation: asbcheck counterexamples replayed on the real kernel.

The model checker claims its Figure 4 is the kernel's Figure 4.  These
tests make that falsifiable: every counterexample trace is re-executed
through ``Kernel._sys_send`` / ``Kernel._try_deliver`` (under the
differential sanitizer) and must reproduce the same deliveries, the same
drop reasons, and the same receiver labels, hop for hop.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.check import Engine, Exploration, run_check
from repro.analysis.model import Topology, load
from repro.analysis.replay import ReplayError, replay_trace
from repro.core.labels import Label
from repro.core.levels import L3, STAR
from repro.kernel.config import KernelConfig
from repro.kernel.errors import DROP_LABEL_CHECK
from repro.kernel.kernel import Kernel

TOPOLOGIES = Path(__file__).resolve().parents[1] / "examples" / "topologies"


def test_leak_counterexample_replays_identically():
    topo = load(TOPOLOGIES / "leaky_site.json")
    report = run_check(topo)
    violation = next(
        r.violation for r in report.violations() if r.policy.kind == "isolation"
    )
    kernel = Kernel(config=KernelConfig(sanitize=True))
    result = replay_trace(topo, violation.trace, kernel=kernel)
    assert result.ok, result.format()
    # The leak manifests for real: the sink's kernel send label now
    # carries the other user's taint at 3.
    uT = topo.handles["uT:u"]
    sink = kernel._replay_tasks["sink_v"]
    assert sink.send_label.to_label()(uT) == L3
    assert not kernel.sanitizer.violations


def test_dropped_hop_replays_as_the_same_drop():
    # In the clean site the forward delivers only before the front is
    # contaminated; force the contaminated ordering and the kernel must
    # drop it with the model's reason.
    topo = load(TOPOLOGIES / "clean_site.json")
    engine = Engine(topo)
    expl = Exploration(engine, set(), exact=True, max_states=10_000)
    uT = topo.handles["uT:u"]
    front = engine.proc_names.index("web_front")
    sid = next(
        sid
        for sid, state in enumerate(expl.order)
        if engine.store.label(state[2 * front])(uT) == L3
    )
    forward = next(e for e in engine.edges if e.name == "front->sink")
    trace = expl.trace_to(sid, extra=forward)
    assert not trace[-1].delivered
    assert trace[-1].drop == DROP_LABEL_CHECK
    result = replay_trace(topo, trace)
    assert result.ok, result.format()
    assert result.steps[-1].drop == DROP_LABEL_CHECK


def test_wire_edges_replay_through_inject():
    topo = Topology("wired")
    topo.add_process("<wire>", send=Label.send_default())
    topo.add_process("netd")
    topo.add_port("wire_port", owner="netd", label=Label({}, L3))
    topo.add_edge("<wire>", "wire_port", name="<wire>->netd")
    engine = Engine(topo)
    expl = Exploration(engine, set(), exact=True, max_states=100)
    trace = expl.trace_to(0, extra=engine.edges[0])
    result = replay_trace(topo, trace)
    assert result.ok, result.format()
    assert result.steps[0].delivered


def test_fork_port_traces_are_refused():
    topo = Topology("forky")
    topo.add_process("a", send=Label.send_default().with_entry(topo.handle("p"), STAR))
    topo.add_process("base")
    topo.add_port("p", owner="base", fork=True)
    topo.add_edge("a", "p", name="a->base")
    engine = Engine(topo)
    expl = Exploration(engine, set(), exact=True, max_states=100)
    trace = expl.trace_to(0, extra=engine.edges[0])
    with pytest.raises(ReplayError):
        replay_trace(topo, trace)
