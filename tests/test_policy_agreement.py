"""asbcheck and asbsched judge a policy through the same predicates
(``repro.policies.assertions``), so they can differ only in which states
they reach — never in what counts as a breach."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import sched
from repro.analysis.check import run_check
from repro.analysis.model import load
from repro.policies.assertions import (
    CapabilityConfinement,
    Isolation,
    MandatoryDeclassifier,
)

TOPOLOGIES = Path(__file__).resolve().parents[1] / "examples" / "topologies"
EXAMPLES = sorted(TOPOLOGIES.glob("*.json"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_the_checkers_agree_on_every_shipped_topology(path):
    topology = load(path)
    checked = run_check(topology)
    explored = sched.explore(
        sched.scenario_from_topology(topology), mode="dpor", depth=6
    )
    assert explored.complete
    assert checked.ok == explored.ok
    run = explored.counterexample_run()
    seen = {b.kind for b in (run.breaches if run else []) + explored.dead_edges}
    assert seen <= {r.policy.kind for r in checked.violations()}


UNRESOLVABLE = [
    Isolation(process="nobody-*", handle="uT:u"),
    Isolation(process="sink_v", handle="no-such-handle"),
    CapabilityConfinement(handle="no-such-handle", allowed=("decl",)),
    MandatoryDeclassifier(handle="no-such-handle", sink="sink_v"),
]


@pytest.mark.parametrize("policy", UNRESOLVABLE, ids=lambda p: p.describe())
def test_a_policy_naming_nothing_fails_in_both_checkers(policy):
    topology = load(TOPOLOGIES / "clean_site.json")
    (result,) = run_check(topology, [policy]).results
    explored = sched.explore(
        sched.scenario_from_topology(topology, policies=[policy]),
        mode="dpor",
        depth=4,
    )
    assert not result.ok and not explored.ok
    (breach,) = explored.counterexample_run().breaches
    assert breach.message == result.violation.message
    assert breach.kind == policy.kind
    # Resolving looks names up; it never mints them.
    assert "no-such-handle" not in topology.handles


@pytest.mark.parametrize("mode", ["dpor", "exhaustive"])
def test_a_dropped_send_still_emits_its_label(mode):
    # p's one send carries uT at 3 > 2 and is then dropped by its own
    # verification label: no delivery ever shows the taint.
    topology = load(TOPOLOGIES / "dropped_emission.json")
    (result,) = run_check(topology).results
    explored = sched.explore(
        sched.scenario_from_topology(topology), mode=mode, depth=4
    )
    assert not explored.ok
    (breach,) = explored.counterexample_run().breaches
    assert (breach.kind, breach.process, breach.edge) == ("isolation", "p", "p->sink")
    assert breach.message == result.violation.message
