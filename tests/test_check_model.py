"""asbcheck: the topology model, the engine, policies, counterexamples."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import rules as R
from repro.analysis.check import Engine, link_lint_findings, run_check
from repro.analysis.model import LabelStore, Topology, load, loads
from repro.core.labels import Label
from repro.core.levels import L0, L1, L2, L3, STAR, parse_level
from repro.kernel.errors import (
    DROP_DECONT_PRIVILEGE,
    DROP_LABEL_CHECK,
    DROP_PORT_LABEL,
)
from repro.policies.assertions import (
    CapabilityConfinement,
    DeadEdges,
    Isolation,
    MandatoryDeclassifier,
    policies_from_json,
    policy_from_json,
    policy_to_json,
)

ROOT = Path(__file__).resolve().parents[1]
TOPOLOGIES = ROOT / "examples" / "topologies"


# -- the declarative model ---------------------------------------------------------


def test_parse_level():
    assert parse_level("*") == STAR
    assert parse_level(-1) == STAR
    assert parse_level(3) == L3
    assert parse_level("2") == L2
    with pytest.raises(ValueError):
        parse_level("7")


def test_topology_round_trips_through_json():
    topo = load(TOPOLOGIES / "leaky_site.json")
    again = loads(topo.dumps())
    assert again.name == topo.name
    assert set(again.processes) == set(topo.processes)
    assert set(again.ports) == set(topo.ports)
    assert [e.name for e in again.edges] == [e.name for e in topo.edges]
    assert again.policies == topo.policies
    for name, spec in topo.processes.items():
        assert again.processes[name].send == spec.send
        assert again.processes[name].receive == spec.receive
    for name, port in topo.ports.items():
        assert again.ports[name].label == port.label
        assert again.ports[name].handle == port.handle


def test_validate_catches_dangling_references():
    topo = Topology("broken")
    topo.add_process("a")
    topo.add_port("p", owner="ghost")
    topo.add_edge("nobody", "p")
    problems = topo.validate()
    assert any("ghost" in p for p in problems)
    assert any("nobody" in p for p in problems)
    with pytest.raises(ValueError):
        Engine(topo)


def test_policy_json_round_trip():
    battery = [
        Isolation(process="w*", handle="uT:u", max_level=L2),
        MandatoryDeclassifier(handle="uT:u", sink="s"),
        CapabilityConfinement(handle="admin", allowed=("launcher", "idd")),
        DeadEdges(edges=("a->b",)),
    ]
    assert policies_from_json([policy_to_json(p) for p in battery]) == battery
    # Keys follow the kind's fields, in order; optional fields may be
    # absent, a name list may be one bare string.
    assert list(policy_to_json(battery[0])) == ["kind", "process", "handle", "max_level"]
    assert policy_from_json({"kind": "capability-confinement", "handle": "h"}) == (
        CapabilityConfinement(handle="h", allowed=())
    )
    assert policy_from_json({"kind": "dead-edge", "edges": "a->b"}) == DeadEdges(("a->b",))
    with pytest.raises(KeyError):
        policy_from_json({"kind": "isolation", "handle": "h"})
    for bad in ({"kind": "nonsense"}, ["isolation"]):
        with pytest.raises(ValueError):
            policy_from_json(bad)


def test_label_store_interns_and_memoizes():
    store = LabelStore()
    a = store.intern(Label({1: L3}, L1))
    b = store.intern(Label({1: L3}, L1))
    assert a == b
    first = store.lub(a, b)
    misses = store.memo_misses
    assert store.lub(a, b) == first
    assert store.memo_misses == misses  # second call served from the memo


# -- Figure 4 in the engine --------------------------------------------------------


def _two_proc(sender_send=None, receiver_receive=None, **edge_kw):
    topo = Topology("pair")
    topo.add_process(
        "a", send=sender_send or topo.label({"p": "*"}, default=1)
    )
    topo.add_process("b", receive=receiver_receive)
    topo.add_port("p", owner="b")
    topo.add_edge("a", "p", name="a->b", **edge_kw)
    return topo


def _fire_first(topo):
    engine = Engine(topo)
    return engine, engine.fire(engine.initial, engine.edges[0])


def test_contamination_effects_match_figure_4():
    topo = _two_proc(
        cs=Label({77: L3}, L0),
        receiver_receive=Label({77: L3}, L2),  # willing to take the taint
    )
    engine, firing = _fire_first(topo)
    assert firing.delivered
    qs = engine.store.label(firing.new_qs)
    # QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*): the CS entry lands at 3.
    assert qs(77) == L3
    assert qs.default == L1


def test_decontaminate_without_star_is_dropped_at_send():
    topo = _two_proc(ds=Label({77: L0}, L3))
    _, firing = _fire_first(topo)
    assert not firing.delivered
    assert firing.drop == DROP_DECONT_PRIVILEGE


def test_dr_above_port_label_is_dropped():
    topo = Topology("pair")
    h = topo.handle("g")
    topo.add_process("a", send=topo.label({"p": "*", "g": "*"}, default=1))
    topo.add_process("b")
    topo.add_port("p", owner="b", label=Label({topo.handle("p"): L0}, L2))
    topo.add_edge("a", "p", name="a->b", dr=Label({h: L3}, STAR))
    _, firing = _fire_first(topo)
    assert not firing.delivered
    assert firing.drop == DROP_PORT_LABEL


def test_taint_above_receive_label_is_dropped():
    topo = _two_proc(
        cs=Label({77: L3}, L0),
        receiver_receive=Label({}, L2),  # refuses 3 at handle 77
    )
    _, firing = _fire_first(topo)
    assert not firing.delivered
    assert firing.drop == DROP_LABEL_CHECK


def test_fork_port_delivery_leaves_owner_labels_frozen():
    topo = Topology("forky")
    topo.add_process("a", send=topo.label({"p": "*"}, default=1))
    topo.add_process("base", receive=Label({77: L3}, L2))
    topo.add_port("p", owner="base", fork=True)
    topo.add_edge("a", "p", name="a->base", cs=Label({77: L3}, L0))
    engine, firing = _fire_first(topo)
    assert firing.delivered
    assert firing.new_qs == engine.initial[2 * 1]  # base QS unchanged


# -- policies over the fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def leaky():
    return load(TOPOLOGIES / "leaky_site.json")


def test_leaky_site_violations(leaky):
    report = run_check(leaky)
    assert not report.ok
    by_kind = {r.policy.kind: r for r in report.results}
    assert not by_kind["isolation"].ok
    assert by_kind["capability-confinement"].ok
    assert not by_kind["mandatory-declassifier"].ok
    assert not by_kind["dead-edge"].ok
    # The shortest counterexample is the two-hop relay through the front.
    trace = by_kind["isolation"].violation.trace
    assert [s.edge for s in trace] == ["worker_u->front", "front->sink"]
    assert all(s.delivered for s in trace)
    assert "worker_u->locked" in by_kind["dead-edge"].violation.message


def test_clean_site_proves_out():
    report = run_check(load(TOPOLOGIES / "clean_site.json"))
    assert report.ok
    assert [r.policy.kind for r in report.results] == [
        "isolation",
        "capability-confinement",
        "mandatory-declassifier",
        "dead-edge",
    ]


def test_exact_exploration_agrees_with_reduction(leaky):
    reduced = run_check(leaky)
    exact = run_check(leaky, exact=True)
    for a, b in zip(reduced.results, exact.results):
        assert a.policy == b.policy
        assert a.ok == b.ok
    # Identical counterexample traces, not just identical verdicts.
    for a, b in zip(reduced.violations(), exact.violations()):
        assert [s.edge for s in a.violation.trace] == [
            s.edge for s in b.violation.trace
        ]


def test_unknown_policy_handle_is_a_loud_violation(leaky):
    report = run_check(
        leaky, policies=[Isolation(process="sink_v", handle="typo:handle")]
    )
    assert not report.ok
    assert "unknown handle" in report.results[0].violation.message


def test_report_json_shape(leaky):
    doc = run_check(leaky).to_json()
    assert doc["tool"] == "asbcheck"
    assert doc["ok"] is False
    assert doc["stats"]["states"] > 0
    violated = [p for p in doc["policies"] if not p["ok"]]
    assert len(violated) == 3
    trace = next(p for p in violated if p["kind"] == "isolation")["violation"]["trace"]
    assert trace[0]["sender"] == "worker_u"
    json.dumps(doc)  # fully serializable


def test_exploration_truncation_is_reported(leaky):
    report = run_check(leaky, max_states=1)
    assert report.truncated
    assert "truncated" in report.format()


# -- asblint ↔ asbcheck linking ----------------------------------------------------


def test_link_lint_findings_cites_edges(leaky):
    # Pretend an asblint finding fired inside the program that drives the
    # leaking edge: the linker matches EdgeSpec.via by qualname suffix.
    leaky.edges[1].via = "site.front.relay_body"
    diag = R.Diagnostic(
        path="x.py", line=1, col=1, rule=R.TAINT_CREEP,
        message="m", function="relay_body",
    )
    report = R.FileReport(path="x.py", diagnostics=[diag])
    linked = link_lint_findings([report], leaky)
    assert linked[0].diagnostics[0].related_edges == ("front->sink",)
    assert "feeds edge front->sink" in linked[0].diagnostics[0].format()
    assert linked[0].diagnostics[0].to_json()["related_edges"] == ["front->sink"]
    leaky.edges[1].via = ""


# -- the CLI -----------------------------------------------------------------------


def test_cli_check_exit_codes(capsys):
    leaky = str(TOPOLOGIES / "leaky_site.json")
    clean = str(TOPOLOGIES / "clean_site.json")
    assert cli.main(["check", "--topology", clean]) == 0
    assert cli.main(["check", "--topology", leaky]) == 1
    out = capsys.readouterr().out
    assert "counterexample" in out
    assert cli.main(["check"]) == 2  # neither --topology nor --okws
    assert cli.main(["check", "--topology", "/no/such/file.json"]) == 2


def test_cli_check_json_and_policy_override(tmp_path, capsys):
    leaky = str(TOPOLOGIES / "leaky_site.json")
    policy = tmp_path / "p.json"
    policy.write_text(json.dumps([{"kind": "dead-edge", "edges": ["worker_u->front"]}]))
    assert cli.main(["check", "--topology", leaky, "--policy", str(policy)]) == 0
    capsys.readouterr()  # drain the text report
    assert cli.main(["check", "--topology", leaky, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "asbcheck"


def test_cli_check_dump_topology(tmp_path):
    leaky = str(TOPOLOGIES / "leaky_site.json")
    out = tmp_path / "dump.json"
    assert cli.main(["check", "--topology", leaky, "--dump-topology", str(out)]) == 1
    assert loads(out.read_text()).name == "leaky-site"
