"""Adversarial suite for proof-guided check elision: corrupted, stale and
wrong-topology proofs must be *detected*, and can never move a label.

The verified-flow table trusts nothing in the document beyond what
content addressing pins (:mod:`repro.analysis.proofs`): a stub hits only
when the live operand values match the proof's, every label the kernel
keeps comes from Figure 4 itself, and the claimed effect cores are
compared with Figure 4's on every stub key's first use.  This suite
attacks each layer:

* a forged label body (content hash mismatch), a dangling reference or
  an unknown schema is rejected at load time;
* a *well-formed* document whose effect delta was swapped for a valid
  but wrong label passes the loader — and is caught on its first use,
  quarantining the whole table, with every label equal to the plain run;
* a proof compiled for a different topology never hits wrongly: it can
  only miss, or hit on genuinely identical label values;
* the run leaving the recorded world — a port relabelled, a label
  written outside the proven values, an unrecorded EP realm, a port's
  receive rights passed on — is billed by value: probes on the new
  values miss, probes that land on proven values hit keys whose claims
  were already confirmed, and everything observable equals a plain
  kernel's.  The table never quarantines for it.
"""

import json
import os
import tempfile

import pytest

from repro.analysis.extract import TopologyRecorder
from repro.analysis.proofs import ProofError, _Pool, compile_proofs, load_proofs, write_proofs
from repro.cli import main
from repro.core.chunks import ChunkedLabel
from repro.core.interning import InternTable
from repro.core.labels import Label
from repro.core.levels import L1, L2, L3, STAR
from repro.kernel import (
    ChangeLabel,
    EpCheckpoint,
    EpExit,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
)
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient


def _requests(n_users):
    return [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(n_users)]


def _compile_echo_proofs(n_users, warm_rounds=2, concurrency=4):
    site = build_echo_site(n_users, config=KernelConfig())
    client = HttpClient(site)
    requests = _requests(n_users)
    for _ in range(warm_rounds):
        client.run_batch(requests, concurrency=concurrency)
    recorder = TopologyRecorder(site.kernel)
    client.run_batch(requests, concurrency=concurrency)
    return compile_proofs(recorder.build(f"adversarial-{n_users}"))


def _run_elided(n_users, path, rounds=4, concurrency=4, **extra):
    config = KernelConfig(
        intern_labels=True,
        elide_checks=True,
        proof_path=path,
        labelop_cache_size=1 << 12,
        **extra,
    )
    site = build_echo_site(n_users, config=config)
    client = HttpClient(site)
    payloads = []
    for _ in range(rounds):
        payloads.extend(
            r.payload
            for r in client.run_batch(_requests(n_users), concurrency=concurrency)
        )
    return site.kernel, payloads


def _poison_ref(doc):
    """Add a valid-fingerprint but wrong label to the pool and return its
    reference — the forgery a malicious (or buggy) emitter could ship."""
    table = InternTable()
    pool = _Pool(table)
    poison = table.intern(ChunkedLabel.from_label(Label({9999: L3}, L1)))
    ref = pool.ref(poison)
    doc["labels"].update(pool.to_json())
    return ref


# -- load-time rejection ------------------------------------------------------------


def test_forged_label_body_is_rejected_at_load():
    doc = _compile_echo_proofs(3)
    fp, body = next(iter(doc["labels"].items()))
    tampered = json.loads(json.dumps(doc))
    # Flip the label's default without recomputing the fingerprint.
    tampered["labels"][fp] = dict(body, default=int(L2))
    with pytest.raises(ProofError):
        load_proofs(tampered, InternTable())


def test_dangling_label_reference_is_rejected_at_load():
    doc = _compile_echo_proofs(3)
    tampered = json.loads(json.dumps(doc))
    assert tampered["delivers"], "expected at least one deliver stub"
    tampered["delivers"][0]["qr"] = "f" * 16
    with pytest.raises(ProofError):
        load_proofs(tampered, InternTable())


def test_unknown_schema_is_rejected_at_load():
    doc = _compile_echo_proofs(3)
    with pytest.raises(ProofError):
        load_proofs(dict(doc, schema="proofs/v999"), InternTable())


@pytest.fixture(scope="module")
def echo_proofs():
    return _compile_echo_proofs(3)


def _unhashable_ps(doc):
    doc["sends"][0]["ps"] = [doc["sends"][0]["ps"]]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda doc: doc.update(delivers=[1]),
        lambda doc: doc.update(delivers=5),
        _unhashable_ps,
        lambda doc: doc.update(topology=[1]),
        lambda doc: doc.update(stats=[1]),
    ],
    ids=["deliver-record-not-object", "delivers-not-array", "ps-is-a-list",
         "topology-not-object", "stats-not-object"],
)
def test_mis_shaped_records_fail_closed_at_load(echo_proofs, tamper):
    doc = json.loads(json.dumps(echo_proofs))
    tamper(doc)
    with pytest.raises(ProofError):
        load_proofs(doc, InternTable())


def test_a_document_carrying_a_worldview_loads_to_the_same_stubs(echo_proofs):
    # Older documents also recorded the ports, tasks, realms and port
    # labels the proofs assumed, and a topology fingerprint; the loader
    # ignores both.
    older = json.loads(json.dumps(echo_proofs))
    older["topology"]["fingerprint"] = "0" * 32
    older["covered"] = {
        "ports": sorted({r["port"] for r in older["delivers"]}),
        "tasks": sorted({r["sender"] for r in older["sends"]}),
        "realms": [],
        "port_labels": {str(r["port"]): [r["pl"]] for r in older["delivers"]},
    }
    new, old = load_proofs(echo_proofs, InternTable()), load_proofs(older, InternTable())
    assert set(old.deliver) == set(new.deliver) and set(old.send) == set(new.send)
    assert (old.topology_name, old.stats) == (new.topology_name, new.stats)


# -- corrupted effect deltas: caught on first use, never in a label ----------------


def _plain_run(n_users, rounds=4, concurrency=4):
    site = build_echo_site(n_users, config=KernelConfig())
    client = HttpClient(site)
    payloads = []
    for _ in range(rounds):
        payloads.extend(
            r.payload
            for r in client.run_batch(_requests(n_users), concurrency=concurrency)
        )
    return site.kernel, payloads


def _assert_plain_labels(kernel, payloads, n_users):
    plain, plain_payloads = _plain_run(n_users)
    assert payloads == plain_payloads
    assert kernel.drop_log.records == plain.drop_log.records
    for key, task in plain.tasks.items():
        assert task.send_label.to_label() == kernel.tasks[key].send_label.to_label(), key
        assert task.receive_label.to_label() == kernel.tasks[key].receive_label.to_label(), key


def _poisoned_run(fields, **extra):
    doc = _compile_echo_proofs(6)
    ref = _poison_ref(doc)
    for record in doc["delivers"]:
        for field in fields:
            record[field] = ref
    with tempfile.TemporaryDirectory(prefix="repro-elide-adv-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        write_proofs(doc, path)
        return _run_elided(6, path, **extra)


def test_corrupted_effect_delta_quarantines_on_first_elided_use():
    kernel, payloads = _poisoned_run(("new_qs_core",), sanitize=True, sanitize_strict=False)
    table = kernel.flow_table
    # The very first deliver-stub probe compares the claim with Figure 4's
    # result and quarantines the whole table: no delivery is ever billed
    # as a stub hit, and no label ever saw the forged delta.
    assert table.quarantines == 1
    assert table.deliver_hits == 0
    assert table.valid is False
    assert "diverged from its claim" in table.quarantine_reason
    assert kernel.sanitizer.violations == []
    assert len(payloads) == 6 * 4
    _assert_plain_labels(kernel, payloads, 6)


def test_corrupted_effect_delta_is_clean_under_strict_sanitizer():
    kernel, payloads = _poisoned_run(
        ("new_qs_core", "new_qr_core"), sanitize=True, sanitize_strict=True
    )
    assert kernel.flow_table.quarantines == 1
    assert kernel.sanitizer.violations == []
    _assert_plain_labels(kernel, payloads, 6)


# -- wrong-topology proofs can only miss (or hit soundly) ---------------------------


def test_wrong_topology_proofs_never_corrupt_the_replay():
    doc = _compile_echo_proofs(3)
    n_users = 7
    with tempfile.TemporaryDirectory(prefix="repro-elide-adv-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        write_proofs(doc, path)
        elided_kernel, elided_payloads = _run_elided(
            n_users, path, sanitize=True, sanitize_strict=True
        )
    _assert_plain_labels(elided_kernel, elided_payloads, n_users)
    # Content addressing makes any hit that does land a hit on the same
    # values: no first-use check fails, and the strict sanitizer agrees.
    assert elided_kernel.sanitizer.violations == []
    assert elided_kernel.flow_table.quarantines == 0


# -- a quarantined table stops eliding, the full path takes over ------------------


def test_stale_proofs_stop_eliding_and_fail_closed():
    doc = _compile_echo_proofs(4)
    with tempfile.TemporaryDirectory(prefix="repro-elide-adv-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        write_proofs(doc, path)
        config = KernelConfig(
            intern_labels=True,
            elide_checks=True,
            proof_path=path,
            labelop_cache_size=1 << 12,
        )
        site = build_echo_site(4, config=config)
        table = site.kernel.flow_table
        table.quarantine("simulated staleness")
        # Boot bring-up may have hit send stubs already; the point is
        # that nothing elides *after* the table is quarantined.
        hits_at_staleness = table.deliver_hits + table.send_hits
        client = HttpClient(site)
        payloads = []
        for _ in range(3):
            payloads.extend(
                r.payload for r in client.run_batch(_requests(4), concurrency=4)
            )
    assert table.valid is False
    assert table.quarantines == 1
    assert table.deliver_hits + table.send_hits == hits_at_staleness
    assert table.deliver_hits == 0  # no delivery ever elided
    assert len(payloads) == 12  # every connection served by the full path


# -- leaving the recorded world is billed by value ---------------------------------


def _pingpong_scenario(kernel, n_messages, twist=None):
    """A server draining a labelled inbox; *twist* (if given) runs inside
    the server after the second message and may return True to signal
    the server gave its port away.  A helper process with its own port
    exists in every run (handle determinism), but only the passage twist
    ever messages it.  Returns (server, helper)."""

    def helper(ctx):
        hinbox = yield NewPort()
        yield SetPortLabel(hinbox, Label.top())
        ctx.env["inbox"] = hinbox
        got = []
        ctx.env["got"] = got
        msg = yield Recv(port=hinbox)
        moved = msg.payload["moved"]
        while True:
            m = yield Recv(port=moved)
            if m.payload == "stop":
                break
            got.append(m.payload)

    def server(ctx):
        inbox = yield NewPort()
        yield SetPortLabel(inbox, Label.top())
        ctx.env["inbox"] = inbox
        got = []
        ctx.env["got"] = got
        while True:
            msg = yield Recv(port=inbox)
            if msg.payload == "stop":
                break
            got.append(msg.payload)
            if twist is not None and len(got) == 2:
                moved_away = yield from twist(inbox, helper_proc)
                if moved_away:
                    return

    srv = kernel.spawn(server, "server")
    helper_proc = kernel.spawn(helper, "helper")
    kernel.run()

    def client(ctx):
        for i in range(n_messages):
            yield Send(srv.env["inbox"], f"m{i}")
        yield Send(srv.env["inbox"], "stop")

    kernel.spawn(client, "client")
    kernel.run()
    return srv, helper_proc


def _pingpong_proofs(n_messages):
    kernel = Kernel(config=KernelConfig())
    recorder = TopologyRecorder(kernel)
    _pingpong_scenario(kernel, n_messages)
    topology = recorder.build("pingpong")
    assert topology.validate() == []
    return compile_proofs(topology)


def _elided_pingpong(path, n_messages, twist=None):
    kernel = Kernel(
        config=KernelConfig(
            intern_labels=True, elide_checks=True, proof_path=path
        )
    )
    srv, helper = _pingpong_scenario(kernel, n_messages, twist=twist)
    return kernel, srv, helper


def test_pingpong_baseline_elides_without_invalidating():
    doc = _pingpong_proofs(8)
    with tempfile.TemporaryDirectory(prefix="repro-elide-adv-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        write_proofs(doc, path)
        kernel, srv, _ = _elided_pingpong(path, 8)
    table = kernel.flow_table
    assert srv.env["got"] == [f"m{i}" for i in range(8)]
    assert table.valid is True
    assert table.deliver_hits > 0
    assert table.quarantines == 0


def _rewrite_port_label(inbox, _helper):
    yield SetPortLabel(inbox, Label({50: L2}, L3))


def _leave_assumed_labels(inbox, _helper):
    # Self-contamination: a send-label core the exploration never saw.
    yield ChangeLabel(send=Label({inbox: STAR, 50: L2}, L1))


def _become_realm(_inbox, _helper):
    def event_body(ctx, msg):
        if msg.payload != "stop":
            ctx.env["got"].append(msg.payload)
        yield EpExit()

    yield EpCheckpoint(event_body)


def _pass_inbox(inbox, helper):
    # Hand the inbox's receive rights to the helper; the recorded run
    # never passed a port.
    yield Send(helper.env["inbox"], {"moved": inbox}, transfer=(inbox,))
    return True


def _twist_run(config, twist, at_twist=None):
    """The ping-pong scenario on a kernel built from *config*; *at_twist*
    (if given) gets the kernel just before the twist runs."""
    kernel = Kernel(config=config)

    def twisted(inbox, helper):
        if at_twist is not None:
            at_twist(kernel)
        return (yield from twist(inbox, helper))

    srv, helper = _pingpong_scenario(kernel, 8, twist=twisted)
    return kernel, srv, helper


def _assert_twist_billed_by_value(twist, arrived=8, helper_got=()):
    doc = _pingpong_proofs(8)
    seen_at_twist = {}

    def snapshot(kernel):
        table = kernel.flow_table
        seen_at_twist.update(
            hits=table.deliver_hits + table.send_hits,
            first_use_checks=table.first_use_checks,
            keys=set(table._seen_keys),
        )

    with tempfile.TemporaryDirectory(prefix="repro-elide-adv-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        write_proofs(doc, path)
        config = KernelConfig(intern_labels=True, elide_checks=True, proof_path=path)
        kernel, srv, helper = _twist_run(config, twist, snapshot)
    plain, plain_srv, plain_helper = _twist_run(KernelConfig(), twist)
    table = kernel.flow_table
    # The twist is a real in-simulation event the proofs never recorded.
    # It concerns the bill only through the values it leaves behind: no
    # quarantine, and nothing observable differs from a plain kernel.
    assert table.valid is True
    assert table.quarantines == 0
    assert srv.env["got"] == plain_srv.env["got"] == [f"m{i}" for i in range(arrived)]
    assert helper.env["got"] == plain_helper.env["got"] == list(helper_got)
    assert kernel.drop_log.records == plain.drop_log.records
    for key, task in plain.tasks.items():
        assert task.send_label.to_label() == kernel.tasks[key].send_label.to_label(), key
        assert task.receive_label.to_label() == kernel.tasks[key].receive_label.to_label(), key
    for handle, entry in plain.ports.items():
        assert entry.label.to_label() == kernel.ports[handle].label.to_label(), handle
    # Every hit is on a key already first-use-checked: whatever hits after
    # the twist landed on proven values whose claims were confirmed before.
    assert seen_at_twist["hits"] > 0
    assert table.first_use_checks == seen_at_twist["first_use_checks"]
    assert table._seen_keys == seen_at_twist["keys"]
    return table, seen_at_twist["hits"]


def test_port_label_rewrite_is_billed_by_value():
    table, _ = _assert_twist_billed_by_value(_rewrite_port_label)
    assert table.misses > 0  # the rewritten pR names no proven value


def test_labels_leaving_the_proven_values_are_billed_by_value():
    table, _ = _assert_twist_billed_by_value(_leave_assumed_labels)
    assert table.misses > 0  # the new QS names no proven value


def test_unrecorded_realm_is_billed_by_value():
    # Messages already queued on a base port at the checkpoint wait for
    # the next arrival there (ready_realm_ports only learns of traffic
    # that comes after); the client is done by then.
    _assert_twist_billed_by_value(_become_realm, arrived=2)


def test_port_passage_is_billed_by_value():
    # The server saw the first two messages; after the passage the helper
    # drained the rest, on the same proven values: its deliveries hit.
    table, hits_at_twist = _assert_twist_billed_by_value(
        _pass_inbox, arrived=2, helper_got=[f"m{i}" for i in range(2, 8)]
    )
    assert table.deliver_hits + table.send_hits > hits_at_twist


def test_readme_demo_keeps_billing_through_netd_relabels(tmp_path, monkeypatch, capsys):
    # README's quickstart, through the CLI: compile proofs from the live
    # OKWS wiring, then run the demo on them.  netd's ADD_TAINT relabel
    # of alice's connection port (step 41) leaves the recorded values;
    # while such an event quarantined the table, this run billed
    # 16 deliver + 33 send hits after the same 10 first-use checks.
    path = str(tmp_path / "proofs.json")
    assert main(["check", "--okws", "--emit-proofs", path]) == 0
    monkeypatch.setenv("REPRO_ELIDE", "1")
    monkeypatch.setenv("REPRO_PROOFS", path)
    capsys.readouterr()
    assert main(["run", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alice"] == ["alice note"] and report["bob"] == ["bob note"]
    elide = report["elide"]
    assert elide["valid"] is True and elide["quarantines"] == 0
    assert (elide["deliver_hits"], elide["send_hits"]) == (24, 65)
    assert elide["first_use_checks"] == 10
