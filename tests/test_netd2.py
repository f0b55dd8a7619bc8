"""The decomposed network server (paper Section 7.8, built here):
protocol-compatible with classic netd, with user isolation enforced
*inside* the stack — each connection's TCP state is an event process
carrying that user's taint, and the trusted front end firewalls egress
against verification labels."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L2, L3, STAR
from repro.ipc import protocol as P
from repro.kernel.syscalls import NewHandle, Send
from repro.okws import ServiceConfig, launch
from repro.okws.services import echo_handler, notes_handler, session_cache_handler
from repro.sim.workload import HttpClient


@pytest.fixture()
def site():
    return launch(
        services=[
            ServiceConfig("cache", session_cache_handler),
            ServiceConfig("echo", echo_handler),
            ServiceConfig("notes", notes_handler),
        ],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
        schema=["CREATE TABLE notes (author TEXT, text TEXT)"],
        network="decomposed",
    )


def test_okws_runs_unchanged_on_decomposed_stack(site):
    client = HttpClient(site)
    r1 = client.request("alice", "pw-a", "cache", body=b"state-1")
    r2 = client.request("alice", "pw-a", "cache", body=b"state-2")
    assert r2.body.startswith(b"state-1")
    assert r2.payload["hits"] == 2
    assert client.request("bob", "pw-b", "echo", args={"length": 7}).body == "x" * 7
    assert client.request("alice", "nope", "echo").payload["status"] == 403


def test_db_isolation_still_holds(site):
    client = HttpClient(site)
    client.request("alice", "pw-a", "notes", body="a-secret", args={"op": "add"})
    client.request("bob", "pw-b", "notes", body="b-secret", args={"op": "add"})
    assert client.request("alice", "pw-a", "notes", args={"op": "list"}).body == ["a-secret"]
    assert client.request("bob", "pw-b", "notes", args={"op": "list"}).body == ["b-secret"]


def test_one_backend_ep_per_live_connection(site):
    client = HttpClient(site)
    backend = next(
        p for p in site.kernel.processes.values() if p.name == "netd-backend"
    )
    # During a batch the EPs exist; after the closes they are gone.
    client.run_batch(
        [("alice", "pw-a", "echo", None, None)] * 3, concurrency=3
    )
    assert len(backend.event_processes) == 0  # all closed and exited


def test_backend_eps_carry_user_taint(site):
    # Capture the EP mid-flight: issue requests without closing.
    client = HttpClient(site)
    kernel = site.kernel
    conn_id, opened = client._open("alice", "pw-a", "echo", None, None)
    kernel.run()
    backend = next(p for p in kernel.processes.values() if p.name == "netd-backend")
    eps = list(backend.event_processes.values())
    assert eps, "connection EP should be alive before close"
    ep = eps[0]
    # "Each back-end event process would be contaminated with respect to
    # the user on whose behalf it speaks" (§7.8).
    assert any(lvl == L3 for _, lvl in ep.send_label.iter_entries())
    client._collect(conn_id, opened)
    kernel.run()


def test_front_end_firewall_blocks_forged_egress(site):
    # A compromised process that somehow knows the egress port tries to
    # emit bytes for alice's connection while carrying bob's taint: the
    # verification label cannot be forged (ES ⊑ V), so the kernel drops
    # the send before the firewall even runs.
    client = HttpClient(site)
    kernel = site.kernel
    conn_id, opened = client._open("alice", "pw-a", "echo", None, None)
    kernel.run()
    front = next(p for p in kernel.processes.values() if p.name == "netd-front")
    # Find the egress port: the one front-end port with no label opening.
    egress_candidates = sorted(front.owned_ports)

    def attacker(ctx):
        h = yield NewHandle()
        from repro.kernel import ChangeLabel

        yield ChangeLabel(send=Label({h: STAR}, 1).with_entry(h, L3))  # tainted
        for port in ctx.env["ports"]:
            # Claim to be clean: V = {2}.  ES(h)=3 > 2: undeliverable.
            yield Send(
                port,
                P.request("EGRESS", conn_id=ctx.env["conn"], data=b"forged"),
                v=Label({}, L2),
            )

    before_drops = kernel.drop_log.count("label-check")
    kernel.spawn(
        attacker, "attacker", env={"ports": egress_candidates, "conn": conn_id}
    )
    kernel.run()
    assert kernel.drop_log.count("label-check") > before_drops
    assert b"forged" not in [
        chunk for chunks in site.wire.outbound.values() for chunk in chunks
    ]
    client._collect(conn_id, opened)
    kernel.run()


def test_tainted_worker_cannot_use_foreign_connection(site):
    # Same invariant as classic netd, now enforced by the per-connection
    # EP's port label.
    client = HttpClient(site)
    kernel = site.kernel
    a_conn, a_open = client._open("alice", "pw-a", "echo", None, None)
    kernel.run()
    backend = next(p for p in kernel.processes.values() if p.name == "netd-backend")
    ep = next(iter(backend.event_processes.values()))
    a_port = sorted(ep.owned_ports)[0]
    a_taint = [h for h, lvl in ep.send_label.iter_entries() if lvl == L3]

    def foreign(ctx):
        h = yield NewHandle()
        from repro.kernel import ChangeLabel

        yield ChangeLabel(send=Label({h: STAR}, 1).with_entry(h, L3))
        yield Send(a_port, P.request(P.WRITE, data=b"foreign-taint-bytes"))

    before = kernel.drop_log.count("label-check")
    kernel.spawn(foreign, "foreign")
    kernel.run()
    assert kernel.drop_log.count("label-check") > before
    client._collect(a_conn, a_open)
    kernel.run()
    out = [c for chunks in site.wire.outbound.values() for c in chunks]
    assert b"foreign-taint-bytes" not in out
