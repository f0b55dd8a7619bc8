"""Adversarial tests: compromised workers actively attempt every
exfiltration the API offers, and the kernel blocks each one (paper
Sections 2, 7.2, 7.8).

"Workers are untrusted, meaning that worker compromise cannot violate the
user isolation policy."  These tests play the attacker.
"""

import pytest

from repro.core.labels import Label
from repro.core.levels import L0, L3, STAR
from repro.ipc import protocol as P
from repro.kernel.syscalls import NewPort, Recv, Send, SetPortLabel
from repro.okws import ServiceConfig, launch
from repro.okws.worker import DbError
from repro.sim.workload import HttpClient

#: A side channel the attacker sets up: a globally open port where the
#: compromised worker tries to publish stolen data.
EXFIL = {}


def evil_cache_handler(ectx, request):
    """A compromised session-cache worker: stores the user's secret, then
    tries to ship the *whole session store* everywhere it can."""
    request.session["secret"] = request.body
    attempts = []
    # 1. Straight to the attacker's drop box.
    if "port" in EXFIL:
        yield Send(EXFIL["port"], {"stolen": dict(request.session)})
        attempts.append("dropbox")
    # 2. To another connection (the conn of a *different* user, captured
    #    earlier by the compromised code).
    other = EXFIL.get("other_conn")
    if other is not None and other != request.args.get("conn"):
        yield Send(other, P.request(P.WRITE, data={"stolen": dict(request.session)}))
        attempts.append("cross-conn")
    EXFIL.setdefault("conns", []).append(request.args.get("conn"))
    # 3. Write the secret into the database as *another* user — the verify
    #    label for that is unforgeable, so use our own... then try lying.
    try:
        yield from request.db.write(
            "INSERT INTO drops (text) VALUES (?)", (str(request.body),)
        )
        attempts.append("db-own")
    except DbError:
        pass
    return {"headers": "HTTP/1.0 200 OK", "body": "ok", "attempts": attempts}


@pytest.fixture()
def site():
    EXFIL.clear()
    return launch(
        services=[ServiceConfig("evil", evil_cache_handler)],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
        schema=["CREATE TABLE drops (text TEXT)"],
    )


def attacker_process(kernel):
    """An unprivileged process with an open port, logging what reaches it."""
    received = []

    def body(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:
            msg = yield Recv(port=port)
            received.append(msg.payload)

    proc = kernel.spawn(body, "attacker")
    kernel.run()
    EXFIL["port"] = proc.env["port"]
    return received


def test_tainted_worker_cannot_reach_attacker_dropbox(site):
    received = attacker_process(site.kernel)
    client = HttpClient(site)
    r = client.request("alice", "pw-a", "evil", body=b"alice-secret")
    assert r.ok
    # The exfiltration send was silently dropped: the worker EP's send
    # label carries uT 3, the attacker's receive label tops out at 2.
    assert received == []
    assert site.kernel.drop_log.count("label-check") >= 1


def test_worker_cannot_write_other_users_connection(site):
    client = HttpClient(site)
    # Alice connects; the compromised worker records her uC.
    client.request("alice", "pw-a", "evil", body=b"alice-secret")
    EXFIL["other_conn"] = EXFIL["conns"][0] if EXFIL.get("conns") else None
    # Bob connects; his worker EP tries to write to alice's (closed) conn.
    r = client.request("bob", "pw-b", "evil", body=b"bob-secret")
    assert r.ok
    # Nothing of bob's reached alice's wire buffer.
    leaked = [
        chunk
        for chunks in site.wire.outbound.values()
        for chunk in chunks
        if isinstance(chunk, dict) and "stolen" in chunk
    ]
    assert leaked == []


def test_cross_session_eps_cannot_talk(site):
    # Two sessions of the same worker: EP[alice] sends to EP[bob]'s
    # session port; the kernel must drop it (different taints).
    client = HttpClient(site)
    client.request("alice", "pw-a", "evil", body=b"s1")
    client.request("bob", "pw-b", "evil", body=b"s2")
    kernel = site.kernel
    worker = next(p for p in kernel.processes.values() if p.name == "worker-evil")
    eps = list(worker.event_processes.values())
    assert len(eps) == 2
    a_ep, b_ep = eps
    # Forge a direct send from one EP's identity by injecting a message
    # with a taint mismatch: simulate via a tainted helper process.
    a_taint = [h for h, lvl in a_ep.send_label.iter_entries() if lvl == L3]
    b_ports = sorted(b_ep.owned_ports)
    assert a_taint and b_ports

    def helper(ctx):
        # Tainted like alice's EP, talking to bob's EP session port.
        yield Send(
            b_ports[0],
            {"stolen": "alice-data"},
            cs=Label({a_taint[0]: L3}, STAR),
        )

    before = kernel.drop_log.count()
    kernel.spawn(helper, "helper")
    kernel.run()
    assert kernel.drop_log.count() > before


def test_db_write_as_other_user_is_unforgeable(site):
    # A worker's DbClient could lie about its uid, but the verify label
    # must carry *that* user's uG at 0 — which the sender does not hold,
    # so the kernel drops the QUERY before dbproxy even sees it.
    client = HttpClient(site)
    client.request("alice", "pw-a", "evil", body=b"x")
    kernel = site.kernel

    worker = next(p for p in kernel.processes.values() if p.name == "worker-evil")
    ep = next(iter(worker.event_processes.values()))
    # Extract alice's handles from the EP label (values are public anyway).
    taint = next(h for h, lvl in ep.send_label.iter_entries() if lvl == L3)

    def forger(ctx):
        chan_port = yield NewPort()
        yield SetPortLabel(chan_port, Label.top())
        # Claim to be alice (uid 1) with a fabricated verify label: the
        # fabricated uG-0 entry cannot bound our ES — dropped.
        yield Send(
            site.dbproxy_port,
            P.request(
                P.QUERY,
                reply=chan_port,
                sql="INSERT INTO drops (text) VALUES ('forged')",
                params=(),
                uid=1,
            ),
            v=Label({taint: L3, 99999: L0}, 2),
        )

    before = kernel.drop_log.count("label-check")
    kernel.spawn(forger, "forger")
    kernel.run()
    assert kernel.drop_log.count("label-check") == before + 1


def test_compromise_contained_to_compromised_user(site):
    # End to end: despite a fully compromised worker, each user still gets
    # correct service and never sees the other's data on the wire.
    client = HttpClient(site)
    attacker_process(site.kernel)
    client.request("alice", "pw-a", "evil", body=b"alice-secret")
    client.request("bob", "pw-b", "evil", body=b"bob-secret")
    # Check every byte that ever hit the wire per connection.
    for conn_id, chunks in list(site.wire.outbound.items()):
        text = repr(chunks)
        assert not ("alice-secret" in text and "bob-secret" in text)
