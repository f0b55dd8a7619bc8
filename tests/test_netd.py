"""netd: connection ports, per-connection taint, and the step-1/step-5
label behaviour of Figure 5 (paper Section 7.7)."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import Channel
from repro.kernel import NewHandle, NewPort, Recv, Send, SetPortLabel
from repro.kernel.clock import NETWORK
from repro.servers.netd import Wire, netd_body


@pytest.fixture
def net(kernel):
    wire = Wire()
    proc = kernel.spawn(netd_body, "netd", component=NETWORK, env={"wire": wire})
    kernel.run()
    return proc, wire


def spawn_listener(kernel, netd_port):
    """An app that LISTENs on TCP port 80 and records ACCEPT_Rs."""
    accepted = []

    def body(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(netd_port, P.request(P.LISTEN, port=80, notify=port))
        while True:
            msg = yield Recv(port=port)
            accepted.append(msg.payload)

    proc = kernel.spawn(body, "app")
    kernel.run()
    return proc, accepted


def test_open_notifies_listener_with_capability(kernel, net):
    netd, wire = net
    app, accepted = spawn_listener(kernel, netd.env["netd_port"])
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.run()
    assert len(accepted) == 1
    conn_port = accepted[0]["conn"]
    # The listener received uC at ⋆ (the DS grant) — check the app's label.
    assert app.send_label(conn_port) == STAR
    # The connection port label is {uC 0, 2} (step 1 of Figure 5).
    port = kernel.ports[conn_port]
    label = port.label.to_label()
    assert label(conn_port) == L0
    assert label.default == L2


def test_open_to_unlistened_port_closes(kernel, net):
    netd, wire = net
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 9, "dport": 99})
    kernel.run()
    assert wire.closed.get(9) is True


def test_read_write_roundtrip(kernel, net):
    netd, wire = net
    app_results = []

    def app(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["netd_port"], P.request(P.LISTEN, port=80, notify=port))
        accept = yield Recv(port=port)
        conn = accept.payload["conn"]
        chan = yield from Channel.open()
        r = yield from chan.call(conn, P.request(P.READ))
        app_results.append(r.payload["data"])
        yield Send(conn, P.request(P.WRITE, data=b"response"))

    kernel.spawn(app, "app", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.inject(netd.env["netd_wire_port"], {"type": "DATA", "conn": 1, "data": b"request"})
    kernel.run()
    assert app_results == [b"request"]
    assert wire.take(1) == [b"response"]


def test_read_blocks_until_data(kernel, net):
    netd, wire = net
    app_results = []

    def app(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["netd_port"], P.request(P.LISTEN, port=80, notify=port))
        accept = yield Recv(port=port)
        chan = yield from Channel.open()
        r = yield from chan.call(accept.payload["conn"], P.request(P.READ))
        app_results.append(r.payload["data"])

    kernel.spawn(app, "app", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.run()
    assert app_results == []     # READ pending, no data yet
    kernel.inject(netd.env["netd_wire_port"], {"type": "DATA", "conn": 1, "data": b"late"})
    kernel.run()
    assert app_results == [b"late"]


def test_stranger_cannot_use_connection(kernel, net):
    # The {uC 0, 2} port label seals the socket: a process without the
    # capability cannot READ or WRITE it.
    netd, wire = net
    app, accepted = spawn_listener(kernel, netd.env["netd_port"])
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.run()
    conn = accepted[0]["conn"]
    before = kernel.drop_log.count("label-check")

    def stranger(ctx):
        chan = yield from Channel.open()
        yield Send(conn, dict(P.request(P.WRITE, data=b"hijack"), reply=chan.port))

    kernel.spawn(stranger, "stranger")
    kernel.run()
    assert kernel.drop_log.count("label-check") == before + 1
    assert wire.take(1) == []    # nothing went out


def test_add_taint_contaminates_reads(kernel, net):
    netd, wire = net
    seen = []

    def app(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["netd_port"], P.request(P.LISTEN, port=80, notify=port))
        accept = yield Recv(port=port)
        conn = accept.payload["conn"]
        uT = yield NewHandle()
        ctx.env["uT"] = uT
        # As ok-demux does: accept u's taint ourselves before asking netd
        # to contaminate the connection's data.
        from repro.kernel import ChangeLabel
        yield ChangeLabel(raise_receive={uT: L3})
        yield Send(
            ctx.env["netd_port"],
            P.request("ADD_TAINT", conn=conn, taint=uT),
            ds=Label({uT: STAR}, L3),
        )
        chan = yield from Channel.open()
        r = yield from chan.call(conn, P.request(P.READ))
        from repro.kernel import GetLabels
        send, _ = yield GetLabels()
        seen.append((r.payload["data"], send(uT)))

    app_proc = kernel.spawn(app, "app", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.inject(netd.env["netd_wire_port"], {"type": "DATA", "conn": 1, "data": b"user-bytes"})
    kernel.run()
    # The app created uT so it holds ⋆; data arrived contaminated but the
    # star absorbed it.  netd's own receive label now admits uT 3.
    assert seen == [(b"user-bytes", STAR)]
    assert netd.receive_label(app_proc.env["uT"]) == L3


def test_add_taint_without_grant_ignored(kernel, net):
    netd, wire = net
    app, accepted = spawn_listener(kernel, netd.env["netd_port"])
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.run()
    conn = accepted[0]["conn"]

    def sneaky(ctx):
        uT = yield NewHandle()
        ctx.env["uT"] = uT
        # No DS grant: netd must ignore the request.
        yield Send(ctx.env["netd_port"], P.request("ADD_TAINT", conn=conn, taint=uT))

    sneaky_proc = kernel.spawn(sneaky, "sneaky", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    assert netd.receive_label(sneaky_proc.env["uT"]) == L2  # unchanged


def test_tainted_data_cannot_leave_via_other_connection(kernel, net):
    # The heart of step 5: uT-tainted data may flow out only via u's own
    # connection; a process tainted with u's handle cannot write to v's.
    netd, wire = net
    done = []

    def app(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["netd_port"], P.request(P.LISTEN, port=80, notify=port))
        a1 = yield Recv(port=port)
        a2 = yield Recv(port=port)
        u_conn, v_conn = a1.payload["conn"], a2.payload["conn"]
        uT = yield NewHandle()
        yield Send(
            ctx.env["netd_port"],
            P.request("ADD_TAINT", conn=u_conn, taint=uT),
            ds=Label({uT: STAR}, L3),
        )
        # Writes carrying uT-3 contamination: u's connection admits them
        # (its port label gained uT 3 in the ADD_TAINT), v's does not.
        yield Send(u_conn, P.request(P.WRITE, data=b"for-u"),
                   cs=Label({uT: L3}, STAR))
        yield Send(v_conn, P.request(P.WRITE, data=b"leak-to-v"),
                   cs=Label({uT: L3}, STAR))
        done.append("sent")

    kernel.spawn(app, "app", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 2, "dport": 80})
    kernel.run()
    # u's connection got its bytes; v's got nothing (label check dropped
    # the uT-3 write because v_conn's port label has no uT entry).
    assert wire.take(1) == [b"for-u"]
    assert wire.take(2) == []


def test_close_releases_capability_and_port(kernel, net):
    netd, wire = net
    app, accepted = spawn_listener(kernel, netd.env["netd_port"])
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.run()
    conn = accepted[0]["conn"]
    assert conn in kernel.ports
    assert netd.send_label(conn) == STAR
    kernel.inject(netd.env["netd_wire_port"], {"type": "CLOSE", "conn": 1})
    kernel.run()
    assert conn not in kernel.ports
    # The capability was released (Section 9.3).
    assert netd.send_label(conn) == netd.send_label.default


def test_select_reports_space(kernel, net):
    netd, wire = net
    results = []

    def app(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["netd_port"], P.request(P.LISTEN, port=80, notify=port))
        accept = yield Recv(port=port)
        chan = yield from Channel.open()
        r = yield from chan.call(accept.payload["conn"], P.request(P.SELECT))
        results.append(r.payload["space"])

    kernel.spawn(app, "app", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    kernel.inject(netd.env["netd_wire_port"], {"type": "OPEN", "conn": 1, "dport": 80})
    kernel.run()
    assert results == [65536]
