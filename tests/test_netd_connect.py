"""Outgoing (loopback) connections through netd: two Asbestos applications
talking TCP under full label control (paper Section 7.7: "An application
can send a message to netd to request an outgoing connection to a remote
host or to listen for incoming connections")."""

import pytest

from repro.core.labels import Label
from repro.ipc import protocol as P
from repro.ipc.rpc import Channel
from repro.kernel import NewPort, Recv, Send, SetPortLabel
from repro.kernel.clock import NETWORK
from repro.okws import launch
from repro.servers.netd import Wire, netd_body


@pytest.fixture
def net(kernel):
    wire = Wire()
    proc = kernel.spawn(netd_body, "netd", component=NETWORK, env={"wire": wire})
    kernel.run()
    return proc, wire


def test_loopback_connect_and_exchange(kernel, net):
    netd, wire = net
    server_log, client_log = [], []

    def server(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["netd_port"], P.request(P.LISTEN, port=7000, notify=port))
        accept = yield Recv(port=port)
        conn = accept.payload["conn"]
        chan = yield from Channel.open()
        r = yield from chan.call(conn, P.request(P.READ))
        server_log.append(r.payload["data"])
        yield Send(conn, P.request(P.WRITE, data=b"pong"))

    def client(ctx):
        chan = yield from Channel.open()
        r = yield from chan.call(
            ctx.env["netd_port"], P.request(P.CONNECT, host="localhost", port=7000)
        )
        conn = r.payload["conn"]
        yield Send(conn, P.request(P.WRITE, data=b"ping"))
        reply = yield from chan.call(conn, P.request(P.READ))
        client_log.append(reply.payload["data"])

    kernel.spawn(server, "server", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    kernel.spawn(client, "client", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    assert server_log == [b"ping"]
    assert client_log == [b"pong"]


def test_connect_to_unlistened_port_fails(kernel, net):
    netd, wire = net
    result = []

    def client(ctx):
        chan = yield from Channel.open()
        r = yield from chan.call(
            ctx.env["netd_port"], P.request(P.CONNECT, host="localhost", port=9999)
        )
        result.append(r.payload)

    kernel.spawn(client, "client", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    assert result[0]["type"] == P.ERROR_R


def test_connect_to_remote_host_unroutable(kernel, net):
    netd, wire = net
    result = []

    def client(ctx):
        chan = yield from Channel.open()
        r = yield from chan.call(
            ctx.env["netd_port"], P.request(P.CONNECT, host="203.0.113.9", port=80)
        )
        result.append(r.payload)

    kernel.spawn(client, "client", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    assert result[0]["type"] == P.ERROR_R


def test_loopback_carries_taint_policy(kernel, net):
    # A tainted client side: the server only receives the data once the
    # connection is tainted appropriately, and a third party cannot use
    # either side's port.
    netd, wire = net
    server_seen = []

    def server(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["netd_port"], P.request(P.LISTEN, port=7000, notify=port))
        accept = yield Recv(port=port)
        ctx.env["server_conn"] = accept.payload["conn"]
        chan = yield from Channel.open()
        r = yield from chan.call(accept.payload["conn"], P.request(P.READ))
        server_seen.append(r.payload["data"])

    srv = kernel.spawn(server, "server", env={"netd_port": netd.env["netd_port"]})
    kernel.run()

    def client(ctx):
        chan = yield from Channel.open()
        r = yield from chan.call(
            ctx.env["netd_port"], P.request(P.CONNECT, host="localhost", port=7000)
        )
        ctx.env["client_conn"] = r.payload["conn"]
        yield Send(r.payload["conn"], P.request(P.WRITE, data=b"hello"))

    cli = kernel.spawn(client, "client", env={"netd_port": netd.env["netd_port"]})
    kernel.run()
    assert server_seen == [b"hello"]

    # A stranger without the uC capability cannot write either side.
    before = kernel.drop_log.count("label-check")

    def stranger(ctx):
        yield Send(cli.env["client_conn"], P.request(P.WRITE, data=b"hijack"))
        yield Send(srv.env["server_conn"], P.request(P.WRITE, data=b"hijack"))

    kernel.spawn(stranger, "stranger")
    kernel.run()
    assert kernel.drop_log.count("label-check") == before + 2


def test_decomposed_stack_answers_connect_with_no_route():
    """Loopback connections are classic-netd only; the decomposed front end
    says so instead of leaving an undeadlined ``chan.call`` blocked forever."""
    site = launch(network="decomposed")
    result = []

    def client(ctx):
        chan = yield from Channel.open()
        r = yield from chan.call(
            ctx.env["netd_port"], P.request(P.CONNECT, host="localhost", port=80)
        )
        result.append(r.payload)

    site.kernel.spawn(client, "client", env={"netd_port": site.launcher_env["netd_port"]})
    site.kernel.run()
    assert result == [{"type": P.ERROR_R, "error": "no route"}]
