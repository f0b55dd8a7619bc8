"""The protocol helpers and RPC plumbing (repro.ipc)."""


from repro.core.labels import Label
from repro.ipc import Channel, protocol as P
from repro.kernel import NewPort, Recv, Send, SetPortLabel


def test_request_and_reply_to():
    req = P.request(P.READ, reply=7, path="/x")
    assert req == {"type": "READ", "reply": 7, "path": "/x"}
    rep = P.reply_to(req, data=b"hi")
    assert rep == {"type": "READ_R", "data": b"hi"}


def test_reply_to_explicit_type_and_tag():
    req = P.request(P.LOGIN, reply=1, tag=42, user="u")
    rep = P.reply_to(req, P.ERROR_R, error="nope")
    assert rep["type"] == P.ERROR_R
    assert rep["tag"] == 42         # correlation tags propagate


def test_channel_call_roundtrip(kernel):
    def server(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:
            msg = yield Recv(port=port)
            yield Send(
                msg.payload["reply"], P.reply_to(msg.payload, n=msg.payload["n"] * 2)
            )

    srv = kernel.spawn(server, "server")
    kernel.run()
    results = []

    def client(ctx):
        chan = yield from Channel.open()
        for n in (3, 5):
            reply = yield from chan.call(ctx.env["t"], P.request("DOUBLE", n=n))
            results.append(reply.payload["n"])

    kernel.spawn(client, "client", env={"t": srv.env["port"]})
    kernel.run()
    assert results == [6, 10]


def test_channel_open_with_custom_label(kernel):
    # A channel whose port only capability holders can reach.
    log = []

    def owner(ctx):
        chan = yield from Channel.open(Label({}, 2))  # pR = {p 0, 2}
        ctx.env["port"] = chan.port
        msg = yield Recv(port=chan.port)
        log.append(msg.payload)

    o = kernel.spawn(owner, "owner")
    kernel.run()

    def stranger(ctx):
        yield Send(ctx.env["t"], "in")   # default sender: 1 <= 2, passes

    kernel.spawn(stranger, "stranger", env={"t": o.env["port"]})
    kernel.run()
    assert log == ["in"]
