"""The label-flow tracer (repro.sim.trace)."""


from repro.core.labels import Label
from repro.core.levels import L2, L3, STAR
from repro.kernel import NewHandle, NewPort, Recv, Send, SetPortLabel
from repro.sim.trace import FlowTracer


def test_tracer_records_deliveries_and_drops(kernel):
    tracer = FlowTracer(kernel)
    log = []

    def listener(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:
            msg = yield Recv(port=port)
            log.append(msg.payload)

    lp = kernel.spawn(listener, "listener")
    kernel.run()

    def sender(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        yield Send(ctx.env["t"], "clean")
        yield Send(ctx.env["t"], "mild", cs=Label({h: L2}, STAR))
        yield Send(ctx.env["t"], "hot", cs=Label({h: L3}, STAR))

    sp = kernel.spawn(sender, "sender", env={"t": lp.env["port"]})
    kernel.run()
    tracer.name_handle(sp.env["h"], "hT")

    assert log == ["clean", "mild"]
    events = tracer.between("sender", "listener")
    assert [e.delivered for e in events] == [True, True, False]
    assert len(tracer.drops()) == 1
    # The second delivery contaminated the listener.
    contaminated = tracer.contaminations()
    assert len(contaminated) == 1
    assert contaminated[0].send_after(sp.env["h"]) == L2

    text = tracer.format()
    assert "sender => listener" in text
    assert "XX" in text                  # the dropped delivery
    assert "hT" in text                  # symbolic name rendered
    assert "contaminated" in text


def test_tracer_detach_restores_kernel(kernel):
    tracer = FlowTracer(kernel)
    tracer.detach()

    def listener(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        yield Recv(port=port)

    lp = kernel.spawn(listener, "listener")
    kernel.run()

    def sender(ctx):
        yield Send(ctx.env["t"], "x")

    kernel.spawn(sender, "sender", env={"t": lp.env["port"]})
    kernel.run()
    assert tracer.events == []           # nothing recorded after detach


def test_tracer_format_last_n(kernel):
    tracer = FlowTracer(kernel)

    def listener(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:
            yield Recv(port=port)

    lp = kernel.spawn(listener, "listener")
    kernel.run()

    def sender(ctx):
        for i in range(5):
            yield Send(ctx.env["t"], i)

    kernel.spawn(sender, "sender", env={"t": lp.env["port"]})
    kernel.run()
    assert len(tracer.events) == 5
    assert tracer.format(last=2).count("sender => listener") == 2
