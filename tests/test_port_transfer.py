"""Transferable receive rights (paper Section 4: "Messages sent to a port
are delivered to the single process with receive rights for that port;
this is initially the process that created the port, but receive rights
are transferable.")."""


from repro.core.labels import Label
from repro.core.levels import L3, STAR
from repro.kernel import NewHandle, NewPort, Recv, Send, SetPortLabel
from repro.kernel.errors import NotOwner


def open_port():
    port = yield NewPort()
    yield SetPortLabel(port, Label.top())
    return port


def test_transfer_moves_receive_rights(kernel):
    log = []

    def receiver(ctx):
        inbox = yield from open_port()
        ctx.env["inbox"] = inbox
        msg = yield Recv(port=inbox)
        moved = msg.payload["moved"]
        # We can now receive on the transferred port.
        m2 = yield Recv(port=moved)
        log.append(m2.payload)

    r = kernel.spawn(receiver, "receiver")
    kernel.run()

    def original(ctx):
        moved = yield from open_port()
        yield Send(r.env["inbox"], {"moved": moved}, transfer=(moved,))
        # We no longer own it: receiving on it is now an error.
        try:
            yield Recv(port=moved, block=False)
        except NotOwner:
            ctx.env["lost_rights"] = True
        # But anyone can still *send* to it (it is open).
        yield Send(moved, "hello new owner")

    o = kernel.spawn(original, "original")
    kernel.run()
    assert log == ["hello new owner"]
    assert o.env.get("lost_rights") is True


def test_transfer_of_unowned_port_raises(kernel):
    caught = []

    def a(ctx):
        port = yield from open_port()
        ctx.env["port"] = port
        yield Recv(port=port)

    pa = kernel.spawn(a, "a")
    kernel.run()

    def thief(ctx):
        target = yield from open_port()
        try:
            yield Send(target, "x", transfer=(ctx.env["victim"],))
        except NotOwner:
            caught.append(True)

    kernel.spawn(thief, "thief", env={"victim": pa.env["port"]})
    kernel.run()
    assert caught == [True]


def test_transfer_on_dropped_message_destroys_port(kernel):
    # The carrying message violates the receiver's label policy: the
    # rights must not silently return (delivery-notification channel), so
    # the port dies.
    def receiver(ctx):
        inbox = yield from open_port()
        ctx.env["inbox"] = inbox
        yield Recv(port=inbox)

    r = kernel.spawn(receiver, "receiver")
    kernel.run()

    def sender(ctx):
        h = yield NewHandle()
        moved = yield from open_port()
        ctx.env["moved"] = moved
        # Level-3 contamination the receiver cannot accept: dropped.
        yield Send(
            r.env["inbox"],
            {"moved": moved},
            cs=Label({h: L3}, STAR),
            transfer=(moved,),
        )

    s = kernel.spawn(sender, "sender")
    kernel.run()
    assert kernel.drop_log.count("label-check") == 1
    assert s.env["moved"] not in kernel.ports


def test_transfer_to_dead_port_destroys_port(kernel):
    def sender(ctx):
        moved = yield from open_port()
        ctx.env["moved"] = moved
        yield Send(123456, {"moved": moved}, transfer=(moved,))

    s = kernel.spawn(sender, "sender")
    kernel.run()
    assert s.env["moved"] not in kernel.ports


def test_queued_messages_follow_the_port(kernel):
    # Messages already queued on a port are received by the new owner.
    log = []

    def new_owner(ctx):
        inbox = yield from open_port()
        ctx.env["inbox"] = inbox
        msg = yield Recv(port=inbox)
        m2 = yield Recv(port=msg.payload["moved"])
        log.append(m2.payload)

    n = kernel.spawn(new_owner, "new-owner")
    kernel.run()

    def original(ctx):
        moved = yield from open_port()
        yield Send(moved, "queued before transfer")   # self-send, queues
        yield Send(n.env["inbox"], {"moved": moved}, transfer=(moved,))

    kernel.spawn(original, "original")
    kernel.run()
    assert log == ["queued before transfer"]
