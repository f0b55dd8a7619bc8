"""The Figure 4 label semantics, exercised through real kernel IPC:
contamination, decontamination, verification, port labels, and the
unreliable-send discipline (paper Sections 4 and 5)."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L0, L1, L2, L3, STAR
from repro.kernel import ChangeLabel, GetLabels, NewHandle, NewPort, Recv, Send, SetPortLabel
from repro.kernel.errors import InvalidArgument


def open_port():
    port = yield NewPort()
    yield SetPortLabel(port, Label.top())
    return port


def spawn_listener(kernel, name="listener", raise_receive=None):
    """A process that records everything it receives (payload, labels)."""
    log = []

    def body(ctx):
        port = yield from open_port()
        ctx.env["port"] = port
        if raise_receive is not None:
            # Listener cannot raise its own receive label without ⋆, so
            # tests use ChangeLabel(receive=...) only to *lower*; raising
            # is exercised via decontaminating messages elsewhere.
            yield ChangeLabel(receive=raise_receive)
        while True:
            msg = yield Recv(port=port)
            send, receive = yield GetLabels()
            log.append((msg.payload, msg.verify, send, receive))

    proc = kernel.spawn(body, name)
    kernel.run()
    return proc, log


# -- contamination (CS, Equations 3-5) ------------------------------------------------


def test_contamination_taints_receiver(kernel):
    listener, log = spawn_listener(kernel)

    def sender(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        # CS at level 2 flows to a default receiver (QR default is 2).
        yield Send(ctx.env["t"], "tainted", cs=Label({h: L2}, STAR))

    s = kernel.spawn(sender, "sender", env={"t": listener.env["port"]})
    kernel.run()
    assert len(log) == 1
    payload, verify, send, receive = log[0]
    assert send(s.env["h"]) == L2  # the receiver is now contaminated


def test_contamination_level3_blocked_by_default_receive(kernel):
    listener, log = spawn_listener(kernel)

    def sender(ctx):
        h = yield NewHandle()
        yield Send(ctx.env["t"], "secret", cs=Label({h: L3}, STAR))

    kernel.spawn(sender, "sender", env={"t": listener.env["port"]})
    kernel.run()
    # QR default 2 < 3: silently dropped.
    assert log == []
    assert kernel.drop_log.count("label-check") == 1


def test_contamination_needs_no_privilege(kernel):
    # Any process can contaminate with a handle it does not control.
    listener, log = spawn_listener(kernel)
    foreign = 424242  # a handle value the sender never created

    def sender(ctx):
        yield Send(ctx.env["t"], "x", cs=Label({foreign: L2}, STAR))

    kernel.spawn(sender, "sender", env={"t": listener.env["port"]})
    kernel.run()
    assert len(log) == 1
    assert log[0][2](foreign) == L2


def test_contamination_is_transitive(kernel):
    # A taints B; B's subsequent messages carry the taint to C's sorrow.
    relay_log = []

    def relay(ctx):
        port = yield from open_port()
        ctx.env["port"] = port
        msg = yield Recv(port=port)          # gets contaminated here
        yield Send(msg.payload["fwd"], "laundered?")

    c_listener, c_log = spawn_listener(kernel)
    # C refuses h-tainted data: lower its receive label for h.
    relay_proc = kernel.spawn(relay, "relay")
    kernel.run()

    def a(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        yield Send(
            ctx.env["relay"],
            {"fwd": ctx.env["c"]},
            cs=Label({h: L3}, STAR),
            dr=Label({h: L3}, STAR),  # we hold h ⋆
        )

    kernel.spawn(
        a, "a", env={"relay": relay_proc.env["port"], "c": c_listener.env["port"]}
    )
    kernel.run()
    # The relay was tainted at level 3; C's default receive (2) refuses.
    assert c_log == []
    assert kernel.drop_log.count("label-check") == 1


# -- star preservation (Equation 5) --------------------------------------------------


def test_star_holder_immune_to_contamination(kernel):
    log = []

    def holder(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        port = yield from open_port()
        ctx.env["port"] = port
        # Raise own receive so arbitrarily tainted data may arrive; we can,
        # because we hold h ⋆.
        yield ChangeLabel(raise_receive={h: L3})
        msg = yield Recv(port=port)
        send, _ = yield GetLabels()
        log.append(send(h))

    holder_proc = kernel.spawn(holder, "holder")
    kernel.run()
    h = holder_proc.env["h"]

    def sender(ctx):
        yield Send(ctx.env["t"], "dirty", cs=Label({h: L3}, STAR))

    kernel.spawn(sender, "sender", env={"t": holder_proc.env["port"]})
    kernel.run()
    # PS(h) stays ⋆ despite receiving h-3 contamination (Equation 5).
    assert log == [STAR]


# -- decontamination (DS/DR, requirements 2-3) -----------------------------------------


def test_grant_star_via_ds(kernel):
    listener, log = spawn_listener(kernel)

    def granter(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        yield Send(ctx.env["t"], "gift", ds=Label({h: STAR}, L3))

    g = kernel.spawn(granter, "granter", env={"t": listener.env["port"]})
    kernel.run()
    assert log[0][2](g.env["h"]) == STAR  # receiver now controls h


def test_ds_without_star_is_dropped(kernel):
    listener, log = spawn_listener(kernel)
    foreign = 777777

    def imposter(ctx):
        yield Send(ctx.env["t"], "gift", ds=Label({foreign: STAR}, L3))

    kernel.spawn(imposter, "imposter", env={"t": listener.env["port"]})
    kernel.run()
    assert log == []
    assert kernel.drop_log.count("decont-privilege") == 1


def test_dr_without_star_is_dropped(kernel):
    listener, log = spawn_listener(kernel)
    foreign = 888888

    def imposter(ctx):
        yield Send(
            ctx.env["t"], "x", dr=Label({foreign: L3}, STAR)
        )

    kernel.spawn(imposter, "imposter", env={"t": listener.env["port"]})
    kernel.run()
    assert log == []
    assert kernel.drop_log.count("decont-privilege") == 1


def test_dr_raises_receiver_receive_label(kernel):
    listener, log = spawn_listener(kernel)

    def granter(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        yield Send(ctx.env["t"], "one", dr=Label({h: L3}, STAR))
        # Now a level-3 contamination can reach the listener.
        yield Send(ctx.env["t"], "two", cs=Label({h: L3}, STAR))

    g = kernel.spawn(granter, "granter", env={"t": listener.env["port"]})
    kernel.run()
    assert [entry[0] for entry in log] == ["one", "two"]
    assert log[1][3](g.env["h"]) == L3  # receive label was raised
    assert log[1][2](g.env["h"]) == L3  # and the taint landed


def test_ds_lowers_receiver_send_label(kernel):
    # Decontaminating a tainted process back down (the ⊓ DS term).
    log = []

    def victim(ctx):
        port = yield from open_port()
        ctx.env["port"] = port
        while True:
            msg = yield Recv(port=port)
            send, _ = yield GetLabels()
            log.append((msg.payload, dict(send.entries())))

    victim_proc = kernel.spawn(victim, "victim")
    kernel.run()

    def controller(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        yield Send(ctx.env["t"], "taint", cs=Label({h: L2}, STAR))
        yield Send(ctx.env["t"], "clean", ds=Label({h: L1}, L3))

    c = kernel.spawn(controller, "controller", env={"t": victim_proc.env["port"]})
    kernel.run()
    h = c.env["h"]
    assert log[0][1].get(h) == L2   # tainted after the first message
    assert h not in log[1][1]        # back at the default after the DS


# -- verification labels (V, Equation 8) ----------------------------------------------


def test_verify_label_passed_up(kernel):
    listener, log = spawn_listener(kernel)

    def sender(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        yield Send(ctx.env["t"], "claim", v=Label({h: L0}, L3))

    s = kernel.spawn(sender, "sender", env={"t": listener.env["port"]})
    kernel.run()
    assert log[0][1](s.env["h"]) == L0  # V visible to the application


def test_verify_must_bound_senders_label(kernel):
    # ES ⊑ V is forced by the delivery check: a tainted sender cannot
    # present a clean V.
    listener, log = spawn_listener(kernel)

    def sender(ctx):
        h = yield NewHandle()
        yield ChangeLabel(send=Label({h: STAR}, L1).with_entry(h, L2))  # self-taint h 2
        yield Send(ctx.env["t"], "lie", v=Label({h: L1}, L3))

    kernel.spawn(sender, "sender", env={"t": listener.env["port"]})
    kernel.run()
    assert log == []
    assert kernel.drop_log.count("label-check") == 1


def test_default_verify_restricts_nothing(kernel):
    listener, log = spawn_listener(kernel)

    def sender(ctx):
        yield Send(ctx.env["t"], "plain")

    kernel.spawn(sender, "sender", env={"t": listener.env["port"]})
    kernel.run()
    assert log[0][1] == Label.top()


# -- port labels and capabilities (Section 5.5) ------------------------------------------


def test_new_port_is_sealed_by_default(kernel):
    # new_port sets pR(p) <- 0: nobody can send until granted.
    log = []

    def owner(ctx):
        port = yield NewPort()  # label defaults to {3}, then pR(p) <- 0
        ctx.env["port"] = port
        msg = yield Recv(port=port)
        log.append(msg.payload)

    o = kernel.spawn(owner, "owner")
    kernel.run()

    def stranger(ctx):
        yield Send(ctx.env["t"], "knock")

    kernel.spawn(stranger, "stranger", env={"t": o.env["port"]})
    kernel.run()
    assert log == []
    assert kernel.drop_log.count("label-check") == 1


def test_capability_grant_and_redelegation(kernel):
    # P grants Q the send right with DS = {p ⋆, 3}; Q re-delegates to R.
    log = []

    def p_owner(ctx):
        port = yield NewPort()
        ctx.env["port"] = port
        q_port = yield from open_port()
        ctx.env["q_hello"] = q_port
        hello = yield Recv(port=q_port)          # Q announces itself
        yield Send(hello.payload["q"], {"cap": port}, ds=Label({port: STAR}, L3))
        while True:
            msg = yield Recv(port=port)
            log.append(msg.payload)

    p = kernel.spawn(p_owner, "P")
    kernel.run()

    def r_body(ctx):
        port = yield from open_port()
        ctx.env["port"] = port
        msg = yield Recv(port=port)              # receives the delegated cap
        yield Send(msg.payload["cap"], "from-R")

    r = kernel.spawn(r_body, "R")
    kernel.run()

    def q_body(ctx):
        my = yield from open_port()
        yield Send(ctx.env["p_hello"], {"q": my})
        grant = yield Recv(port=my)
        cap = grant.payload["cap"]
        yield Send(cap, "from-Q")
        # Re-delegate to R: we received p ⋆, so we may grant it onward.
        yield Send(ctx.env["r"], {"cap": cap}, ds=Label({cap: STAR}, L3))

    kernel.spawn(q_body, "Q", env={"p_hello": p.env["q_hello"], "r": r.env["port"]})
    kernel.run()
    assert log == ["from-Q", "from-R"]


def test_set_port_label_opens_port_verbatim(kernel):
    # set_port_label does not re-pin pR(p) <- 0: {3} really opens it.
    log = []

    def owner(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        msg = yield Recv(port=port)
        log.append(msg.payload)

    o = kernel.spawn(owner, "owner")
    kernel.run()

    def stranger(ctx):
        yield Send(ctx.env["t"], "open!")

    kernel.spawn(stranger, "stranger", env={"t": o.env["port"]})
    kernel.run()
    assert log == ["open!"]


def test_port_label_blocks_contamination_in_kernel(kernel):
    # The mail-reader pattern (Section 5.5): the port label rejects tainted
    # senders *before* delivery, so the receiver is never contaminated.
    log = []

    def reader(ctx):
        port = yield NewPort(Label({}, L2))   # pR = {p 0, 2}: taint <= 2 only...
        # then open it to untainted senders explicitly:
        yield SetPortLabel(port, Label({}, L2))
        ctx.env["port"] = port
        while True:
            msg = yield Recv(port=port)
            send, _ = yield GetLabels()
            # Entries above * would be taint; the port's own * is expected.
            taint = [lvl for _, lvl in send.entries() if lvl != STAR]
            log.append((msg.payload, taint))

    r = kernel.spawn(reader, "reader")
    kernel.run()

    def attachment(ctx):
        h = yield NewHandle()
        yield ChangeLabel(send=Label({h: L3}, L1).with_entry(h, L3))
        yield Send(ctx.env["t"], "malware")   # tainted: blocked by pR

    def friend(ctx):
        yield Send(ctx.env["t"], "hello")

    kernel.spawn(attachment, "attachment", env={"t": r.env["port"]})
    kernel.spawn(friend, "friend", env={"t": r.env["port"]})
    kernel.run()
    assert [entry[0] for entry in log] == ["hello"]
    assert log[0][1] == []  # reader's send label never picked up taint
    assert kernel.drop_log.count("label-check") == 1


def test_dr_bounded_by_port_label(kernel):
    # Requirement (4): DR ⊑ pR — a receiver's port label caps how much a
    # sender may decontaminate its receive label.
    log = []

    def guarded(ctx):
        h_port = yield NewPort(Label({}, L2))  # port label {p 0, 2}
        ctx.env["port"] = h_port
        # Allow only ourselves... now open to default senders at level <= 2
        # but cap DR at 2 as well:
        yield SetPortLabel(h_port, Label({}, L2))
        msg = yield Recv(port=h_port)
        log.append(msg.payload)

    g = kernel.spawn(guarded, "guarded")
    kernel.run()

    def granter(ctx):
        h = yield NewHandle()
        # DR = {h 3} exceeds pR's {2}: requirement (4) fails, message drops.
        yield Send(ctx.env["t"], "x", dr=Label({h: L3}, STAR))

    kernel.spawn(granter, "granter", env={"t": g.env["port"]})
    kernel.run()
    assert log == []
    assert kernel.drop_log.count("port-label") == 1


# -- ChangeLabel rules ------------------------------------------------------------------


def test_self_contamination_allowed(kernel):
    done = []

    def prog(ctx):
        h = yield NewHandle()
        yield ChangeLabel(send=Label({h: L3}, L1).with_entry(h, L3))
        send, _ = yield GetLabels()
        done.append(send(h))

    kernel.spawn(prog, "prog")
    kernel.run()
    assert done == [L3]


def test_dropping_own_star_is_allowed_and_permanent(kernel):
    done = []

    def prog(ctx):
        h = yield NewHandle()
        yield ChangeLabel(drop_send=(h,))
        send, _ = yield GetLabels()
        done.append(send(h))
        # And it cannot be recovered by self-modification:
        try:
            yield ChangeLabel(send=Label({h: STAR}, L1))
        except InvalidArgument:
            done.append("denied")

    kernel.spawn(prog, "prog")
    kernel.run()
    assert done == [L1, "denied"]


def test_lowering_send_label_denied(kernel):
    caught = []

    def prog(ctx):
        h = yield NewHandle()
        yield ChangeLabel(send=Label({h: STAR}, L1).with_entry(h, L3))  # raise ok
        try:
            yield ChangeLabel(send=Label({h: L1}, L1))  # lowering: no
        except InvalidArgument:
            caught.append(True)

    kernel.spawn(prog, "prog")
    kernel.run()
    assert caught == [True]


def test_raising_receive_requires_star(kernel):
    caught = []

    def prog(ctx):
        try:
            yield ChangeLabel(raise_receive={12345: L3})
        except InvalidArgument:
            caught.append(True)

    kernel.spawn(prog, "prog")
    kernel.run()
    assert caught == [True]


def test_lowering_receive_always_allowed(kernel):
    done = []

    def prog(ctx):
        yield ChangeLabel(receive=Label({54321: L1}, L2))
        _, receive = yield GetLabels()
        done.append(receive(54321))

    kernel.spawn(prog, "prog")
    kernel.run()
    assert done == [L1]


def test_drop_send_cannot_declassify(kernel):
    caught = []

    def prog(ctx):
        h = yield NewHandle()
        yield ChangeLabel(send=Label({h: STAR}, L1).with_entry(h, L3))  # now h 3
        try:
            yield ChangeLabel(drop_send=(h,))  # would lower 3 -> 1
        except InvalidArgument:
            caught.append(True)

    kernel.spawn(prog, "prog")
    kernel.run()
    assert caught == [True]


# Each request passes an earlier clause (drop_send → raise_receive → send
# → receive) and fails a later one.  h and g are held at ⋆; OTHER is not.
OTHER = 12345
MULTI_CLAUSE_REJECTIONS = {
    "drop_send then raise_receive": lambda h, g: ChangeLabel(
        drop_send=(h,), raise_receive={OTHER: L3}
    ),
    "drop_send then send": lambda h, g: ChangeLabel(
        drop_send=(h,), send=Label({}, L0)
    ),
    "drop_send then receive default": lambda h, g: ChangeLabel(
        drop_send=(h,), receive=Label({}, L3)
    ),
    "raise_receive then send": lambda h, g: ChangeLabel(
        raise_receive={h: L3}, send=Label({}, L0)
    ),
    "raise_receive then receive": lambda h, g: ChangeLabel(
        raise_receive={h: L3}, receive=Label({OTHER: L3}, L2)
    ),
    "send then receive default": lambda h, g: ChangeLabel(
        send=Label({h: L3, g: STAR}, L1), receive=Label({h: L1}, L3)
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_CLAUSE_REJECTIONS))
def test_rejected_change_label_is_atomic(kernel, case):
    seen = []

    def prog(ctx):
        h = yield NewHandle()
        g = yield NewHandle()
        before = yield GetLabels()
        try:
            yield MULTI_CLAUSE_REJECTIONS[case](h, g)
        except InvalidArgument:
            seen.append("rejected")
        seen.append((yield GetLabels()) == before)

    kernel.spawn(prog, "prog")
    kernel.run()
    assert seen == ["rejected", True]


def test_rejected_receive_default_raise_is_billed_for_its_scan(kernel):
    scanned = []

    def prog(ctx):
        h = yield NewHandle()
        scanned.append(kernel.label_stats.entries_scanned)
        try:
            yield ChangeLabel(receive=Label({h: L1}, L3))
        except InvalidArgument:
            scanned.append(kernel.label_stats.entries_scanned)

    kernel.spawn(prog, "prog")
    kernel.run()
    assert scanned[1] > scanned[0]


def test_new_handle_grants_star(kernel):
    done = []

    def prog(ctx):
        h = yield NewHandle()
        send, _ = yield GetLabels()
        done.append(send(h))

    kernel.spawn(prog, "prog")
    kernel.run()
    assert done == [STAR]
