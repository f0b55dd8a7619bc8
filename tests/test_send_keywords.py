"""The one spelling of Figure 4's discretionary labels: cs/ds/v/dr on
Send and on Channel.call."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L2, L3, STAR
from repro.kernel import Kernel, KernelConfig, NewPort, Recv, Send, SetPortLabel

CS = Label({0x42: L3}, STAR)
DS = Label({0x43: STAR}, L3)
V = Label({0x44: L3}, L2)
DR = Label({0x45: L3}, STAR)


def test_short_names_are_fields():
    send = Send(1, "payload", cs=CS, ds=DS, v=V, dr=DR)
    assert (send.cs, send.ds, send.v, send.dr) == (CS, DS, V, DR)


def test_positional_order_matches_figure_4():
    send = Send(1, "d", CS, DS, V, DR)
    assert (send.cs, send.ds, send.v, send.dr) == (CS, DS, V, DR)


def test_conflicting_spellings_rejected():
    """One spelling: the paper's.  ``contaminate=`` and friends are as
    unknown to Send as any other stray keyword."""
    with pytest.raises(TypeError):
        Send(1, "d", cs=CS, contaminate=CS)
    with pytest.raises(TypeError):
        Send(1, "d", verify=V)
    with pytest.raises(TypeError):
        Send(1, "d", nonsense=CS)


def test_kernel_honours_short_names():
    kernel = Kernel(config=KernelConfig())
    state = {}

    def receiver(ctx):
        from repro.kernel.syscalls import GetLabels

        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        state["port"] = port
        msg = yield Recv(port=port)
        state["payload"] = msg.payload
        send_label, _ = yield GetLabels()
        state["send_after"] = send_label

    def sender(ctx):
        from repro.kernel.syscalls import NewHandle

        taint = yield NewHandle()
        state["taint"] = taint
        # cs contaminates; dr (backed by the sender's taint ⋆) raises the
        # receiver's receive label so the tainted delivery is admitted.
        yield Send(
            state["port"],
            "x",
            cs=Label({taint: L3}, STAR),
            dr=Label({taint: L3}, STAR),
        )

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()
    # The contamination travelled: the receiver's send label now carries
    # the taint at 3.
    assert state["payload"] == "x"
    assert state["send_after"](state["taint"]) == L3


def test_channel_call_takes_the_send_labels():
    from repro.ipc.rpc import Channel

    chan = Channel(0x10)
    send = next(chan.call(0x20, {}, cs=CS, ds=DS, v=V, dr=DR))
    assert isinstance(send, Send)
    assert (send.cs, send.ds, send.v, send.dr) == (CS, DS, V, DR)
    with pytest.raises(TypeError):
        chan.call(0x20, {}, verify=V)
