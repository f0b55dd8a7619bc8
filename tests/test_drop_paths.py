"""Silent-drop bookkeeping: every DROP_* branch must destroy in-transit
receive rights (``_dissociate_port`` per handle), and exit obituaries must
survive even a drop-everything fault plan.

Returning transferred rights to the sender after a drop would hand it a
delivery-notification channel — exactly the covert channel the silent-
drop rule exists to close — so the rights die with the message on every
branch: label-check, port-label, dead-port, queue-limit (real and
squeezed), and injected drops.  The sender-side privilege check
(``decont-privilege``) happens *before* rights leave the sender, so that
branch must leave ownership untouched.
"""

from repro.core.labels import Label
from repro.core.levels import L1, L3, STAR
from repro.faults import FaultPlan, FaultRule
from repro.kernel import (
    Kernel,
    KernelConfig,
    NewHandle,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
    Spawn,
)
from repro.kernel.errors import (
    DROP_DECONT_PRIVILEGE,
    DROP_FAULT,
    DROP_PORT_LABEL,
    DROP_QUEUE_LIMIT,
)


def open_port():
    port = yield NewPort()
    yield SetPortLabel(port, Label.top())
    return port


def _parked_receiver(kernel, port_label=None):
    """Spawn a receiver that publishes a data port and parks forever on a
    control port, so queued data is never drained."""

    def receiver(ctx):
        data = yield NewPort()
        yield SetPortLabel(data, port_label if port_label is not None else Label.top())
        ctx.env["data"] = data
        ctrl = yield from open_port()
        yield Recv(port=ctrl)

    r = kernel.spawn(receiver, "receiver")
    kernel.run()
    return r


def test_injected_drop_kills_transferred_rights():
    plan = FaultPlan.of(FaultRule(kind="drop", id="d", match="sender", p=1.0))
    kernel = Kernel(config=KernelConfig(faults=plan, fault_seed=0))
    r = _parked_receiver(kernel)

    def sender(ctx):
        moved = yield from open_port()
        ctx.env["moved"] = moved
        yield Send(r.env["data"], {"moved": moved}, transfer=(moved,))

    s = kernel.spawn(sender, "sender")
    kernel.run()
    assert kernel.drop_log.count(DROP_FAULT) == 1
    assert s.env["moved"] not in kernel.ports


def test_real_queue_limit_kills_transferred_rights(kernel):
    r = _parked_receiver(kernel)
    kernel.ports[r.env["data"]].queue_limit = 1

    def sender(ctx):
        moved = yield from open_port()
        ctx.env["moved"] = moved
        yield Send(r.env["data"], "filler")                      # fills the queue
        yield Send(r.env["data"], {"moved": moved}, transfer=(moved,))

    s = kernel.spawn(sender, "sender")
    kernel.run()
    assert kernel.drop_log.count(DROP_QUEUE_LIMIT) == 1
    assert s.env["moved"] not in kernel.ports


def test_squeezed_queue_limit_kills_transferred_rights():
    plan = FaultPlan.of(FaultRule(kind="queue_limit", id="sq", match="sender", limit=1))
    kernel = Kernel(config=KernelConfig(faults=plan, fault_seed=0))
    r = _parked_receiver(kernel)

    def sender(ctx):
        moved = yield from open_port()
        ctx.env["moved"] = moved
        yield Send(r.env["data"], "filler")
        yield Send(r.env["data"], {"moved": moved}, transfer=(moved,))

    s = kernel.spawn(sender, "sender")
    kernel.run()
    assert kernel.drop_log.count(DROP_QUEUE_LIMIT) == 1
    assert kernel.faults.summary() == {"queue_limit": 1}
    assert s.env["moved"] not in kernel.ports


def test_port_label_drop_kills_transferred_rights(kernel):
    """Requirement (4) failure at delivery: DR ⋢ pR.  The sender has the
    star privilege needed to raise DR, but the receiver's port label
    (default 1) rejects the requested decontamination.  The check runs at
    delivery, so the receiver blocks on the data port itself."""

    def receiver(ctx):
        data = yield NewPort()
        yield SetPortLabel(data, Label({}, L1))
        ctx.env["data"] = data
        yield Recv(port=data)

    r = kernel.spawn(receiver, "receiver")
    kernel.run()

    def sender(ctx):
        h = yield NewHandle()  # grants PS(h) = ⋆
        moved = yield from open_port()
        ctx.env["moved"] = moved
        yield Send(
            r.env["data"],
            {"moved": moved},
            dr=Label({h: L3}, STAR),
            transfer=(moved,),
        )

    s = kernel.spawn(sender, "sender")
    kernel.run()
    assert kernel.drop_log.count(DROP_PORT_LABEL) == 1
    assert s.env["moved"] not in kernel.ports


def test_decont_privilege_drop_happens_before_transfer(kernel):
    """Requirement (2) failures are detected sender-side, *before* the
    rights leave the sender — so ownership must be retained (there is no
    in-transit message to die with)."""
    r = _parked_receiver(kernel)

    def minter(ctx):
        ctx.env["h"] = yield NewHandle()

    m = kernel.spawn(minter, "minter")
    kernel.run()

    def sender(ctx):
        moved = yield from open_port()
        ctx.env["moved"] = moved
        # DS below 3 at a handle we hold no ⋆ for: dropped at the send.
        yield Send(
            r.env["data"],
            {"moved": moved},
            ds=Label({m.env["h"]: 0}, L3),
            transfer=(moved,),
        )
        # Our receive rights survived the drop: polling is legal.
        yield Recv(port=moved, block=False)
        ctx.env["still_owner"] = True
        # Park (exiting would dissociate our ports and spoil the check).
        yield Recv(port=moved)

    s = kernel.spawn(sender, "sender")
    kernel.run()
    assert kernel.drop_log.count(DROP_DECONT_PRIVILEGE) == 1
    assert s.env["moved"] in kernel.ports
    assert s.env["still_owner"] is True


def test_obituaries_survive_a_drop_everything_plan():
    """Exit notifications are kernel machinery, not user IPC: supervision
    (the recovery path) must keep working under any fault plan."""
    plan = FaultPlan.of(FaultRule(kind="drop", id="all", match="*", p=1.0))
    kernel = Kernel(config=KernelConfig(faults=plan, fault_seed=0))
    obituaries = []

    def supervisor(ctx):
        port = yield from open_port()

        def clean(cctx):
            yield NewPort()

        def crasher(cctx):
            yield NewPort()
            raise RuntimeError("boom")

        yield Spawn(clean, name="clean", notify_exit=port)
        msg = yield Recv(port=port)
        obituaries.append(msg.payload)
        yield Spawn(crasher, name="crasher", notify_exit=port)
        msg = yield Recv(port=port)
        obituaries.append(msg.payload)

    kernel.spawn(supervisor, "supervisor")
    kernel.run()
    assert [o["type"] for o in obituaries] == ["EXITED", "EXITED"]
    assert [o["name"] for o in obituaries] == ["clean", "crasher"]
    assert [o["crashed"] for o in obituaries] == [False, True]
    # The plan ate nothing else: the supervisor never sent user IPC.
    assert kernel.drop_log.count(DROP_FAULT) == 0


def test_drop_log_is_bounded_and_counts_stay_exact():
    from repro.kernel.errors import DropLog

    log = DropLog()
    for i in range(DropLog.LIMIT + 1):
        log.record(DROP_FAULT if i % 2 else DROP_QUEUE_LIMIT, f"tx{i}", "0x1")
    assert log.count() == DropLog.LIMIT + 1
    assert log.count(DROP_FAULT) == DropLog.LIMIT // 2
    assert log.count(DROP_QUEUE_LIMIT) == DropLog.LIMIT // 2 + 1
    # Trimmed in halves: the newest records survive, the oldest half is counted.
    assert len(log.records) <= DropLog.LIMIT
    assert log.dropped == DropLog.LIMIT // 2
    assert log.dropped + len(log.records) == log.count()
    assert log.records[-1] == (DROP_QUEUE_LIMIT, f"tx{DropLog.LIMIT}", "0x1")
