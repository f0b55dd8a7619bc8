"""Kernel internals: scheduler, vnode table, ports, clock, memory report,
and the resource accounting the evaluation depends on."""

import pytest

from repro.core.chunks import ChunkedLabel
from repro.core.labels import Label
from repro.faults import FaultPlan, FaultRule
from repro.kernel import (
    EpCheckpoint,
    EpYield,
    Kernel,
    KernelConfig,
    NewHandle,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
    syscalls,
)
from repro.kernel.clock import CostModel, CycleClock, KERNEL_IPC, NETWORK
from repro.kernel.errors import DROP_DEAD_PORT
from repro.kernel.message import QueuedMessage
from repro.kernel.ports import Port, RemoteRoute
from repro.kernel.syscalls import Syscall
from repro.kernel.scheduler import Scheduler
from repro.kernel.vnodes import VNODE_BYTES, VnodeTable


# -- scheduler ------------------------------------------------------------------


def test_scheduler_fifo_and_idempotent_enqueue():
    s = Scheduler()
    s.enqueue("a")
    s.enqueue("b")
    s.enqueue("a")          # no duplicate
    assert len(s) == 2
    assert s.dequeue() == "a"
    assert s.dequeue() == "b"
    assert not s


def test_scheduler_remove():
    s = Scheduler()
    s.enqueue("a")
    s.enqueue("b")
    s.remove("a")
    assert "a" not in s
    assert s.dequeue() == "b"
    s.remove("missing")     # no-op


# -- vnodes ---------------------------------------------------------------------


def test_vnode_lifecycle():
    table = VnodeTable()
    v = table.create(42, is_port=True, owner="p1")
    assert table.get(42) is v
    assert table.memory_bytes() == VNODE_BYTES
    v.refcount += 1
    table.decref(42)
    assert table.get(42) is not None      # port alive, refs remain
    v.dissociated = True
    table.decref(42)
    assert table.get(42) is None


def test_vnode_duplicate_rejected():
    table = VnodeTable()
    table.create(1)
    with pytest.raises(AssertionError):
        table.create(1)


# -- ports ----------------------------------------------------------------------------


def _qmsg(seq=1, port=1):
    top = ChunkedLabel.from_label(Label.top())
    bottom = ChunkedLabel.from_label(Label.bottom())
    return QueuedMessage(
        seq=seq,
        port=port,
        payload=b"x" * 100,
        effective_send=bottom,
        decontaminate_send=top,
        verify=top,
        decontaminate_receive=bottom,
        sender_name="t",
    )


def test_port_queue_and_memory():
    port = Port(handle=1, label=ChunkedLabel.from_label(Label.top()), owner="p1")
    assert port.enqueue(_qmsg())
    assert port.queued_bytes == 100
    assert port.memory_bytes() > 100
    port.dissociate()
    assert not port.alive
    assert not port.enqueue(_qmsg(seq=2))
    assert port.queued_bytes == 0


def test_port_queue_limit():
    port = Port(
        handle=1, label=ChunkedLabel.from_label(Label.top()), owner="p1", queue_limit=2
    )
    assert port.enqueue(_qmsg(1))
    assert port.enqueue(_qmsg(2))
    assert not port.enqueue(_qmsg(3))


# -- the syscall table and the message record --------------------------------------------------


def test_every_syscall_class_has_a_handler():
    concrete = {
        cls
        for cls in vars(syscalls).values()
        if isinstance(cls, type) and issubclass(cls, Syscall) and cls is not Syscall
    }
    assert len(concrete) >= 17
    assert set(Kernel(config=KernelConfig())._syscalls) == concrete


class _Enqueued:
    """Records every ``_enqueue`` call as (message, its seq on entry,
    fault_exempt), and every delivery, on one kernel."""

    def __init__(self, kernel):
        self.calls = []
        self.delivered = []
        inner = kernel._enqueue

        def spy(qmsg, fault_exempt=False):
            self.calls.append((qmsg, qmsg.seq, fault_exempt))
            inner(qmsg, fault_exempt)

        kernel._enqueue = spy
        kernel.hooks.append(self)

    def on_deliver(self, task, entry, qmsg, delivered, qs, qr):
        self.delivered.append((qmsg, delivered))


def _parked_receiver(kernel):
    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:
            yield Recv(port=port)

    proc = kernel.spawn(receiver, "rx")
    kernel.run()
    return proc


def test_fault_delayed_message_is_the_record_its_origin_built():
    plan = FaultPlan.of(FaultRule(kind="delay", id="lag", match="tx*", p=1.0, rounds=3))
    kernel = Kernel(config=KernelConfig(faults=plan, fault_seed=0))
    rx = _parked_receiver(kernel)
    seen = _Enqueued(kernel)

    def sender(ctx):
        moved = yield NewPort()
        ctx.env["moved"] = moved
        yield Send(rx.env["port"], "local", transfer=(moved,))

    tx = kernel.spawn(sender, "tx")
    bottom, top = ChunkedLabel.from_label(Label.bottom()), ChunkedLabel.from_label(Label.top())
    kernel.enqueue_external(
        rx.env["port"], "remote", effective_send=bottom, ds=top, v=top, dr=bottom,
        sender_name="tx@shard1",
    )
    kernel.run()

    # Each message entered _enqueue twice — delayed, then released
    # fault-exempt — as one object, unstamped until it joined the queue.
    assert kernel.faults.summary() == {"delay": 2}
    assert [(seq, exempt) for _, seq, exempt in seen.calls] == [(0, False)] * 2 + [(0, True)] * 2
    born = [qmsg for qmsg, _, exempt in seen.calls if not exempt]
    released = [qmsg for qmsg, _, exempt in seen.calls if exempt]
    assert all(any(r is b for b in born) for r in released)
    assert all(any(d is b for b in born) and ok for d, ok in seen.delivered)
    by_payload = {qmsg.payload: qmsg for qmsg, _ in seen.delivered}
    local, remote = by_payload["local"], by_payload["remote"]
    assert local.transfer == (tx.env["moved"],) and not local.external
    assert tx.env["moved"] in rx.owned_ports  # the rights landed
    assert remote.external and remote.transfer == ()
    assert sorted((local.seq, remote.seq)) == [kernel._seq - 1, kernel._seq]


def test_cross_shard_egress_is_the_record_its_origin_built():
    kernel = Kernel(config=KernelConfig())
    seen = _Enqueued(kernel)
    shipped = []
    kernel.xshard_out = lambda route, qmsg: shipped.append((route, qmsg))
    route = RemoteRoute(shard=1, name="board")
    kernel.remote_routes[0xBEEF] = route

    def sender(ctx):
        yield Send(0xBEEF, "over the wire")
        moved = yield NewPort()
        ctx.env["moved"] = moved
        yield Send(0xBEEF, "with rights", transfer=(moved,))

    tx = kernel.spawn(sender, "tx")
    queued_before = kernel._seq
    kernel.run()

    assert len(shipped) == 1 and shipped[0][0] is route
    qmsg = shipped[0][1]
    assert qmsg is seen.calls[0][0] and qmsg.payload == "over the wire"
    # Never queued here: no seq, and the kernel's count is unmoved.
    assert (qmsg.seq, kernel._seq) == (0, queued_before)
    # Receive rights cannot cross: that send dropped and the rights died.
    assert kernel.drop_log.records == [(DROP_DEAD_PORT, "tx", f"{0xBEEF:#x}")]
    assert tx.env["moved"] not in kernel.ports


# -- clock -------------------------------------------------------------------------------


def test_clock_charging_and_snapshots():
    clock = CycleClock()
    clock.charge(NETWORK, 100)
    clock.charge(KERNEL_IPC, 50)
    snap = clock.snapshot()
    clock.charge(NETWORK, 25)
    delta = clock.delta(snap)
    assert delta[NETWORK] == 25
    assert delta[KERNEL_IPC] == 0
    assert clock.now == 175
    assert clock.seconds == 175 / 2_800_000_000
    with pytest.raises(ValueError):
        clock.charge(NETWORK, -1)
    clock.reset()
    assert clock.now == 0


def test_cost_model_label_work():
    from repro.core.chunks import OpStats
    from repro.kernel.engine import Work, bill

    cost = CostModel()
    stats = OpStats(entries_scanned=10, operations=2, labels_allocated=1)
    assert bill(Work(), stats, cost, "fused") == (
        10 * cost.label_entry + 2 * cost.label_op_base + cost.label_alloc
    )


# -- what a connection costs: Python calls, and simulated cycles -----------------------------


def test_request_path_calls_per_connection_and_cycles_are_held():
    """The host-time gain of the request path, held as a count: Python-level
    calls into ``repro`` per resumed connection on a small echo site, and
    the site's simulated cycles (which no host-time change may move)."""
    import os
    import sys

    import repro
    from repro.sim.runner import build_echo_site, echo_requests
    from repro.sim.workload import HttpClient

    site = build_echo_site(8, KernelConfig())
    client = HttpClient(site)
    requests = echo_requests(8)
    assert len(client.run_batch(requests, concurrency=4)) == 8      # the create round
    root = os.path.dirname(repro.__file__)
    calls = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for _ in range(2):                                          # two resume rounds
            assert len(client.run_batch(requests, concurrency=4)) == 8
    finally:
        sys.setprofile(previous)
    # 2,087 before the request path was straightened, 1,402 after, 1,438
    # with every request read through ``ipc.rpc.Request``, counted
    # on CPython 3.11 (what CI pins; generator resumes count as calls).  A
    # frame added back to the per-syscall or per-bill path fails this.
    assert calls[0] / 16 <= 1_800
    # Recorded before that change: a bill that moved fails this.
    assert site.kernel.clock.now == 37_760_752


# -- memory report -------------------------------------------------------------------------


def test_memory_report_structure(kernel):
    def prog(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        ctx.mem.alloc(8192, "data")
        yield Recv(port=port)

    kernel.spawn(prog, "prog")
    kernel.run()
    report = kernel.memory_report()
    assert report["user_pages"] >= 4          # stack, xstack, data x2
    assert report["process_bytes"] == 320
    assert report["label_bytes"] > 0
    assert report["vnode_bytes"] >= 64
    assert report["total_bytes"] == report["user_pages"] * 4096 + report["kernel_bytes"]
    assert report["kernel_bytes"] == sum(
        report[k] for k in ("process_bytes", "ep_bytes", "port_bytes", "label_bytes", "vnode_bytes")
    )


def test_memory_report_sizes_messages_while_they_are_queued(kernel):
    def prog(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        while True:  # stay alive: an exited process takes its port with it
            ctx.env["got"] = (yield Recv(port=port)).payload

    proc = kernel.spawn(prog, "prog")
    kernel.run()
    empty = kernel.memory_report()["port_bytes"]
    kernel.inject(proc.env["port"], {"body": b"x" * 500})
    # 16 for the dict + len("body") + 500: sized now, because it is queued now.
    assert kernel.memory_report()["port_bytes"] == empty + 520
    kernel.run()
    assert proc.env["got"] == {"body": b"x" * 500}
    assert kernel.memory_report()["port_bytes"] == empty


def test_memory_report_counts_eps(kernel):
    def event_body(ectx, msg):
        ectx.mem.store("session", b"x" * 1000)
        yield EpYield()

    def base(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        yield EpCheckpoint(event_body)

    proc = kernel.spawn(base, "worker")
    kernel.run()
    before = kernel.memory_report()
    for i in range(10):
        kernel.inject(proc.env["port"], i)
    kernel.run()
    after = kernel.memory_report()
    assert after["ep_bytes"] > before["ep_bytes"]
    assert after["user_pages"] > before["user_pages"]


def test_ram_cap_enforced_by_kernel():
    kernel = Kernel(config=KernelConfig(ram_bytes=64 * 4096, trace=True))
    crashed = []

    def hog(ctx):
        try:
            ctx.mem.alloc(100 * 4096, "huge")
        except Exception as err:
            crashed.append(type(err).__name__)
        yield NewHandle()

    kernel.spawn(hog, "hog")
    kernel.run()
    assert crashed == ["ResourceExhausted"]


def test_handle_space_is_shared_and_unique(kernel):
    handles = []

    def a(ctx):
        for _ in range(50):
            handles.append((yield NewHandle()))

    def b(ctx):
        for _ in range(50):
            handles.append((yield NewPort()))

    kernel.spawn(a, "a")
    kernel.spawn(b, "b")
    kernel.run()
    assert len(set(handles)) == 100  # ports and handles share one namespace
