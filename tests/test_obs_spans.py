"""Span tracing: Chrome trace_event export round-trips as valid JSON with
balanced begin/end pairs, and the kernel threads message lifetimes
through enqueue → delivery."""

import json
from pathlib import Path

from repro.core.labels import Label
from repro.core.levels import L3, STAR
from repro.kernel import Kernel, KernelConfig, NewHandle, NewPort, Recv, Send, SetPortLabel
from repro.obs.spans import CHROME_PID, SpanRecorder


def _pairs_balance(events):
    """Every B has a matching E per tid (stack discipline), and every
    async b has a matching e per id."""
    stacks = {}
    for event in events:
        if event["ph"] == "B":
            stacks.setdefault(event["tid"], []).append(event["name"])
        elif event["ph"] == "E":
            stack = stacks.get(event["tid"], [])
            assert stack, f"E without B on tid {event['tid']}"
            stack.pop()
    for tid, stack in stacks.items():
        assert not stack, f"unclosed B spans on tid {tid}: {stack}"
    open_async = {}
    for event in events:
        if event["ph"] == "b":
            open_async[event["id"]] = event
        elif event["ph"] == "e":
            open_async.pop(event["id"], None)
    assert not open_async, f"unclosed async spans: {sorted(open_async)}"


def test_recorder_roundtrip():
    rec = SpanRecorder()
    rec.begin("work", "taskA", 100, detail=1)
    rec.end("work", "taskA", 250)
    rec.async_begin("msg", 7, 120, port="0x10")
    rec.async_end("msg", 7, 300, delivered=True)
    rec.instant("drop", "taskA", 400, reason="label-check")
    doc = json.loads(rec.to_json())
    events = doc["traceEvents"]
    assert all(event["pid"] == CHROME_PID for event in events if "pid" in event)
    _pairs_balance(events)
    names = [event["name"] for event in events]
    assert "thread_name" in names  # metadata emitted per track
    # Timestamps are microseconds at 2.8 GHz: 280 cycles = 0.1 us.
    b = next(event for event in events if event["ph"] == "B")
    assert abs(b["ts"] - 100 * 1e6 / 2.8e9) < 1e-9


def test_unfinished_async_spans_closed_at_export():
    rec = SpanRecorder()
    rec.async_begin("msg", 1, 50)
    doc = rec.to_chrome(now_cycles=500)
    _pairs_balance(doc["traceEvents"])
    closer = [event for event in doc["traceEvents"] if event["ph"] == "e"]
    assert closer and closer[0]["args"]["unfinished"] is True
    assert rec.open_spans() == [1]  # export does not mutate the recording


def test_limit_drops_oldest():
    rec = SpanRecorder(limit=10)
    for i in range(25):
        rec.instant("tick", "t", i)
    assert len(rec) <= 10
    assert rec.dropped > 0
    assert rec.to_chrome()["otherData"]["dropped_events"] == rec.dropped


def test_kernel_threads_message_spans():
    kernel = Kernel(config=KernelConfig(spans=True))
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        state["port"] = port
        yield Recv(port=port)

    def sender(ctx):
        yield Send(state["port"], "hello")

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()

    doc = json.loads(kernel.spans.to_json(now_cycles=kernel.clock.now))
    events = doc["traceEvents"]
    _pairs_balance(events)
    msg_begins = [e for e in events if e["ph"] == "b" and e["name"] == "msg"]
    msg_ends = [e for e in events if e["ph"] == "e" and e["name"] == "msg"]
    assert msg_begins and len(msg_begins) == len(msg_ends)
    delivered = [e for e in msg_ends if e["args"].get("delivered")]
    assert delivered and delivered[0]["args"]["receiver"] == "receiver"
    # Activation spans cover both tasks.
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"receiver", "sender"} <= tracks


def test_dropped_message_span_records_reason():
    kernel = Kernel(config=KernelConfig(spans=True))
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        # Port label {0}: the sender's default ES {1} fails the delivery
        # check, so the message is enqueued then silently dropped.
        yield SetPortLabel(port, Label({}, 0))
        state["port"] = port
        yield Recv(port=port)  # blocks forever; the kernel quiesces anyway

    def sender(ctx):
        yield Send(state["port"], "blocked")

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()

    doc = kernel.spans.to_chrome(now_cycles=kernel.clock.now)
    _pairs_balance(doc["traceEvents"])
    rejected = [
        e
        for e in doc["traceEvents"]
        if e["ph"] == "e" and e["args"].get("delivered") is False
    ]
    assert rejected and rejected[0]["args"]["reason"]


def test_flowtracer_chrome_trace_names_ports():
    from repro.sim.trace import FlowTracer

    kernel = Kernel(config=KernelConfig(spans=True))
    tracer = FlowTracer(kernel)
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        state["port"] = port
        yield Recv(port=port)

    def sender(ctx):
        yield Send(state["port"], "x")

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    tracer_port_named = False
    kernel.run()
    tracer.name_handle(state["port"], "replyP")
    doc = tracer.chrome_trace()
    json.dumps(doc)  # serialisable
    for event in doc["traceEvents"]:
        if event.get("args", {}).get("port_name") == "replyP":
            tracer_port_named = True
    assert tracer_port_named


def test_flowtracer_chrome_trace_requires_spans():
    import pytest

    from repro.sim.trace import FlowTracer

    kernel = Kernel(config=KernelConfig())
    tracer = FlowTracer(kernel)
    with pytest.raises(ValueError):
        tracer.chrome_trace()


def _span_scenario(kernel):
    """One of each message fate: delivered, refused by the label check,
    sent to a dead port, and left queued on a port nobody reads."""
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        idle = yield NewPort()
        yield SetPortLabel(idle, Label.top())
        state.update(port=port, idle=idle)
        while True:
            yield Recv(port=port)

    def sender(ctx):
        taint = yield NewHandle()
        yield Send(state["port"], "clean")
        yield Send(state["port"], "hot", cs=Label({taint: L3}, STAR))
        yield Send(0xBEEF, "nobody home")
        yield Send(state["idle"], "never read")

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()


def test_span_recording_matches_the_pre_observer_kernel():
    """The recording is event-for-event what the kernel produced when it
    called the recorder from its own send/deliver/drop paths."""
    kernel = Kernel(config=KernelConfig(spans=True, boot_key=b"span-fixture"))
    _span_scenario(kernel)
    recorded = json.loads(
        (Path(__file__).parent / "fixtures" / "span_recording.json").read_text()
    )
    assert json.loads(json.dumps(kernel.spans.events)) == recorded["events"]
    assert kernel.spans.open_spans() == recorded["open"]


def test_observers_share_the_hook_list_and_each_sees_every_delivery():
    from repro.analysis.extract import TopologyRecorder
    from repro.sim.trace import FlowTracer

    kernel = Kernel(config=KernelConfig(spans=True))
    before = list(kernel.hooks)  # the span observer

    class Spy:
        seen = 0

        def on_deliver(self, task, entry, qmsg, delivered, qs, qr):
            Spy.seen += 1

    recorder = TopologyRecorder(kernel)
    tracer = FlowTracer(kernel)
    kernel.hooks.append(Spy())
    _span_scenario(kernel)

    attempts = kernel._delivered + kernel.drop_log.count("label-check")
    assert attempts == 2 == Spy.seen == len(tracer.events)
    msg_ends = [e for e in kernel.spans.events if e["ph"] == "e"]
    assert len(msg_ends) == attempts
    assert {"receiver", "sender"} <= set(recorder.build().processes)
    assert [e.delivered for e in tracer.events] == [True, False]
    # Pre-effect labels reach observers: the refused delivery changed nothing.
    assert tracer.events[1].send_before == tracer.events[0].send_after

    tracer.detach()
    kernel.hooks.remove(recorder)
    del kernel.hooks[-1]
    assert kernel.hooks == before
