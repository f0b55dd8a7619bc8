"""Working demonstrations of the Section 8 storage channels.

Both channels move secret bits *despite* the label rules, by modulating
kernel state that less-tainted processes can observe:

- :func:`label_observation_channel` — "labels can be observed through
  lack of communication": a tainted process A transmits bit *i* by
  contaminating heartbeat process B_i; the observer C sees which
  heartbeat stops arriving.  Inherent to any system with run-time
  checking of dynamic labels.
- :func:`yield_order_channel` — the shared program counter: event
  processes of one base process share an execution context (a blocked EP
  blocks them all, Section 6.1), so a tainted EP can modulate *when* an
  untainted sibling's message reaches an observer.

Each function returns ``(sent_bits, received_bits)``; a correct channel
run leaks every bit.  Both consume fresh processes (or event processes)
per bit — the property that makes fork-rate limiting
(:class:`~repro.covert.mitigation.ForkRateLimiter`) an effective
mitigation, demonstrated in the tests and in ``examples/covert_channels.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.labels import Label
from repro.core.levels import L1, L2, L3
from repro.ipc.rpc import open_port
from repro.kernel.errors import ResourceExhausted
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import ChangeLabel, EpCheckpoint, EpYield, NewHandle, Recv, Send, Spawn

__all__ = ["label_observation_channel", "yield_order_channel"]


def label_observation_channel(
    bits: Sequence[int],
    kernel: Optional[Kernel] = None,
) -> Tuple[List[int], List[int]]:
    """Run the heartbeat channel for *bits*; returns (sent, received).

    Uses "partial taint" at level 2 (Section 5.2's permissive default) so
    the tainted sender can still contaminate default-labelled processes;
    the observer C explicitly lowers its receive label to ``{h 1, 2}`` so
    contaminated heartbeats stop reaching it.  Each bit burns a fresh
    pair of heartbeat processes — a contaminated B is spent.

    If a fork limiter denies the B-pair spawns mid-run, the channel stops
    and the received list is truncated: quantifying exactly how the
    mitigation bounds leaked bits.
    """
    kernel = kernel if kernel is not None else Kernel()
    sent = [1 if b else 0 for b in bits]
    received: List[int] = []

    def b_body(ctx):
        # Announce, wait for go (and possibly a taint beforehand), then
        # heartbeat to C.
        port = yield from open_port()
        yield Send(ctx.env["orch_port"], {"type": "B_READY", "who": ctx.env["who"], "port": port})
        while True:
            msg = yield Recv(port=port)
            if msg.payload.get("type") == "GO":
                yield Send(ctx.env["c_port"], {"type": "BEAT", "who": ctx.env["who"], "round": msg.payload["round"]})
                yield Send(ctx.env["orch_port"], {"type": "B_DONE", "who": ctx.env["who"]})
            # TAINT messages need no action: delivery alone contaminates.

    def a_body(ctx):
        # The secret holder: self-contaminated with h at level 2.
        h = ctx.env["h"]
        yield ChangeLabel(send=Label({h: L2}, L1))
        port = yield from open_port()
        # The self-contamination leaking onto the orchestrator is the
        # covert channel under study.  # asblint: ignore[taint-creep]
        yield Send(ctx.env["orch_port"], {"type": "A_READY", "port": port})
        while True:
            msg = yield Recv(port=port)
            # Transmit one bit: contaminate the chosen heartbeater.
            target = msg.payload["b_ports"][msg.payload["bit"]]
            yield Send(target, {"type": "TAINT"})
            yield Send(ctx.env["orch_port"], {"type": "A_DONE"})

    def c_body(ctx):
        # The observer: refuses h-contaminated traffic outright.
        h = ctx.env["h"]
        yield ChangeLabel(receive=Label({h: L1}, L2))
        port = yield from open_port()
        yield Send(ctx.env["orch_port"], {"type": "C_READY", "port": port})
        while True:
            seen = []
            while True:
                msg = yield Recv(port=port)
                if msg.payload.get("type") == "ROUND_DONE":
                    break
                if msg.payload.get("type") == "BEAT":
                    seen.append(msg.payload["who"])
            # The missing heartbeat is the transmitted bit.
            bit = 0 if 0 not in seen else 1 if 1 not in seen else -1
            yield Send(ctx.env["orch_port"], {"type": "OBSERVED", "bit": bit})

    def orch_body(ctx):
        h = yield NewHandle()
        port = yield from open_port()
        # We hold h ⋆, so we may accept arbitrarily h-tainted acks.
        yield ChangeLabel(raise_receive={h: L3})
        yield Spawn(c_body, name="C", env={"orch_port": port, "h": h})
        c_ready = yield Recv(port=port)
        c_port = c_ready.payload["port"]
        yield Spawn(a_body, name="A", env={"orch_port": port, "h": h})
        a_ready = yield Recv(port=port)
        a_port = a_ready.payload["port"]

        observed: List[int] = []
        for round_no, bit in enumerate(sent):
            b_ports = {}
            try:
                for who in (0, 1):
                    yield Spawn(
                        b_body,
                        name=f"B{who}-{round_no}",
                        env={"orch_port": port, "c_port": c_port, "who": who},
                    )
            except ResourceExhausted:
                # Fork limiting: the channel is cut off here.
                break
            for _ in range(2):
                msg = yield Recv(port=port)
                b_ports[msg.payload["who"]] = msg.payload["port"]
            # A contaminates the chosen B...
            yield Send(a_port, {"type": "XMIT", "bit": bit, "b_ports": b_ports})
            yield Recv(port=port)  # A_DONE
            # ...then both Bs heartbeat.
            for who in (0, 1):
                yield Send(b_ports[who], {"type": "GO", "round": round_no})
            done = 0
            while done < 2:
                msg = yield Recv(port=port)
                if msg.payload.get("type") == "B_DONE":
                    done += 1
            yield Send(c_port, {"type": "ROUND_DONE"})
            msg = yield Recv(port=port)  # OBSERVED
            observed.append(msg.payload["bit"])
        ctx.env["observed"] = observed

    orch = kernel.spawn(orch_body, "orchestrator")
    kernel.run()
    received = orch.env.get("observed", [])
    return sent, received


def yield_order_channel(
    bits: Sequence[int],
    kernel: Optional[Kernel] = None,
) -> Tuple[List[int], List[int]]:
    """The shared-program-counter channel (Section 8).

    A worker hosts two event processes: T (tainted, knows the secret) and
    U (untainted heartbeater).  Event-process execution states are not
    isolated — a blocked EP blocks the whole process — so T transmits a
    bit by either blocking the process (bit 1) or yielding immediately
    (bit 0) before U's heartbeat is serviced.  The observer C, which can
    never receive anything from T, reads each bit from whether U's
    heartbeat beats a reference marker that routes around the worker.
    """
    kernel = kernel if kernel is not None else Kernel()
    sent = [1 if b else 0 for b in bits]

    def worker_body(ctx):
        base = yield from open_port()
        yield Send(ctx.env["orch_port"], {"type": "W_READY", "port": base})

        def event_body(ectx, msg):
            role = msg.payload["role"]
            my_port = yield from open_port()
            if role == "T":
                # The secret holder: contaminate ourselves so nothing we
                # send can ever reach C directly, and set up the port we
                # stall on.
                stall_port = yield from open_port()
                yield ChangeLabel(send=Label({ectx.env["h"]: L3}, L1))
                # Deliberate: T's taint spreading to the orchestrator is
                # the timing channel itself.  # asblint: ignore[taint-creep]
                yield Send(
                    ectx.env["orch_port"],
                    {"type": "EP_READY", "role": role, "port": my_port, "stall": stall_port},
                )
                msg = yield EpYield()
                while True:
                    round_no = msg.payload["round"]
                    if msg.payload.get("bit"):
                        # Bit 1: block the *whole process* (execution
                        # states are not isolated, Section 6.1) until this
                        # round's release arrives.
                        while True:
                            release = yield Recv(port=stall_port)
                            if release.payload.get("round") == round_no:
                                break
                    msg = yield EpYield()
            else:
                yield Send(
                    ectx.env["orch_port"],
                    {"type": "EP_READY", "role": role, "port": my_port},
                )
                msg = yield EpYield()
                while True:
                    yield Send(
                        ectx.env["c_port"],
                        {"type": "BEAT", "round": msg.payload["round"]},
                    )
                    msg = yield EpYield()

        yield EpCheckpoint(event_body)

    def relay_body(ctx):
        # An untainted forwarding hop; gives the scheduler the slack that
        # makes the worker's stall (or lack of it) observable as ordering.
        port = yield from open_port()
        yield Send(ctx.env["orch_port"], {"type": "R_READY", "who": ctx.env["who"], "port": port})
        while True:
            msg = yield Recv(port=port)
            for target, payload in msg.payload["forward"]:
                yield Send(target, payload)

    def c_body(ctx):
        port = yield from open_port()
        yield Send(ctx.env["orch_port"], {"type": "C_READY", "port": port})
        while True:
            first = yield Recv(port=port)
            second = yield Recv(port=port)
            # Marker before heartbeat means the worker was stalled: bit 1.
            bit = 1 if first.payload["type"] == "MARK" else 0
            yield Send(ctx.env["orch_port"], {"type": "OBSERVED", "bit": bit})

    def orch_body(ctx):
        h = yield NewHandle()
        port = yield from open_port()
        # We hold h ⋆: accept the tainted EP's announcements.
        yield ChangeLabel(raise_receive={h: L3})
        yield Spawn(c_body, name="C", env={"orch_port": port})
        c_port = (yield Recv(port=port)).payload["port"]
        yield Spawn(worker_body, name="W", env={"orch_port": port, "c_port": c_port, "h": h})
        wport = (yield Recv(port=port)).payload["port"]
        relays = {}
        for who in (1, 2):
            yield Spawn(relay_body, name=f"R{who}", env={"orch_port": port, "who": who})
            msg = yield Recv(port=port)
            relays[msg.payload["who"]] = msg.payload["port"]
        # Create the two event processes.
        yield Send(wport, {"role": "T"})
        t_ready = (yield Recv(port=port)).payload
        t_port, stall_port = t_ready["port"], t_ready["stall"]
        yield Send(wport, {"role": "U"})
        u_port = (yield Recv(port=port)).payload["port"]

        observed: List[int] = []
        for round_no, bit in enumerate(sent):
            # T gets the bit (and may stall the whole worker); U's
            # heartbeat request is next in the worker's queue; the marker
            # takes the two-relay detour, arriving at C after U's
            # heartbeat iff the worker was not stalled.  The release rides
            # behind the marker so a stalled worker resumes afterwards.
            yield Send(t_port, {"bit": bit, "round": round_no})
            yield Send(u_port, {"round": round_no})
            yield Send(
                relays[1],
                {
                    "forward": [
                        (
                            relays[2],
                            {
                                "forward": [
                                    (c_port, {"type": "MARK", "round": round_no}),
                                    (stall_port, {"type": "RELEASE", "round": round_no}),
                                ]
                            },
                        )
                    ]
                },
            )
            msg = yield Recv(port=port)
            observed.append(msg.payload["bit"])
        ctx.env["observed"] = observed

    orch = kernel.spawn(orch_body, "orchestrator")
    kernel.run()
    return sent, orch.env.get("observed", [])
