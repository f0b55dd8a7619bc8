"""The decomposed network server — the paper's Section 7.8 future work,
implemented.

    "netd could be decomposed into a simple trusted and privileged
    component and an event-process-based workhorse.  The trusted front
    end would classify incoming packets and firewall outgoing packets
    based on discretionary label rules; it would therefore be privileged
    with respect to all handles uT, as netd is now.  It would forward
    packets, once classified, to the appropriate event processes of an
    untrusted netd back end, which would manage the specifics of TCP
    buffering and flow control.  Each back-end event process would be
    contaminated with respect to the user on whose behalf it speaks,
    much like worker processes in the current system."

Consequence: a compromised TCP back end can no longer leak across users.
Each connection's buffering lives in its own event process whose send
label carries that user's taint, so the kernel — not netd code — stops
cross-connection flows; and the front end releases outbound bytes only
against a verification label proving the sender carries at most the
connection's own taint.

The wire-facing and application-facing protocols are identical to
:mod:`repro.servers.netd`, so OKWS runs unchanged on either
(``launch(..., network="decomposed")``) — except that loopback
connections are classic-netd only: a ``CONNECT`` here is answered
``ERROR_R`` "no route", as netd answers for any host it cannot reach.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L2, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NONE, Request, open_port
from repro.kernel.errors import InvalidArgument
from repro.kernel.syscalls import (
    ChangeLabel,
    EpCheckpoint,
    EpExit,
    EpYield,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
    Spawn,
)
from repro.servers.netd import (
    ACCEPT_CYCLES,
    CLOSE_CYCLES,
    OP_CYCLES,
    SEGMENT_CYCLES,
    Wire,
)

#: Front-end packet classification / firewalling per message.
CLASSIFY_CYCLES = 9_000

#: What a back-end event process understands on its connection port.
BACKEND_SHAPES = {
    # from the front end
    "DATA": {},
    "TAINT": {"taint": HANDLE},
    "CLOSE": {},
    # from the application
    P.READ: {"reply": HANDLE},
    P.WRITE: {},
    P.SELECT: {"reply": HANDLE},
    P.CONTROL: {},
}

#: What the front end understands, on its four ports.
FRONT_SHAPES = {
    # wire events (from the NIC)
    "OPEN": {"conn": HANDLE, "dport": HANDLE},
    "DATA": {"conn": HANDLE},
    "CLOSE": {"conn": HANDLE},
    # from the back end
    "ACCEPT_UP": {"conn_id": HANDLE, "conn": HANDLE},
    "CLOSE_UP": {"conn_id": HANDLE},
    "EGRESS": {"conn_id": HANDLE},
    # service requests
    P.CONNECT: {},
    P.LISTEN: {"port": (HANDLE, NONE), "notify": HANDLE},
    "ADD_TAINT": {"conn": HANDLE, "taint": HANDLE},
}


def backend_body(ctx):
    """The untrusted TCP workhorse: one event process per connection."""
    base_port = yield NewPort()
    # Only the front end may create connections: grant it at handoff.
    yield Send(
        ctx.env["front_port"],
        P.request("BACKEND_READY", port=base_port),
        ds=Label({base_port: STAR}, L3),
    )

    def event_body(ectx, first_msg):
        wire_out = ectx.env["front_egress"]
        conn_id = first_msg.payload["conn_id"]
        # The connection's socket port, sealed by its own 0-entry; the
        # default stays 3 until the first taint arrives (the front end's
        # TAINT message carries DR = {uT 3}, which requirement (4) bounds
        # by this port label).
        conn_port = yield NewPort()
        yield Send(
            ectx.env["front_port"],
            P.request("ACCEPT_UP", conn_id=conn_id, conn=conn_port),
            ds=Label({conn_port: STAR}, L3),
        )
        inbuf: List[Any] = []
        pending_reads: List[Request] = []
        taints: List[Handle] = []
        msg = yield EpYield()
        while True:
            req = Request(msg, BACKEND_SHAPES, ectx)
            payload, mtype = req.payload, req.type
            if mtype == "DATA":          # from the front end
                ectx.compute(SEGMENT_CYCLES)
                inbuf.append(payload.get("data"))
                while pending_reads and inbuf:
                    # Our send label already carries the user's taint; no
                    # explicit CS needed — we *are* contaminated (§7.8).
                    yield from pending_reads.pop(0).answer(data=inbuf.pop(0))
            elif mtype == "TAINT":       # front end: contaminate this conn
                taints.append(payload["taint"])
                label = Label({conn_port: 0}, L2)
                for taint in taints:
                    label = label.with_entry(taint, L3)
                yield SetPortLabel(conn_port, label)
                yield from req.answer(ok=True)
            elif mtype == P.READ:        # from the application
                ectx.compute(OP_CYCLES)
                if inbuf:
                    yield from req.answer(data=inbuf.pop(0))
                else:
                    pending_reads.append(req)
            elif mtype == P.WRITE:
                ectx.compute(OP_CYCLES)
                # Outbound bytes go through the firewall with a proof that
                # we carry at most this connection's taint.
                proof = Label({t: L3 for t in taints}, L2)
                yield Send(
                    wire_out,
                    P.request("EGRESS", conn_id=conn_id, data=payload.get("data")),
                    v=proof,
                )
                yield from req.answer(n=1)
            elif mtype == P.SELECT:
                yield from req.answer(space=65536)
            elif mtype == "CLOSE" or (mtype == P.CONTROL and payload.get("op") == "close"):
                ectx.compute(CLOSE_CYCLES)
                yield from req.answer(ok=True)
                if mtype == P.CONTROL:
                    # Application-initiated close: tell the front end so it
                    # can tear down the wire side too.
                    proof = Label({t: L3 for t in taints}, L2)
                    yield Send(
                        wire_out,
                        P.request("CLOSE_UP", conn_id=conn_id),
                        v=proof,
                    )
                yield EpExit()
            msg = yield EpYield()

    yield EpCheckpoint(event_body)


def netd2_front_body(ctx):
    """The trusted, privileged front end.  Env in: ``wire``.  Publishes the
    same ``netd_port``/``netd_wire_port`` env keys as classic netd."""
    wire: Wire = ctx.env["wire"]
    service_port = yield from open_port()
    wire_port = yield from open_port()
    front_port = yield from open_port()
    egress_port = yield from open_port()
    ctx.env["netd_port"] = service_port
    ctx.env["netd_wire_port"] = wire_port

    # Spawn the untrusted workhorse with least privilege.
    yield Spawn(
        backend_body,
        name="netd-backend",
        env={"front_port": front_port, "front_egress": egress_port},
    )
    ready = yield Recv(port=front_port)
    backend_base = ready.payload["port"]

    listeners: Dict[int, Handle] = {}
    conn_ports: Dict[int, Handle] = {}     # conn_id -> uC (EP-owned)
    conn_taints: Dict[int, List[Handle]] = {}
    pending_accept: Dict[int, int] = {}    # conn_id -> dport
    #: Segments that raced ahead of the back end's accept: buffered here
    #: and flushed once the connection's event process reports in.
    pending_data: Dict[int, List[Any]] = {}
    by_port: Dict[Handle, int] = {}

    while True:
        msg = yield Recv()
        req = Request(msg, FRONT_SHAPES, ctx)
        payload, mtype = req.payload, req.type

        if msg.port == wire_port:
            conn_id = payload.get("conn")
            if mtype == "OPEN":
                ctx.compute(ACCEPT_CYCLES + CLASSIFY_CYCLES)
                if payload["dport"] not in listeners:
                    wire.close(conn_id)
                    continue
                pending_accept[conn_id] = payload["dport"]
                # Fork a back-end event process for this connection.
                yield Send(backend_base, P.request("NEW_CONN", conn_id=conn_id))
            elif mtype == "DATA":
                ctx.compute(CLASSIFY_CYCLES)
                port = conn_ports.get(conn_id)
                if port is None:
                    if conn_id in pending_accept:
                        pending_data.setdefault(conn_id, []).append(payload.get("data"))
                    continue
                # Classified inbound packets are contaminated with the
                # connection's taint before entering the back end.
                taints = conn_taints.get(conn_id, [])
                yield Send(
                    port,
                    {"type": "DATA", "data": payload.get("data")},
                    cs=Label({t: L3 for t in taints}, STAR) if taints else None,
                )
            elif mtype == "CLOSE":
                port = conn_ports.pop(conn_id, None)
                if port is not None:
                    by_port.pop(port, None)
                    conn_taints.pop(conn_id, None)
                    yield Send(port, {"type": "CLOSE"})
                    yield ChangeLabel(drop_send=(port,))
            continue

        if msg.port == front_port:
            if mtype == "ACCEPT_UP":
                conn_id = payload["conn_id"]
                dport = pending_accept.pop(conn_id, None)
                if dport is None:
                    continue
                conn = payload["conn"]
                conn_ports[conn_id] = conn
                by_port[conn] = conn_id
                notify = listeners[dport]
                yield Send(
                    notify,
                    P.request(P.ACCEPT_R, conn=conn, conn_id=conn_id),
                    ds=Label({conn: STAR}, L3),
                )
                # Flush segments that raced ahead of the accept.
                for data in pending_data.pop(conn_id, []):
                    yield Send(conn, {"type": "DATA", "data": data})
            continue

        if msg.port == egress_port:
            if mtype == "CLOSE_UP":
                conn_id = payload["conn_id"]
                allowed = Label({t: L3 for t in conn_taints.get(conn_id, [])}, L2)
                if msg.verify <= allowed:
                    wire.close(conn_id)
                    port = conn_ports.pop(conn_id, None)
                    if port is not None:
                        by_port.pop(port, None)
                        conn_taints.pop(conn_id, None)
                        yield ChangeLabel(drop_send=(port,))
                continue
            if mtype == "EGRESS":
                ctx.compute(CLASSIFY_CYCLES)
                conn_id = payload["conn_id"]
                # The firewall rule: the sender's verification label must
                # be bounded by this connection's own taints at 3 over a
                # default of 2 — no foreign user's taint can ride out.
                allowed = Label({t: L3 for t in conn_taints.get(conn_id, [])}, L2)
                if not msg.verify <= allowed:
                    ctx.log(f"egress firewall dropped packet for conn {conn_id}")
                    continue
                wire.deliver(conn_id, payload.get("data"), now=ctx.now)
            continue

        if msg.port == service_port:
            if mtype == P.LISTEN:
                listeners[payload.get("port", 80)] = payload["notify"]
                yield from req.answer(ok=True)
            elif mtype == P.CONNECT:
                yield from req.error("no route")
            elif mtype == "ADD_TAINT":
                conn = payload["conn"]
                taint = payload["taint"]
                conn_id = by_port.get(conn)
                if conn_id is None:
                    continue
                try:
                    yield ChangeLabel(raise_receive={taint: L3})
                except InvalidArgument:
                    continue  # requester did not grant us the star
                conn_taints.setdefault(conn_id, []).append(taint)
                # Contaminate the back-end EP and raise its receive label
                # so tainted writes can reach it (we hold uT ⋆).
                yield Send(
                    conn,
                    {"type": "TAINT", "taint": taint, "reply": req.reply},
                    cs=Label({taint: L3}, STAR),
                    dr=Label({taint: L3}, STAR),
                )
