"""netd: the single network interface process (paper Section 7.7).

All network access goes through netd, which in the paper implements the
TCP/IP stack (a port of LWIP), manages the E1000 driver, and wraps every
connection in an Asbestos port.  Here the stack is simulated, but the
label behaviour is exact:

- each accepted connection gets a fresh port ``uC`` whose port label is
  ``{uC 0, 2}`` — no process can send to it until netd grants access;
- the listening application is notified with a grant of ``uC ⋆``;
- an application holding a connection's taint handle at ``⋆`` can ask netd
  to taint the connection (``ADD_TAINT``): netd raises its own receive
  label with ``uT 3``, raises ``uCR`` to ``{uC 0, uT 3, 2}``, and from then
  on contaminates every reply on that connection with ``uT 3``;
- READ/WRITE/CONTROL/SELECT messages to ``uC`` transfer data subject to
  all the usual label checks, so a process tainted with *another* user's
  handle simply cannot move bytes over this user's connection.

The physical NIC is the :class:`Wire` object — the boundary where the
label system necessarily ends.  The experiment harness injects inbound
TCP events through ``kernel.inject`` and reads responses off the wire's
outbound buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L2, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NAME, NONE, Request, open_port
from repro.kernel.errors import InvalidArgument
from repro.kernel.syscalls import ChangeLabel, DissociatePort, NewPort, Recv, Send, SetPortLabel

# -- cycle cost model for the simulated LWIP stack (calibrated once; see
# -- DESIGN.md "Cycle model calibration") -----------------------------------------

#: TCP accept: SYN handling, PCB setup, port wrapping.
ACCEPT_CYCLES = 190_000
#: Per inbound data segment (checksum, reassembly, buffering).
SEGMENT_CYCLES = 70_000
#: Per READ/WRITE op on a connection port (copy between app and stack).
OP_CYCLES = 78_000
#: Connection teardown.
CLOSE_CYCLES = 55_000


#: What netd understands, and what each request must carry.
SHAPES = {
    # wire events (from the NIC)
    "OPEN": {"conn": HANDLE, "dport": HANDLE},
    "DATA": {"conn": HANDLE},
    "CLOSE": {"conn": HANDLE},
    # service requests
    P.CONNECT: {"port": (HANDLE, NONE), "host": (NAME, NONE)},
    P.LISTEN: {"port": (HANDLE, NONE), "notify": HANDLE},
    "ADD_TAINT": {"conn": HANDLE, "taint": HANDLE},
    # connection-port operations
    P.READ: {"reply": HANDLE},
    P.WRITE: {},
    P.SELECT: {"reply": HANDLE},
    P.CONTROL: {},
}


@dataclass
class Wire:
    """The simulated NIC: outbound bytes and connection states, visible to
    the experiment harness (this is outside the label system, as a real
    network is)."""

    outbound: Dict[int, List[Any]] = field(default_factory=dict)
    closed: Dict[int, bool] = field(default_factory=dict)
    #: Virtual-cycle timestamps of each outbound delivery (for latency).
    stamps: Dict[int, List[int]] = field(default_factory=dict)

    def deliver(self, conn_id: int, data: Any, now: int = 0) -> None:
        self.outbound.setdefault(conn_id, []).append(data)
        self.stamps.setdefault(conn_id, []).append(now)

    def close(self, conn_id: int) -> None:
        self.closed[conn_id] = True

    def take(self, conn_id: int) -> List[Any]:
        """Harness side: drain everything sent on *conn_id* so far."""
        return self.outbound.pop(conn_id, [])


@dataclass
class _Conn:
    conn_id: int
    port: Handle
    inbuf: List[Any] = field(default_factory=list)
    taints: List[Handle] = field(default_factory=list)
    #: ``{uT 3 …, ⋆}`` over *taints*: the contamination every reply on this
    #: connection carries (``None`` while untainted).
    cs: Optional[Label] = None
    pending_reads: List[Request] = field(default_factory=list)
    closed: bool = False
    #: For loopback connections: the peer connection's id (WRITEs on this
    #: side surface as READ data on the peer, and vice versa).
    peer: Optional[int] = None


def netd_body(ctx):
    """The netd process.  Env in: ``wire`` (a :class:`Wire`).  Publishes
    ``netd_port`` (service requests) and ``netd_wire_port`` (inbound wire
    events, injected by the harness)."""
    wire: Wire = ctx.env["wire"]
    service_port = yield from open_port()
    wire_port = yield from open_port()
    ctx.env["netd_port"] = service_port
    ctx.env["netd_wire_port"] = wire_port

    listeners: Dict[int, Handle] = {}          # tcp port -> notify Asbestos port
    conns: Dict[int, _Conn] = {}               # wire conn id -> state
    by_port: Dict[Handle, _Conn] = {}          # Asbestos port -> state

    def wake_readers(conn: _Conn):
        while conn.pending_reads and conn.inbuf:
            yield from conn.pending_reads.pop(0).answer(data=conn.inbuf.pop(0), cs=conn.cs)

    while True:
        msg = yield Recv()
        req = Request(msg, SHAPES, ctx)
        payload, mtype = req.payload, req.type

        # ---- wire events (from the NIC) -------------------------------------
        if msg.port == wire_port:
            conn_id = payload.get("conn")
            if mtype == "OPEN":
                ctx.compute(ACCEPT_CYCLES)
                notify = listeners.get(payload.get("dport"))
                if notify is None:
                    wire.close(conn_id)
                    continue
                # The connection's socket port: label {2}; new_port then
                # pins pR(uC) <- 0, yielding the paper's {uC 0, 2}.
                conn_port = yield NewPort(Label.uniform(L2))
                conn = _Conn(conn_id=conn_id, port=conn_port)
                conns[conn_id] = conn
                by_port[conn_port] = conn
                # Notify the listener, granting uC at * (step 2, Figure 5).
                yield Send(
                    notify,
                    P.request(P.ACCEPT_R, conn=conn_port, conn_id=conn_id),
                    ds=Label({conn_port: STAR}, L3),
                )
            elif mtype == "DATA":
                ctx.compute(SEGMENT_CYCLES)
                conn = conns.get(conn_id)
                if conn is None or conn.closed:
                    continue
                conn.inbuf.append(payload.get("data"))
                yield from wake_readers(conn)
            elif mtype == "CLOSE":
                conn = conns.pop(conn_id, None)
                if conn is not None:
                    ctx.compute(CLOSE_CYCLES)
                    conn.closed = True
                    by_port.pop(conn.port, None)
                    # Release the connection capability and destroy the
                    # socket port (Section 9.3: capabilities are released
                    # when connections close).
                    yield ChangeLabel(drop_send=(conn.port,))
                    yield DissociatePort(conn.port)
            continue

        # ---- service requests -----------------------------------------------
        if msg.port == service_port:
            if mtype == P.CONNECT:
                # An outgoing connection (Section 7.7).  Loopback targets
                # with a registered listener are connected internally; all
                # other hosts are unreachable in the simulated network.
                ctx.compute(ACCEPT_CYCLES)
                dport = payload.get("port", 80)
                host = payload.get("host", "localhost")
                notify = listeners.get(dport) if host in ("localhost", "127.0.0.1") else None
                if notify is None:
                    yield from req.error("no route")
                    continue
                next_loop = -(len(conns) + 1)  # loopback ids are negative
                client_id, server_id = next_loop, next_loop - 100_000_000
                client_port = yield NewPort(Label.uniform(L2))
                server_port = yield NewPort(Label.uniform(L2))
                client = _Conn(conn_id=client_id, port=client_port, peer=server_id)
                server = _Conn(conn_id=server_id, port=server_port, peer=client_id)
                conns[client_id] = client
                conns[server_id] = server
                by_port[client_port] = client
                by_port[server_port] = server
                yield from req.answer(conn=client_port, ds=Label({client_port: STAR}, L3))
                yield Send(
                    notify,
                    P.request(P.ACCEPT_R, conn=server_port, conn_id=server_id),
                    ds=Label({server_port: STAR}, L3),
                )
                continue
            if mtype == P.LISTEN:
                listeners[payload.get("port", 80)] = payload["notify"]
                yield from req.answer(ok=True)
            elif mtype == "ADD_TAINT":
                # The requester granted us taint * via DS on this very
                # message; raise our receive label so tainted writes can
                # reach us, and the connection's port label so tainted
                # data may flow out only via this connection (step 5).
                conn = by_port.get(payload["conn"])
                taint = payload["taint"]
                if conn is None:
                    continue
                try:
                    yield ChangeLabel(raise_receive={taint: L3})
                except InvalidArgument:
                    # The requester failed to grant us declassification
                    # privilege for the taint; without it we could neither
                    # raise our receive label nor avoid permanent
                    # contamination.  Ignore the request.
                    continue
                conn.taints.append(taint)
                conn.cs = Label({t: L3 for t in conn.taints}, STAR)
                new_port_label = Label({conn.port: 0}, L2)
                for t in conn.taints:
                    new_port_label = new_port_label.with_entry(t, L3)
                yield SetPortLabel(conn.port, new_port_label)
                yield from req.answer(ok=True, cs=conn.cs)
            continue

        # ---- connection port operations ----------------------------------------
        conn = by_port.get(msg.port)
        if conn is None:
            continue
        if mtype == P.READ:
            ctx.compute(OP_CYCLES)
            if conn.inbuf:
                yield from req.answer(data=conn.inbuf.pop(0), cs=conn.cs)
            else:
                conn.pending_reads.append(req)
        elif mtype == P.WRITE:
            ctx.compute(OP_CYCLES)
            if conn.peer is not None:
                peer = conns.get(conn.peer)
                if peer is not None and not peer.closed:
                    peer.inbuf.append(payload.get("data"))
                    yield from wake_readers(peer)
            else:
                wire.deliver(conn.conn_id, payload.get("data"), now=ctx.now)
            yield from req.answer(n=len(str(payload.get("data"))), cs=conn.cs)
        elif mtype == P.SELECT:
            yield from req.answer(space=65536, cs=conn.cs)
        elif mtype == P.CONTROL:
            if payload.get("op") == "close":
                ctx.compute(CLOSE_CYCLES)
                wire.close(conn.conn_id)
                conn.closed = True
                conns.pop(conn.conn_id, None)
                by_port.pop(msg.port, None)
                yield ChangeLabel(drop_send=(msg.port,))
                yield DissociatePort(msg.port)
            yield from req.answer(ok=True, cs=conn.cs)
