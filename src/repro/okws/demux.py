"""ok-demux: connection demultiplexer and session router (paper §7.2–7.3).

ok-demux accepts each incoming TCP connection from netd, reads enough of
the request to authenticate the user (username/password via idd) and
identify the requested service, then hands the connection off:

- to the worker's *base* port for a first contact (forking a new event
  process), simultaneously contaminating the worker with ``uT 3``,
  granting ``uC ⋆`` and ``uG ⋆``, and raising its receive label with
  ``uT 3`` so database rows and connection reads can reach it;
- directly to the session port ``W[u]`` recorded in its session table for
  a repeat visit (Section 7.3);
- to a *declassifier* worker with ``uT ⋆`` **instead of** the ``uT 3``
  contamination (Section 7.6) — the declassifier can then export u's (and
  only u's) data.

ok-demux trusts the launcher's verification handles, not the workers: a
REGISTER must carry the expected handle at level 0 in its verification
label (Section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L0, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NAME, NONE, Request, open_port
from repro.kernel.syscalls import ChangeLabel, Recv, Send

#: ok-demux computation per connection (header parse, routing).
DEMUX_CYCLES = 200_000

#: Marginal per-connection cost of a large session table (~95 cycles per
#: entry: an open-hash walk with poor cache locality touching the whole
#: table's cache footprint).  This is what makes the paper's OKWS line
#: grow mildly with cached sessions — by 7,500 sessions kernel IPC
#: "equals the work being done in all of OKWS" only because OKWS itself
#: has grown.
SESSION_TABLE_CYCLES_PER_ENTRY = 95

#: The HTTP response sent on authentication failure.
FORBIDDEN = {"status": 403, "headers": "HTTP/1.0 403 Forbidden", "body": ""}

#: How long to suggest clients wait before retrying a degraded service
#: (cycles of simulated time; the launcher's restart backoff is shorter).
RETRY_AFTER_CYCLES = 500_000_000

#: The HTTP response sent while a service's worker is down or failed.
#: Degradation, not an error page: the site stays up, the client is told
#: when to come back (paper §7.1's "more mature launcher", taken further).
SERVICE_UNAVAILABLE = {
    "status": 503,
    "headers": "HTTP/1.0 503 Service Unavailable",
    "retry_after": RETRY_AFTER_CYCLES,
    "body": "",
}

#: Pending-connection sweep: while connections are in flight we receive
#: with this timeout and time out any that have waited longer than
#: PENDING_DEADLINE (their READ/LOGIN leg was dropped) with a 503.  With
#: no pending connections we block indefinitely, preserving quiescence.
PENDING_SWEEP = 1_400_000_000
PENDING_DEADLINE = 4 * PENDING_SWEEP

#: What ok-demux understands — requests, and the replies it pumps by
#: ``tag`` — and what each must carry.
SHAPES = {
    # from the launcher
    "EXPECT": {"service": NAME, "verify_handle": HANDLE},
    "DOWN": {"service": NAME},
    "FAILED": {"service": NAME},
    # from workers
    P.REGISTER: {"service": NAME, "port": HANDLE},
    "SESSION": {"uid": HANDLE, "service": NAME, "port": HANDLE},
    # from netd and idd
    P.ACCEPT_R: {"conn": HANDLE, "conn_id": HANDLE},
    P.READ_R: {"tag": HANDLE, "data": (dict, NONE)},
    P.LOGIN_R: {
        "tag": HANDLE,
        "uid": (HANDLE, NONE),
        "taint": (HANDLE, NONE),
        "grant": (HANDLE, NONE),
    },
}


@dataclass
class _PendingConn:
    conn: Handle
    conn_id: int
    head: Optional[Dict[str, Any]] = None
    user: Optional[str] = None
    at: int = 0  # ctx.now at ACCEPT_R, for the stale sweep


def demux_body(ctx):
    """The ok-demux process.  Env in: ``launcher_port``, ``netd_port``,
    ``idd_port``."""
    launcher_port = ctx.env["launcher_port"]
    netd_port = ctx.env["netd_port"]
    idd_port = ctx.env["idd_port"]

    port = yield from open_port()
    yield Send(launcher_port, P.request("ANNOUNCE", who="ok-demux", port=port))

    # service -> (expected verification handle, declassifier?); from launcher.
    expected: Dict[str, Tuple[Handle, bool]] = {}
    # service -> worker base port (REGISTERed, verified).
    workers: Dict[str, Handle] = {}
    # (uid, service) -> event-process session port (Section 7.3).
    sessions: Dict[Tuple[int, str], Handle] = {}
    # in-flight connections, keyed by correlation tag.
    pending: Dict[int, _PendingConn] = {}
    # services whose worker the launcher gave up on (restart budget blown).
    failed: set = set()

    listening = False
    while True:
        msg = yield Recv(port=port, timeout=PENDING_SWEEP if pending else None)
        if msg is None:
            # Sweep: any connection stuck this long lost a READ/LOGIN leg
            # to a drop; answer 503 so the client can retry, not hang.
            now = ctx.now
            for tag in [t for t, s in pending.items() if now - s.at > PENDING_DEADLINE]:
                state = pending.pop(tag)
                ctx.count("pending_timeouts")
                yield Send(state.conn, P.request(P.WRITE, data=SERVICE_UNAVAILABLE))
                yield Send(state.conn, P.request(P.CONTROL, op="close"))
            continue
        req = Request(msg, SHAPES, ctx)
        payload, mtype = req.payload, req.type

        if mtype == "EXPECT":  # launcher: a worker will register
            expected[payload["service"]] = (
                payload["verify_handle"],
                bool(payload.get("declassifier")),
            )
            if not listening:
                yield Send(
                    netd_port,
                    P.request(P.LISTEN, port=80, notify=port),
                )
                listening = True

        elif mtype == P.REGISTER:
            service = payload["service"]
            entry = expected.get(service)
            if entry is None:
                continue
            verify_handle, _ = entry
            # The worker must prove it speaks for the launcher-minted
            # verification handle (Section 7.1).
            if msg.verify(verify_handle) > L0:
                ctx.log(f"REGISTER for {service!r} with bad verification")
                continue
            if service in workers:
                # A restarted worker: its predecessor's event processes —
                # and their session ports — died with it.
                for key in [k for k in sessions if k[1] == service]:
                    del sessions[key]
            workers[service] = payload["port"]
            failed.discard(service)
            # Acknowledge so the worker can retry an unlucky REGISTER
            # instead of leaving the service 503-degraded forever.
            yield from req.answer(ok=True)

        elif mtype == "DOWN":  # launcher: worker died, restart under way
            service = payload["service"]
            ctx.count("worker_down")
            workers.pop(service, None)
            # The dead worker's event processes (and session ports) died
            # with it; routing to them would fork bogus EPs on a corpse.
            for key in [k for k in sessions if k[1] == service]:
                del sessions[key]

        elif mtype == "FAILED":  # launcher: restart budget blown, give up
            service = payload["service"]
            ctx.count("worker_failed")
            failed.add(service)
            workers.pop(service, None)
            for key in [k for k in sessions if k[1] == service]:
                del sessions[key]

        elif mtype == "SESSION":  # worker EP announces its session port
            sessions[(payload["uid"], payload["service"])] = payload["port"]

        elif mtype == P.ACCEPT_R:  # netd: new connection, uC granted at ⋆
            ctx.compute(DEMUX_CYCLES + SESSION_TABLE_CYCLES_PER_ENTRY * len(sessions))
            ctx.count("connects")
            conn = payload["conn"]
            conn_id = payload["conn_id"]
            pending[conn_id] = _PendingConn(conn=conn, conn_id=conn_id, at=ctx.now)
            # Step 3: read the request head to authenticate.
            yield Send(conn, P.request(P.READ, reply=port, tag=conn_id))

        elif mtype == P.READ_R:
            tag = payload["tag"]
            state = pending.get(tag)
            if state is None:
                continue
            head = payload.get("data") or {}
            state.head = head
            state.user = head.get("user")
            yield Send(
                idd_port,
                P.request(
                    P.LOGIN,
                    reply=port,
                    tag=tag,
                    user=head.get("user"),
                    password=head.get("password"),
                ),
            )

        elif mtype == P.LOGIN_R:
            tag = payload["tag"]
            state = pending.pop(tag, None)
            if state is None:
                continue
            uid, taint, grant = payload.get("uid"), payload.get("taint"), payload.get("grant")
            if not payload.get("ok") or None in (uid, taint, grant):
                yield Send(state.conn, P.request(P.WRITE, data=FORBIDDEN))
                yield Send(state.conn, P.request(P.CONTROL, op="close"))
                continue
            service = str((state.head or {}).get("service", ""))
            entry = expected.get(service)
            wport = workers.get(service)
            if entry is None:
                # Unknown service: a real 404.
                yield Send(state.conn, P.request(P.WRITE, data={"status": 404}))
                yield Send(state.conn, P.request(P.CONTROL, op="close"))
                continue
            if wport is None or service in failed:
                # Known service, worker down (restarting) or failed for
                # good: degrade gracefully with a 503 + retry hint rather
                # than hanging the connection on a dead base port.
                ctx.count("degraded_503")
                yield Send(state.conn, P.request(P.WRITE, data=SERVICE_UNAVAILABLE))
                yield Send(state.conn, P.request(P.CONTROL, op="close"))
                continue
            _, declassifier = entry

            # Accept this user's taint ourselves (worker SESSION messages
            # and netd replies will carry uT 3 from now on).
            yield ChangeLabel(raise_receive={taint: L3})
            # Step 5: netd may now emit u's data, but only over uC.
            yield Send(
                netd_port,
                P.request("ADD_TAINT", conn=state.conn, taint=taint),
                ds=Label({taint: STAR}, L3),
            )

            connect = P.request(
                P.CONNECT,
                conn=state.conn,
                conn_id=state.conn_id,
                uid=uid,
                user=state.user,
                taint=taint,
                grant=grant,
                head=state.head,
            )
            session_port = sessions.get((uid, service))
            if session_port is not None:
                # Step 6, repeat visit: straight to the event process.
                ctx.count("session_reuse")
                yield Send(
                    session_port,
                    connect,
                    ds=Label({state.conn: STAR}, L3),
                    cs=Label({taint: L3}, STAR),
                )
            elif declassifier:
                # Section 7.6: grant uT ⋆ instead of contaminating.
                yield Send(
                    wport,
                    connect,
                    ds=Label(
                        {state.conn: STAR, taint: STAR, grant: STAR}, L3
                    ),
                    dr=Label({taint: L3}, STAR),
                )
            else:
                # Step 6, first contact: fork a new event process with the
                # taint, the grant handle, and a raised receive label.
                ctx.count("session_new")
                yield Send(
                    wport,
                    connect,
                    ds=Label({state.conn: STAR, grant: STAR}, L3),
                    cs=Label({taint: L3}, STAR),
                    dr=Label({taint: L3}, STAR),
                )
            # The connection capability now belongs to the event process;
            # release our copy (Section 9.3).
            yield ChangeLabel(drop_send=(state.conn,))
