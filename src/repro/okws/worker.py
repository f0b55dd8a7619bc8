"""The event-process worker framework (paper Sections 7.2 and 7.3).

A worker is one process per site service.  Its base process registers with
ok-demux (proving its identity with the launcher-minted verification
handle) and enters the event-process realm; from then on every user
session lives in its own event process:

- the first CONNECT for a (user, service) pair creates a fresh EP, which
  allocates its session port ``uW``, registers it with ok-demux's session
  table, and serves the request;
- repeat connections are forwarded by ok-demux straight to ``uW``,
  resuming the same EP with its session state intact;
- before yielding, the EP stores its session data in the ``"session"``
  memory region and ``ep_clean``s everything else, so a cached session
  holds exactly one private page (Section 9.1).

The kernel, not this code, guarantees isolation: the EP's send label
carries ``uT 3`` and its receive label admits only ``uT``, so even a
*compromised* handler cannot move one user's data to another user — the
test suite includes workers that actively try.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import CallTimeout, Channel
from repro.kernel.memory import PAGE_SIZE
from repro.kernel.syscalls import (
    DissociatePort,
    EpCheckpoint,
    EpClean,
    EpExit,
    EpYield,
    NewPort,
    Send,
)

#: Modelled worker computation per request (parse, format response).
REQUEST_CYCLES = 260_000

#: Pages of scratch heap a request dirties (with the stack, exception
#: stack, message queue and globals pages this gives the paper's eight
#: pages per active session, Section 9.1).
SCRATCH_PAGES = 4

#: Per-attempt deadline on worker RPCs (launcher config, netd reads,
#: dbproxy/okc replies), in cycles of simulated time.  Deliberately
#: generous: the clock is global across all concurrent sessions, so this
#: is a wedge-breaker, not a latency bound.
RPC_TIMEOUT = 2_800_000_000  # ~1 s

#: Extra attempts after the first for each bounded RPC.
RPC_RETRIES = 2

#: Degraded response when the request body never arrived or the database
#: or cache is unreachable: the EP survives, the site stays up.
DEGRADED = {
    "status": 503,
    "headers": "HTTP/1.0 503 Service Unavailable",
    "body": "",
}


@dataclass
class WorkerRequest:
    """Everything a service handler sees for one request."""

    service: str
    uid: int
    user: str
    args: Dict[str, Any]
    body: Any
    session: Dict[str, Any]
    db: "DbClient"
    cache: Optional["CacheClient"] = None
    #: The user's taint/grant handle values (knowing them confers nothing).
    taint: Handle = 0
    grant: Handle = 0
    declassifier: bool = False


def _request(
    chan: Channel,
    port: Handle,
    payload: Dict[str, Any],
    error: str,
    **labels: Optional[Label],
) -> Generator:
    """One bounded, retried exchange for the two clients below; returns
    the reply payload.  A server ERROR_R, or silence through every
    attempt, is a :class:`DbError`."""
    try:
        msg = yield from chan.call(
            port, payload, deadline=RPC_TIMEOUT, retries=RPC_RETRIES, backoff=1,
            **labels,
        )
    except CallTimeout:
        raise DbError(f"{error}: timed out") from None
    if msg.payload.get("type") == P.ERROR_R:
        raise DbError(msg.payload.get("error", error))
    return msg.payload


class DbClient:
    """The worker-side interface to ok-dbproxy (Section 7.5).

    All methods are sub-generators (use with ``yield from``).  SELECT
    results arrive one contaminated ROW_R at a time; rows belonging to
    other users are silently dropped by the kernel before this client ever
    sees them, so the returned list is exactly what this user may read.

    Every request is bounded by :data:`RPC_TIMEOUT` and retried: an
    unreliable send must never wedge an event process for good.  SELECTs
    use a fresh ``req`` per attempt (late rows from an abandoned attempt
    must not double-count); writes keep one ``req`` across retries so
    ok-dbproxy can deduplicate a replayed write whose first reply was
    dropped rather than execute it twice.
    """

    def __init__(
        self,
        dbproxy_port: Handle,
        chan: Channel,
        uid: int,
        taint: Handle,
        grant: Handle,
    ):
        self._dbproxy = dbproxy_port
        self._chan = chan
        self._uid = uid
        self._taint = taint
        self._grant = grant

    def _grant_reply_port(self) -> Label:
        return Label({self._chan.port: STAR}, L3)

    def _query(self, sql: str, params: tuple) -> Dict[str, Any]:
        return P.request(P.QUERY, sql=sql, params=params, uid=self._uid)

    def select(self, sql: str, params: tuple = ()) -> Generator:
        """Run a SELECT; returns the list of visible rows."""
        for _ in range(1 + RPC_RETRIES):
            # Fresh req per attempt: rows of an abandoned attempt that
            # straggle in later must be discarded, not double-counted.
            req = yield from self._chan.call_nowait(
                self._dbproxy, self._query(sql, params), ds=self._grant_reply_port()
            )
            rows: List[Dict[str, Any]] = []
            while True:
                msg = yield from self._chan.await_reply(req, RPC_TIMEOUT)
                if msg is None:
                    break  # timed out mid-stream; retry from scratch
                mtype = msg.payload.get("type")
                if mtype == P.ROW_R:
                    rows.append(msg.payload["row"])
                elif mtype == P.DONE_R:
                    return rows
                elif mtype == P.ERROR_R:
                    raise DbError(msg.payload.get("error", "query failed"))
        raise DbError("query timed out")

    def write(self, sql: str, params: tuple = ()) -> Generator:
        """Run an INSERT/UPDATE/DELETE as this user.  The verification
        label {uT 3, uG 0, 2} proves the right to write for the user and
        the absence of foreign taint."""
        verify = Label({self._taint: L3, self._grant: L0}, L2)
        return (yield from self._write(sql, params, verify))

    def write_declassified(self, sql: str, params: tuple = ()) -> Generator:
        """Run a write with declassification privilege: V(uT) = ⋆ proves
        control of the user's compartment, and dbproxy stores/flags the
        rows as public (user ID 0) — Section 7.6."""
        verify = Label({self._taint: STAR}, L2)
        return (yield from self._write(sql, params, verify))

    def _write(self, sql: str, params: tuple, verify: Label) -> Generator:
        # One req across retries (Channel.call): ok-dbproxy deduplicates
        # replayed writes by (reply port, req), so a retry whose
        # predecessor actually executed (only its reply was dropped) does
        # not run twice.
        reply = yield from _request(
            self._chan,
            self._dbproxy,
            self._query(sql, params),
            "write failed",
            v=verify,
            ds=self._grant_reply_port(),
        )
        return reply.get("rows_affected", 0)


class DbError(Exception):
    """A rejected or failed database request."""


class CacheClient:
    """The worker-side interface to okc, the shared cache (Section 7.3's
    production extension).  Same labeling discipline as the database:
    PUTs prove identity with the verification label; GET replies arrive
    contaminated with the owner's taint, so foreign entries are
    kernel-invisible."""

    def __init__(
        self,
        cache_port: Handle,
        chan: Channel,
        uid: int,
        taint: Handle,
        grant: Handle,
    ):
        self._cache = cache_port
        self._chan = chan
        self._uid = uid
        self._taint = taint
        self._grant = grant

    def _grant_reply_port(self) -> Label:
        return Label({self._chan.port: STAR}, L3)

    def put(self, key: str, value: Any) -> Generator:
        """Store *value* under this user.  Idempotent, so a retried PUT
        (same ``req``) replaying after a dropped reply is harmless."""
        verify = Label({self._taint: L3, self._grant: L0}, L2)
        return (yield from self._put(key, value, verify))

    def put_public(self, key: str, value: Any) -> Generator:
        """Declassify *value* into the public cache (requires uT ⋆ — a
        declassifier worker)."""
        return (yield from self._put(key, value, Label({self._taint: STAR}, L2)))

    def _put(self, key: str, value: Any, verify: Label) -> Generator:
        yield from _request(
            self._chan,
            self._cache,
            P.request("PUT", key=key, value=value, uid=self._uid),
            "cache put failed",
            v=verify,
            ds=self._grant_reply_port(),
        )
        return True

    def get(self, key: str, owner: Optional[int] = None) -> Generator:
        """Fetch (value, hit) for *key*; ``owner=0`` reads the public
        namespace, default is this user's own entries."""
        reply = yield from _request(
            self._chan,
            self._cache,
            P.request(
                "GET",
                key=key,
                uid=self._uid,
                owner=self._uid if owner is None else owner,
            ),
            "cache get failed",
            ds=self._grant_reply_port(),
        )
        return reply.get("value"), reply.get("hit", False)


#: A handler is a generator function: (ectx, WorkerRequest) -> response.
Handler = Callable[..., Generator]


def make_worker_body(service: str, handler: Handler, declassifier: bool = False):
    """Build the worker process body for *service*.

    *handler* is a generator function ``handler(ectx, request)`` returning
    the response payload; it may ``yield`` syscalls and ``yield from``
    :class:`DbClient` methods.
    """

    def worker_body(ctx):
        launcher_port = ctx.env["launcher_port"]
        chan = yield from Channel.open()
        # Say hello until the launcher's config arrives: either leg can be
        # dropped.  If it never does, exit — our obituary reaches the
        # launcher's supervision loop and we are restarted fresh.
        try:
            setup = yield from chan.call(
                launcher_port,
                P.request("WORKER_HELLO", service=service),
                deadline=RPC_TIMEOUT,
                retries=RPC_RETRIES,
                backoff=1,
            )
        except CallTimeout:
            ctx.log(f"worker {service!r} never configured; exiting for restart")
            return
        cfg = setup.payload
        verify_handle: Handle = cfg["verify_handle"]  # granted at ⋆ via DS
        demux_port: Handle = cfg["demux_port"]
        dbproxy_port: Handle = cfg["dbproxy_port"]
        cache_port: Optional[Handle] = cfg.get("cache_port")

        # Globals region: one page of mutable process-wide state whose
        # modification by a request dirties one COW page per active EP.
        ctx.mem.alloc(PAGE_SIZE, "globals")

        # The base port: demux sends first-contact CONNECTs here, forking a
        # new event process per session.  Identify ourselves with the
        # verification handle at level 0 (Section 7.1) and grant demux the
        # right to send to the base port.  Registration is acknowledged and
        # retried: an unacknowledged REGISTER lost to a drop would leave
        # ok-demux answering 503 for this service forever.
        base_port = yield NewPort()
        try:
            yield from chan.call(
                demux_port,
                P.request(P.REGISTER, service=service, port=base_port),
                v=Label({verify_handle: L0}, L3),
                ds=Label({base_port: STAR}, L3),
                deadline=RPC_TIMEOUT,
                retries=RPC_RETRIES,
                backoff=1,
            )
        except CallTimeout:
            ctx.log(f"worker {service!r} REGISTER never acknowledged; exiting")
            return
        # The config channel is done.  Dissociate it: after EpCheckpoint a
        # message to any base-owned port forks a fresh event process, so a
        # straggling duplicate on this port would fork a bogus EP whose
        # crash would kill the whole worker.
        yield DissociatePort(chan.port)

        def event_body(ectx, first_msg):
            payload = first_msg.payload
            if not isinstance(payload, dict) or "conn" not in payload:
                # A stray message (a straggling reply outliving its EP,
                # say) forked a bogus event process: free it quietly
                # instead of crashing — one crash kills the whole worker.
                ectx.count("stray_forks")
                yield EpExit()
                return
            uid = payload["uid"]
            user = payload["user"]
            taint = payload["taint"]
            grant = payload["grant"]
            # The session port uW: ok-demux gets it (and the right to send
            # to it) for its session table; netd is granted per-read below.
            session_port = yield NewPort()
            # The EP's reply port stays closed (pR = {p 0, 3}): netd and
            # dbproxy are granted send capability per request via DS —
            # exactly the per-connection capability churn whose label cost
            # Figure 9 measures.
            ep_chan = Channel((yield NewPort()))
            yield Send(
                demux_port,
                P.request(
                    "SESSION", service=service, uid=uid, port=session_port
                ),
                ds=Label({session_port: STAR}, L3),
            )
            db = DbClient(dbproxy_port, ep_chan, uid, taint, grant)
            cache = (
                CacheClient(cache_port, ep_chan, uid, taint, grant)
                if cache_port is not None
                else None
            )
            if not ectx.mem.has("session"):
                ectx.mem.store("session", {})

            msg = first_msg
            while True:
                if not isinstance(msg.payload, dict) or "conn" not in msg.payload:
                    # Resumed by a stray late reply, not a CONNECT: wait
                    # for a real one.
                    ectx.count("stray_resumes")
                    msg = yield EpYield()
                    continue
                conn = msg.payload["conn"]
                head = msg.payload.get("head", {})
                # Read the request body from netd over uC, granting netd
                # the right to reply on our channel (step 8 of Figure 5).
                # Bounded and retried: a dropped READ (or READ_R) must not
                # wedge the session forever.
                try:
                    body_msg = yield from ep_chan.call(
                        conn,
                        P.request(P.READ),
                        ds=Label({ep_chan.port: STAR}, L3),
                        deadline=RPC_TIMEOUT,
                        retries=RPC_RETRIES,
                        backoff=1,
                    )
                except CallTimeout:
                    # The connection is unreachable; degrade and move on.
                    ectx.count("read_abandoned")
                    yield Send(conn, P.request(P.WRITE, data=dict(DEGRADED)))
                    if not ectx.env.get("okws_no_clean"):
                        yield EpClean(keep=("session",))
                    msg = yield EpYield()
                    continue
                body = body_msg.payload.get("data")

                # Scratch memory dirtied by request processing.
                if not ectx.mem.has("heap"):
                    ectx.mem.alloc(SCRATCH_PAGES * PAGE_SIZE, "heap")
                ectx.mem.write(ectx.mem.region("heap").start, b"scratch")
                globals_region = ectx.mem.region("globals")
                ectx.mem.write(globals_region.start, b"g")

                session: Dict[str, Any] = ectx.mem.load("session")
                request = WorkerRequest(
                    service=service,
                    uid=uid,
                    user=user,
                    args=head.get("args", {}),
                    body=body,
                    session=session,
                    db=db,
                    cache=cache,
                    taint=taint,
                    grant=grant,
                    declassifier=declassifier,
                )
                ectx.compute(REQUEST_CYCLES)
                ectx.count("requests")
                try:
                    response = yield from handler(ectx, request)
                except DbError as err:
                    # Database/cache unreachable: answer degraded instead
                    # of crashing the EP (and with it the whole worker).
                    ectx.count("degraded")
                    response = dict(DEGRADED, error=str(err))
                ectx.mem.store("session", session)

                yield Send(conn, P.request(P.WRITE, data=response))
                # Keep only the session page across the yield (Section 7.3).
                if not ectx.env.get("okws_no_clean"):
                    yield EpClean(keep=("session",))
                msg = yield EpYield()

        yield EpCheckpoint(event_body)

    worker_body.__name__ = f"worker_{service}"
    return worker_body
