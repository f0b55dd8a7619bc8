"""The OKWS launcher (paper Section 7.1) and the experiment-facing site
handle.

The launcher process spawns ok-demux, the site's workers, idd and
ok-dbproxy (netd is spawned by the harness since it predates OKWS on a
real system).  It mints one *verification handle* per worker so ok-demux
can be certain which process it is talking to without trusting workers to
identify themselves, and an *admin handle* gating ok-dbproxy's raw SQL
interface, which it grants only to idd and itself.

:func:`launch` wraps the whole construction and returns an
:class:`OkwsSite`: the harness-side object experiments use to look up
ports, the wire, and the kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NAME, CallTimeout, Channel, Request, open_port
from repro.kernel.clock import NETWORK, OKDB, OKWS
from repro.kernel.kernel import Kernel
from repro.kernel.errors import ResourceExhausted
from repro.kernel.syscalls import Deadline, NewHandle, Recv, Send, Spawn
from repro.okws.demux import demux_body
from repro.okws.worker import RPC_RETRIES, make_worker_body
from repro.servers.cache import cache_body
from repro.servers.dbproxy import dbproxy_body
from repro.servers.idd import idd_body
from repro.servers.netd import Wire, netd_body


# -- supervision policy (all times in cycles of simulated 2.8 GHz time) ----

#: How long the launcher waits for a spawned worker's WORKER_HELLO before
#: treating the start as failed (generous: covers a full scheduler round
#: under heavy load).
WORKER_HELLO_TIMEOUT = 2_800_000_000  # 1 s

#: Base restart backoff; doubles per restart of the same service.
RESTART_BACKOFF_BASE = 50_000_000  # ~18 ms

#: Maximum restarts per service per boot — after this the service is
#: marked failed and ok-demux degrades it permanently (503).
RESTART_BUDGET = 5

#: Restart-storm detection: more than STORM_THRESHOLD restarts of one
#: service inside STORM_WINDOW marks it failed immediately (a worker that
#: crashes on arrival would otherwise burn the whole budget in a hot loop).
STORM_WINDOW = 1_000_000_000  # ~0.36 s
STORM_THRESHOLD = 3

#: What the launcher's main port understands once the site is up, and
#: what each message must carry.
SHAPES = {
    "EXITED": {"name": NAME},  # the kernel's obituary for a supervised child
    "WORKER_HELLO": {"service": NAME, "reply": HANDLE},
    "ANNOUNCE": {"who": NAME, "ports": dict},
}


@dataclass
class ServiceConfig:
    """One site service: a name, a handler generator function, and whether
    its worker runs as a declassifier (Section 7.6)."""

    name: str
    handler: Callable
    declassifier: bool = False
    #: Disable the ep_clean before yield (the worst-case "active session"
    #: variant of the Figure 6 memory experiment, Section 9.1).
    no_clean: bool = False


@dataclass
class OkwsSite:
    """Harness-side handle to a running OKWS instance."""

    kernel: Kernel
    wire: Wire
    netd_wire_port: Handle
    demux_port: Handle
    idd_port: Handle
    dbproxy_port: Handle
    dbproxy_admin_port: Handle
    services: Tuple[str, ...]
    launcher_env: Dict[str, Any]


def launcher_body(ctx):
    """The launcher process.  Env in: ``netd_port``, ``services`` (list of
    ServiceConfig), ``users`` (list of (name, password)), ``schema`` (list
    of CREATE TABLE statements for site tables)."""
    netd_port = ctx.env["netd_port"]
    services: Sequence[ServiceConfig] = ctx.env["services"]
    users: Sequence[Tuple[str, str]] = ctx.env.get("users", ())
    schema: Sequence[str] = ctx.env.get("schema", ())

    port = yield from open_port()
    chan = yield from Channel.open()

    # --- ok-dbproxy, gated by a fresh admin handle -------------------------------
    admin = yield NewHandle()
    yield Spawn(
        dbproxy_body,
        name="ok-dbproxy",
        component=OKDB,
        env={"admin_handle": admin, "announce_port": port},
        notify_exit=port,
    )
    announce = yield Recv(port=port)  # dbproxy's ANNOUNCE
    db_ports = announce.payload["ports"]
    dbproxy_port = db_ports["dbproxy_port"]
    dbproxy_admin = db_ports["dbproxy_admin_port"]
    dbproxy_grant = db_ports["dbproxy_grant_port"]

    def seed_site():
        """Seed the password table and site schema through the admin
        interface.  Skipped when dbproxy announced recovered state — a
        store-backed restart must not re-create tables it just replayed.

        Bounded and retried, raising :class:`CallTimeout` when ok-dbproxy
        stays silent.  The admin port does not deduplicate by ``req``: a
        replayed CREATE is refused (harmless) and a replayed BULK_INSERT
        duplicates ``users`` rows, which idd's lookup (``rows[0]``)
        tolerates."""
        rows = [
            {"uid": uid, "name": name, "password": password}
            for uid, (name, password) in enumerate(users, start=1)
        ]
        for request in (
            P.request(
                P.QUERY,
                sql="CREATE TABLE users (uid INTEGER, name TEXT, password TEXT)",
            ),
            *(P.request(P.QUERY, sql=statement) for statement in schema),
            P.request("BULK_INSERT", table="users", rows=rows),
        ):
            yield from chan.call(
                dbproxy_admin,
                request,
                deadline=WORKER_HELLO_TIMEOUT,
                retries=RPC_RETRIES,
                backoff=1,
            )

    if not announce.payload.get("recovered"):
        yield from seed_site()

    # --- okc, the shared worker cache (Section 7.3) --------------------------------
    yield Spawn(
        cache_body,
        name="okc",
        component=OKWS,
        env={"announce_port": port},
    )
    announce = yield Recv(port=port)
    cache_ports = announce.payload["ports"]
    cache_port = cache_ports["cache_port"]
    cache_grant = cache_ports["cache_grant_port"]

    # --- idd, granted the admin handle --------------------------------------------
    yield Spawn(
        idd_body,
        name="idd",
        component=OKWS,
        env={
            "dbproxy_admin_port": dbproxy_admin,
            "dbproxy_grant_port": dbproxy_grant,
            "grant_ports": [dbproxy_grant, cache_grant],
            "announce_port": port,
        },
    )
    announce = yield Recv(port=port)
    idd_port = announce.payload["ports"]["idd_port"]
    # Grant idd the right to use the raw SQL interface.  The payload is
    # ignored by idd; the DS label on delivery is the grant.
    yield Send(idd_port, P.request("GRANT"), ds=Label({admin: STAR}, L3))
    # Tell dbproxy where to affirm bindings.
    yield Send(dbproxy_grant, P.request("SET_IDD", port=idd_port))

    # --- ok-demux --------------------------------------------------------------------
    yield Spawn(
        demux_body,
        name="ok-demux",
        component=OKWS,
        env={"launcher_port": port, "netd_port": netd_port, "idd_port": idd_port},
    )
    announce = yield Recv(port=port)
    demux_port = announce.payload["port"]

    # --- workers, each with its own verification handle -------------------------------
    configs: Dict[str, ServiceConfig] = {config.name: config for config in services}
    # Obituaries that arrived while we were pumping for something else;
    # the supervision loop drains these before blocking again.
    pending_exits: deque = deque()

    def pump(wanted: Callable[[Request], bool]):
        """Wait on the main port for the request *wanted* accepts.  Any
        message that is not it (an obituary, a stale hello from a
        predecessor) must not be eaten blindly — under faults message
        order is not what boot-time code gets to assume: obituaries are
        kept for the supervision loop, the rest is skipped.  Returns
        ``None`` after WORKER_HELLO_TIMEOUT of silence."""
        while True:
            msg = yield Recv(port=port, timeout=WORKER_HELLO_TIMEOUT)
            if msg is None:
                return None
            req = Request(msg, SHAPES, ctx)
            if req.type == "EXITED":
                pending_exits.append(req)
            elif wanted(req):
                return req

    def start_worker(config: ServiceConfig):
        """Mint a verification handle, tell ok-demux to expect it, spawn
        the worker supervised (we get its obituary), configure it once it
        says hello.  Returns True on a configured start, False when the
        spawn failed or the worker never said hello in time (its obituary,
        if any, reaches the supervision loop)."""
        verify_handle = yield NewHandle()
        yield Send(
            demux_port,
            P.request(
                "EXPECT",
                service=config.name,
                verify_handle=verify_handle,
                declassifier=config.declassifier,
            ),
        )
        try:
            yield Spawn(
                make_worker_body(config.name, config.handler, config.declassifier),
                name=f"worker-{config.name}",
                component=OKWS,
                env={"launcher_port": port, "okws_no_clean": config.no_clean},
                notify_exit=port,
            )
        except ResourceExhausted:
            ctx.log(f"spawn of worker-{config.name} failed")
            return False
        hello = yield from pump(
            lambda r: r.type == "WORKER_HELLO" and r.payload["service"] == config.name
        )
        if hello is None:
            ctx.log(f"worker-{config.name} never said hello")
            return False
        # Hand the worker its configuration and the verification handle
        # itself, granted at ⋆ (it is the worker's identity compartment).
        # The reply echoes the hello's ``req``: a duplicate of it, left on
        # the worker's channel by a retried hello, must not pass for the
        # acknowledgement of the REGISTER that follows.
        yield from hello.answer(
            verify_handle=verify_handle,
            demux_port=demux_port,
            dbproxy_port=dbproxy_port,
            cache_port=cache_port,
            ds=Label({verify_handle: STAR}, L3),
        )
        return True

    for config in services:
        yield from start_worker(config)

    # Publish everything for the harness.
    ctx.env["demux_port"] = demux_port
    ctx.env["idd_port"] = idd_port
    ctx.env["dbproxy_port"] = dbproxy_port
    ctx.env["dbproxy_admin_port"] = dbproxy_admin
    ctx.env["cache_port"] = cache_port
    #: Timestamped restart record: {"service", "at" (cycles), "crashed"}.
    ctx.env["restarts"] = []
    ctx.env["failed_services"] = []
    #: Store-backed dbproxy recoveries performed by supervision.
    ctx.env["recoveries"] = 0
    ctx.env["ready"] = True

    # --- supervision (Section 7.1: "a more mature version of launcher
    # --- could restart dead processes") -----------------------------------------------
    # Per-service restart accounting: total count (budget), recent
    # timestamps (storm detection), failed flag (degraded for good).
    # ok-dbproxy is supervised under the same policy as the workers.
    restart_state: Dict[str, Dict[str, Any]] = {
        name: {"count": 0, "recent": [], "failed": False} for name in configs
    }
    restart_state["ok-dbproxy"] = {"count": 0, "recent": [], "failed": False}
    ctx.env["restart_state"] = restart_state

    def mark_failed(service: str) -> Any:
        restart_state[service]["failed"] = True
        ctx.env["failed_services"].append(service)
        ctx.log(f"service {service!r} marked failed; demux will degrade it")
        yield Send(demux_port, P.request("FAILED", service=service))

    def fail_dbproxy() -> Any:
        """dbproxy is unrestartable: without the database gateway every
        DB-backed service is dead, so degrade them all."""
        restart_state["ok-dbproxy"]["failed"] = True
        ctx.env["failed_services"].append("ok-dbproxy")
        ctx.log("ok-dbproxy marked failed; degrading all services")
        for service in configs:
            if not restart_state[service]["failed"]:
                yield from mark_failed(service)

    def restart_dbproxy() -> Any:
        """Respawn ok-dbproxy and restore worker-visible state.

        With a configured store the replacement recovers its tables from
        the write-ahead log before announcing (and we skip re-seeding);
        without one it comes back empty and is re-seeded — the no-store
        baseline loses user rows, which is exactly the gap the store
        closes.  Either way idd re-grants the user bindings (REBIND) and
        every worker is replaced so it learns the new ports.  Returns
        True on a configured restart."""
        nonlocal dbproxy_port, dbproxy_admin, dbproxy_grant
        try:
            yield Spawn(
                dbproxy_body,
                name="ok-dbproxy",
                component=OKDB,
                env={"admin_handle": admin, "announce_port": port},
                notify_exit=port,
            )
        except ResourceExhausted:
            ctx.log("respawn of ok-dbproxy failed")
            return False
        announce = yield from pump(
            lambda r: r.type == "ANNOUNCE" and r.payload["who"] == "ok-dbproxy"
        )
        if announce is None:
            ctx.log("restarted ok-dbproxy never announced")
            return False
        payload = announce.payload
        ports_out = payload["ports"]
        dbproxy_port = ports_out["dbproxy_port"]
        dbproxy_admin = ports_out["dbproxy_admin_port"]
        dbproxy_grant = ports_out["dbproxy_grant_port"]
        if payload.get("recovered"):
            ctx.env["recoveries"] += 1
        else:
            try:
                yield from seed_site()
            except CallTimeout:
                # The replacement went silent mid-seed; let the restart
                # budget, not a hang, decide what happens next.
                ctx.log("restarted ok-dbproxy never took its seed")
                return False
        # idd still holds every user's handles at ⋆ (and the admin grant
        # from boot): it re-grants the bindings at the new grant port and
        # re-learns the new admin port for password checks.
        yield Send(
            idd_port,
            P.request(
                "REBIND",
                dbproxy_admin_port=dbproxy_admin,
                grant_port=dbproxy_grant,
            ),
        )
        yield Send(dbproxy_grant, P.request("SET_IDD", port=idd_port))
        ctx.env["dbproxy_port"] = dbproxy_port
        ctx.env["dbproxy_admin_port"] = dbproxy_admin
        # Replace every live worker: the old ones hold the dead proxy's
        # ports (their writes 503-degrade) and retire when ok-demux's
        # EXPECT swaps in their successors.
        for config in services:
            if not restart_state[config.name]["failed"]:
                yield from start_worker(config)
        return True

    def supervise(service: str, now: int, attempt, give_up) -> Any:
        """The supervision policy, once, for ok-dbproxy and the workers:
        a restart storm or a spent budget gives the service up
        (*give_up*); otherwise back off exponentially, on simulated time,
        and run *attempt* until it reports a configured start."""
        state = restart_state[service]
        recent: List[int] = [t for t in state["recent"] if now - t < STORM_WINDOW]
        recent.append(now)
        state["recent"] = recent
        if len(recent) > STORM_THRESHOLD:
            ctx.log(f"restart storm for {service!r} ({len(recent)} in window)")
            yield from give_up()
            return
        while state["count"] < RESTART_BUDGET:
            state["count"] += 1
            yield Deadline(RESTART_BACKOFF_BASE * (2 ** (state["count"] - 1)))
            if (yield from attempt()):
                return
        yield from give_up()

    while True:
        if pending_exits:
            req = pending_exits.popleft()
        else:
            req = Request((yield Recv(port=port)), SHAPES, ctx)
        if req.type != "EXITED":
            continue
        payload = req.payload
        name = payload["name"]
        if name == "ok-dbproxy":
            service = name
        elif name.startswith("worker-") and name[len("worker-"):] in configs:
            service = name[len("worker-"):]
        else:
            continue
        if restart_state[service]["failed"]:
            continue
        now = ctx.now
        ctx.env["restarts"].append(
            {"service": service, "at": now, "crashed": bool(payload.get("crashed"))}
        )
        if name == "ok-dbproxy":
            yield from supervise(service, now, restart_dbproxy, fail_dbproxy)
            continue
        # While the replacement comes up, ok-demux answers 503 instead of
        # routing connections at a dead base port.
        yield Send(demux_port, P.request("DOWN", service=service))
        # A fresh verification handle each time: the dead worker's identity
        # (and any leak of it) dies with it; ok-demux's EXPECT is replaced.
        config = configs[service]
        yield from supervise(
            service, now, lambda: start_worker(config), lambda: mark_failed(service)
        )


def launch(
    kernel: Optional[Kernel] = None,
    services: Sequence[ServiceConfig] = (),
    users: Sequence[Tuple[str, str]] = (),
    schema: Sequence[str] = (),
    network: str = "classic",
) -> OkwsSite:
    """Boot the network stack and a full OKWS instance.

    ``network`` selects the stack: ``"classic"`` is the paper's monolithic
    netd (Section 7.7); ``"decomposed"`` is the Section 7.8 future-work
    design — a trusted front end over an untrusted event-process back end
    (see :mod:`repro.servers.netd2`).  Both speak the same protocols.
    """
    kernel = kernel if kernel is not None else Kernel()
    wire = Wire()
    if network == "classic":
        netd = kernel.spawn(netd_body, "netd", component=NETWORK, env={"wire": wire})
    elif network == "decomposed":
        from repro.servers.netd2 import netd2_front_body

        netd = kernel.spawn(
            netd2_front_body, "netd-front", component=NETWORK, env={"wire": wire}
        )
    else:
        raise ValueError(f"unknown network stack: {network!r}")
    kernel.run()
    netd_port = netd.env["netd_port"]

    launcher = kernel.spawn(
        launcher_body,
        "launcher",
        component=OKWS,
        env={
            "netd_port": netd_port,
            "services": list(services),
            "users": list(users),
            "schema": list(schema),
        },
    )
    kernel.run()
    if not launcher.env.get("ready"):
        raise RuntimeError("OKWS launch did not complete; check kernel drop log")
    return OkwsSite(
        kernel=kernel,
        wire=wire,
        netd_wire_port=netd.env["netd_wire_port"],
        demux_port=launcher.env["demux_port"],
        idd_port=launcher.env["idd_port"],
        dbproxy_port=launcher.env["dbproxy_port"],
        dbproxy_admin_port=launcher.env["dbproxy_admin_port"],
        services=tuple(s.name for s in services),
        launcher_env=launcher.env,
    )
