"""idd: the identity server (paper Section 7.4).

idd associates persistent user identification data — username, user ID,
password — with the temporary per-user *grant* and *taint* handles
``uG``/``uT``.  Passwords live in a relational table reached through
ok-dbproxy's privileged admin interface, which other processes (such as
workers) cannot use.

On a successful LOGIN, idd either mints fresh ``uT``/``uG`` handles (first
login) or returns cached ones, granting both at ``⋆`` to the requester
(ok-demux).  When it mints handles it also grants them at ``⋆`` to
ok-dbproxy, which is privileged with respect to every user taint
(Section 7.5), along with the (user id → handles) binding dbproxy uses to
label rows.  The cache is never cleaned, exactly as in the prototype — so
idd's send label accumulates two ``⋆`` handles per user, one of the label
growth terms measured in Figure 9.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NAME, NONE, CallTimeout, Channel, Request, announce, open_port
from repro.kernel.syscalls import NewHandle, Recv, Send

#: Cycles of idd application logic per login (parsing, cache handling).
LOGIN_CYCLES = 45_000
#: Cycles per binding affirmation.
AFFIRM_CYCLES = 4_000

#: Per-attempt deadline and extra attempts for the password lookup, in
#: cycles of simulated time.  All attempts together (2.1 G) stay under
#: ok-demux's PENDING_DEADLINE (5.6 G), so a lookup that lost one leg is
#: answered on a retry before ok-demux gives the connection up.
LOOKUP_TIMEOUT = 700_000_000
LOOKUP_RETRIES = 2

#: What idd understands, and what each request must carry.
SHAPES = {
    P.LOGIN: {"user": (NAME, NONE), "password": (NAME, NONE)},
    "AFFIRM": {"uid": HANDLE},
    "REBIND": {"dbproxy_admin_port": (HANDLE, NONE), "grant_port": (HANDLE, NONE)},
    # The launcher's admin grant: the DS label on delivery is the message.
    "GRANT": {},
}


def idd_body(ctx):
    """The idd process.  Env in: ``dbproxy_admin_port``,
    ``dbproxy_grant_port``.  Publishes ``idd_port``."""
    admin_port: Handle = ctx.env["dbproxy_admin_port"]
    # Every privileged consumer of user handles gets a BIND when handles
    # are minted: ok-dbproxy always, plus e.g. the shared cache (okc).
    grant_ports = list(ctx.env.get("grant_ports") or [ctx.env["dbproxy_grant_port"]])
    # Which entry is ok-dbproxy's (replaced wholesale on REBIND after a
    # supervised restart); by convention the first.
    dbproxy_grant: Handle = ctx.env.get("dbproxy_grant_port", grant_ports[0])
    service = yield from open_port()
    ctx.env["idd_port"] = service
    chan = yield from Channel.open()
    yield from announce(ctx, "idd", {"idd_port": service})

    # uid -> (uT, uG); never cleaned (Section 7.4).
    cache: Dict[int, Tuple[Handle, Handle]] = {}

    while True:
        req = Request((yield Recv(port=service)), SHAPES, ctx)
        payload, mtype = req.payload, req.type

        if mtype == P.LOGIN:
            ctx.compute(LOGIN_CYCLES)
            try:
                result = yield from chan.call(
                    admin_port,
                    P.request(
                        P.QUERY,
                        sql="SELECT uid FROM users WHERE name = ? AND password = ?",
                        params=(payload.get("user"), payload.get("password")),
                    ),
                    deadline=LOOKUP_TIMEOUT,
                    retries=LOOKUP_RETRIES,
                    backoff=1,
                )
            except CallTimeout:
                # ok-dbproxy is silent (dead, or being restarted).  Give
                # this login up without a reply — ok-demux's pending sweep
                # answers 503 — and keep serving, so the launcher's REBIND
                # is seen.  The lookup is a SELECT: replaying it is safe.
                ctx.count("lookup_timeouts")
                continue
            rows = result.payload.get("rows", [])
            if not rows:
                yield from req.answer(ok=False)
                continue
            uid = rows[0]["uid"]
            if uid in cache:
                taint, grant = cache[uid]
            else:
                taint = yield NewHandle()
                grant = yield NewHandle()
                cache[uid] = (taint, grant)
                # dbproxy (and any other registered privileged consumer,
                # such as the shared cache) becomes privileged for this
                # user's compartments.
                for grant_port in grant_ports:
                    yield Send(
                        grant_port,
                        P.request("BIND", uid=uid, taint=taint, grant=grant),
                        ds=Label({taint: STAR, grant: STAR}, L3),
                    )
            yield from req.answer(
                ok=True, uid=uid, taint=taint, grant=grant,
                ds=Label({taint: STAR, grant: STAR}, L3),
            )

        elif mtype == "AFFIRM":
            # dbproxy double-checks a claimed (user, uT, uG) binding before
            # accepting a write (Section 7.5).
            ctx.compute(AFFIRM_CYCLES)
            ok = cache.get(payload["uid"]) == (payload.get("taint"), payload.get("grant"))
            yield from req.answer(ok=ok)

        elif mtype == "REBIND":
            # The launcher restarted ok-dbproxy: learn its new admin port
            # (password checks) and replay every cached user binding to
            # the replacement's grant port.  idd minted the handles, so it
            # still holds uT/uG at ⋆ — no new grants are needed, and the
            # admin ⋆ from the boot-time GRANT keeps the admin port
            # reachable.
            new_admin = payload.get("dbproxy_admin_port")
            new_grant = payload.get("grant_port")
            if new_admin is not None:
                admin_port = new_admin
            if new_grant is not None:
                grant_ports = [p for p in grant_ports if p != dbproxy_grant]
                grant_ports.append(new_grant)
                dbproxy_grant = new_grant
                for uid in sorted(cache):
                    taint, grant = cache[uid]
                    yield Send(
                        new_grant,
                        P.request("BIND", uid=uid, taint=taint, grant=grant),
                        ds=Label({taint: STAR, grant: STAR}, L3),
                    )
            yield from req.answer(ok=True, users=len(cache))
