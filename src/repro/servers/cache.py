"""okc: a cache shared by all workers that still isolates users.

Paper Section 7.3: "A production system would additionally have a cache
shared by all workers, and Asbestos could without much trouble support a
shared cache that isolated users."  This is that cache.

Design, mirroring ok-dbproxy's labeling (Section 7.5):

- okc is trusted and privileged: idd grants it every user's taint handle
  at ``⋆`` (the same BIND fan-out that privileges ok-dbproxy), so tainted
  PUT/GET requests never contaminate it;
- a PUT must prove identity with a verification label bounded above by
  ``{uT 3, uG 0, 2}`` — entries are stored under the *proven* user, not a
  claimed one;
- a GET's reply is contaminated with the owning user's taint, so only
  that user's workers can receive it — a compromised worker asking for
  another user's entry gets silence;
- a PUT with ``V(uT) = ⋆`` (a declassifier) stores a *public* entry that
  anyone may read untainted.

Because the cache is one process shared by every service's workers, a
user's cached state survives worker restarts and is visible across
services — exactly what per-worker event-process caches cannot give.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.ipc.rpc import HANDLE, KEY, NONE, Request, announce, open_port
from repro.kernel.errors import InvalidArgument
from repro.kernel.syscalls import ChangeLabel, Recv

#: Cycles per cache operation (hash + copy).
CACHE_OP_CYCLES = 12_000

#: The public pseudo-owner (like dbproxy's user ID 0).
PUBLIC = 0

#: What okc understands, and what each request must carry.
SHAPES = {
    "BIND": {"uid": HANDLE, "taint": HANDLE, "grant": HANDLE},
    "PUT": {"uid": (HANDLE, NONE), "key": (KEY, NONE)},
    "GET": {"uid": (HANDLE, NONE), "key": (KEY, NONE), "owner": (HANDLE, NONE)},
}


def cache_body(ctx):
    """The okc process.  Publishes ``cache_port`` and ``cache_grant_port``
    (where idd BINDs user handles); announces both if asked."""
    service = yield from open_port()
    grant_port = yield from open_port()
    ctx.env["cache_port"] = service
    ctx.env["cache_grant_port"] = grant_port
    yield from announce(ctx, "okc", {"cache_port": service, "cache_grant_port": grant_port})

    taint_of: Dict[int, Handle] = {}
    grant_of: Dict[int, Handle] = {}
    # (owner uid, key) -> value; owner PUBLIC for declassified entries.
    store: Dict[Tuple[int, str], Any] = {}

    while True:
        msg = yield Recv()
        req = Request(msg, SHAPES, ctx)
        payload, mtype = req.payload, req.type

        if msg.port == grant_port:
            if mtype == "BIND":
                uid, taint, grant = payload["uid"], payload["taint"], payload["grant"]
                try:
                    yield ChangeLabel(raise_receive={taint: L3})
                except InvalidArgument:
                    continue  # no ⋆ actually granted; ignore
                taint_of[uid] = taint
                grant_of[uid] = grant
            continue

        if msg.port != service or req.reply is None:
            continue
        ctx.compute(CACHE_OP_CYCLES)
        uid = payload.get("uid")
        key = payload.get("key")
        taint = taint_of.get(uid)
        grant = grant_of.get(uid)

        if mtype == "PUT":
            if taint is None or grant is None:
                yield from req.error("unknown user")
                continue
            if msg.verify(taint) == STAR:
                # Declassification privilege: a public entry.
                store[(PUBLIC, key)] = payload.get("value")
                yield from req.answer(ok=True, public=True)
                continue
            bound = Label({taint: L3, grant: L0}, L2)
            if not msg.verify <= bound:
                yield from req.error("verify label rejected")
                continue
            store[(uid, key)] = payload.get("value")
            yield from req.answer(ok=True, public=False, cs=Label({taint: L3}, STAR))

        elif mtype == "GET":
            owner = payload.get("owner", uid)
            if owner == PUBLIC:
                ctx.count("hits" if (PUBLIC, key) in store else "misses")
                yield from req.answer(
                    value=store.get((PUBLIC, key)), hit=(PUBLIC, key) in store
                )
                continue
            owner_taint = taint_of.get(owner)
            if owner_taint is None:
                yield from req.error("unknown owner")
                continue
            # The reply carries the *owner's* taint: if the asker may not
            # be contaminated with it, the kernel drops the reply and the
            # asker learns nothing — not even whether the entry exists.
            ctx.count("hits" if (owner, key) in store else "misses")
            yield from req.answer(
                value=store.get((owner, key)),
                hit=(owner, key) in store,
                cs=Label({owner_taint: L3}, STAR),
            )
