"""ok-dbproxy: the labeled database gateway (paper Sections 7.5 and 7.6).

ok-dbproxy interposes on all OKWS database access, converting Asbestos
labels and security policies to and from plain relational operations:

- every table created through it gets a hidden ``_user_id`` column that
  workers can neither read nor name in queries;
- a write (INSERT/UPDATE/DELETE) must arrive with a username ``u`` and a
  verification label bounded above by ``{uT 3, uG 0, 2}`` — proving the
  sender carries no foreign taint and was granted the right to write for
  ``u`` — and the claimed (u, uT, uG) binding is affirmed with idd; the
  query is then rewritten so every row it writes carries u's user ID;
- a write arriving with ``V(uT) = ⋆`` proves declassification privilege
  for u's compartment: the row is stored with user ID 0, i.e. *public*
  (decentralized declassification, Section 7.6);
- every SELECT returns each row as a separate message contaminated with
  the owning user's taint (``uT 3``); rows with user ID 0 are returned
  untainted; an untainted DONE message ends the result set.  Because a
  worker's receive label admits only its own user's taint, the kernel
  silently drops every other row — the worker cannot even tell how many
  rows were sent.

dbproxy is trusted and privileged: idd grants it every user taint handle
at ``⋆`` (via BIND), so receiving tainted queries never contaminates it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.db import sql as S
from repro.db.engine import Database
from repro.ipc import protocol as P
from repro.ipc.rpc import HANDLE, NAME, NONE, CallTimeout, Channel, Request, announce, open_port
from repro.kernel.errors import InvalidArgument
from repro.kernel.syscalls import ChangeLabel, Recv

#: Hidden ownership column added to every table (Section 7.5).
USER_ID_COLUMN = "_user_id"
#: ``_user_id`` value marking declassified (public) rows.
PUBLIC_USER_ID = 0

#: Cycles per row scanned by the engine (the OKDB line of Figure 9).
ROW_SCAN_CYCLES = 100
#: Fixed per-query engine cost (parse, plan, result assembly).
QUERY_BASE_CYCLES = 28_000

#: Per-attempt deadline (cycles of simulated time) on the idd AFFIRM
#: round trip, and retries after the first attempt.  Without this a
#: single dropped AFFIRM leg wedges dbproxy — and every worker behind it.
AFFIRM_TIMEOUT = 1_400_000_000
AFFIRM_RETRIES = 2

#: Completed writes remembered for replay dedup, keyed (reply port, req).
#: A retried write whose first reply was dropped must not execute twice.
WRITE_DEDUP_MAX = 4096

#: What ok-dbproxy understands on its three ports, and what each request
#: must carry.
SHAPES = {
    # grant port (idd, the launcher)
    "BIND": {"uid": HANDLE, "taint": HANDLE, "grant": HANDLE},
    "SET_IDD": {"port": HANDLE},
    # admin port
    "BULK_INSERT": {"table": (NAME, NONE), "rows": (list, tuple, NONE)},
    "CHECKPOINT": {},
    # admin and public ports
    P.QUERY: {
        "reply": HANDLE,
        "sql": NAME,
        "params": (list, tuple, NONE),
        "uid": (HANDLE, NONE),
        "req": (HANDLE, NONE),
    },
}


class WriteDedupCache:
    """A bounded LRU of completed writes (the replay-dedup map).

    Long chaos campaigns retry thousands of writes; an unbounded map
    grows with every distinct (reply port, req) pair for the life of the
    proxy.  Bounding it LRU-style keeps the common case — a retry
    arriving shortly after the original — a guaranteed hit, and evicts
    only the entries least likely to ever be replayed.  A hit refreshes
    the entry's recency (the client is evidently still retrying it)."""

    def __init__(self, capacity: int = WRITE_DEDUP_MAX):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.evictions = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any) -> Optional[Any]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def _classify(sql_text: str) -> S.Statement:
    return S.parse(sql_text)


def dbproxy_body(ctx):
    """The ok-dbproxy process.  Publishes three ports:

    - ``dbproxy_port`` — the policy-enforcing interface workers use;
    - ``dbproxy_admin_port`` — raw SQL for trusted components (idd, the
      launcher); its port label is ``{admin 0, 2}``, so only holders of
      the admin grant handle can send;
    - ``dbproxy_grant_port`` — where idd BINDs user handles.

    Env in: ``admin_handle`` (the launcher's admin grant handle).
    """
    admin_handle: Handle = ctx.env["admin_handle"]

    # Durable storage (DESIGN.md §14): with a configured store_path the
    # tables live in a write-ahead-logged LabeledStore, recovered here at
    # boot.  The import is lazy and the hooks are bound here so that the
    # default store_path=None run never touches repro.store at all — the
    # in-memory path stays bit-identical.
    store = None
    store_path = getattr(ctx.config, "store_path", None)
    recovered = False
    if store_path is not None:
        from repro.store.store import LabeledStore
        from repro.store.wal import RowTaint

        store = LabeledStore(
            store_path,
            io_hook=ctx.io_point,
            compute=ctx.compute,
            metrics=ctx.metrics_scope("kernel.store"),
        )
        db = store.db
        recovered = store.report.records > 0
        if recovered:
            ctx.log(
                f"recovered {store.report.committed_txs} tx(s), "
                f"discarded {store.report.discarded_txs}, "
                f"{store.report.torn_bytes} torn byte(s), "
                f"{len(store.report.violations)} label violation(s)"
            )
    else:
        db = Database()

    public_port = yield from open_port()
    admin_port = yield from open_port(Label({admin_handle: L0}, L2))
    grant_port = yield from open_port()
    ctx.env["dbproxy_port"] = public_port
    ctx.env["dbproxy_admin_port"] = admin_port
    ctx.env["dbproxy_grant_port"] = grant_port
    yield from announce(
        ctx,
        "ok-dbproxy",
        {
            "dbproxy_port": public_port,
            "dbproxy_admin_port": admin_port,
            "dbproxy_grant_port": grant_port,
        },
        # The launcher skips schema/user seeding when the store already
        # recovered state (a supervised restart).
        recovered=recovered,
        tables=sorted(db.tables),
    )

    chan = yield from Channel.open()
    idd_port: Optional[Handle] = None

    # uid <-> handles bindings, granted by idd.
    taint_of: Dict[int, Handle] = {}
    grant_of: Dict[int, Handle] = {}
    uid_of_taint: Dict[Handle, int] = {}

    # Replay dedup for retried writes: (reply port, req) -> (rows
    # affected, reply CS label).  Lets a client retry a write whose reply
    # was dropped without it executing twice.  LRU-bounded: chaos
    # campaigns must not grow it without limit.
    completed_writes = WriteDedupCache(WRITE_DEDUP_MAX)

    def charge(result) -> None:
        ctx.compute(QUERY_BASE_CYCLES + ROW_SCAN_CYCLES * result.rows_scanned)
        ctx.count("queries")

    while True:
        msg = yield Recv()
        req = Request(msg, SHAPES, ctx)
        payload, mtype, reply = req.payload, req.type, req.reply

        # ---- idd binds a user's handles (and made us privileged via DS) ----
        if msg.port == grant_port:
            if mtype == "BIND":
                uid, taint, grant = payload["uid"], payload["taint"], payload["grant"]
                try:
                    # Accept future queries tainted with this user's handle;
                    # the raise itself proves we actually hold uT ⋆ (the
                    # kernel rejects it otherwise).
                    yield ChangeLabel(raise_receive={taint: L3})
                except InvalidArgument:
                    continue  # not actually granted privilege; ignore
                taint_of[uid] = taint
                grant_of[uid] = grant
                uid_of_taint[taint] = uid
            elif mtype == "SET_IDD":
                idd_port = payload["port"]
            continue

        # ---- trusted raw interface ------------------------------------------------
        if msg.port == admin_port:
            if mtype == "BULK_INSERT":
                # Setup-time seeding (the launcher populating the user
                # table); rows land as public unless they carry an owner.
                table = db.tables.get(payload.get("table"))
                if table is not None:
                    fulls = []
                    for row in payload.get("rows") or ():
                        full = {name: None for name in table.column_names}
                        full.update(row)
                        full.setdefault(USER_ID_COLUMN, PUBLIC_USER_ID)
                        if full[USER_ID_COLUMN] is None:
                            full[USER_ID_COLUMN] = PUBLIC_USER_ID
                        fulls.append(full)
                    if store is not None:
                        # One durable transaction of fully-bound inserts.
                        store.bulk_insert(table.name, fulls, USER_ID_COLUMN)
                    else:
                        table.rows.extend(fulls)
                        table.invalidate_indexes()
                yield from req.answer(ok=True)
                continue
            if mtype == "CHECKPOINT":
                # Append a full-state snapshot to the log (admin-only, so
                # only the launcher and idd can force one).
                if store is not None:
                    store.checkpoint()
                yield from req.answer(ok=store is not None)
                continue
            if mtype != P.QUERY:
                continue
            try:
                ast = _classify(payload["sql"])
                if isinstance(ast, S.CreateTable):
                    # Every table gets the hidden ownership column.
                    ast = S.CreateTable(
                        ast.table, ast.columns + ((USER_ID_COLUMN, "INTEGER"),)
                    )
                elif isinstance(ast, S.Insert) and USER_ID_COLUMN not in ast.columns:
                    # Admin inserts default to public rows.
                    ast = S.Insert(
                        ast.table,
                        ast.columns + (USER_ID_COLUMN,),
                        ast.values + (PUBLIC_USER_ID,),
                    )
                params_in = tuple(payload.get("params") or ())
                if store is not None and isinstance(
                    ast, (S.CreateTable, S.Insert, S.Update, S.Delete)
                ):
                    # Admin writes are public and untainted; the logged
                    # statement carries its own _user_id values, so owner
                    # here is bookkeeping, not row data.
                    result = store.apply(ast, params_in, owner=PUBLIC_USER_ID)
                else:
                    result = db.run(ast, params_in)
            except S.SqlError as err:
                yield from req.error(str(err))
                continue
            charge(result)
            yield from req.answer(
                rows=[
                    {k: v for k, v in row.items() if k != USER_ID_COLUMN}
                    for row in result.rows
                ],
                rows_affected=result.rows_affected,
            )
            continue

        # ---- the policy-enforcing worker interface ---------------------------------
        if msg.port != public_port or mtype != P.QUERY:
            continue
        sql_text = payload["sql"]
        params = tuple(payload.get("params") or ())
        username_uid = payload.get("uid")
        verify: Label = msg.verify

        try:
            ast = _classify(sql_text)
        except S.SqlError as err:
            yield from req.error(str(err))
            continue

        if _mentions_user_column(ast):
            yield from req.error(f"{USER_ID_COLUMN} is private")
            continue

        if isinstance(ast, S.CreateTable):
            yield from req.error("schema changes are admin-only")
            continue

        if isinstance(ast, (S.Insert, S.Update, S.Delete)):
            seq = payload.get("req")
            cached = completed_writes.get((reply, seq)) if seq is not None else None
            if cached is not None:
                # A replayed write we already executed (only its reply was
                # lost): re-send the recorded reply, do not run it again.
                ctx.count("write_replays")
                rows_affected, cached_cs = cached
                yield from req.answer(rows_affected=rows_affected, cs=cached_cs)
                continue
            uid = username_uid
            taint = taint_of.get(uid)
            grant = grant_of.get(uid)
            if taint is None or grant is None:
                yield from req.error("unknown user")
                continue
            declassified = verify(taint) == STAR
            if not declassified:
                # V must be bounded above by {uT 3, uG 0, 2}: no foreign
                # taint, and the uG 0 entry proves the right to write as u.
                bound = Label({taint: L3, grant: L0}, L2)
                if not verify <= bound:
                    yield from req.error("verify label rejected")
                    continue
            # Affirm the binding with idd (Section 7.5) — bounded: a
            # dropped AFFIRM leg must fail this write, not wedge dbproxy
            # (and every worker queued behind it) forever.
            if idd_port is not None:
                try:
                    affirmation = yield from chan.call(
                        idd_port,
                        P.request("AFFIRM", uid=uid, taint=taint, grant=grant),
                        deadline=AFFIRM_TIMEOUT,
                        retries=AFFIRM_RETRIES,
                    )
                except CallTimeout:
                    yield from req.error("idd unavailable")
                    continue
                if not affirmation.payload.get("ok"):
                    yield from req.error("binding rejected")
                    continue
            owner = PUBLIC_USER_ID if declassified else uid
            try:
                rewritten = _rewrite_write(ast, owner, uid, declassified)
                if store is None:
                    result = db.run(rewritten, params)
                else:
                    # Persist the security facts with the write: the
                    # user's taint compartment (for a declassified write,
                    # the compartment the ⋆ proof covered) and the
                    # contamination level its rows raise readers to.
                    result = store.apply(
                        rewritten,
                        params,
                        owner=owner,
                        taint=RowTaint(handles=(taint,), level=L3),
                        declass=declassified,
                    )
            except S.SqlError as err:
                yield from req.error(str(err))
                continue
            charge(result)
            out_cs = None if declassified else Label({taint: L3}, STAR)
            if seq is not None:
                completed_writes.put((reply, seq), (result.rows_affected, out_cs))
            yield from req.answer(rows_affected=result.rows_affected, cs=out_cs)
            continue

        # SELECT: per-row contamination (Section 7.5).
        select = ast
        columns = select.columns
        if columns != ("*",):
            columns = tuple(columns) + (USER_ID_COLUMN,)
        widened = S.Select(select.table, columns, select.where)
        try:
            result = db.run(widened, params)
        except S.SqlError as err:
            yield from req.error(str(err))
            continue
        charge(result)
        for row in result.rows:
            owner = row.get(USER_ID_COLUMN, PUBLIC_USER_ID)
            visible = {k: v for k, v in row.items() if k != USER_ID_COLUMN}
            if owner == PUBLIC_USER_ID:
                yield from req.answer(P.ROW_R, row=visible)
                continue
            taint = taint_of.get(owner)
            if taint is None:
                # A row whose owner has no bound compartment this boot
                # (e.g. restored from disk before that user's first
                # login).  A row we cannot label is a row we must not
                # send: skip it.  The binding appears at the owner's next
                # login and the row becomes visible to them again.
                continue
            yield from req.answer(P.ROW_R, row=visible, cs=Label({taint: L3}, STAR))
        yield from req.answer(P.DONE_R)


def _mentions_user_column(ast: S.Statement) -> bool:
    if isinstance(ast, S.CreateTable):
        return any(name == USER_ID_COLUMN for name, _ in ast.columns)
    if isinstance(ast, S.Insert):
        return USER_ID_COLUMN in ast.columns
    if isinstance(ast, S.Select):
        return USER_ID_COLUMN in ast.columns or any(
            c.column == USER_ID_COLUMN for c in ast.where
        )
    if isinstance(ast, S.Update):
        return any(col == USER_ID_COLUMN for col, _ in ast.assignments) or any(
            c.column == USER_ID_COLUMN for c in ast.where
        )
    if isinstance(ast, S.Delete):
        return any(c.column == USER_ID_COLUMN for c in ast.where)
    return False


def _rewrite_write(ast: S.Statement, owner: int, uid: int, declassified: bool) -> S.Statement:
    """Scope a write to the user's rows and stamp ownership.

    INSERTs get ``_user_id = owner`` (0 for declassified rows).  UPDATEs
    and DELETEs additionally match only rows the user already owns — a
    declassifier may also touch the user's private rows (it holds uT ⋆),
    which is how data moves from private to public (Section 7.6 flags
    declassified rows by zeroing their user ID).
    """
    if isinstance(ast, S.Insert):
        return S.Insert(
            ast.table,
            ast.columns + (USER_ID_COLUMN,),
            ast.values + (owner,),
        )
    scope = (S.Condition(USER_ID_COLUMN, uid if not declassified else uid),)
    if isinstance(ast, S.Update):
        assignments = ast.assignments
        if declassified:
            # Rewriting the ownership column to 0 *is* the declassification.
            assignments = assignments + ((USER_ID_COLUMN, PUBLIC_USER_ID),)
        return S.Update(ast.table, assignments, ast.where + scope)
    if isinstance(ast, S.Delete):
        return S.Delete(ast.table, ast.where + scope)
    raise S.SqlError(f"not a write: {ast!r}")
