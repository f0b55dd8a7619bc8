"""The labeled store: a :class:`~repro.db.engine.Database` backed by a
``wal/v1`` write-ahead log.

ok-dbproxy owns all persistent user data in the OKWS port (paper Section
7); when :class:`~repro.kernel.config.KernelConfig` carries a
``store_path`` the proxy routes every write through a
:class:`LabeledStore` instead of mutating its in-memory tables directly.
The store appends ``begin``/``write``/``commit`` records *after* the
engine has validated and applied the statement — a statement the engine
rejects never reaches the log, so an uncommitted transaction in the log
can only mean one thing: the process crashed between ``begin`` and
``commit``.

Recovery (:func:`replay_image`) replays the log against an empty engine:

1. the torn tail — any prefix of the final record a crash left behind —
   is identified by :func:`repro.store.wal.scan` and discarded;
2. ``checkpoint`` records reset the replayed state to their snapshot;
3. ``write`` records of *committed* transactions are re-executed in log
   order; writes of uncommitted transactions are discarded;
4. every resurrected write is label-checked against the security facts
   persisted with it (owner, taint-handle set, declassification proof).
   A write that claims public ownership while carrying taint it never
   declassified is an IFC violation: applying it would resurrect rows
   with *weaker* taint than they were written with.  Strict recovery
   (the default) repairs by skipping the write and recording the
   violation in the :class:`RecoveryReport`.

``label_check=False`` selects the deliberately *broken* recovery — a
naive redo that trusts the log and applies every scanned write,
committed or not, unchecked.  It exists only as a target for
``repro crashcheck`` (and its CI job), which must be able to catch a
recovery that skips the label check.

Crash injection hooks in at the single choke point all log bytes pass
through: :meth:`LabeledStore._append` consults an ``io_hook`` before
each append.  When the hook fires (a ``crash_at_io`` fault rule), the
store writes only the first ``torn_bytes`` of the record, snapshots the
whole file image to ``<path>.crash`` — preserving the exact bytes a real
power failure would leave, before any later recovery truncates them —
and raises :class:`StoreCrash` to kill the owning process.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.db import sql as S
from repro.db.engine import Database, Result, Table
from repro.store import wal
from repro.store.wal import RowTaint

#: Owner ID of public (declassified or administrative) rows; matches
#: ``repro.servers.dbproxy.PUBLIC_USER_ID`` (kept literal here so the
#: store never imports the server).
PUBLIC_OWNER = 0

#: Cycle billing for one log append (base + per-byte), charged through
#: the owning process's ``compute`` hook so fig9's durability-overhead
#: series has a simulated cost, not just a wall-clock one.
APPEND_BASE_CYCLES = 12_000
APPEND_BYTE_CYCLES = 30


class StoreCrash(RuntimeError):
    """An injected crash at a log-append boundary (``crash_at_io``)."""


@dataclass(frozen=True)
class LabelViolation:
    """One write record that failed the recovery label check."""

    tx: int
    table: str
    reason: str

    def to_json(self) -> Dict[str, Any]:
        return {"tx": self.tx, "table": self.table, "reason": self.reason}


@dataclass
class RecoveryReport:
    """What one recovery pass saw and did."""

    records: int = 0
    clean_bytes: int = 0
    torn_bytes: int = 0
    committed_txs: int = 0
    discarded_txs: int = 0
    applied_writes: int = 0
    skipped_writes: int = 0
    checkpoints_used: int = 0
    label_check: bool = True
    violations: List[LabelViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.torn_bytes == 0 and not self.violations and self.discarded_txs == 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "records": self.records,
            "clean_bytes": self.clean_bytes,
            "torn_bytes": self.torn_bytes,
            "committed_txs": self.committed_txs,
            "discarded_txs": self.discarded_txs,
            "applied_writes": self.applied_writes,
            "skipped_writes": self.skipped_writes,
            "checkpoints_used": self.checkpoints_used,
            "label_check": self.label_check,
            "violations": [v.to_json() for v in self.violations],
        }


def policy_problem(payload: Dict[str, Any]) -> Optional[str]:
    """The recovery label check for one ``write`` record.

    Returns a reason string when applying the record would resurrect
    rows with weaker taint than the security facts persisted with the
    write justify, else ``None``.  The rules mirror what ok-dbproxy
    enforced when it first executed the statement:

    - a public-owner write either carries no taint (administrative) or
      proves declassification (``declass`` — the writer held ``V(uT)=⋆``);
    - a declassified write must name the compartment it declassified;
    - a private-owner write must carry its compartment's taint — a
      private row with no persisted taint would recover unreadable or,
      worse, be re-published by a later repair.
    """
    owner = payload["owner"]
    taint = payload["taint"]
    declass = payload["declass"]
    if declass:
        if taint is None:
            return "declassified write names no taint compartment"
        if owner != PUBLIC_OWNER:
            return "declassified write retains a private owner"
        return None
    if owner == PUBLIC_OWNER:
        if taint is not None:
            return (
                "tainted write stored with public owner but no "
                "declassification proof"
            )
        return None
    if taint is None:
        return "private write persisted without its taint compartment"
    return None


@dataclass
class ReplayState:
    """The outcome of :func:`replay_image`: a rebuilt engine, the
    per-owner taint metadata, and the recovery report."""

    db: Database
    taints: Dict[int, RowTaint]
    report: RecoveryReport
    next_tx: int


def replay_image(data: bytes, label_check: bool = True) -> ReplayState:
    """Rebuild store state from a log image (the recovery protocol).

    Pure — no file I/O — so the offline crash-consistency checker can
    run the *same* recovery code against thousands of crash-point
    prefixes that :class:`LabeledStore` runs at open."""
    scanned = wal.scan(data)
    report = RecoveryReport(
        records=len(scanned.records),
        clean_bytes=scanned.clean_bytes,
        torn_bytes=scanned.torn_bytes,
        label_check=label_check,
    )
    committed = {r.tx for r in scanned.records if r.type == "commit"}
    begun = {r.tx for r in scanned.records if r.type == "begin"}
    report.committed_txs = len(committed)
    report.discarded_txs = len(begun - committed)
    db = Database()
    taints: Dict[int, RowTaint] = {}
    max_tx = 0
    for record in scanned.records:
        tx = record.tx
        if tx is not None:
            max_tx = max(max_tx, tx)
        if record.type == "checkpoint":
            db, taints = _load_checkpoint(record.payload)
            report.checkpoints_used += 1
            continue
        if record.type != "write":
            continue
        payload = record.payload
        problem = policy_problem(payload)
        if label_check:
            if tx not in committed:
                report.skipped_writes += 1
                continue
            if problem is not None:
                # Repair: refuse to resurrect the row, keep the evidence.
                report.violations.append(
                    LabelViolation(
                        tx=tx or 0,
                        table=payload["stmt"].get("table", "?"),
                        reason=problem,
                    )
                )
                report.skipped_writes += 1
                continue
        # label_check=False is the deliberately broken naive redo: apply
        # every scanned write, committed or not, policy or no policy.
        ast = wal.stmt_from_json(payload["stmt"])
        try:
            db.run(ast, tuple(payload["params"]))
        except S.SqlError:
            # A write the engine now rejects (e.g. an uncommitted
            # CREATE applied twice under naive redo) cannot be redone.
            report.skipped_writes += 1
            continue
        report.applied_writes += 1
        taint = RowTaint.from_json(payload["taint"])
        owner = payload["owner"]
        if taint is not None and owner != PUBLIC_OWNER:
            taints[owner] = taint
    return ReplayState(db=db, taints=taints, report=report, next_tx=max_tx + 1)


def _load_checkpoint(payload: Dict[str, Any]) -> Tuple[Database, Dict[int, RowTaint]]:
    if payload.get("schema") != wal.SCHEMA:
        raise wal.WalError(
            f"checkpoint schema {payload.get('schema')!r} is not {wal.SCHEMA!r}"
        )
    db = Database()
    for name in sorted(payload["tables"]):
        doc = payload["tables"][name]
        columns = tuple((n, t) for n, t in doc["columns"])
        db.tables[name] = Table(name, columns, [dict(row) for row in doc["rows"]])
    taints: Dict[int, RowTaint] = {}
    for uid, doc in payload["taints"].items():
        taint = RowTaint.from_json(doc)
        if taint is not None:
            taints[int(uid)] = taint
    return db, taints


class LabeledStore:
    """A write-ahead-logged :class:`~repro.db.engine.Database`.

    Reads go straight to :attr:`db` (SELECT is never logged); writes go
    through :meth:`apply`/:meth:`bulk_insert`, which run the engine
    first and then make the transaction durable.  Opening a path with an
    existing log recovers it (torn tail truncated, committed
    transactions replayed, every write label-checked) and leaves the
    report in :attr:`report`.

    Hooks — all optional, all owned by the embedding process:

    - ``io_hook(nbytes) -> Optional[int]``: consulted before each
      append; a non-``None`` return is an injected crash leaving that
      many torn bytes (``repro.faults`` ``crash_at_io``);
    - ``compute(cycles)``: cycle billing for log I/O;
    - ``metrics``: a :class:`~repro.obs.metrics.MetricsRegistry` scope
      (e.g. ``kernel.store``) for the counters below.
    """

    def __init__(
        self,
        path: str,
        io_hook: Optional[Callable[[int], Optional[int]]] = None,
        compute: Optional[Callable[[int], None]] = None,
        metrics: Any = None,
        label_check: bool = True,
    ) -> None:
        self.path = path
        self._io_hook = io_hook
        self._compute = compute
        self._metrics = metrics
        existed = os.path.exists(path)
        data = b""
        if existed:
            with open(path, "rb") as handle:
                data = handle.read()
        state = replay_image(data, label_check=label_check)
        self.db = state.db
        self.taints = state.taints
        self.report = state.report
        self._next_tx = state.next_tx
        if self.report.torn_bytes:
            # Truncate the torn tail so new appends frame contiguously
            # with the durable prefix.
            with open(path, "r+b") as handle:
                handle.truncate(self.report.clean_bytes)
        self._fh = open(path, "ab")
        if self._metrics is not None and existed:
            self._metrics.counter("recoveries").inc()
            self._metrics.counter("recovered_txs").inc(self.report.committed_txs)
            self._metrics.counter("discarded_txs").inc(self.report.discarded_txs)
            if self.report.violations:
                self._metrics.counter("label_violations").inc(
                    len(self.report.violations)
                )

    # -- write path ----------------------------------------------------------------

    def apply(
        self,
        ast: S.Statement,
        params: Tuple[Any, ...] = (),
        owner: int = PUBLIC_OWNER,
        taint: Optional[RowTaint] = None,
        declass: bool = False,
    ) -> Result:
        """Execute one write statement and make it durable as a
        single-statement transaction.  The engine runs first: a rejected
        statement (``SqlError``) leaves no trace in the log."""
        result = self.db.run(ast, params)
        tx = self._next_tx
        self._next_tx += 1
        self._append(wal.frame(wal.begin_record(tx)))
        self._append(
            wal.frame(wal.write_record(tx, ast, tuple(params), owner, taint, declass))
        )
        self._append(wal.frame(wal.commit_record(tx)))
        self._note_commit(owner, taint)
        return result

    def bulk_insert(
        self, table: str, rows: List[Dict[str, Any]], owner_column: str = "_user_id"
    ) -> int:
        """Insert pre-built rows as one transaction of fully-bound
        ``write`` records (the ok-dbproxy ``BULK_INSERT`` path)."""
        tbl = self.db.tables.get(table)
        if tbl is None:
            raise S.SqlError(f"no such table: {table!r}")
        columns = tbl.column_names
        asts = []
        for row in rows:
            asts.append(
                S.Insert(
                    table,
                    columns,
                    tuple(row.get(column) for column in columns),
                )
            )
        for ast in asts:  # engine first: validate the whole batch
            self.db.run(ast)
        tx = self._next_tx
        self._next_tx += 1
        self._append(wal.frame(wal.begin_record(tx)))
        for ast, row in zip(asts, rows):
            owner = row.get(owner_column, PUBLIC_OWNER) or PUBLIC_OWNER
            self._append(
                wal.frame(wal.write_record(tx, ast, (), owner, None, False))
            )
        self._append(wal.frame(wal.commit_record(tx)))
        self._count("commits")
        return len(rows)

    def checkpoint(self) -> None:
        """Append a full-state snapshot.  Append-only — the log is never
        rewritten, so a torn checkpoint tail degrades to replaying the
        records before it, never to losing them."""
        tables = {
            name: {
                "columns": [list(c) for c in tbl.columns],
                "rows": [dict(row) for row in tbl.rows],
            }
            for name, tbl in sorted(self.db.tables.items())
        }
        taints = {uid: t.to_json() for uid, t in sorted(self.taints.items())}
        self._append(wal.frame(wal.checkpoint_record(tables, taints)))
        self._count("checkpoints")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    # -- internals ------------------------------------------------------------------

    def _note_commit(self, owner: int, taint: Optional[RowTaint]) -> None:
        if taint is not None and owner != PUBLIC_OWNER:
            self.taints[owner] = taint
        self._count("commits")

    def _append(self, data: bytes) -> None:
        if self._compute is not None:
            self._compute(APPEND_BASE_CYCLES + APPEND_BYTE_CYCLES * len(data))
        if self._io_hook is not None:
            torn = self._io_hook(len(data))
            if torn is not None:
                torn = max(0, min(int(torn), len(data) - 1))
                if torn:
                    self._fh.write(data[:torn])
                self._fh.flush()
                self._crash_snapshot()
                self._fh.close()
                raise StoreCrash(
                    f"injected crash at log append ({torn}/{len(data)} bytes durable)"
                )
        self._fh.write(data)
        self._fh.flush()
        self._count("appends")
        self._count("bytes", len(data))

    def _crash_snapshot(self) -> None:
        """Freeze the exact post-crash file image beside the log.

        The supervised restart's recovery truncates the torn tail in
        place; without this snapshot the bytes the crash actually left
        would be unobservable, and ``crashcheck --replay`` could not
        prove byte-identity against its offline prefix."""
        os.fsync(self._fh.fileno())
        with open(self.path, "rb") as handle:
            image = handle.read()
        with open(self.path + ".crash", "wb") as handle:
            handle.write(image)

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)


def image_digest(data: bytes) -> str:
    """SHA-256 of a log image; the identity ``crashcheck`` plans carry."""
    return hashlib.sha256(data).hexdigest()
