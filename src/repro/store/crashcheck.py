"""The crash-consistency checker behind ``python -m repro crashcheck``.

Mosaic-style (``fs-crash.py`` / ``xv6-log.py``) exhaustive checking of
the labeled store's recovery protocol:

1. **Record** one OKWS write workload against a store-backed site (the
   bulletin-board example: private drafts by two users, then a
   declassifying publish as the final transaction) and keep the clean
   ``wal/v1`` image.
2. **Enumerate** every crash point of that image: every record boundary
   (the crash landed between appends) and every torn-tail prefix — each
   byte offset inside every record, which is what a crash mid-append can
   leave on disk.
3. **Check** each point: truncate the image at the point, run the
   recovery under test (:func:`repro.store.store.replay_image`), and
   compare against an independent committed-prefix oracle.  Violations
   are classified as *durability* (a committed row did not survive),
   *atomicity* (an uncommitted row was resurrected), or *ifc-weakening*
   (recovery applied a taint-weakening write — a declassification or
   taint-stripping store — that the committed, label-checked prefix
   never authorized: a row recovered with weaker taint than it was
   written with).
4. **Minimize** any violation to the earliest, least-torn crash point
   that still reproduces it (the PR 6 shrinking discipline: order
   candidates by cost, re-verify each, keep the first that still fails),
   and emit it as a *replayable* ``faultplan/v1`` document whose
   ``crash_at_io`` rule re-creates the crash live.  The plan carries the
   SHA-256 of the crash image; ``--replay`` re-runs the workload under
   the plan and proves the ``<store>.crash`` snapshot is byte-identical
   to the offline prefix before re-checking the violation on it.

The strict recovery should survive the full sweep (exit 0); the
deliberately broken recovery (``label_check=False`` — naive redo, no
commit filter, no label check) must be caught (exit 1).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.db.engine import Database, Table
from repro.faults.plan import FaultPlan, FaultRule
from repro.store import wal
from repro.store.store import (
    PUBLIC_OWNER,
    image_digest,
    policy_problem,
    replay_image,
)

#: Violation kinds, in decreasing severity.
VIOLATION_KINDS = ("ifc-weakening", "durability", "atomicity")

#: The example workload's requests: (user, password, service, body, args).
BOARD_USERS = (("alice", "wonderland"), ("bob", "builder"))
BOARD_SCHEMA = ("CREATE TABLE posts (author TEXT, text TEXT, published INTEGER)",)
BOARD_REQUESTS: Tuple[Tuple[str, str, str, Any, Optional[Dict[str, Any]]], ...] = (
    ("alice", "wonderland", "board", "first draft", {"op": "draft"}),
    ("bob", "builder", "board", "second draft", {"op": "draft"}),
    ("alice", "wonderland", "board", "third draft", {"op": "draft"}),
    # The final transaction: alice's drafts become public via the
    # declassifier.  Its torn-commit crash points are where a recovery
    # that skips the label check resurrects private rows as public.
    ("alice", "wonderland", "publish", None, None),
)


@dataclass(frozen=True)
class CrashPoint:
    """One crash point: the ``at_io``-th append (1-based, in recording
    order) with *torn_bytes* of that record durable.  ``offset`` is the
    resulting file length."""

    at_io: int
    torn_bytes: int
    offset: int

    def to_json(self) -> Dict[str, Any]:
        return {"at_io": self.at_io, "torn_bytes": self.torn_bytes, "offset": self.offset}


@dataclass(frozen=True)
class Violation:
    """One recovery defect at one crash point."""

    kind: str
    table: str
    detail: str
    row: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "kind": self.kind,
            "table": self.table,
            "detail": self.detail,
        }
        if self.row is not None:
            doc["row"] = dict(self.row)
        return doc


@dataclass
class PointResult:
    point: CrashPoint
    violations: List[Violation]

    def to_json(self) -> Dict[str, Any]:
        return {
            "point": self.point.to_json(),
            "violations": [v.to_json() for v in self.violations],
        }


@dataclass
class CrashcheckReport:
    """Outcome of one exhaustive sweep."""

    workload: str
    wal_bytes: int
    records: int
    boot_records: int
    points: int
    label_check: bool
    failures: List[PointResult] = field(default_factory=list)
    minimized: Optional[CrashPoint] = None
    plan: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "crashcheck/v1",
            "workload": self.workload,
            "wal_bytes": self.wal_bytes,
            "records": self.records,
            "boot_records": self.boot_records,
            "points": self.points,
            "label_check": self.label_check,
            "ok": self.ok,
            "failing_points": len(self.failures),
            "failures": [f.to_json() for f in self.failures],
            "minimized": self.minimized.to_json() if self.minimized else None,
            "plan": self.plan,
        }

    def format_text(self) -> str:
        lines = [
            f"crashcheck: workload={self.workload} "
            f"({self.records} records, {self.wal_bytes} bytes, "
            f"{self.boot_records} from boot)",
            f"  recovery under test: "
            f"{'strict (label-checked)' if self.label_check else 'BROKEN (naive redo, no label check)'}",
            f"  crash points checked: {self.points}",
        ]
        if self.ok:
            lines.append("  OK: durability and IFC monotonicity hold at every point")
            return "\n".join(lines)
        lines.append(f"  FAILED at {len(self.failures)} point(s)")
        by_kind = Counter(
            v.kind for result in self.failures for v in result.violations
        )
        for kind in VIOLATION_KINDS:
            if by_kind.get(kind):
                lines.append(f"    {kind}: {by_kind[kind]} violation(s)")
        if self.minimized is not None:
            point = self.minimized
            lines.append(
                f"  minimized: crash at append #{point.at_io} with "
                f"{point.torn_bytes} torn byte(s) (offset {point.offset})"
            )
            example = next(
                (r for r in self.failures if r.point == point), self.failures[0]
            )
            for violation in example.violations[:4]:
                lines.append(f"    - [{violation.kind}] {violation.table}: {violation.detail}")
        return "\n".join(lines)


# -- the live example workload -----------------------------------------------------


def run_board_workload(store_path: str, plan: Optional[FaultPlan] = None):
    """Boot a store-backed board site, drive the example requests, and
    return the :class:`~repro.okws.launcher.OkwsSite`.

    With a *plan*, the injector is armed from boot and a ``crash_at_io``
    rule kills ok-dbproxy mid-workload; the supervised launcher then
    restarts and recovers it.  Everything is deterministic — same store
    path contents, same plan, same bytes."""
    from repro.kernel.config import KernelConfig
    from repro.kernel.kernel import Kernel
    from repro.okws.launcher import ServiceConfig, launch
    from repro.okws.services import board_handler, board_publisher_handler
    from repro.sim.workload import HttpClient

    config = KernelConfig(store_path=store_path, faults=plan, fault_seed=0)
    kernel = Kernel(config=config)
    site = launch(
        kernel,
        services=[
            ServiceConfig("board", board_handler),
            ServiceConfig("publish", board_publisher_handler, declassifier=True),
        ],
        users=list(BOARD_USERS),
        schema=list(BOARD_SCHEMA),
    )
    client = HttpClient(site)
    for user, password, service, body, args in BOARD_REQUESTS:
        client.request(user, password, service, body, args)
    site.kernel.run()
    return site


def record_workload(store_path: str) -> Tuple[bytes, int]:
    """Record the example workload into a fresh store at *store_path*.

    Returns ``(wal image, boot_records)`` where *boot_records* counts the
    records written before the first client request (schema + user
    seeding) — crash points inside that prefix are checked offline but
    are not replayable, because they would abort the boot the replay
    needs to reach the workload."""
    if os.path.exists(store_path):
        raise ValueError(f"refusing to record over an existing store: {store_path}")

    from repro.kernel.config import KernelConfig
    from repro.kernel.kernel import Kernel
    from repro.okws.launcher import ServiceConfig, launch
    from repro.okws.services import board_handler, board_publisher_handler
    from repro.sim.workload import HttpClient

    kernel = Kernel(config=KernelConfig(store_path=store_path))
    site = launch(
        kernel,
        services=[
            ServiceConfig("board", board_handler),
            ServiceConfig("publish", board_publisher_handler, declassifier=True),
        ],
        users=list(BOARD_USERS),
        schema=list(BOARD_SCHEMA),
    )
    boot_records = len(wal.scan_file(store_path).records)
    client = HttpClient(site)
    for user, password, service, body, args in BOARD_REQUESTS:
        client.request(user, password, service, body, args)
    site.kernel.run()
    with open(store_path, "rb") as handle:
        return handle.read(), boot_records


# -- crash-point enumeration --------------------------------------------------------


def crash_points(data: bytes) -> List[CrashPoint]:
    """Every crash point of a clean log image: for each record ``i``, the
    boundary before it (``torn_bytes=0``) plus every torn prefix length
    ``1..len-1`` inside it.  A full record is not a crash point of record
    ``i`` — it is the boundary of ``i+1``."""
    scanned = wal.scan(data)
    if scanned.torn:
        raise ValueError(
            f"recording is torn ({scanned.torn_bytes} trailing bytes); "
            "crash points need a clean image"
        )
    points: List[CrashPoint] = []
    for index, record in enumerate(scanned.records, start=1):
        for torn in range(record.length):
            points.append(CrashPoint(index, torn, record.offset + torn))
    return points


# -- the independent oracle ---------------------------------------------------------


def reference_state(data: bytes) -> Database:
    """The committed-prefix reference: what a correct recovery of *data*
    must produce.  Re-implements the replay policy (checkpoint resets,
    committed transactions only, policy-violating writes repaired away)
    independently of :func:`repro.store.store.replay_image`, sharing only
    the record format and the relational engine."""
    scanned = wal.scan(data)
    committed = {r.tx for r in scanned.records if r.type == "commit"}
    db = Database()
    for record in scanned.records:
        if record.type == "checkpoint":
            db = Database()
            for name in sorted(record.payload["tables"]):
                doc = record.payload["tables"][name]
                db.tables[name] = Table(
                    name,
                    tuple((n, t) for n, t in doc["columns"]),
                    [dict(row) for row in doc["rows"]],
                )
            continue
        if record.type != "write":
            continue
        if record.tx not in committed:
            continue
        if policy_problem(record.payload) is not None:
            continue
        try:
            db.run(
                wal.stmt_from_json(record.payload["stmt"]),
                tuple(record.payload["params"]),
            )
        except Exception:
            continue
    return db


def _row_key(row: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(row.items()))


def _multisets(db: Database) -> Dict[str, Counter]:
    return {
        name: Counter(_row_key(row) for row in table.rows)
        for name, table in db.tables.items()
    }


#: What a recovery is diffed against: the reference's row multisets and
#: the ifc-weakening violations the log's provenance already shows.
Oracle = Tuple[Dict[str, Counter], List[Violation]]


def prefix_oracle(prefix: bytes, label_check: bool = True) -> Oracle:
    """The oracle for one crash image.  It reads only the image's complete
    records: the committed-prefix reference, and — for the broken recovery,
    which redoes everything — every write the committed, label-checked
    semantics reject that declassifies or stores tainted data publicly
    (IFC monotonicity by record provenance: recovery would give those rows
    weaker taint than they were written with)."""
    weakening: List[Violation] = []
    if not label_check:
        scanned = wal.scan(prefix)
        committed = {r.tx for r in scanned.records if r.type == "commit"}
        for record in scanned.records:
            if record.type != "write":
                continue
            payload = record.payload
            rejected = record.tx not in committed or policy_problem(payload)
            if not rejected:
                continue
            weakens = payload["declass"] or (
                payload["owner"] == PUBLIC_OWNER and payload["taint"] is not None
            )
            if weakens:
                weakening.append(
                    Violation(
                        kind="ifc-weakening",
                        table=payload["stmt"].get("table", "?"),
                        detail=(
                            f"tx {record.tx}: recovery applied a declassifying "
                            "write the log never committed/label-checked"
                        ),
                    )
                )
    return _multisets(reference_state(prefix)), weakening


def check_prefix(
    prefix: bytes, label_check: bool = True, expected: Optional[Oracle] = None
) -> List[Violation]:
    """Run the recovery under test on one crash image and diff it against
    the oracle (*expected*, or computed from *prefix*).  Returns the
    violations (empty = this point is safe)."""
    recovered = replay_image(prefix, label_check=label_check)
    ref_sets, weakening = expected if expected is not None else prefix_oracle(prefix, label_check)
    violations: List[Violation] = []
    rec_sets = _multisets(recovered.db)
    for table in sorted(set(ref_sets) | set(rec_sets)):
        ref_rows = ref_sets.get(table, Counter())
        rec_rows = rec_sets.get(table, Counter())
        for key, count in sorted((ref_rows - rec_rows).items()):
            violations.append(
                Violation(
                    kind="durability",
                    table=table,
                    detail=f"committed row lost in recovery ({count}x)",
                    row=dict(key),
                )
            )
        for key, count in sorted((rec_rows - ref_rows).items()):
            violations.append(
                Violation(
                    kind="atomicity",
                    table=table,
                    detail=f"row resurrected that the committed state lacks ({count}x)",
                    row=dict(key),
                )
            )
    violations.extend(weakening)
    violations.sort(key=lambda v: VIOLATION_KINDS.index(v.kind))
    return violations


# -- sweep + minimization -----------------------------------------------------------


def point_checker(data: bytes, label_check: bool = True) -> Callable[[CrashPoint], List[Violation]]:
    """:func:`check_prefix` at crash points of *data*, with the oracle
    computed once per record boundary.

    A strict prefix of a well-framed ``wal/v1`` record never frames: its
    header is short, or the length it gives runs past the end of the
    image.  So the image at a torn point holds exactly the complete records
    of the boundary ``offset - torn_bytes``, which is all the oracle reads.
    The recovery under test, which is what the sweep checks, still runs on
    every image."""
    oracles: Dict[int, Oracle] = {}

    def check(point: CrashPoint) -> List[Violation]:
        boundary = point.offset - point.torn_bytes
        if boundary not in oracles:
            oracles[boundary] = prefix_oracle(data[:boundary], label_check)
        return check_prefix(data[: point.offset], label_check, oracles[boundary])

    return check


def sweep(
    data: bytes,
    boot_records: int = 0,
    label_check: bool = True,
    workload: str = "board",
) -> CrashcheckReport:
    """Check every crash point of *data*; minimize and emit a replayable
    plan when any fails."""
    points = crash_points(data)
    report = CrashcheckReport(
        workload=workload,
        wal_bytes=len(data),
        # Each record has points, the last record's carrying its index.
        records=points[-1].at_io if points else 0,
        boot_records=boot_records,
        points=len(points),
        label_check=label_check,
    )
    check = point_checker(data, label_check)
    for point in points:
        violations = check(point)
        if violations:
            report.failures.append(PointResult(point, violations))
    if report.failures:
        report.minimized = minimize(
            data, [f.point for f in report.failures], boot_records, label_check, check
        )
        if report.minimized is not None:
            report.plan = counterexample_plan(
                data, report.minimized, workload=workload, label_check=label_check
            )
    return report


def minimize(
    data: bytes,
    failing: List[CrashPoint],
    boot_records: int = 0,
    label_check: bool = True,
    check: Optional[Callable[[CrashPoint], List[Violation]]] = None,
) -> Optional[CrashPoint]:
    """Shrink to the cheapest *replayable* failing point.

    Candidates are ordered by (append index, torn bytes) and re-verified
    one by one (through *check*, a :func:`point_checker` of *data*); the
    first that still reproduces wins.  Points inside the boot prefix are
    excluded — a plan crashing the proxy mid-seeding aborts the launch the
    replay needs — so the minimum is the earliest workload-phase crash.
    Falls back to the overall earliest failing point when only boot-phase
    points fail."""
    check = check or point_checker(data, label_check)
    replayable = [p for p in failing if p.at_io > boot_records]
    candidates = sorted(
        replayable or failing, key=lambda p: (p.at_io, p.torn_bytes)
    )
    for point in candidates:
        if check(point):
            return point
    return None


def counterexample_plan(
    data: bytes,
    point: CrashPoint,
    workload: str = "board",
    label_check: bool = False,
) -> Dict[str, Any]:
    """A ``faultplan/v1`` document that re-creates *point* live.

    The extra ``crashcheck`` block (ignored by the plan loader) carries
    the replay contract: which recorded workload to drive, the expected
    crash-image length and SHA-256, and which recovery to re-check."""
    prefix = data[: point.offset]
    rule = FaultRule(
        kind="crash_at_io",
        id="crashcheck-min",
        match="ok-dbproxy",
        at_io=point.at_io,
        torn_bytes=point.torn_bytes,
        max_fires=1,
    )
    plan = FaultPlan.of(
        rule,
        description=(
            f"crashcheck counterexample: crash ok-dbproxy at log append "
            f"#{point.at_io} leaving {point.torn_bytes} torn byte(s)"
        ),
    )
    doc = plan.to_json()
    doc["crashcheck"] = {
        "workload": workload,
        "at_io": point.at_io,
        "torn_bytes": point.torn_bytes,
        "offset": point.offset,
        "sha256": image_digest(prefix),
        "label_check": label_check,
    }
    return doc


# -- replay -------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of replaying a minimized plan live."""

    crashed: bool
    byte_identical: bool
    crash_bytes: int
    expected_bytes: int
    violations: List[Violation]

    @property
    def reproduced(self) -> bool:
        return self.crashed and self.byte_identical and bool(self.violations)

    def to_json(self) -> Dict[str, Any]:
        return {
            "crashed": self.crashed,
            "byte_identical": self.byte_identical,
            "crash_bytes": self.crash_bytes,
            "expected_bytes": self.expected_bytes,
            "violations": [v.to_json() for v in self.violations],
            "reproduced": self.reproduced,
        }

    def format_text(self) -> str:
        lines = [
            f"crashcheck replay: crashed={self.crashed} "
            f"byte_identical={self.byte_identical} "
            f"({self.crash_bytes}/{self.expected_bytes} bytes)",
        ]
        for violation in self.violations[:6]:
            lines.append(f"  - [{violation.kind}] {violation.table}: {violation.detail}")
        lines.append(
            "  REPRODUCED" if self.reproduced else "  did not reproduce"
        )
        return lines and "\n".join(lines)


def replay_counterexample(doc: Dict[str, Any], workdir: str) -> ReplayResult:
    """Replay a :func:`counterexample_plan` document live.

    Re-runs the recorded workload under the plan's ``crash_at_io`` rule
    in *workdir*; the injected crash freezes the log image in
    ``<store>.crash`` at the instant of death (before the supervised
    restart's recovery truncates the tail).  Byte-identity against the
    offline prefix, then the violation re-check, both run on that
    snapshot."""
    meta = doc.get("crashcheck")
    if not isinstance(meta, dict):
        raise ValueError("not a crashcheck counterexample: missing 'crashcheck' block")
    plan = FaultPlan.from_json(doc)
    store_path = os.path.join(workdir, "replay-wal.log")
    if os.path.exists(store_path):
        raise ValueError(f"refusing to replay over an existing store: {store_path}")
    run_board_workload(store_path, plan=plan)
    crash_path = store_path + ".crash"
    if not os.path.exists(crash_path):
        return ReplayResult(
            crashed=False,
            byte_identical=False,
            crash_bytes=0,
            expected_bytes=int(meta["offset"]),
            violations=[],
        )
    with open(crash_path, "rb") as handle:
        image = handle.read()
    byte_identical = (
        len(image) == int(meta["offset"]) and image_digest(image) == meta["sha256"]
    )
    violations = check_prefix(image, label_check=bool(meta.get("label_check", True)))
    return ReplayResult(
        crashed=True,
        byte_identical=byte_identical,
        crash_bytes=len(image),
        expected_bytes=int(meta["offset"]),
        violations=violations,
    )


def load_counterexample(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("counterexample plan must be a JSON object")
    return doc
