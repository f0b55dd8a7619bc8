"""SARIF 2.1.0 emission, shared by ``repro analyze``/``check``/
``explore``/``crashcheck``.

One emitter, four producers: asblint findings carry *physical*
locations (file/line/col); asbcheck violations, asbsched breaches and
crashcheck recovery defects carry *logical* locations (the process,
edge, or write-ahead log, which has no source file).  GitHub code scanning ingests any of them via
``upload-sarif``; the CI workflow wires the analyze and explore jobs'
output through it.

Only the slice of the schema the tools need is produced — a single
run per document, ``tool.driver`` rule metadata, results with either a
``physicalLocation`` or ``logicalLocations``, and a ``properties`` bag
for payloads that have no SARIF shape (counterexample traces, minimized
schedules, related topology edges).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)
VERSION = "2.1.0"

#: (id, name, summary) triples for rule metadata.
RuleInfo = Tuple[str, str, str]


def make_rule(rule_id: str, name: str, summary: str) -> Dict[str, Any]:
    return {
        "id": rule_id,
        "name": name,
        "shortDescription": {"text": summary},
    }


def make_result(
    rule_id: str,
    message: str,
    level: str = "error",
    path: Optional[str] = None,
    line: Optional[int] = None,
    col: Optional[int] = None,
    logical: Sequence[Tuple[str, str]] = (),
    properties: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One SARIF result.  *path*/*line*/*col* give a physical location;
    *logical* gives ``(fullyQualifiedName, kind)`` pairs instead."""
    result: Dict[str, Any] = {
        "ruleId": rule_id,
        "level": level,
        "message": {"text": message},
    }
    locations: List[Dict[str, Any]] = []
    if path is not None:
        region: Dict[str, Any] = {}
        if line is not None:
            region["startLine"] = line
        if col is not None:
            region["startColumn"] = col
        location: Dict[str, Any] = {
            "physicalLocation": {"artifactLocation": {"uri": path}}
        }
        if region:
            location["physicalLocation"]["region"] = region
        locations.append(location)
    if logical:
        locations.append(
            {
                "logicalLocations": [
                    {"fullyQualifiedName": fqn, "kind": kind}
                    for fqn, kind in logical
                ]
            }
        )
    if locations:
        result["locations"] = locations
    if properties:
        result["properties"] = properties
    return result


def make_sarif(
    tool_name: str,
    rules: Iterable[RuleInfo],
    results: Sequence[Dict[str, Any]],
    information_uri: str = "https://github.com/asbestos-repro",
) -> Dict[str, Any]:
    """A complete single-run SARIF document."""
    return {
        "$schema": SCHEMA,
        "version": VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": information_uri,
                        "rules": [make_rule(*info) for info in rules],
                    }
                },
                "results": list(results),
            }
        ],
    }


def render(document: Dict[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=False)


# -- asblint ------------------------------------------------------------------------


def asblint_sarif(reports: Sequence[Any]) -> Dict[str, Any]:
    """SARIF for a list of :class:`repro.analysis.rules.FileReport`."""
    from repro.analysis import rules as R

    rule_infos = [(r.id, r.name, r.summary) for r in R.RULES]
    rule_infos.append(
        (R.TOOLING_RULE.id, R.TOOLING_RULE.name, R.TOOLING_RULE.summary)
    )
    results: List[Dict[str, Any]] = []
    for report in reports:
        for diag in report.diagnostics:
            properties: Dict[str, Any] = {}
            if diag.function:
                properties["function"] = diag.function
            if diag.related_edges:
                properties["related_edges"] = list(diag.related_edges)
            results.append(
                make_result(
                    diag.rule,
                    diag.message,
                    level="warning" if diag.rule == R.TOOLING else "error",
                    path=report.path,
                    line=diag.line,
                    col=diag.col,
                    properties=properties or None,
                )
            )
        for line, spec in report.unused_pragmas:
            detail = f"[{spec}]" if spec else ""
            results.append(
                make_result(
                    R.TOOLING,
                    f"stale pragma: asblint: ignore{detail} suppresses nothing",
                    level="note",
                    path=report.path,
                    line=line,
                    col=1,
                )
            )
    return make_sarif("asblint", rule_infos, results)


# -- policy breaches (asbcheck and asbsched) ---------------------------------------


def policy_rules() -> List[RuleInfo]:
    """The policy rule catalogue, one rule per policy kind."""
    from repro.policies.assertions import KINDS

    return [(kind, kind, cls.summary) for kind, cls in KINDS.items()]


def breach_result(
    breach: Any, where: str, properties: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """One :class:`~repro.policies.assertions.Breach` — asbcheck's or
    asbsched's — as an error located by logical name (``where/process``,
    ``where/edge``, else *where* itself)."""
    logical: List[Tuple[str, str]] = []
    if breach.process:
        logical.append((f"{where}/{breach.process}", "module"))
    if breach.edge:
        logical.append((f"{where}/{breach.edge}", "function"))
    return make_result(
        breach.kind,
        f"{breach.policy}: {breach.message}",
        level="error",
        logical=logical or [(where, "module")],
        properties=properties,
    )


# -- asbsched -----------------------------------------------------------------------


def sched_sarif(report: Any) -> Dict[str, Any]:
    """SARIF for a :class:`repro.analysis.sched.ExploreReport`.

    The schedule-space explorer reuses asbcheck's policy rule catalogue
    (it checks the same battery, live) plus rules for sanitizer
    divergence and scenario invariants.  The minimized decision vector
    and the violating run's annotated choice points ride in the
    properties bag, so a code-scanning alert carries everything needed
    to replay the counterexample."""
    rules = policy_rules()
    rules.append(
        (
            "sanitizer",
            "sanitizer",
            "the differential label sanitizer found a divergence between "
            "the kernel and the naive operators on this schedule",
        )
    )
    rules.append(
        (
            "invariant",
            "invariant",
            "a scenario-specific terminal-state invariant failed on this "
            "schedule",
        )
    )
    results: List[Dict[str, Any]] = []
    run = report.counterexample_run()
    base_properties: Dict[str, Any] = {
        "scenario": report.scenario,
        "mode": report.mode,
        "schedules": report.schedules,
    }
    if run is not None:
        schedule = (
            report.minimized
            if report.minimized is not None
            else run.decision_vector()
        )
        trace = {
            **base_properties,
            "schedule": schedule,
            "decisions": [point.to_json() for point in run.decisions],
            "steps": [step.key for step in run.steps],
        }
        for breach in run.breaches:
            results.append(breach_result(breach, report.scenario, trace))
        for violation in run.sanitizer_violations:
            results.append(
                make_result(
                    "sanitizer",
                    violation,
                    level="error",
                    logical=[(report.scenario, "module")],
                    properties=trace,
                )
            )
    for breach in report.dead_edges:
        results.append(breach_result(breach, report.scenario, base_properties))
    return make_sarif("asbsched", rules, results)


def crashcheck_sarif(report: Any) -> Dict[str, Any]:
    """SARIF for a :class:`repro.store.crashcheck.CrashcheckReport`.

    One result per failing crash point (capped per kind below), located
    logically at ``<workload>/wal`` — the store has no source file.  The
    minimized counterexample's replayable ``faultplan/v1`` document rides
    in every result's properties bag, so a code-scanning alert carries
    the exact crash to reproduce."""
    rules: Tuple[RuleInfo, ...] = (
        (
            "durability",
            "durability",
            "a committed row did not survive crash recovery",
        ),
        (
            "atomicity",
            "atomicity",
            "recovery resurrected a row the committed state never held",
        ),
        (
            "ifc-weakening",
            "ifc-weakening",
            "recovery applied a taint-weakening (declassifying) write the "
            "committed, label-checked log never authorized",
        ),
    )
    base: Dict[str, Any] = {
        "workload": report.workload,
        "records": report.records,
        "points": report.points,
        "label_check": report.label_check,
    }
    if report.minimized is not None:
        base["minimized"] = report.minimized.to_json()
    if report.plan is not None:
        base["plan"] = report.plan
    results: List[Dict[str, Any]] = []
    per_kind_cap = 25  # thousands of points can fail; alerts need a sample
    emitted: Dict[str, int] = {}
    for failure in report.failures:
        point = failure.point
        for violation in failure.violations:
            if emitted.get(violation.kind, 0) >= per_kind_cap:
                continue
            emitted[violation.kind] = emitted.get(violation.kind, 0) + 1
            results.append(
                make_result(
                    violation.kind,
                    f"crash at append #{point.at_io} "
                    f"({point.torn_bytes} torn byte(s)): "
                    f"{violation.table}: {violation.detail}",
                    level="error",
                    logical=[(f"{report.workload}/wal", "module")],
                    properties={**base, "point": point.to_json()},
                )
            )
    return make_sarif("crashcheck", rules, results)


def check_sarif(report: Any) -> Dict[str, Any]:
    """SARIF for a :class:`repro.analysis.check.CheckReport`.

    Violations become error-level results located by logical name
    (``topology/process`` and ``topology/edge``); the counterexample
    trace rides in the result's properties bag."""
    topo = report.topology
    results = [
        breach_result(
            result.violation,
            topo.name,
            {
                "topology": topo.name,
                "trace": [step.to_json(topo) for step in result.violation.trace],
            },
        )
        for result in report.violations()
    ]
    return make_sarif("asbcheck", policy_rules(), results)
