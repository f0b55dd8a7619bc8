"""Static and dynamic correctness tooling for the label system.

Three cooperating layers:

- :mod:`repro.analysis.asblint` + :mod:`repro.analysis.astflow`: the
  **asblint** static pass — abstract interpretation of simulated-program
  generators over label intervals, reporting provable Figure 4 violations
  before any code runs;
- :mod:`repro.analysis.check` + :mod:`repro.analysis.model` +
  :mod:`repro.analysis.extract`: the **asbcheck** whole-system model
  checker — exhaustive exploration of a declarative topology (written by
  hand or extracted from a live kernel) under the verbatim Figure 4
  rules, verifying :mod:`repro.policies.assertions` policies and
  returning shortest counterexample traces, replayable on the real
  kernel via :mod:`repro.analysis.replay`;
- :mod:`repro.analysis.sanitizer`: the **runtime sanitizer** — an opt-in
  kernel mode differentially checking the fused label fast paths against
  the naive operators on every IPC;
- :mod:`repro.analysis.sched`: the **asbsched** schedule-space explorer —
  it animates a topology on the real kernel and systematically drives it
  through alternative interleavings (scheduler picks, timer-vs-task wake
  order, fault branches) via one pluggable
  :class:`~repro.kernel.nondet.NondetSource`, checking the policy battery
  and the sanitizer on every schedule, with dynamic partial-order
  reduction and counterexample shrinking to a byte-identically
  replayable ``schedule/v1`` file.

All are exposed through ``python -m repro`` (:mod:`repro.cli`, which is
not part of this package: bench, chaos and crashcheck are not analysis);
``--format sarif`` emits GitHub code-scanning documents
(:mod:`repro.analysis.sarif`).
"""

from repro.analysis.asblint import (
    analyze_file,
    analyze_paths,
    analyze_source,
    findings,
    format_reports,
    render_json,
)
from repro.analysis.check import CheckReport, link_lint_findings, run_check
from repro.analysis.extract import TopologyRecorder
from repro.analysis.intervals import AbstractLabel, AbstractState, Interval
from repro.analysis.model import Topology
from repro.analysis.rules import (
    DECLASSIFY_NO_STAR,
    Diagnostic,
    FileReport,
    HANDLE_LEAK,
    NEVER_PASS,
    RULES,
    Rule,
    TAINT_CREEP,
    resolve_rule,
)
from repro.analysis.sanitizer import LabelSanitizer, SanitizerViolation, Violation
from repro.analysis.sched import (
    ExploreReport,
    RunResult,
    Scenario,
    explore,
    okws_scenario,
    replay_schedule,
    scenario_from_topology,
    shrink_schedule,
)

__all__ = [
    "AbstractLabel",
    "AbstractState",
    "CheckReport",
    "DECLASSIFY_NO_STAR",
    "Diagnostic",
    "ExploreReport",
    "FileReport",
    "HANDLE_LEAK",
    "Interval",
    "LabelSanitizer",
    "NEVER_PASS",
    "RULES",
    "Rule",
    "RunResult",
    "SanitizerViolation",
    "Scenario",
    "TAINT_CREEP",
    "Topology",
    "TopologyRecorder",
    "Violation",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "explore",
    "findings",
    "format_reports",
    "link_lint_findings",
    "okws_scenario",
    "render_json",
    "replay_schedule",
    "resolve_rule",
    "run_check",
    "scenario_from_topology",
    "shrink_schedule",
]
