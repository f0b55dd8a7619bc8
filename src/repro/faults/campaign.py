"""Chaos campaigns: seeded fault injection against a live OKWS site.

A campaign boots the full OKWS stack (netd, ok-demux, idd, ok-dbproxy,
okc, supervised workers) with the fault injector attached but *disarmed*,
arms it once the site is up, drives a closed-loop HTTP workload through
the faults, and then audits the wreckage:

- **safety** — the differential label sanitizer ran the whole time and
  must report zero violations: faults may lose messages, they must never
  leak one across a label boundary;
- **accounting** — every injected fault is reconciled against the
  kernel's own books (the ``fault-injected`` DropLog reason and the
  ``kernel.faults.*`` metric counters match the injector's event log);
- **liveness** — the reliability machinery (deadlines, retries,
  supervised restart, 503 degradation) must keep the completion rate at
  or above ``min_completion`` despite the faults;
- **determinism** — the same (plan, seed) pair replays the identical
  fault event log byte for byte (:func:`run_campaign` is pure given its
  arguments; ``python -m repro chaos`` runs every campaign twice and
  compares).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.plan import FaultPlan

#: Default liveness floor: the fraction of client requests that must
#: complete (non-degraded) for a campaign to pass.
MIN_COMPLETION = 0.9


@dataclass
class CampaignResult:
    """Everything a chaos run learned, plus the pass/fail verdict."""

    plan: FaultPlan
    seed: int
    requests: int
    completed: int
    degraded_503: int
    no_response: int
    forbidden: int
    fault_summary: Dict[str, int]
    injected_total: int
    drop_fault_logged: int
    squeeze_drops_logged: int
    metrics_injected: int
    violations: int
    restarts: List[Dict[str, Any]]
    failed_services: List[str]
    #: Store-backed dbproxy recoveries supervision performed (0 without a
    #: configured store).
    recoveries: int
    #: Restart budget consumed per service: {service: restarts used of
    #: RESTART_BUDGET} for every service that restarted at least once.
    restart_budget: Dict[str, int]
    events_json: bytes
    min_completion: float = MIN_COMPLETION
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.requests if self.requests else 1.0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "chaos-campaign/v1",
            "seed": self.seed,
            "plan": self.plan.to_json(),
            "requests": self.requests,
            "completed": self.completed,
            "completion_rate": round(self.completion_rate, 4),
            "degraded_503": self.degraded_503,
            "no_response": self.no_response,
            "forbidden": self.forbidden,
            "fault_summary": dict(self.fault_summary),
            "injected_total": self.injected_total,
            "drop_fault_logged": self.drop_fault_logged,
            "squeeze_drops_logged": self.squeeze_drops_logged,
            "violations": self.violations,
            "restarts": list(self.restarts),
            "failed_services": list(self.failed_services),
            "recoveries": self.recoveries,
            "restart_budget": dict(sorted(self.restart_budget.items())),
            "checks": dict(self.checks),
            "passed": self.passed,
            "fault_log": json.loads(self.events_json.decode()),
        }

    def summary_lines(self) -> List[str]:
        ok = {True: "PASS", False: "FAIL"}
        lines = [
            f"requests:     {self.completed}/{self.requests} completed "
            f"({self.completion_rate:.1%}), {self.degraded_503} degraded (503), "
            f"{self.no_response} unanswered, {self.forbidden} forbidden",
            f"faults:       {self.injected_total} injected "
            f"{dict(sorted(self.fault_summary.items()))}",
            f"restarts:     {len(self.restarts)} "
            f"({', '.join(sorted({r['service'] for r in self.restarts})) or 'none'})"
            + (f"; failed: {sorted(self.failed_services)}" if self.failed_services else "")
            + (f"; budget used: {dict(sorted(self.restart_budget.items()))}"
               if self.restart_budget else "")
            + (f"; recoveries: {self.recoveries}" if self.recoveries else ""),
        ]
        for name, passed in self.checks.items():
            lines.append(f"{ok[passed]:<5} {name}")
        return lines


def run_campaign(
    plan: FaultPlan,
    seed: int = 0,
    users: int = 8,
    rounds: int = 4,
    concurrency: int = 8,
    min_completion: float = MIN_COMPLETION,
    spans: bool = False,
    store_path: Optional[str] = None,
) -> CampaignResult:
    """Run one seeded chaos campaign; returns the audited result.

    Boots an echo-service OKWS site with the sanitizer and metrics on and
    the injector disarmed, arms it after launch (boot traffic stays
    reliable — a launch that cannot finish is a different experiment),
    then issues ``users × rounds`` closed-loop requests.

    With *store_path*, ok-dbproxy runs on a ``wal/v1`` store: a campaign
    that crashes it exercises supervised restart *plus* log recovery,
    and the result's ``recoveries`` counter records each one.  The path
    must be fresh — campaigns are deterministic only from an empty
    store.
    """
    # Deferred imports: repro.faults.plan must stay importable without
    # the kernel (KernelConfig type-checks against it).
    from repro.kernel.config import KernelConfig
    from repro.kernel.errors import DROP_FAULT, DROP_QUEUE_LIMIT
    from repro.sim.runner import echo_requests
    from repro.sim.workload import HttpClient

    config = KernelConfig(
        metrics=True,
        sanitize=True,
        sanitize_strict=False,  # collect violations; the campaign audits them
        spans=spans,
        faults=plan,
        fault_seed=seed,
        store_path=store_path,
    )
    # Fault-free boot: launch() would loop restarting workers whose hello
    # messages the plan eats.  The injector's PRNG is untouched while
    # disarmed, so arming after boot does not perturb determinism.
    site = _build_disarmed(users, config)
    injector = site.kernel.faults
    injector.arm()

    client = HttpClient(site)
    batch = echo_requests(users, rounds * users)
    responses = client.run_batch(batch, concurrency=concurrency)
    # Let in-flight restarts, retries and delayed messages finish.
    site.kernel.run()

    completed = sum(1 for r in responses if r.ok)
    degraded = sum(
        1
        for r in responses
        if isinstance(r.payload, dict) and r.payload.get("status") == 503
    )
    forbidden = sum(
        1
        for r in responses
        if isinstance(r.payload, dict) and r.payload.get("status") in (403, 404)
    )
    no_response = sum(1 for r in responses if r.payload is None)

    summary = injector.summary()
    drop_fault_logged = site.kernel.drop_log.count(DROP_FAULT)
    squeeze_logged = site.kernel.drop_log.count(DROP_QUEUE_LIMIT)
    metrics_injected = _counter_value(site.kernel, "kernel.faults.injected")
    violations = site.kernel.sanitizer.total if site.kernel.sanitizer else 0

    result = CampaignResult(
        plan=plan,
        seed=seed,
        requests=len(batch),
        completed=completed,
        degraded_503=degraded,
        no_response=no_response,
        forbidden=forbidden,
        fault_summary=summary,
        injected_total=len(injector.events),
        drop_fault_logged=drop_fault_logged,
        squeeze_drops_logged=squeeze_logged,
        metrics_injected=metrics_injected,
        violations=violations,
        restarts=list(site.launcher_env.get("restarts", [])),
        failed_services=list(site.launcher_env.get("failed_services", [])),
        recoveries=int(site.launcher_env.get("recoveries", 0)),
        restart_budget={
            service: state["count"]
            for service, state in sorted(
                site.launcher_env.get("restart_state", {}).items()
            )
            if state.get("count")
        },
        events_json=injector.events_json(),
        min_completion=min_completion,
    )
    result.checks = {
        "sanitizer_clean": violations == 0,
        # Every admission drop the injector fired is in the DropLog as
        # "fault-injected", and vice versa.
        "drops_reconcile": summary.get("drop", 0) == drop_fault_logged,
        # Squeeze firings appear in the DropLog under the ordinary
        # queue-limit reason (a squeezed queue *is* a full queue).
        "squeezes_reconcile": summary.get("queue_limit", 0) <= squeeze_logged,
        # The metrics mirror counts exactly what the event log holds.
        "metrics_reconcile": metrics_injected == len(injector.events),
        "completion": result.completion_rate >= min_completion,
    }
    return result


def _build_disarmed(users: int, config) -> Any:
    """Build an echo-service site with the injector disarmed for launch()."""
    from repro.kernel.kernel import Kernel
    from repro.okws import ServiceConfig, launch
    from repro.okws.services import echo_handler

    kernel = Kernel(config=config)
    if kernel.faults is not None:
        kernel.faults.disarm()
    return launch(
        kernel=kernel,
        services=[ServiceConfig("echo", echo_handler)],
        users=[(f"u{i}", f"pw{i}") for i in range(users)],
    )


def _counter_value(kernel, dotted: str) -> int:
    snap = kernel.metrics.snapshot() if kernel.metrics is not None else {}
    value = snap.get(dotted, 0)
    return int(value) if isinstance(value, (int, float)) else 0
