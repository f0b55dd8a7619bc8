"""End-to-end chaos campaigns (``repro.faults.campaign``) and the
supervision/degradation story they exercise.

These are the integration tests for the whole reliability stack: the
campaigns boot a real OKWS site, inject the shipped example fault plans,
and audit the same invariants ``python -m repro chaos`` enforces in CI —
no label leaks, every fault accounted for, completion above the floor,
byte-identical replay.
"""

import json
import pathlib

import pytest

from repro.faults import FaultPlan, FaultRule, load_plan
from repro.faults.campaign import MIN_COMPLETION, run_campaign

PLANS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "faultplans"


def test_example_plans_parse():
    shipped = sorted(p.name for p in PLANS.glob("*.json"))
    assert shipped == [
        "lookup-leg-drop.json",
        "message-drop.json",
        "queue-squeeze.json",
        "worker-crash.json",
    ]
    for path in PLANS.glob("*.json"):
        plan = load_plan(str(path))
        assert len(plan) >= 1
        assert plan.description


def test_empty_plan_campaign_is_perfect():
    result = run_campaign(FaultPlan.of(), seed=0)
    assert result.passed
    assert result.completion_rate == 1.0
    assert result.injected_total == 0
    assert result.violations == 0
    assert result.events_json == run_campaign(FaultPlan.of(), seed=0).events_json


@pytest.mark.parametrize(
    "plan_file",
    ["message-drop.json", "worker-crash.json", "queue-squeeze.json", "lookup-leg-drop.json"],
)
def test_shipped_plans_pass_at_seed_zero(plan_file):
    plan = load_plan(str(PLANS / plan_file))
    result = run_campaign(plan, seed=0)
    assert result.checks["sanitizer_clean"], "faults must never leak across labels"
    assert result.checks["drops_reconcile"]
    assert result.checks["squeezes_reconcile"]
    assert result.checks["metrics_reconcile"]
    assert result.completion_rate >= MIN_COMPLETION
    assert result.passed
    # The campaign is not vacuous: the plan actually fired.
    assert result.injected_total > 0


def test_campaign_replay_is_byte_identical():
    plan = load_plan(str(PLANS / "message-drop.json"))
    a = run_campaign(plan, seed=3)
    b = run_campaign(plan, seed=3)
    assert a.events_json == b.events_json
    assert a.completed == b.completed
    assert a.fault_summary == b.fault_summary
    c = run_campaign(plan, seed=4)
    assert a.events_json != c.events_json


def test_worker_crash_campaign_supervises_restart():
    plan = load_plan(str(PLANS / "worker-crash.json"))
    result = run_campaign(plan, seed=0)
    assert result.passed
    assert [r["service"] for r in result.restarts] == ["echo"]
    assert result.restarts[0]["crashed"] is True
    assert result.failed_services == []


def test_crash_storm_fails_the_service_and_degrades_gracefully():
    """A worker that cannot stay up: supervision burns its restart budget
    (or trips the storm detector), marks the service FAILED, and the
    demux answers 503 instead of wedging — with zero label leaks."""
    storm = FaultPlan.of(
        FaultRule(kind="crash", id="storm", match="worker-echo*", p=0.05),
        description="unsurvivable crash storm",
    )
    result = run_campaign(storm, seed=0)
    assert result.failed_services == ["echo"]
    assert result.degraded_503 > 0
    assert result.checks["sanitizer_clean"]
    assert result.checks["drops_reconcile"]
    assert result.checks["metrics_reconcile"]
    # Liveness is *expected* to fail here — that is what FAILED means.
    assert not result.checks["completion"]
    assert not result.passed


def test_campaign_report_is_json_serialisable():
    plan = load_plan(str(PLANS / "message-drop.json"))
    result = run_campaign(plan, seed=0)
    doc = json.loads(json.dumps(result.to_json()))
    assert doc["schema"] == "chaos-campaign/v1"
    assert doc["passed"] is True
    assert doc["requests"] == 32
    assert doc["fault_log"]["schema"] == "faultlog/v1"
    assert doc["fault_log"]["seed"] == 0
    assert len(doc["fault_log"]["events"]) == doc["injected_total"]
    lines = result.summary_lines()
    assert any("requests:" in line for line in lines)
    assert any(line.startswith("PASS") for line in lines)


def test_campaign_reports_recovery_statistics(tmp_path):
    """A store-backed campaign that kills ok-dbproxy must surface the
    per-seed recovery/restart accounting in its summary JSON."""
    plan = FaultPlan.of(
        FaultRule(kind="crash", id="dbx", match="ok-dbproxy", p=1.0, max_fires=1)
    )
    result = run_campaign(plan, seed=0, store_path=str(tmp_path / "wal.log"))
    assert result.recoveries == 1
    assert result.restart_budget == {"ok-dbproxy": 1}
    doc = json.loads(json.dumps(result.to_json()))
    assert doc["recoveries"] == 1
    assert doc["restart_budget"] == {"ok-dbproxy": 1}
    assert any("recoveries: 1" in line for line in result.summary_lines())

    # Without a store the same crash restarts but never recovers.
    memory = run_campaign(plan, seed=0)
    assert memory.recoveries == 0
    assert memory.restart_budget == {"ok-dbproxy": 1}
    assert memory.to_json()["recoveries"] == 0
