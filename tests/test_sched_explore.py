"""asbsched: the schedule-space explorer (repro.analysis.sched).

Covers the whole tentpole surface: the NondetSource decision stream, the
(plan, seed, schedule) determinism contract, DPOR vs exhaustive
agreement and reduction, counterexample shrinking to a 1-minimal
schedule, byte-identical schedule/v1 replay through the real kernel,
the timer-vs-message wake-order invariant under adversarial schedules,
fault-branch exploration, and the CLI exit codes and SARIF output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import sched
from repro.cli import main as cli_main
from repro.analysis.model import load as load_topology
from repro.analysis.sarif import sched_sarif
from repro.core.labels import Label
from repro.faults.plan import FaultPlan
from repro.kernel import Recv, Send
from repro.kernel.nondet import ChoicePoint, NondetSource, ScriptedSource, SeededSource
from repro.kernel.syscalls import Compute

ROOT = Path(__file__).resolve().parents[1]
TOPOLOGIES = ROOT / "examples" / "topologies"


def race_scenario(**kwargs):
    return sched.scenario_from_topology(
        load_topology(TOPOLOGIES / "race_site.json"), **kwargs
    )


def mix_scenario(**kwargs):
    return sched.scenario_from_topology(
        load_topology(TOPOLOGIES / "okws_request_mix.json"), **kwargs
    )


# -- the decision stream ---------------------------------------------------------------


def test_nondet_base_defaults():
    source = NondetSource()
    assert source.choose("pick", ("a", "b")) == 0
    assert not source.chance("drop", 0.99)


def test_seeded_source_single_draw_per_chance():
    import random

    source = SeededSource(seed=7)
    reference = random.Random(7)
    outcomes = [source.chance("drop", p) for p in (0.3, 0.9, 0.0, 1.0, 0.5)]
    expected = [reference.random() < p for p in (0.3, 0.9, 0.0, 1.0, 0.5)]
    assert outcomes == expected


def test_scripted_source_replays_and_logs():
    source = ScriptedSource((1, 0, 9))
    assert source.choose("pick", ("a", "b", "c")) == 1
    assert source.choose("pick", ("a", "b")) == 0
    # Out-of-range decisions clamp to the default, never crash the run.
    assert source.choose("pick", ("a", "b")) == 0
    # Beyond the script: the FIFO default.
    assert source.choose("pick", ("a", "b")) == 0
    assert source.decisions() == [1, 0, 0, 0]
    assert [point.kind for point in source.log] == ["pick"] * 4
    assert source.log[0].seq == 0 and source.log[3].seq == 3


def test_scripted_chance_branches_only_fractional_rules():
    source = ScriptedSource((1,))
    # p<=0 and p>=1 are decided, not branched: no choice point is spent.
    assert not source.chance("drop", 0.0)
    assert source.chance("drop", 1.0)
    assert source.log == []
    # A fractional p becomes an explicit ("skip", "fire") branch.
    assert source.chance("drop", 0.5, "relay")
    point = source.log[0]
    assert point.kind == "chance:drop:relay"
    assert point.options == ("skip", "fire")
    assert not point.forced


def test_choice_point_forced_and_json():
    forced = ChoicePoint(seq=0, kind="pick", options=("only",), chosen=0)
    assert forced.forced
    doc = ChoicePoint(seq=1, kind="wake", options=("timers", "task"), chosen=1).to_json()
    assert doc == {
        "kind": "wake",
        "chosen": 1,
        "option": "task",
        "options": ["timers", "task"],
    }


# -- determinism: (plan, seed, schedule) determines the run ---------------------------


def test_default_schedule_is_fifo_and_clean():
    scenario = race_scenario()
    run = scenario.execute()
    assert not run.violating
    assert run.quiescent
    assert all(point.chosen == 0 for point in run.decisions)


def test_same_schedule_same_digest():
    scenario = race_scenario()
    a = scenario.execute(ScriptedSource((0, 2)))
    b = scenario.execute(ScriptedSource((0, 2)))
    assert a.digest == b.digest
    assert a.violating and b.violating


def test_schedule_and_plan_determine_faultlog():
    plan = FaultPlan.from_json(
        {
            "schema": "faultplan/v1",
            "rules": [
                {"id": "drop-relay", "kind": "drop", "p": 0.5, "match": "relay"}
            ],
        }
    )
    scenario = race_scenario(plan=plan)
    base = scenario.execute()
    chance_points = [
        p for p in base.decisions if p.kind.startswith("chance:drop")
    ]
    assert chance_points, "fractional fault rules must surface as choice points"
    # Force the drop: relay's forward vanishes, byte-identically on replay.
    script = [
        1 if point.kind.startswith("chance:drop") else point.chosen
        for point in base.decisions
    ]
    fired = scenario.execute(ScriptedSource(script))
    assert b'"drop"' in fired.fault_events
    assert "relay->sink" not in fired.delivered_edges
    again = scenario.execute(ScriptedSource(script))
    assert fired.digest == again.digest
    assert fired.fault_events == again.fault_events


# -- finding and shrinking the seeded bug ---------------------------------------------


@pytest.fixture(scope="module")
def race_report():
    return sched.explore(race_scenario(), mode="dpor", depth=12)


def test_explorer_finds_schedule_dependent_leak(race_report):
    assert not race_report.ok
    run = race_report.counterexample_run()
    assert run is not None and run.violating
    kinds = {breach.kind for breach in run.breaches}
    assert "isolation" in kinds
    assert any(
        breach.process == "sink" and breach.handle == "secret"
        for breach in run.breaches
    )


def test_exhaustive_agrees_on_the_race(race_report):
    exhaustive = sched.explore(
        race_scenario(), mode="exhaustive", depth=6, max_schedules=5000
    )
    assert not exhaustive.ok
    assert race_report.schedules <= exhaustive.schedules


def test_shrunk_schedule_is_one_minimal(race_report):
    minimized = race_report.minimized
    assert minimized is not None
    scenario = race_scenario()
    assert sched.replay_schedule(scenario, minimized).violating
    # 1-minimality: restoring any single non-default decision to the
    # FIFO default loses the violation, as does any shorter prefix.
    for index, decision in enumerate(minimized):
        if decision == 0:
            continue
        trial = list(minimized)
        trial[index] = 0
        assert not sched.replay_schedule(scenario, trial).violating
    for cut in range(len(minimized)):
        assert not sched.replay_schedule(scenario, minimized[:cut]).violating


def test_counterexample_replays_byte_identically(race_report, tmp_path):
    scenario = race_scenario()
    paths = sched.write_counterexample(race_report, scenario, tmp_path)
    schedule_path = [p for p in paths if p.name.endswith(".schedule.json")][0]
    plan_path = [p for p in paths if p.name.endswith(".faultplan.json")][0]
    doc = json.loads(schedule_path.read_text())
    assert doc["schema"] == "schedule/v1"
    assert json.loads(plan_path.read_text())["schema"] == "faultplan/v1"
    decisions = sched.load_schedule(schedule_path)
    first = sched.replay_schedule(scenario, decisions)
    second = sched.replay_schedule(scenario, decisions)
    assert first.violating
    assert first.digest == second.digest
    assert first.digest == race_report.minimized_run.digest


def test_schedule_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "schedule/v1", "decisions": [1, -2]}))
    with pytest.raises(sched.SchedError):
        sched.load_schedule(bad)
    bad.write_text(json.dumps({"schema": "nope/v1", "decisions": []}))
    with pytest.raises(sched.SchedError):
        sched.load_schedule(bad)


# -- DPOR vs exhaustive on the clean fixtures -----------------------------------------


def test_request_mix_clean_and_dpor_reduction():
    """The acceptance bar: DPOR exhaustively verifies the OKWS request
    mix at bounded depth with zero violations, agrees with --exhaustive,
    and explores at least 10x fewer schedules."""
    depth = 4
    dpor = sched.explore(mix_scenario(), mode="dpor", depth=depth)
    exhaustive = sched.explore(
        mix_scenario(), mode="exhaustive", depth=depth, max_schedules=50_000
    )
    assert dpor.ok and dpor.complete
    assert exhaustive.ok and exhaustive.complete
    assert not dpor.dead_edges and not exhaustive.dead_edges
    assert dpor.schedules * 10 <= exhaustive.schedules


def test_clean_site_clean_under_exploration():
    scenario = sched.scenario_from_topology(
        load_topology(TOPOLOGIES / "clean_site.json")
    )
    report = sched.explore(scenario, mode="dpor", depth=6)
    assert report.ok and report.complete
    assert not report.dead_edges  # every covered edge delivered somewhere


def test_leaky_site_leak_is_schedule_dependent():
    """The animated leaky site is clean under FIFO — only exploration
    exposes the interleaving where the contaminated front end forwards."""
    scenario = sched.scenario_from_topology(
        load_topology(TOPOLOGIES / "leaky_site.json")
    )
    assert not scenario.execute().violating
    report = sched.explore(scenario, mode="dpor", depth=6)
    assert not report.ok
    kinds = {b.kind for b in report.counterexample_run().breaches}
    assert "isolation" in kinds


def test_okws_live_topology_bounded_dpor_clean():
    scenario = sched.okws_scenario(max_steps=4000)
    report = sched.explore(
        scenario, mode="dpor", depth=4, max_schedules=500, time_budget=60
    )
    assert report.ok
    assert report.schedules >= 2  # the bound left room to actually branch


def test_budget_truncation_is_reported():
    report = sched.explore(
        mix_scenario(), mode="exhaustive", depth=4, max_schedules=3
    )
    assert not report.complete
    # A truncated clean exploration must not claim edge liveness.
    assert not report.dead_edges


# -- the PR 4 timer/recv race, pinned under adversarial wake orders -------------------


def timer_scenario():
    """A sender races a receiver's timeout: the send always lands before
    the deadline, so under *every* wake order the receiver must get the
    message — due timers retry blocked receives before timing out."""

    handle = 0x3001

    def factory(kernel, observer):
        from repro.core.chunks import ChunkedLabel
        from repro.kernel.ports import Port

        results = []

        def receiver(ctx):
            msg = yield Recv(port=handle, timeout=5_000_000)
            results.append(msg.payload if msg is not None else None)

        receiver_proc = kernel.spawn(receiver, "receiver")
        kernel.ports[handle] = Port(
            handle=handle,
            label=ChunkedLabel.from_label(Label.top()),
            owner=receiver_proc.key,
        )
        receiver_proc.owned_ports.add(handle)

        def sender(ctx):
            yield Send(handle, "ping")
            yield Compute(20_000_000)  # drive the clock past the deadline

        kernel.spawn(sender, "sender")
        kernel.scenario_results = results
        return None

    def invariant(kernel):
        if kernel.scenario_results != ["ping"]:
            return (
                "timeout raced a queued message: receiver saw "
                f"{kernel.scenario_results!r}, wanted ['ping']"
            )
        return None

    return sched.Scenario("timer-race", factory, invariant=invariant)


def test_wake_order_is_a_choice_point():
    run = timer_scenario().execute()
    assert not run.violating
    wake = [p for p in run.decisions if p.kind == "wake"]
    assert wake, "a due timer with runnable tasks must branch the wake order"
    assert wake[0].options == ("timers", "task")


def test_timeout_never_beats_queued_message():
    report = sched.explore(timer_scenario(), mode="exhaustive", depth=8)
    assert report.ok, (
        report.counterexample_run().breaches if not report.ok else ""
    )
    assert report.complete
    assert report.schedules > 1  # wake orders and picks actually varied


def test_deferred_wake_still_delivers():
    scenario = timer_scenario()
    base = scenario.execute()
    script = [
        1 if point.kind == "wake" else point.chosen for point in base.decisions
    ]
    run = scenario.execute(ScriptedSource(script))
    assert not run.violating
    assert any(p.kind == "wake" and p.chosen == 1 for p in run.decisions)


# -- report formats and CLI -----------------------------------------------------------


def test_report_json_and_sarif(race_report):
    doc = race_report.to_json()
    assert doc["schema"] == "sched-report/v1"
    assert doc["ok"] is False
    assert doc["minimized"] == race_report.minimized
    sarif = sched_sarif(race_report)
    results = sarif["runs"][0]["results"]
    assert results, "a violating report must produce SARIF results"
    assert results[0]["level"] == "error"
    assert results[0]["properties"]["schedule"] == race_report.minimized
    assert sarif["runs"][0]["tool"]["driver"]["name"] == "asbsched"


def test_sarif_clean_report_has_no_results():
    report = sched.explore(mix_scenario(), mode="dpor", depth=3)
    assert report.ok
    assert sched_sarif(report)["runs"][0]["results"] == []


def test_cli_explore_race_exits_one_and_writes(tmp_path, capsys):
    code = cli_main(
        [
            "explore",
            "--topology",
            str(TOPOLOGIES / "race_site.json"),
            "--depth",
            "12",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "minimized schedule" in out
    schedule = tmp_path / "race-site.schedule.json"
    assert schedule.exists()
    assert (tmp_path / "race-site.faultplan.json").exists()

    replay_code = cli_main(
        [
            "explore",
            "--topology",
            str(TOPOLOGIES / "race_site.json"),
            "--replay",
            str(schedule),
        ]
    )
    assert replay_code == 1
    assert "VIOLATING" in capsys.readouterr().out


def test_cli_explore_clean_exits_zero_sarif(capsys):
    code = cli_main(
        [
            "explore",
            "--topology",
            str(TOPOLOGIES / "okws_request_mix.json"),
            "--depth",
            "4",
            "--format",
            "sarif",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"] == []


def test_cli_explore_usage_errors(capsys):
    assert cli_main(["explore"]) == 2
    assert (
        cli_main(
            ["explore", "--topology", "x.json", "--okws"]
        )
        == 2
    )
    assert cli_main(["explore", "--topology", "/does/not/exist.json"]) == 2
