"""The shared SARIF 2.1.0 emitter behind ``--format sarif``."""

from __future__ import annotations

import json
from pathlib import Path

from repro import cli
from repro.analysis import asblint, sarif
from repro.analysis.check import run_check
from repro.analysis.model import load

TOPOLOGIES = Path(__file__).resolve().parents[1] / "examples" / "topologies"

LEAKY_SOURCE = '''\
from repro.kernel.syscalls import Send
from repro.core.labels import Label

def dead_sender(ctx):
    port = yield NewPort()
    yield Send(port, v=Label({}, 0))  # asblint: ignore[no-such-rule]
'''


def test_asblint_sarif_shape(tmp_path):
    path = tmp_path / "prog.py"
    path.write_text(LEAKY_SOURCE)
    doc = sarif.asblint_sarif(asblint.analyze_paths([path]))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "asblint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"ASB001", "ASB002", "ASB003", "ASB004", "ASB000"} <= rule_ids
    # The unknown-rule pragma surfaces as a warning-level ASB000 result
    # with a physical location.
    asb000 = [r for r in run["results"] if r["ruleId"] == "ASB000"]
    assert asb000 and asb000[0]["level"] == "warning"
    loc = asb000[0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("prog.py")
    assert loc["region"]["startLine"] == 6
    json.dumps(doc)


def test_check_sarif_carries_traces():
    report = run_check(load(TOPOLOGIES / "leaky_site.json"))
    doc = sarif.check_sarif(report)
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "asbcheck"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {
        "isolation",
        "mandatory-declassifier",
        "capability-confinement",
        "dead-edge",
    }
    results = run["results"]
    assert len(results) == 3  # the three violated policies
    isolation = next(r for r in results if r["ruleId"] == "isolation")
    assert isolation["level"] == "error"
    names = {
        loc["fullyQualifiedName"]
        for entry in isolation["locations"]
        for loc in entry.get("logicalLocations", [])
    }
    assert "leaky-site/sink_v" in names
    trace = isolation["properties"]["trace"]
    assert [s["edge"] for s in trace] == ["worker_u->front", "front->sink"]
    json.dumps(doc)


def test_clean_check_sarif_has_no_results():
    report = run_check(load(TOPOLOGIES / "clean_site.json"))
    assert sarif.check_sarif(report)["runs"][0]["results"] == []


def test_cli_format_sarif_round_trips(tmp_path, capsys):
    path = tmp_path / "prog.py"
    path.write_text(LEAKY_SOURCE)
    code = cli.main(["analyze", str(path), "--format", "sarif"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["tool"]["driver"]["name"] == "asblint"
    assert code == 1  # the ASB000 finding fails the run

    code = cli.main(
        ["check", "--topology", str(TOPOLOGIES / "leaky_site.json"),
         "--format", "sarif"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["tool"]["driver"]["name"] == "asbcheck"
    assert code == 1
