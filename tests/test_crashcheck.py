"""The crash-consistency checker: exhaustive enumeration, the oracle,
minimization, byte-identical replay, and the CLI surface."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.faults.plan import FaultPlan
from repro.store import crashcheck as CC
from repro.store import wal


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """Record the board workload once for the whole module (boots a full
    OKWS site); every offline check shares the image."""
    path = str(tmp_path_factory.mktemp("crashcheck") / "wal.log")
    data, boot = CC.record_workload(path)
    return data, boot


def test_recording_is_clean_and_phased(recording):
    data, boot = recording
    scanned = wal.scan(data)
    assert not scanned.torn
    assert boot < len(scanned.records)
    # Boot = schema (users, posts) + user seeding; workload = 3 drafts +
    # 1 publish, one single-write transaction each.
    workload = [r for i, r in enumerate(scanned.records) if i >= boot]
    assert {r.type for r in workload} == {"begin", "write", "commit"}
    assert len(workload) == 3 * len(CC.BOARD_REQUESTS)


def test_enumeration_is_exhaustive(recording):
    """Every byte of a clean image is a distinct crash point: for each
    record, its boundary plus every torn prefix length."""
    data, _ = recording
    points = CC.crash_points(data)
    assert len(points) == len(data)
    assert len({(p.at_io, p.torn_bytes) for p in points}) == len(points)
    records = wal.scan(data).records
    assert max(p.at_io for p in points) == len(records)
    assert all(0 <= p.torn_bytes < records[p.at_io - 1].length for p in points)


def test_crash_points_refuse_torn_recordings(recording):
    data, _ = recording
    with pytest.raises(ValueError):
        CC.crash_points(data[:-1])


def test_strict_recovery_survives_every_crash_point(recording):
    """The acceptance bar: durability and IFC monotonicity hold at every
    log boundary and every torn-tail prefix."""
    data, boot = recording
    report = CC.sweep(data, boot_records=boot, label_check=True)
    assert report.points == len(data)
    assert report.ok
    assert report.failures == []
    assert report.plan is None


def test_broken_recovery_is_caught_and_minimized(recording):
    data, boot = recording
    report = CC.sweep(data, boot_records=boot, label_check=False)
    assert not report.ok
    kinds = {v.kind for f in report.failures for v in f.violations}
    # Naive redo resurrects uncommitted rows (atomicity), loses rows the
    # oracle keeps when double-applied writes poison the engine
    # (durability), and applies unauthorized declassifications
    # (ifc-weakening).
    assert kinds == {"atomicity", "durability", "ifc-weakening"}
    # Minimization lands in the workload phase (replayable) and still
    # reproduces offline.
    assert report.minimized is not None
    assert report.minimized.at_io > boot
    assert CC.check_prefix(data[: report.minimized.offset], label_check=False)
    # No failing workload-phase point is cheaper than the minimum.
    cheapest = min(
        (f.point for f in report.failures if f.point.at_io > boot),
        key=lambda p: (p.at_io, p.torn_bytes),
    )
    assert report.minimized == cheapest


# -- the oracle is a function of the record boundary ------------------------------------


def _per_point_sweep(data, boot, label_check):
    """`sweep` spelled point by point: `check_prefix` on each crash image
    alone, computing its own oracle, and the same for each minimization
    candidate."""
    points = CC.crash_points(data)
    report = CC.CrashcheckReport(
        workload="board",
        wal_bytes=len(data),
        records=len(wal.scan(data).records),
        boot_records=boot,
        points=len(points),
        label_check=label_check,
    )
    for point in points:
        violations = CC.check_prefix(data[: point.offset], label_check)
        if violations:
            report.failures.append(CC.PointResult(point, violations))
    failing = [f.point for f in report.failures]
    candidates = sorted(
        [p for p in failing if p.at_io > boot] or failing, key=lambda p: (p.at_io, p.torn_bytes)
    )
    report.minimized = next(
        (p for p in candidates if CC.check_prefix(data[: p.offset], label_check)), None
    )
    if report.minimized is not None:
        report.plan = CC.counterexample_plan(data, report.minimized, label_check=label_check)
    return report


def test_the_oracle_at_a_torn_point_is_its_boundary_oracle(recording):
    data, _ = recording
    for label_check in (True, False):
        for point in CC.crash_points(data):
            torn = CC.prefix_oracle(data[: point.offset], label_check)
            boundary = CC.prefix_oracle(data[: point.offset - point.torn_bytes], label_check)
            assert torn == boundary, point


@pytest.mark.parametrize("label_check", [True, False])
def test_sweep_equals_the_per_point_spelling(recording, label_check):
    data, boot = recording
    report = CC.sweep(data, boot_records=boot, label_check=label_check)
    assert report.to_json() == _per_point_sweep(data, boot, label_check).to_json()


@pytest.mark.parametrize("label_check", [True, False])
def test_a_sweep_computes_one_oracle_per_record(recording, monkeypatch, label_check):
    # 22 references for 2,246 crash points, the minimization included;
    # the recovery under test still runs at every point.
    data, boot = recording
    calls = {"reference": 0, "recovery": 0}
    reference, recovery = CC.reference_state, CC.replay_image

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(CC, "reference_state", counted("reference", reference))
    monkeypatch.setattr(CC, "replay_image", counted("recovery", recovery))
    report = CC.sweep(data, boot_records=boot, label_check=label_check)
    assert calls["reference"] == report.records == len(wal.scan(data).records)
    extra = 0 if label_check else 1  # minimization re-verifies its winner
    assert calls["recovery"] == report.points + extra == len(data) + extra


def test_check_prefix_alone_computes_its_own_oracle(recording):
    data, _ = recording
    assert CC.check_prefix(data) == []
    assert CC.check_prefix(data[:-3]) == []


def test_counterexample_plan_roundtrips_as_a_faultplan(recording):
    data, boot = recording
    report = CC.sweep(data, boot_records=boot, label_check=False)
    doc = report.plan
    assert doc["schema"] == "faultplan/v1"
    # The loader must accept the document despite the extra metadata key.
    plan = FaultPlan.from_json(doc)
    (rule,) = plan.rules
    assert rule.kind == "crash_at_io"
    assert rule.at_io == report.minimized.at_io
    assert rule.max_fires == 1
    meta = doc["crashcheck"]
    assert meta["sha256"] == CC.image_digest(data[: report.minimized.offset])
    assert meta["offset"] == report.minimized.offset


def test_ifc_weakening_points_to_the_publish_transaction(recording):
    """The sharpest defect class: crash inside the final declassifying
    transaction (publish) — naive redo applies the uncommitted
    declassification, turning private drafts public."""
    data, _ = recording
    records = wal.scan(data).records
    publish_write = next(
        i + 1
        for i, r in enumerate(records)
        if r.type == "write" and r.payload["declass"]
    )
    # Crash at the commit boundary: the declassifying write is durable,
    # its commit is not.
    prefix = data[: records[publish_write].offset]
    violations = CC.check_prefix(prefix, label_check=False)
    assert any(v.kind == "ifc-weakening" for v in violations)
    # Strict recovery at the same point: clean.
    assert CC.check_prefix(prefix, label_check=True) == []


def test_replay_reproduces_byte_identically(recording, tmp_path):
    data, boot = recording
    report = CC.sweep(data, boot_records=boot, label_check=False)
    result = CC.replay_counterexample(report.plan, str(tmp_path))
    assert result.crashed
    assert result.byte_identical
    assert result.crash_bytes == report.minimized.offset
    assert result.reproduced


def test_replay_of_a_torn_point_is_byte_identical(recording, tmp_path):
    data, _ = recording
    records = wal.scan(data).records
    last = records[-1]
    point = CC.CrashPoint(len(records), 5, last.offset + 5)
    doc = CC.counterexample_plan(data, point, label_check=True)
    result = CC.replay_counterexample(doc, str(tmp_path))
    assert result.crashed
    assert result.byte_identical
    # Strict recovery at this point is clean, so nothing reproduces.
    assert result.violations == []
    assert not result.reproduced


def test_report_json_shape(recording):
    data, boot = recording
    doc = CC.sweep(data, boot_records=boot, label_check=True).to_json()
    assert doc["schema"] == "crashcheck/v1"
    assert doc["ok"] is True
    assert doc["points"] == len(data)
    json.dumps(doc)  # must be serializable as-is


def test_crashcheck_sarif(recording):
    from repro.analysis import sarif

    data, boot = recording
    report = CC.sweep(data, boot_records=boot, label_check=False)
    doc = sarif.crashcheck_sarif(report)
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "crashcheck"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {
        "durability",
        "atomicity",
        "ifc-weakening",
    }
    assert run["results"]
    assert all("plan" in r["properties"] for r in run["results"])

    clean = sarif.crashcheck_sarif(CC.sweep(data, boot_records=boot))
    assert clean["runs"][0]["results"] == []


def test_cli_sweep_exit_codes(recording, tmp_path, capsys):
    data, _ = recording
    image = tmp_path / "image.wal"
    image.write_bytes(data)
    assert (
        cli_main(["crashcheck", "--wal", str(image), "--boot-records", "10"]) == 0
    )
    plan_path = tmp_path / "min-plan.json"
    code = cli_main(
        [
            "crashcheck",
            "--wal",
            str(image),
            "--boot-records",
            "10",
            "--broken-recovery",
            "--plan-out",
            str(plan_path),
            "--format",
            "json",
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    assert code == 1
    plan_doc = json.loads(plan_path.read_text())
    assert plan_doc["crashcheck"]["label_check"] is False
    report_doc = json.loads((tmp_path / "report.json").read_text())
    assert report_doc["ok"] is False
    capsys.readouterr()


def test_cli_replay_exit_codes(recording, tmp_path, capsys):
    data, boot = recording
    report = CC.sweep(data, boot_records=boot, label_check=False)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(report.plan))
    workdir = tmp_path / "replay"
    workdir.mkdir()
    assert cli_main(["crashcheck", "--replay", str(plan_path), "--dir", str(workdir)]) == 1
    assert os.path.exists(workdir / "replay-wal.log.crash")
    capsys.readouterr()


def test_cli_rejects_bad_inputs(tmp_path, capsys):
    assert cli_main(["crashcheck", "--wal", str(tmp_path / "missing.wal")]) == 2
    bad = tmp_path / "notaplan.json"
    bad.write_text("{}")
    assert cli_main(["crashcheck", "--replay", str(bad)]) == 2
    capsys.readouterr()
