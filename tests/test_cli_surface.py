"""The unified CLI surface: shared options, exit codes, one spelling each."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import COMMANDS, build_parser, main

#: chaos is the one command with a required option.
REQUIRED = {"chaos": ["--plan", "p.json"]}


@pytest.mark.parametrize("command", [name for name, _, _ in COMMANDS])
def test_every_subcommand_accepts_the_common_options(command):
    required = REQUIRED.get(command, [])
    args = build_parser().parse_args(
        [command, *required, "--format", "json", "--out", "somewhere", "--seed", "7"]
    )
    assert args.format == "json"
    assert args.out == "somewhere"
    assert args.seed == 7


def test_out_default_is_none_everywhere():
    # parents=[common] shares action objects between subparsers: a
    # subparser-level set_defaults would leak its default into every
    # command (bench's "." would become analyze's output file).
    parser = build_parser()
    for command in ("analyze", "bench", "explore"):
        assert parser.parse_args([command]).out is None


@pytest.mark.parametrize("command", [name for name, _, sarif in COMMANDS if not sarif])
def test_sarif_is_a_usage_error_outside_the_analysis_commands(command, monkeypatch, capsys):
    # Rejected from the table, before the command does any work.
    def entered(args):
        raise AssertionError(f"{command} ran under --format sarif")

    (module,) = [module for name, module, _ in COMMANDS if name == command]
    monkeypatch.setattr(module, "run", entered)
    assert main([command, *REQUIRED.get(command, []), "--format", "sarif"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {command}: --format sarif is only supported by")


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],                                  # no topology
        ["explore", "--okws", "--plan", "/no/such/plan.json"],
        ["bench", "--only", "fig99"],               # unknown figure
        ["analyze", "src", "--select", "nope"],     # unknown rule
        ["analyze"],                                # no paths
        ["crashcheck", "--wal", "/no/such/wal"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_usage_errors_share_one_shape(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {argv[0]}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "explore"])
@pytest.mark.parametrize(
    "document",
    [{"kind": "isolation"}, {"policies": []}, [], {"policy": [{"kind": "dead-edge"}]}],
    ids=["bare-policy", "empty-battery", "empty-list", "no-policies-key"],
)
def test_a_policy_file_that_checks_nothing_is_a_usage_error(command, document, tmp_path, capsys):
    # Read as an empty battery, these would report "0 policies checked"
    # and pass.
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(document))
    clean = "examples/topologies/clean_site.json"
    assert main([command, "--topology", clean, "--policy", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {command}: --policy: ")


def test_explore_replay_honours_format_json(tmp_path, capsys):
    race = "examples/topologies/race_site.json"
    assert main(["explore", "--topology", race, "--out", str(tmp_path)]) == 1
    schedule = str(tmp_path / "race-site.schedule.json")
    capsys.readouterr()
    assert main(["explore", "--topology", race, "--replay", schedule, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "race-site" and doc["breaches"]
    # A replay has no SARIF producer: refused, not silently printed as text.
    assert main(["explore", "--topology", race, "--replay", schedule, "--format", "sarif"]) == 2


def test_pre_unification_json_flags_are_gone():
    # One spelling per option: `--json` (and `chaos --json FILE`) were
    # hidden aliases for --format json / --out FILE until PR 12.
    for argv in (
        ["analyze", "--json", "src"],
        ["check", "--okws", "--json"],
        ["explore", "--okws", "--json"],
        ["chaos", "--plan", "p", "--json", "report.json"],
    ):
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(argv)
        assert usage.value.code == 2


def test_analyze_writes_report_to_out(tmp_path):
    target = tmp_path / "findings.json"
    code = main(
        [
            "analyze",
            "src/repro/okws/sharding.py",
            "--format",
            "json",
            "--out",
            str(target),
        ]
    )
    assert code in (0, 1)  # report emitted either way
    doc = json.loads(target.read_text())
    assert "rules" in doc


def test_bench_scale_selects_the_scale_figure(monkeypatch, tmp_path, capsys):
    calls = {}

    def fake_run_bench(out_dir=".", quick=False, only=None, echo=print):
        calls["only"] = only
        calls["out_dir"] = out_dir
        return []

    from repro.obs import bench

    monkeypatch.setattr(bench, "run_bench", fake_run_bench)
    assert main(["bench", "--only", "scale", "--quick", "--out", str(tmp_path)]) == 0
    assert calls["only"] == ["scale"]
    assert calls["out_dir"] == str(tmp_path)
    assert main(["bench", "--only", "fig7,scale"]) == 0
    assert calls["only"] == ["fig7", "scale"]
    assert calls["out_dir"] == "."
    # One spelling each: four bench flags beside the common three.
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == {
        "--help", "--format", "--out", "--seed",
        "--quick", "--only", "--validate", "--guard",
    }


def test_bench_unknown_figure_is_a_usage_error():
    assert main(["bench", "--only", "fig99"]) == 2


def test_bench_validate_exit_codes(tmp_path):
    good = tmp_path / "BENCH_ok.json"
    good.write_text(json.dumps(json.load(open("BENCH_fig6.json"))))
    assert main(["bench", "--validate", str(good)]) == 0
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{}")
    assert main(["bench", "--validate", str(bad)]) == 1


def test_chaos_seed_feeds_the_single_campaign(monkeypatch):
    seen = {}

    def fake_run_campaign(plan, seed, **kwargs):
        seen["seed"] = seed

        class R:
            passed = True
            checks = {}

            def summary_lines(self):
                return []

            def to_json(self):
                return {}

        return R()

    import repro.faults.campaign as campaign
    import repro.faults.plan as plan_mod

    monkeypatch.setattr(campaign, "run_campaign", fake_run_campaign)
    monkeypatch.setattr(plan_mod, "load_plan", lambda path: object())
    assert (
        main(["chaos", "--plan", "whatever.json", "--seed", "99", "--repeat", "1"])
        == 0
    )
    assert seen["seed"] == 99


def test_package_version_is_single_sourced():
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    root = Path(repro.__file__).resolve().parents[2]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    # No literal to drift: the build reads repro.__version__.
    assert "version" not in pyproject["project"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
