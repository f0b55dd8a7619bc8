"""The asblint static pass: rule fixtures, pragmas, reports, tree hygiene."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import asblint
from repro.analysis import rules as R
from repro.analysis.intervals import (
    AbstractLabel,
    AbstractState,
    IV_STAR,
    Interval,
    check_send_interval,
    exact,
)
from repro.core.levels import L1, L3, STAR

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "asblint"


def finding_lines(path: Path):
    return [
        lineno
        for lineno, text in enumerate(path.read_text().splitlines(), start=1)
        if "# FINDING" in text
    ]


# -- the four rule fixtures, flagged at the right file:line --------------------------


@pytest.mark.parametrize(
    "name,rule",
    [
        ("bad_never_pass.py", R.NEVER_PASS),
        ("bad_taint_creep.py", R.TAINT_CREEP),
        ("bad_declassify.py", R.DECLASSIFY_NO_STAR),
        ("bad_handle_leak.py", R.HANDLE_LEAK),
    ],
)
def test_bad_fixture_flagged_at_correct_line(name, rule):
    path = FIXTURES / name
    report = asblint.analyze_file(path)
    assert [d.rule for d in report.diagnostics] == [rule], report.diagnostics
    (marker,) = finding_lines(path)
    diag = report.diagnostics[0]
    assert diag.line == marker
    assert diag.path == str(path)
    assert diag.format().startswith(f"{path}:{marker}:")
    assert diag.rule_name == R.RULES_BY_ID[rule].name


def test_clean_worker_has_zero_findings():
    report = asblint.analyze_file(FIXTURES / "clean_worker.py")
    assert report.diagnostics == []
    assert report.suppressed == []
    # Both the process body and the event-body style handler were seen.
    assert "worker_body" in report.programs
    assert "conn_handler" in report.programs


UNHELD_GRANT = """
def granter(ctx):
    chan = yield from Channel.open()
    h = ctx.env["h"]
    {send}(ctx.env["peer"], {{"type": "ASK"}}, ds=Label({{h: STAR}}, L3))
"""


@pytest.mark.parametrize("send", ["yield Send", "yield from chan.call", "yield from chan.call_nowait"])
def test_chan_call_is_checked_as_the_send_it_makes(send):
    """A grant of a handle the process provably holds no ⋆ for is ASB003
    whether the Send is yielded or made inside ``Channel.call``."""
    report = asblint.analyze_source(UNHELD_GRANT.format(send=send), "<mem>")
    assert [d.rule for d in report.diagnostics] == [R.DECLASSIFY_NO_STAR]


def test_program_whose_only_ipc_is_chan_call_is_discovered():
    src = (
        "def asker(ctx, chan):\n"
        '    reply = yield from chan.call(ctx.env["peer"], {"type": "ASK"})\n'
        "    return reply.payload\n"
    )
    report = asblint.analyze_source(src, "<mem>")
    assert report.programs == ["asker"]
    assert report.diagnostics == []


def test_shipped_tree_is_clean():
    reports = asblint.analyze_paths([ROOT / "src" / "repro" / "servers", ROOT / "examples"])
    assert asblint.findings(reports) == []


# -- pragmas -----------------------------------------------------------------------


def tainted_send(pragma: str = "", comment_above: str = "") -> str:
    """A tiny program whose final Send provably taint-creeps (ASB002)."""
    lines = [
        "def tainted(ctx):",
        '    h = ctx.env["h"]',
        "    yield ChangeLabel(send=Label({h: L3}, L1))",
    ]
    if comment_above:
        lines.append("    " + comment_above)
    lines.append('    yield Send(ctx.env["peer"], {"x": 1})' + pragma)
    return "\n".join(lines) + "\n"


def test_pragma_suppresses_on_same_line():
    src = tainted_send(pragma="  # asblint: ignore[taint-creep]")
    report = asblint.analyze_source(src, "<mem>")
    assert report.diagnostics == []
    assert [d.rule for d in report.suppressed] == [R.TAINT_CREEP]
    assert report.unused_pragmas == []


def test_pragma_on_comment_line_above():
    src = tainted_send(comment_above="# asblint: ignore[ASB002]")
    report = asblint.analyze_source(src, "<mem>")
    assert report.diagnostics == []
    assert [d.rule for d in report.suppressed] == [R.TAINT_CREEP]


def test_bare_pragma_suppresses_all_rules():
    src = tainted_send(pragma="  # asblint: ignore")
    report = asblint.analyze_source(src, "<mem>")
    assert report.diagnostics == []
    assert len(report.suppressed) == 1


def test_wrong_rule_pragma_does_not_suppress_and_is_stale():
    src = tainted_send(pragma="  # asblint: ignore[ASB004]")
    report = asblint.analyze_source(src, "<mem>")
    assert [d.rule for d in report.diagnostics] == [R.TAINT_CREEP]
    assert report.suppressed == []
    assert [line for line, _ in report.unused_pragmas] == [4]


def test_pragma_inside_string_is_not_a_pragma():
    src = tainted_send() + '\nDOC = "# asblint: ignore[ASB002]"\n'
    report = asblint.analyze_source(src, "<mem>")
    assert [d.rule for d in report.diagnostics] == [R.TAINT_CREEP]
    assert report.unused_pragmas == []


# -- reports -----------------------------------------------------------------------


def test_json_report_shape():
    reports = asblint.analyze_paths([FIXTURES / "bad_never_pass.py"])
    payload = json.loads(asblint.render_json(reports))
    assert payload["version"] == 1
    assert {rule["id"] for rule in payload["rules"]} == {
        "ASB001",
        "ASB002",
        "ASB003",
        "ASB004",
    }
    (entry,) = payload["files"]
    (diag,) = entry["diagnostics"]
    assert diag["rule"] == R.NEVER_PASS
    assert diag["rule_name"] == "never-pass"
    assert diag["line"] == finding_lines(FIXTURES / "bad_never_pass.py")[0]
    assert payload["total_findings"] == 1


def test_syntax_error_becomes_parse_diagnostic():
    report = asblint.analyze_source("def broken(:\n", "<mem>")
    assert [d.rule for d in report.diagnostics] == [asblint.PARSE_ERROR]


def test_select_filters_rules():
    report = asblint.analyze_file(FIXTURES / "bad_taint_creep.py", select={R.NEVER_PASS})
    assert report.diagnostics == []


# -- the CLI ------------------------------------------------------------------------


def test_cli_analyze_exit_codes(capsys):
    assert cli.main(["analyze", str(FIXTURES / "clean_worker.py")]) == 0
    assert cli.main(["analyze", str(FIXTURES / "bad_handle_leak.py")]) == 1
    out = capsys.readouterr().out
    assert "ASB004" in out
    assert "handle-leak" in out


def test_cli_analyze_json(capsys):
    assert cli.main(["analyze", "--format", "json", str(FIXTURES / "bad_declassify.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_findings"] == 1


# -- the interval domain ------------------------------------------------------------


def test_interval_check_never_pass_vs_maybe():
    es = AbstractLabel({"h": exact(L3)}, exact(L1))
    verdict = check_send_interval(
        es,
        AbstractLabel.unknown(),
        AbstractLabel.bottom(),
        AbstractLabel({"h": exact(0)}, exact(L3)),
        AbstractLabel.unknown(),
    )
    assert verdict.never_passes
    assert verdict.witness == "h"
    # Widen ES at h to [*, 3]: now it *may* pass, so the verdict is silent.
    maybe = check_send_interval(
        AbstractLabel({"h": Interval(STAR, L3)}, exact(L1)),
        AbstractLabel.unknown(),
        AbstractLabel.bottom(),
        AbstractLabel({"h": exact(0)}, exact(L3)),
        AbstractLabel.unknown(),
    )
    assert not maybe.never_passes


def test_receive_widening_preserves_star_privileges():
    state = AbstractState.fresh_process()
    state.ps = state.ps.with_entry("port", IV_STAR)
    widened = state.after_receive()
    # ⋆ is a fixed point of the send effect: the privilege survives.
    assert widened.ps.definitely_star("port")
    # ...but unrelated handles are no longer provably taint-free.
    assert not widened.ps.definitely_not_star("other")
    assert state.may_hold_star("port")
    assert not state.may_hold_star("other")


# -- ASB000: unknown rules in pragmas -----------------------------------------------


def test_unknown_rule_in_pragma_is_reported_not_silent():
    src = tainted_send(pragma="  # asblint: ignore[taint-kreep]")
    report = asblint.analyze_source(src, "<mem>")
    rules = [d.rule for d in report.diagnostics]
    # The typo'd pragma suppresses nothing, so the real finding survives,
    # and the typo itself is called out as ASB000 at the pragma's line.
    assert R.TAINT_CREEP in rules
    assert R.TOOLING in rules
    asb000 = next(d for d in report.diagnostics if d.rule == R.TOOLING)
    assert "taint-kreep" in asb000.message
    assert asb000.line == 4
    assert asb000.rule_name == "tooling"
    # No stale-pragma double report for the same typo.
    assert report.unused_pragmas == []


def test_mixed_known_and_unknown_pragma_keys():
    src = tainted_send(pragma="  # asblint: ignore[taint-creep, ASB99]")
    report = asblint.analyze_source(src, "<mem>")
    # The known key still works...
    assert [d.rule for d in report.suppressed] == [R.TAINT_CREEP]
    # ...and the unknown one is still reported.
    assert [d.rule for d in report.diagnostics] == [R.TOOLING]
    assert report.unused_pragmas == []


def test_tooling_rule_resolves_but_is_not_in_catalogue():
    assert R.resolve_rule("ASB000") is R.TOOLING_RULE
    assert R.resolve_rule("tooling") is R.TOOLING_RULE
    assert R.TOOLING_RULE not in R.RULES
