"""asblint — the file-level driver for the static label-flow pass.

Feeds Python sources through :mod:`repro.analysis.astflow`, applies
inline suppression pragmas, and renders human- and machine-readable
reports.

Pragma syntax (the whole comment, anywhere on the line)::

    yield Send(...)             # asblint: ignore[ASB004]
    # asblint: ignore[never-pass, ASB003]
    yield Send(...)             # asblint: ignore

A pragma suppresses matching diagnostics anchored to its own line, or —
when it is a pure comment line — to the line directly below it.  Rules
may be named by id (``ASB001``) or by name (``never-pass``); a bare
``ignore`` suppresses every rule.  Pragmas that suppress nothing are
reported as stale so suppressions cannot quietly outlive the code they
excused, and a pragma naming a rule that does not exist gets an ASB000
finding (it used to silently suppress nothing — the misspelled
``ignore[ASB04]`` looked identical to a working one).
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis import rules as R
from repro.analysis.astflow import ProgramAnalyzer, discover_programs

#: Pseudo-rule id for tooling problems: parse failures, unknown pragma rules.
PARSE_ERROR = R.TOOLING

PRAGMA_RE = re.compile(r"#\s*asblint:\s*ignore(?:\[([^\]]*)\])?")

#: Directory names never worth analyzing.
SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class Pragma:
    """One ``# asblint: ignore[...]`` comment."""

    __slots__ = ("line", "rules", "used", "unknown")

    def __init__(
        self,
        line: int,
        rules: Optional[Set[str]],
        unknown: Optional[List[str]] = None,
    ):
        self.line = line
        #: None means "all rules"; otherwise a set of rule ids.
        self.rules = rules
        self.used = False
        #: Keys in the bracket list that resolve to no rule at all.
        self.unknown: List[str] = unknown or []

    def matches(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules

    def spec(self) -> str:
        if self.rules is None:
            return ""
        return ",".join(sorted(self.rules))


def scan_pragmas(source: str) -> Dict[int, Pragma]:
    """Map line number → pragma.  Only genuine comment tokens count
    (pragma-shaped text inside strings and docstrings is ignored); a
    pragma on a comment-only line is registered for the following line."""
    pragmas: Dict[int, Pragma] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = PRAGMA_RE.search(tok.string)
            if not match:
                continue
            spec = match.group(1)
            rules: Optional[Set[str]] = None
            unknown: List[str] = []
            if spec is not None:
                rules = set()
                for key in spec.split(","):
                    key = key.strip()
                    if not key:
                        continue
                    rule = R.resolve_rule(key)
                    if rule is None:
                        # An unknown key suppresses nothing; remember it so
                        # the caller can report ASB000 instead of letting the
                        # typo masquerade as a working suppression.
                        unknown.append(key)
                    else:
                        rules.add(rule.id)
            lineno = tok.start[0]
            own_line = tok.line[: tok.start[1]].strip() == ""
            target = lineno + 1 if own_line else lineno
            pragmas[target] = Pragma(lineno, rules, unknown)
    except tokenize.TokenError:  # pragma: no cover - caller reports the parse error
        pass
    return pragmas


def analyze_source(
    source: str, path: str, select: Optional[Set[str]] = None
) -> R.FileReport:
    """Analyze one file's source text."""
    report = R.FileReport(path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        report.diagnostics.append(
            R.Diagnostic(
                path=path,
                line=err.lineno or 1,
                col=(err.offset or 1),
                rule=PARSE_ERROR,
                message=f"file does not parse: {err.msg}",
            )
        )
        return report

    diagnostics: List[R.Diagnostic] = []
    for program in discover_programs(tree):
        report.programs.append(program.qualname)
        analyzer = ProgramAnalyzer(program, path)
        diagnostics.extend(analyzer.run())
        report.sends_checked += analyzer.sends_checked
    if select:
        diagnostics = [d for d in diagnostics if d.rule in select]

    pragmas = scan_pragmas(source)
    for diag in diagnostics:
        pragma = pragmas.get(diag.line)
        if pragma is not None and pragma.matches(diag.rule):
            pragma.used = True
            report.suppressed.append(diag)
        else:
            report.diagnostics.append(diag)
    for pragma in pragmas.values():
        for key in pragma.unknown:
            diag = R.Diagnostic(
                path=path,
                line=pragma.line,
                col=1,
                rule=PARSE_ERROR,
                message=(
                    f"unknown rule {key!r} in asblint pragma "
                    "(suppresses nothing; see --list-rules)"
                ),
            )
            if not select or diag.rule in select:
                report.diagnostics.append(diag)
        # A pragma with unknown keys already gets ASB000; reporting it as
        # stale too would double-count the same typo.
        if not pragma.used and not pragma.unknown:
            report.unused_pragmas.append((pragma.line, pragma.spec()))
    report.diagnostics.sort(key=lambda d: (d.line, d.col, d.rule))
    report.unused_pragmas.sort()
    return report


def analyze_file(path: Union[str, Path], select: Optional[Set[str]] = None) -> R.FileReport:
    text = Path(path).read_text(encoding="utf-8")
    return analyze_source(text, str(path), select)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & SKIP_DIRS:
                    continue
                if any(part.endswith(".egg-info") for part in candidate.parts):
                    continue
                files.append(candidate)
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return files


def analyze_paths(
    paths: Sequence[Union[str, Path]], select: Optional[Set[str]] = None
) -> List[R.FileReport]:
    return [analyze_file(path, select) for path in iter_python_files(paths)]


# -- rendering ---------------------------------------------------------------------


def findings(reports: Iterable[R.FileReport]) -> List[R.Diagnostic]:
    out: List[R.Diagnostic] = []
    for report in reports:
        out.extend(report.diagnostics)
    return out


def format_reports(reports: Sequence[R.FileReport], verbose: bool = False) -> str:
    lines: List[str] = []
    total = 0
    suppressed = 0
    programs = 0
    stale: List[Tuple[str, int, str]] = []
    for report in reports:
        programs += len(report.programs)
        suppressed += len(report.suppressed)
        for diag in report.diagnostics:
            total += 1
            lines.append(diag.format())
        for line, spec in report.unused_pragmas:
            stale.append((report.path, line, spec))
    for path, line, spec in stale:
        detail = f"[{spec}]" if spec else ""
        lines.append(f"{path}:{line}:1: stale pragma: asblint: ignore{detail} suppresses nothing")
    if verbose:
        for report in reports:
            for program in report.programs:
                lines.append(f"analyzed {report.path}::{program}")
    noun = "finding" if total == 1 else "findings"
    summary = (
        f"asblint: {total} {noun} in {programs} programs "
        f"across {len(reports)} files, "
        f"{sum(r.sends_checked for r in reports)} sends checked"
    )
    if suppressed:
        summary += f" ({suppressed} suppressed by pragma)"
    lines.append(summary)
    return "\n".join(lines)


def reports_to_json(reports: Sequence[R.FileReport]) -> Dict[str, object]:
    return {
        "version": 1,
        "rules": [
            {"id": rule.id, "name": rule.name, "summary": rule.summary}
            for rule in R.RULES
        ],
        "files": [
            {
                "path": report.path,
                "programs": report.programs,
                "diagnostics": [d.to_json() for d in report.diagnostics],
                "suppressed": [d.to_json() for d in report.suppressed],
                "stale_pragmas": [
                    {"line": line, "rules": spec}
                    for line, spec in report.unused_pragmas
                ],
            }
            for report in reports
        ],
        "total_findings": sum(len(r.diagnostics) for r in reports),
    }


def render_json(reports: Sequence[R.FileReport]) -> str:
    return json.dumps(reports_to_json(reports), indent=2, sort_keys=False)
