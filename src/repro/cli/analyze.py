"""Run the asblint static label-flow checker.

Exits 1 if any finding survives the pragma filter.  --topology links each
finding to the asbcheck edges the flagged program feeds.
"""

from __future__ import annotations

import argparse
from typing import Optional, Set

from repro.cli.common import UsageError, bad_input, emit, load_topology


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument(
        "--topology",
        metavar="FILE",
        help="asbcheck topology document; findings cite the edges they feed",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids/names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="also list analyzed programs"
    )


def _selected(spec: Optional[str]) -> Optional[Set[str]]:
    if not spec:
        return None
    from repro.analysis.rules import resolve_rule

    selected: Set[str] = set()
    for key in spec.split(","):
        key = key.strip()
        if not key:
            continue
        rule = resolve_rule(key)
        if rule is None:
            raise UsageError(f"unknown rule {key!r}")
        selected.add(rule.id)
    return selected


def run(args: argparse.Namespace) -> int:
    from repro.analysis import asblint, rules, sarif

    if args.list_rules:
        for rule in rules.RULES:
            print(f"{rule.id}  {rule.name:<20} {rule.summary}")
        return 0
    if not args.paths:
        raise UsageError("no paths given")
    with bad_input(FileNotFoundError):
        reports = asblint.analyze_paths(args.paths, _selected(args.select))
    if args.topology:
        from repro.analysis.check import link_lint_findings

        reports = link_lint_findings(
            reports, load_topology(args.topology, flag="--topology")
        )

    emit(
        args,
        text=lambda: asblint.format_reports(reports, verbose=args.verbose),
        json=lambda: asblint.render_json(reports),
        sarif=lambda: sarif.render(sarif.asblint_sarif(reports)),
    )
    return 1 if asblint.findings(reports) else 0
