"""The ``python -m repro`` command line: a table of subcommand modules.

Each module exposes ``configure(parser)`` and ``run(args) -> int``; its
docstring is its ``--help``.  What all of them share — the
``--format/--out/--seed`` options, the exit codes (0 clean, 1 violation,
failed campaign or guarded regression, 2 usage error), the SARIF gate —
is decided here, once.  README.md §"The command line" is the reference.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli import analyze, bench, chaos, check, crashcheck, explore, run, tour
from repro.cli.common import UsageError

#: (name, module, has a SARIF producer), in the order ``--help`` lists them.
COMMANDS = (
    ("tour", tour, False),
    ("analyze", analyze, True),
    ("check", check, True),
    ("explore", explore, True),
    ("run", run, False),
    ("chaos", chaos, False),
    ("crashcheck", crashcheck, True),
    ("bench", bench, False),
)
_SARIF_COMMANDS = "/".join(name for name, _, sarif in COMMANDS if sarif)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asbestos labels & event processes reproduction "
        "(exit codes: 0 clean, 1 violation or regression, 2 usage error)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help=f"report format (sarif: GitHub code-scanning 2.1.0; {_SARIF_COMMANDS} only)",
    )
    common.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output location: report file (analyze/check/run/chaos/crashcheck) "
        "or directory (bench documents, explore counterexamples)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="deterministic seed where one applies (explore fault draws, "
        "chaos campaigns); ignored by fully deterministic commands",
    )
    sub = parser.add_subparsers(dest="command")
    for name, module, sarif in COMMANDS:
        doc = module.__doc__ or ""  # None under -OO
        summary = " ".join(doc.partition("\n\n")[0].split())
        command = sub.add_parser(name, parents=[common], help=summary, description=doc)
        module.configure(command)
        command.set_defaults(run=module.run, sarif=sarif)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Bare ``python -m repro`` is the tour.
    args = build_parser().parse_args(argv or ["tour"])
    try:
        if args.format == "sarif" and not args.sarif:
            raise UsageError(f"--format sarif is only supported by {_SARIF_COMMANDS}")
        return args.run(args)
    except UsageError as err:
        print(f"repro {args.command}: {err}", file=sys.stderr)
        return 2
