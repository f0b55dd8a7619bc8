"""Regenerate the paper's numbers as BENCH_*.json documents.

Writes one BENCH_<figure>.json per figure into the --out directory
(default: the current one); --only scale selects the sharded repro.cluster
scaling bench (DESIGN.md §13).  --validate checks existing documents
instead of running, and --guard exits 1 on any difference from committed
baselines: every value is simulated, so two runs write the same bytes.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import bad_input, emit


def configure(parser: argparse.ArgumentParser) -> None:
    # NB: no set_defaults(out=...) here — the common parent shares its
    # action objects, so a subparser-level default would leak into every
    # other command.  run() resolves None to ".".
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-scale grids (about a minute) instead of the paper's",
    )
    parser.add_argument(
        "--only",
        metavar="FIGS",
        help="comma-separated subset of fig6,fig7,fig8,fig9,labelops,eventproc "
        "(the default run) and scale (the sharded repro.cluster bench)",
    )
    parser.add_argument(
        "--validate",
        nargs="+",
        metavar="FILE",
        help="validate existing BENCH_*.json files instead of running",
    )
    parser.add_argument(
        "--guard",
        nargs="+",
        metavar="BASELINE",
        help="after running, fail if the fresh documents differ from these "
        "committed baselines anywhere (simulated numbers are deterministic)",
    )


def run(args: argparse.Namespace) -> int:
    import json

    from repro.obs import bench

    if args.validate:
        results = bench.validate_files(args.validate)
        for path, problems in results.items():
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            if not problems:
                print(f"{path}: ok")
        return 1 if any(results.values()) else 0

    only = [f.strip() for f in args.only.split(",") if f.strip()] if args.only else None
    out_dir = args.out or "."
    with bad_input(ValueError):
        paths = bench.run_bench(out_dir=out_dir, quick=args.quick, only=only)
    problems = bench.guard_files(args.guard, out_dir) if args.guard else None

    def text() -> str:
        lines = [f"repro bench: {len(paths)} document(s) written"]
        if args.guard and not problems:
            lines.append(
                f"repro bench: guard passed ({len(args.guard)} baseline(s) identical)"
            )
        return "\n".join(lines)

    doc = {"written": paths, "guard_problems": problems}
    emit(args, text, lambda: json.dumps(doc, indent=2, sort_keys=True), to_out=False)
    if problems:
        for problem in problems:
            print(f"repro bench: guard: {problem}", file=sys.stderr)
        print(
            f"repro bench: guard FAILED ({len(problems)} difference(s) from the baseline)",
            file=sys.stderr,
        )
        return 1
    return 0
