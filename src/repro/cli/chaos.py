"""Run a seeded fault-injection campaign against the OKWS site.

Boots the full site once per seed, injects the plan, and enforces the
reliability invariants (DESIGN.md §10); exits 1 when a campaign fails one
or when the same (plan, seed) pair does not replay the identical fault
log.  The chaos-report/v1 document goes to --out, or to stdout under
--format json.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli.common import emit, load_plan


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--plan",
        required=True,
        metavar="FILE",
        help="faultplan/v1 JSON (see examples/faultplans/)",
    )
    parser.add_argument(
        "--seeds",
        type=lambda s: [int(x) for x in s.split(",") if x.strip()],
        default=None,
        metavar="N[,N...]",
        help="injector seeds, one campaign each (default: the one --seed)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="back ok-dbproxy with a wal/v1 store (one fresh file per "
        "seed at PATH.seed-N); crashes then exercise log recovery",
    )
    parser.add_argument(
        "--users", type=int, default=8, metavar="N", help="site users (default: 8)"
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=4,
        metavar="N",
        help="requests per user (default: 4)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="closed-loop wave size (default: 8)",
    )
    parser.add_argument(
        "--min-completion",
        type=float,
        default=0.9,
        metavar="F",
        help="liveness floor as a fraction (default: 0.9)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        metavar="N",
        help="runs per seed for the determinism audit (default: 2; 1 skips it)",
    )


def run(args: argparse.Namespace) -> int:
    import json

    from repro.faults import campaign

    plan = load_plan(args.plan)
    quiet = args.format == "json"

    def one_run(seed: int):
        store_path = None
        if args.store is not None:
            # Each campaign (and each determinism repeat) recovers from an
            # empty store; a reused file would replay the previous run's log.
            store_path = f"{args.store}.seed-{seed}"
            for stale in (store_path, store_path + ".crash"):
                if os.path.exists(stale):
                    os.unlink(stale)
        return campaign.run_campaign(
            plan,
            seed=seed,
            users=args.users,
            rounds=args.rounds,
            concurrency=args.concurrency,
            min_completion=args.min_completion,
            store_path=store_path,
        )

    results = []
    for seed in args.seeds if args.seeds is not None else [args.seed]:
        result = one_run(seed)
        if args.repeat > 1:
            # Determinism audit: the same (plan, seed) must replay the
            # identical fault event log, byte for byte.
            for _ in range(args.repeat - 1):
                if one_run(seed).events_json != result.events_json:
                    print(
                        f"repro chaos: seed {seed} is NOT deterministic "
                        "(fault logs differ between identical runs)",
                        file=sys.stderr,
                    )
                    return 1
            result.checks["deterministic"] = True
        results.append(result)
        if not quiet:
            print(f"== chaos campaign: plan={args.plan} seed={seed} ==")
            for line in result.summary_lines():
                print(f"  {line}")

    def report() -> str:
        doc = {
            "schema": "chaos-report/v1",
            "plan_path": args.plan,
            "campaigns": [r.to_json() for r in results],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    if quiet or args.out:
        # Text mode has streamed its lines above; the document is the
        # report either way.
        emit(args, report, report)
    failed = [r for r in results if not r.passed]
    if failed:
        print(
            f"repro chaos: {len(failed)}/{len(results)} campaign(s) FAILED",
            file=sys.stderr,
        )
        return 1
    if not quiet:
        print(f"repro chaos: {len(results)} campaign(s) passed")
    return 0
