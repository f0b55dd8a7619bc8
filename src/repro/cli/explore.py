"""Run the asbsched schedule-space explorer over a topology.

Animates the topology on the real kernel and drives it through alternative
interleavings (DPOR by default).  Exits 1 on any schedule that breaks the
policy battery or the differential sanitizer, shrunk to a minimal
byte-identically replayable counterexample: --out DIR writes the
schedule/v1 + faultplan/v1 pair, --replay FILE re-executes one.
"""

from __future__ import annotations

import argparse

from repro.cli.common import (
    UsageError,
    bad_input,
    emit,
    load_plan,
    load_policies,
    load_topology,
    one_topology,
)


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", metavar="FILE", help="topology document (topology/v1 JSON)"
    )
    parser.add_argument(
        "--okws",
        action="store_true",
        help="animate and explore the shipped OKWS topology",
    )
    parser.add_argument(
        "--plan",
        metavar="FILE",
        help="faultplan/v1 JSON; fractional rules become explored branches",
    )
    parser.add_argument(
        "--policy",
        metavar="FILE",
        help="policy JSON (list or {\"policies\": [...]}); default: the "
        "topology's embedded battery",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=4000,
        metavar="N",
        help="per-schedule kernel step budget (default: 4000)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help="only the first N choice points branch (default: unbounded)",
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="branch every option at every choice point instead of DPOR",
    )
    parser.add_argument(
        "--dpor",
        dest="exhaustive",
        action="store_false",
        help="dynamic partial-order reduction (the default)",
    )
    parser.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="report the first violating schedule without minimizing it",
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=20_000,
        metavar="N",
        help="schedule budget before truncating (default: 20000)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget before truncating (default: none)",
    )
    parser.add_argument(
        "--replay",
        metavar="FILE",
        help="re-execute one schedule/v1 file instead of exploring",
    )
    parser.set_defaults(exhaustive=False, shrink=True)


def run(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import sarif, sched

    one_topology(args)
    if args.replay and args.format == "sarif":
        raise UsageError("--format sarif applies to explorations, not --replay")
    options = dict(
        plan=load_plan(args.plan, flag="--plan") if args.plan else None,
        fault_seed=args.seed,
        max_steps=args.max_steps,
        policies=load_policies(args.policy),
    )
    with bad_input(ValueError, KeyError, sched.SchedError):
        if args.okws:
            scenario = sched.okws_scenario(**options)
        else:
            scenario = sched.scenario_from_topology(
                load_topology(args.topology), **options
            )

    if args.replay:
        with bad_input(OSError, ValueError, sched.SchedError, flag="--replay"):
            decisions = sched.load_schedule(args.replay)
        result = sched.replay_schedule(scenario, decisions)

        def replayed() -> str:
            lines = [
                f"repro explore: replayed {len(decisions)} decision(s): "
                f"{len(result.steps)} step(s), "
                f"{'VIOLATING' if result.violating else 'clean'}"
            ]
            lines += [f"  BREACH [{b.kind}] {b.message}" for b in result.breaches]
            lines += [f"  SANITIZER {v}" for v in result.sanitizer_violations]
            return "\n".join(lines)

        emit(
            args,
            text=replayed,
            json=lambda: json.dumps(result.to_json(), indent=2),
            to_out=False,
        )
        return 1 if result.violating else 0

    report = sched.explore(
        scenario,
        mode="exhaustive" if args.exhaustive else "dpor",
        depth=args.depth,
        max_schedules=args.max_schedules,
        time_budget=args.time_budget,
        shrink=args.shrink,
    )
    written = []
    if args.out and not report.ok:
        written = sched.write_counterexample(report, scenario, args.out)
    emit(
        args,
        text=lambda: "\n".join(
            [report.format(), *(f"repro explore: wrote {path}" for path in written)]
        ),
        json=lambda: json.dumps(report.to_json(), indent=2),
        sarif=lambda: sarif.render(sarif.sched_sarif(report)),
        to_out=False,
    )
    return 0 if report.ok else 1
