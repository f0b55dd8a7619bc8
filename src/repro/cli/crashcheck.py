"""Enumerate every crash point of the store's write-ahead log and verify
recovery (durability + IFC monotonicity).

Records a write workload into the wal/v1 store, crashes it at every record
boundary and every torn-tail prefix, and runs real recovery at each one.
--broken-recovery swaps in the naive redo recovery, which must be caught
(exit 1) and minimized to a byte-identically replayable faultplan/v1
counterexample (--plan-out, --replay).
"""

from __future__ import annotations

import argparse
import os

from repro.cli.common import UsageError, bad_input, emit


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--broken-recovery",
        action="store_true",
        help="check the deliberately broken recovery (naive redo, no "
        "label check) instead — must exit 1 with a minimized plan",
    )
    parser.add_argument(
        "--replay",
        metavar="FILE",
        help="replay one minimized counterexample plan live instead of "
        "sweeping; exits 1 when it reproduces byte-identically",
    )
    parser.add_argument(
        "--dir",
        metavar="DIR",
        help="directory for the recorded/replayed store files "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--wal",
        metavar="FILE",
        help="sweep an existing wal/v1 image instead of recording the "
        "board workload",
    )
    parser.add_argument(
        "--boot-records",
        type=int,
        default=0,
        metavar="N",
        help="with --wal, how many leading records are boot-phase "
        "(excluded from plan minimization; default: 0)",
    )
    parser.add_argument(
        "--plan-out",
        metavar="FILE",
        help="write the minimized replayable faultplan/v1 document here "
        "when the sweep fails",
    )


def run(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.analysis import sarif
    from repro.faults.plan import PlanError
    from repro.store import crashcheck

    if args.replay and args.format == "sarif":
        raise UsageError("--format sarif applies to sweeps, not --replay")
    with tempfile.TemporaryDirectory(prefix="repro-crashcheck-") as scratch:
        workdir = args.dir or scratch
        os.makedirs(workdir, exist_ok=True)
        if args.replay:
            with bad_input(OSError, PlanError, ValueError, KeyError, flag="--replay"):
                result = crashcheck.replay_counterexample(
                    crashcheck.load_counterexample(args.replay), workdir
                )
            emit(
                args,
                text=result.format_text,
                json=lambda: json.dumps(result.to_json(), indent=2, sort_keys=True),
            )
            return 1 if result.reproduced else 0

        if args.wal:
            with bad_input(OSError, flag="--wal"):
                data = Path(args.wal).read_bytes()
            boot = args.boot_records
        else:
            with bad_input(ValueError):
                data, boot = crashcheck.record_workload(
                    os.path.join(workdir, "crashcheck-wal.log")
                )
        with bad_input(ValueError, crashcheck.wal.WalError):
            report = crashcheck.sweep(
                data, boot_records=boot, label_check=not args.broken_recovery
            )

    if report.plan is not None and args.plan_out:
        with open(args.plan_out, "w", encoding="utf-8") as fh:
            json.dump(report.plan, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"repro crashcheck: wrote minimized plan to {args.plan_out}")
    emit(
        args,
        text=report.format_text,
        json=lambda: json.dumps(report.to_json(), indent=2, sort_keys=True),
        sarif=lambda: sarif.render(sarif.crashcheck_sarif(report)),
    )
    return 0 if report.ok else 1
