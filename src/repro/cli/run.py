"""Run the OKWS demo workload on a live kernel.

Two users each add a note and list their own; the kernel drops the flows
that would cross.  With --sanitize every IPC is differentially checked
against the naive label operators, and a violation exits 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional

from repro.cli.common import emit


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="cross-check every IPC against the naive label operators",
    )
    parser.add_argument(
        "--no-strict",
        dest="strict",
        action="store_false",
        help="record sanitizer violations instead of raising on the first",
    )
    parser.add_argument(
        "--trace", action="store_true", help="print the label-flow transcript"
    )
    parser.add_argument(
        "--trace-last",
        type=int,
        default=None,
        metavar="N",
        help="with --trace, only the last N events",
    )
    parser.set_defaults(strict=True)


def demo_site(kernel: Optional[Any] = None) -> Any:
    """The two-user notes site ``run`` and ``tour`` both drive."""
    from repro.okws import ServiceConfig, launch
    from repro.okws.services import notes_handler, session_cache_handler

    return launch(
        kernel=kernel,
        services=[
            ServiceConfig("cache", session_cache_handler),
            ServiceConfig("notes", notes_handler),
        ],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
        schema=["CREATE TABLE notes (author TEXT, text TEXT)"],
    )


def run(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.sanitizer import SanitizerViolation
    from repro.kernel import Kernel, KernelConfig
    from repro.sim.trace import FlowTracer
    from repro.sim.workload import HttpClient

    config = KernelConfig.from_env()
    if args.sanitize:
        config = config.replace(sanitize=True, sanitize_strict=args.strict)
    try:
        site = demo_site(Kernel(config=config))
        tracer = FlowTracer(site.kernel) if args.trace else None
        client = HttpClient(site)
        client.request("alice", "pw-a", "notes", body="alice note", args={"op": "add"})
        client.request("bob", "pw-b", "notes", body="bob note", args={"op": "add"})
        alice = client.request("alice", "pw-a", "notes", args={"op": "list"}).body
        bob = client.request("bob", "pw-b", "notes", args={"op": "list"}).body
    except SanitizerViolation as violation:
        print(f"repro run: {violation}", file=sys.stderr)
        return 1
    sanitizer = site.kernel.sanitizer
    violations = sanitizer.total if sanitizer is not None else 0
    drops = site.kernel.drop_log.count("label-check")

    def text() -> str:
        lines = [
            f"alice sees {alice}; bob sees {bob}",
            f"kernel drops so far: label-check={drops}",
        ]
        if tracer is not None:
            lines.append(tracer.format(last=args.trace_last))
        if sanitizer is not None:
            lines.append(sanitizer.summary())
            lines.extend(v.format() for v in sanitizer.violations)
        return "\n".join(lines)

    flows = site.kernel.flow_table
    doc = {
        "alice": alice,
        "bob": bob,
        "checked_deliveries": sanitizer.checked_deliveries if sanitizer is not None else 0,
        "checked_sends": sanitizer.checked_sends if sanitizer is not None else 0,
        "drops": {"label-check": drops},
        "elide": flows.counters() if flows is not None else None,
        "sanitized": sanitizer is not None,
        "sanitizer_violations": violations,
    }
    emit(args, text, lambda: json.dumps(doc, indent=2, sort_keys=True))
    return 1 if violations else 0
