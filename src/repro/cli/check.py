"""Run the asbcheck whole-system model checker.

Explores a topology document (or the shipped OKWS topology, extracted from
a live run) under the verbatim Figure 4 rules and exits 1 on any policy
violation, printing shortest counterexample traces.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import bad_input, emit, load_policies, load_topology, one_topology


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", metavar="FILE", help="topology document (topology/v1 JSON)"
    )
    parser.add_argument(
        "--okws",
        action="store_true",
        help="extract and check the shipped OKWS topology from a live run",
    )
    parser.add_argument(
        "--policy",
        metavar="FILE",
        help="policy JSON (list or {\"policies\": [...]}); default: the "
        "topology's embedded battery",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="disable the state-space reduction (small topologies only)",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        metavar="N",
        help="cap per exploration before truncating (default: 200000)",
    )
    parser.add_argument(
        "--dump-topology",
        metavar="FILE",
        help="also write the checked topology document to FILE",
    )
    parser.add_argument(
        "--emit-proofs",
        metavar="FILE",
        dest="emit_proofs",
        help="compile the always-allowed edges into a proofs/v1 verified-"
        "flow document at FILE (consumed by REPRO_ELIDE=1, DESIGN.md §15); "
        "only written when the check passes",
    )


def run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import check, sarif

    one_topology(args)
    if args.okws:
        from repro.okws.topology import record_okws_topology

        topology = record_okws_topology()
    else:
        topology = load_topology(args.topology)
    if args.dump_topology:
        Path(args.dump_topology).write_text(topology.dumps(), encoding="utf-8")
    policies = load_policies(args.policy)
    with bad_input(ValueError):
        report = check.run_check(
            topology, policies, exact=args.exact, max_states=args.max_states
        )
    if args.emit_proofs:
        _emit_proofs(args, topology, report)
    emit(
        args,
        text=report.format,
        json=lambda: json.dumps(report.to_json(), indent=2),
        sarif=lambda: sarif.render(sarif.check_sarif(report)),
    )
    return 0 if report.ok else 1


def _emit_proofs(args: argparse.Namespace, topology, report) -> None:
    from repro.analysis import proofs

    if not report.ok:
        # A failing check means some edge is *not* always-allowed;
        # shipping proofs for the rest would mask the finding.
        print(
            "repro check: --emit-proofs: check failed, no proofs written",
            file=sys.stderr,
        )
        return
    with bad_input(proofs.ProofError, flag="--emit-proofs"):
        doc = proofs.compile_proofs(topology, max_states=args.max_states)
    proofs.write_proofs(doc, args.emit_proofs)
    stats = doc["stats"]
    print(
        f"repro check: wrote {args.emit_proofs}: "
        f"{stats['deliver_stubs']} deliver + {stats['send_stubs']} "
        f"send stubs from {stats['proven_edges']}/{stats['edges']} "
        f"proven edges",
        file=sys.stderr,
    )
