"""The ``python -m repro`` command line.

Subcommands::

    python -m repro                # the guided tour (default)
    python -m repro tour
    python -m repro analyze <paths...> [--select RULES]
    python -m repro check [--topology FILE | --okws] [--policy FILE]
    python -m repro explore [--topology FILE | --okws] [--dpor|--exhaustive]
                            [--depth N] [--shrink/--no-shrink] [--plan FILE]
    python -m repro run [--sanitize] [--strict/--no-strict] [--trace]
    python -m repro chaos --plan FILE [--seeds N,N...]
    python -m repro crashcheck [--broken-recovery] [--plan-out FILE]
                               [--replay PLAN] [--wal FILE] [--dir DIR]
    python -m repro bench [--quick] [--only FIGS] [--guard BASELINE...]
    python -m repro bench --validate <BENCH_*.json...>

Every subcommand shares one option surface (a common argparse parent):

- ``--format text|json|sarif`` — report format.  ``sarif`` (GitHub
  code-scanning 2.1.0) is supported by the analysis commands
  (``analyze``/``check``/``explore``/``crashcheck``); elsewhere it is a
  usage error.
- ``--out PATH`` — where output artifacts land: the report file for
  ``analyze``/``check``/``run``, the chaos-report/v1 document for
  ``chaos``, the output *directory* for ``bench`` (default ``.``) and
  for ``explore`` counterexamples.
- ``--seed N`` — the deterministic seed wherever one applies
  (``explore`` fault draws, ``chaos`` campaigns); accepted and ignored
  by the fully deterministic commands so scripts can pass it uniformly.

And one exit-code convention: **0** clean, **1** a violation, failing
campaign, or guarded regression, **2** usage error.

``analyze`` runs the asblint static pass and exits 1 if any finding
survives the pragma filter; ``--topology`` links each finding to the
asbcheck edges the flagged program feeds.  ``check`` runs the asbcheck
whole-system model checker over a topology document (or the shipped
OKWS topology extracted from a live run) and exits 1 on any policy
violation, printing shortest counterexample traces.  ``explore`` runs
the asbsched schedule-space explorer: it animates the topology on the
real kernel and drives it through alternative interleavings (DPOR by
default), exits 1 on any schedule that breaks the policy battery or the
differential sanitizer, and shrinks that schedule to a minimal
byte-identically replayable counterexample (``--out`` writes the
schedule/v1 + faultplan/v1 pair; ``--replay`` re-executes one).
``run`` drives the OKWS demo workload on a live kernel; with
``--sanitize`` every IPC is differentially checked against the naive
label operators.  ``crashcheck`` records a write workload into the
``wal/v1`` store, enumerates every crash point (record boundaries and
all torn-tail prefixes), and proves recovery preserves durability and
IFC monotonicity at each one — ``--broken-recovery`` swaps in the naive
redo recovery, which must be caught and minimized to a byte-identically
replayable ``faultplan/v1`` counterexample (``--plan-out``/``--replay``).  ``bench`` regenerates the paper's numbers headlessly
as ``BENCH_<figure>.json`` documents (``--only scale`` selects the sharded
``repro.cluster`` scaling bench, DESIGN.md §13); ``--validate`` checks
existing documents instead, and ``--guard`` fails on any difference from
committed baselines.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Set


def _cmd_tour() -> int:
    from repro.core.labels import Label
    from repro.core.levels import L1, L2, L3  # noqa: F401  (tour narration)
    from repro.okws import ServiceConfig, launch
    from repro.okws.services import notes_handler, session_cache_handler
    from repro.sim.runner import run_memory_experiment, run_session_sweep
    from repro.sim.workload import HttpClient

    print("asbestos-repro — Labels and Event Processes (SOSP 2005)")
    print("=" * 64)

    print("\n[1/3] the label lattice")
    uT = 0x1001
    tainted, clearance = Label({uT: L3}, L1), Label({uT: L3}, L2)
    print(f"   {{uT 3, 1}} ⊑ {{uT 3, 2}} : {tainted <= clearance}")
    print(
        f"   {{uT 3, 1}} ⊑ {{2}}       : {tainted <= Label({}, L2)}"
        "  (default receive refuses full taint)"
    )

    print("\n[2/3] OKWS: kernel-enforced per-user isolation")
    site = launch(
        services=[
            ServiceConfig("cache", session_cache_handler),
            ServiceConfig("notes", notes_handler),
        ],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
        schema=["CREATE TABLE notes (author TEXT, text TEXT)"],
    )
    client = HttpClient(site)
    client.request("alice", "pw-a", "notes", body="alice's secret", args={"op": "add"})
    client.request("bob", "pw-b", "notes", body="bob's secret", args={"op": "add"})
    a = client.request("alice", "pw-a", "notes", args={"op": "list"}).body
    b = client.request("bob", "pw-b", "notes", args={"op": "list"}).body
    print(f"   alice sees {a}; bob sees {b}")
    print(
        "   flows silently dropped by the kernel so far: "
        f"{site.kernel.drop_log.count('label-check')}"
    )

    print("\n[3/3] the evaluation in one line each")
    mem = run_memory_experiment([0, 200])
    slope = (mem[1].total_pages - mem[0].total_pages) / 200
    print(f"   memory: {slope:.2f} pages per cached session (paper: ~1.5)")
    point = run_session_sweep([1], min_connections=32)[0]
    print(
        f"   throughput: {point.throughput:.0f} conn/s at 1 session "
        "(paper regime: OKWS ≈ half of Mod-Apache, above Apache)"
    )
    print("\nSee examples/ for full walkthroughs and `python -m repro bench` for the figures.")
    return 0


def _emit(text: str, out: Optional[str]) -> None:
    """Print *text*, or write it to *out* when given (the unified
    ``--out`` behaviour for report-producing commands)."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"wrote {out}")
    else:
        print(text)


def _reject_sarif(command: str, args: argparse.Namespace) -> bool:
    """SARIF only makes sense for the code-scanning commands; everywhere
    else it is a usage error (exit 2), not a silent fallback."""
    if getattr(args, "format", "text") == "sarif":
        print(
            f"repro {command}: --format sarif is only supported by "
            "analyze/check/explore/crashcheck",
            file=sys.stderr,
        )
        return True
    return False


def _parse_select(spec: Optional[str]) -> Optional[Set[str]]:
    if not spec:
        return None
    from repro.analysis import rules as R

    selected: Set[str] = set()
    for key in spec.split(","):
        key = key.strip()
        if not key:
            continue
        rule = R.resolve_rule(key)
        if rule is None:
            print(f"repro analyze: unknown rule {key!r}", file=sys.stderr)
            raise SystemExit(2)
        selected.add(rule.id)
    return selected


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import asblint
    from repro.analysis import rules as R

    if args.list_rules:
        for rule in R.RULES:
            print(f"{rule.id}  {rule.name:<20} {rule.summary}")
        return 0
    if not args.paths:
        print("repro analyze: no paths given", file=sys.stderr)
        return 2
    try:
        reports = asblint.analyze_paths(args.paths, _parse_select(args.select))
    except FileNotFoundError as err:
        print(f"repro analyze: {err}", file=sys.stderr)
        return 2
    if args.topology:
        from repro.analysis import check as C
        from repro.analysis import model as M

        try:
            reports = C.link_lint_findings(reports, M.load(args.topology))
        except (OSError, ValueError, KeyError) as err:
            print(f"repro analyze: --topology: {err}", file=sys.stderr)
            return 2
    if args.format == "json":
        _emit(asblint.render_json(reports), args.out)
    elif args.format == "sarif":
        from repro.analysis import sarif

        _emit(sarif.render(sarif.asblint_sarif(reports)), args.out)
    else:
        _emit(asblint.format_reports(reports, verbose=args.verbose), args.out)
    return 1 if asblint.findings(reports) else 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import check as C
    from repro.analysis import model as M
    from repro.policies.assertions import policies_from_json

    if bool(args.topology) == bool(args.okws):
        print(
            "repro check: give exactly one of --topology FILE or --okws",
            file=sys.stderr,
        )
        return 2
    if args.okws:
        from repro.okws.topology import record_okws_topology

        topology = record_okws_topology()
    else:
        try:
            topology = M.load(args.topology)
        except (OSError, ValueError, KeyError) as err:
            print(f"repro check: {err}", file=sys.stderr)
            return 2
    if args.dump_topology:
        Path(args.dump_topology).write_text(topology.dumps(), encoding="utf-8")

    policies = None
    if args.policy:
        try:
            doc = json.loads(Path(args.policy).read_text(encoding="utf-8"))
            items = doc.get("policies", []) if isinstance(doc, dict) else doc
            policies = policies_from_json(items)
        except (OSError, ValueError, KeyError) as err:
            print(f"repro check: --policy: {err}", file=sys.stderr)
            return 2

    try:
        report = C.run_check(
            topology, policies, exact=args.exact, max_states=args.max_states
        )
    except ValueError as err:
        print(f"repro check: {err}", file=sys.stderr)
        return 2

    if getattr(args, "emit_proofs", None):
        from repro.analysis import proofs as P

        if not report.ok:
            # A failing check means some edge is *not* always-allowed;
            # shipping proofs for the rest would mask the finding.
            print(
                "repro check: --emit-proofs: check failed, no proofs written",
                file=sys.stderr,
            )
        else:
            try:
                doc = P.compile_proofs(topology, max_states=args.max_states)
            except P.ProofError as err:
                print(f"repro check: --emit-proofs: {err}", file=sys.stderr)
                return 2
            P.write_proofs(doc, args.emit_proofs)
            stats = doc["stats"]
            print(
                f"repro check: wrote {args.emit_proofs}: "
                f"{stats['deliver_stubs']} deliver + {stats['send_stubs']} "
                f"send stubs from {stats['proven_edges']}/{stats['edges']} "
                f"proven edges",
                file=sys.stderr,
            )

    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2), args.out)
    elif args.format == "sarif":
        from repro.analysis import sarif

        _emit(sarif.render(sarif.check_sarif(report)), args.out)
    else:
        _emit(report.format(), args.out)
    return 0 if report.ok else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import model as M
    from repro.analysis import sched as S
    from repro.faults.plan import PlanError, load_plan
    from repro.policies.assertions import policies_from_json

    if bool(args.topology) == bool(args.okws):
        print(
            "repro explore: give exactly one of --topology FILE or --okws",
            file=sys.stderr,
        )
        return 2

    plan = None
    if args.plan:
        try:
            plan = load_plan(args.plan)
        except (OSError, PlanError, ValueError) as err:
            print(f"repro explore: --plan: {err}", file=sys.stderr)
            return 2
    policies = None
    if args.policy:
        try:
            doc = json.loads(Path(args.policy).read_text(encoding="utf-8"))
            items = doc.get("policies", []) if isinstance(doc, dict) else doc
            policies = policies_from_json(items)
        except (OSError, ValueError, KeyError) as err:
            print(f"repro explore: --policy: {err}", file=sys.stderr)
            return 2

    try:
        if args.okws:
            scenario = S.okws_scenario(
                plan=plan,
                fault_seed=args.seed,
                max_steps=args.max_steps,
                policies=policies,
            )
        else:
            scenario = S.scenario_from_topology(
                M.load(args.topology),
                plan=plan,
                fault_seed=args.seed,
                max_steps=args.max_steps,
                policies=policies,
            )
    except (OSError, ValueError, KeyError, S.SchedError) as err:
        print(f"repro explore: {err}", file=sys.stderr)
        return 2

    if args.replay:
        try:
            decisions = S.load_schedule(args.replay)
        except (OSError, ValueError, S.SchedError) as err:
            print(f"repro explore: --replay: {err}", file=sys.stderr)
            return 2
        run = S.replay_schedule(scenario, decisions)
        print(
            f"repro explore: replayed {len(decisions)} decision(s): "
            f"{len(run.steps)} step(s), "
            f"{'VIOLATING' if run.violating else 'clean'}"
        )
        for breach in run.breaches:
            print(f"  BREACH [{breach.kind}] {breach.message}")
        for violation in run.sanitizer_violations:
            print(f"  SANITIZER {violation}")
        return 1 if run.violating else 0

    report = S.explore(
        scenario,
        mode="exhaustive" if args.exhaustive else "dpor",
        depth=args.depth,
        max_schedules=args.max_schedules,
        time_budget=args.time_budget,
        shrink=args.shrink,
    )

    out_paths = []
    if args.out and not report.ok:
        out_paths = S.write_counterexample(report, scenario, args.out)

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    elif args.format == "sarif":
        from repro.analysis import sarif

        print(sarif.render(sarif.sched_sarif(report)))
    else:
        print(report.format())
        for path in out_paths:
            print(f"repro explore: wrote {path}")
    return 0 if report.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    if _reject_sarif("run", args):
        return 2
    from repro.analysis.sanitizer import SanitizerViolation
    from repro.kernel import Kernel, KernelConfig
    from repro.okws import ServiceConfig, launch
    from repro.okws.services import notes_handler, session_cache_handler
    from repro.sim.trace import FlowTracer
    from repro.sim.workload import HttpClient

    config = KernelConfig.from_env()
    if args.sanitize:
        config = config.replace(sanitize=True, sanitize_strict=args.strict)
    try:
        site = launch(
            kernel=Kernel(config=config),
            services=[
                ServiceConfig("cache", session_cache_handler),
                ServiceConfig("notes", notes_handler),
            ],
            users=[("alice", "pw-a"), ("bob", "pw-b")],
            schema=["CREATE TABLE notes (author TEXT, text TEXT)"],
        )
        tracer = FlowTracer(site.kernel) if args.trace else None
        client = HttpClient(site)
        client.request("alice", "pw-a", "notes", body="alice note", args={"op": "add"})
        client.request("bob", "pw-b", "notes", body="bob note", args={"op": "add"})
        alice = client.request("alice", "pw-a", "notes", args={"op": "list"})
        bob = client.request("bob", "pw-b", "notes", args={"op": "list"})
    except SanitizerViolation as violation:
        print(f"repro run: {violation}", file=sys.stderr)
        return 1
    sanitizer = site.kernel.sanitizer
    violations = sanitizer.total if sanitizer is not None else 0
    if args.format == "json":
        import json

        doc = {
            "alice": alice.body,
            "bob": bob.body,
            "drops": {"label-check": site.kernel.drop_log.count("label-check")},
            "sanitized": sanitizer is not None,
            "sanitizer_violations": violations,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
        return 1 if violations else 0
    lines = [
        f"alice sees {alice.body}; bob sees {bob.body}",
        "kernel drops so far: "
        f"label-check={site.kernel.drop_log.count('label-check')}",
    ]
    if tracer is not None:
        lines.append(tracer.format(last=args.trace_last))
    if sanitizer is not None:
        lines.append(sanitizer.summary())
        lines.extend(v.format() for v in sanitizer.violations)
    _emit("\n".join(lines), args.out)
    return 1 if violations else 0


def _cmd_crashcheck(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.faults.plan import PlanError
    from repro.store import crashcheck as CC

    with tempfile.TemporaryDirectory(prefix="repro-crashcheck-") as scratch:
        workdir = args.dir or scratch
        os.makedirs(workdir, exist_ok=True)

        if args.replay:
            try:
                doc = CC.load_counterexample(args.replay)
                result = CC.replay_counterexample(doc, workdir)
            except (OSError, PlanError, ValueError, KeyError) as err:
                print(f"repro crashcheck: --replay: {err}", file=sys.stderr)
                return 2
            if args.format == "json":
                _emit(json.dumps(result.to_json(), indent=2, sort_keys=True), args.out)
            elif args.format == "sarif":
                print(
                    "repro crashcheck: --format sarif applies to sweeps, "
                    "not --replay",
                    file=sys.stderr,
                )
                return 2
            else:
                print(result.format_text())
            return 1 if result.reproduced else 0

        if args.wal:
            try:
                data = open(args.wal, "rb").read()
            except OSError as err:
                print(f"repro crashcheck: --wal: {err}", file=sys.stderr)
                return 2
            boot = args.boot_records
        else:
            store_path = os.path.join(workdir, "crashcheck-wal.log")
            try:
                data, boot = CC.record_workload(store_path)
            except ValueError as err:
                print(f"repro crashcheck: {err}", file=sys.stderr)
                return 2
        try:
            report = CC.sweep(
                data, boot_records=boot, label_check=not args.broken_recovery
            )
        except (ValueError, CC.wal.WalError) as err:
            print(f"repro crashcheck: {err}", file=sys.stderr)
            return 2

    if report.plan is not None and args.plan_out:
        with open(args.plan_out, "w", encoding="utf-8") as fh:
            json.dump(report.plan, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"repro crashcheck: wrote minimized plan to {args.plan_out}")
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2, sort_keys=True), args.out)
    elif args.format == "sarif":
        from repro.analysis import sarif

        _emit(sarif.render(sarif.crashcheck_sarif(report)), args.out)
    else:
        _emit(report.format_text(), args.out)
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.obs import bench

    if _reject_sarif("bench", args):
        return 2
    if args.validate:
        results = bench.validate_files(args.validate)
        for path, problems in results.items():
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            if not problems:
                print(f"{path}: ok")
        return 1 if any(results.values()) else 0

    only = None
    if args.only:
        only = [f.strip() for f in args.only.split(",") if f.strip()]
    out_dir = args.out or "."
    try:
        paths = bench.run_bench(out_dir=out_dir, quick=args.quick, only=only)
    except ValueError as err:
        print(f"repro bench: {err}", file=sys.stderr)
        return 2
    guard_problems = bench.guard_files(args.guard, out_dir) if args.guard else None
    if args.format == "json":
        print(
            json.dumps(
                {"written": paths, "guard_problems": guard_problems},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"repro bench: {len(paths)} document(s) written")
    if guard_problems:
        for problem in guard_problems:
            print(f"repro bench: guard: {problem}", file=sys.stderr)
        print(
            f"repro bench: guard FAILED ({len(guard_problems)} difference(s) from the baseline)",
            file=sys.stderr,
        )
        return 1
    if args.guard and args.format != "json":
        print(f"repro bench: guard passed ({len(args.guard)} baseline(s) identical)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.campaign import run_campaign
    from repro.faults.plan import PlanError, load_plan

    if _reject_sarif("chaos", args):
        return 2
    try:
        plan = load_plan(args.plan)
    except (OSError, PlanError, ValueError) as err:
        print(f"repro chaos: {err}", file=sys.stderr)
        return 2

    quiet = args.format == "json"
    seeds = args.seeds if args.seeds is not None else [args.seed]

    def _store_for(seed):
        # Each campaign (and each determinism repeat) recovers from an
        # empty store; a reused file would replay the previous run's log.
        if args.store is None:
            return None
        path = f"{args.store}.seed-{seed}"
        for stale in (path, path + ".crash"):
            if os.path.exists(stale):
                os.unlink(stale)
        return path

    results = []
    for seed in seeds:
        result = run_campaign(
            plan,
            seed=seed,
            users=args.users,
            rounds=args.rounds,
            concurrency=args.concurrency,
            min_completion=args.min_completion,
            store_path=_store_for(seed),
        )
        if args.repeat > 1:
            # Determinism audit: the same (plan, seed) must replay the
            # identical fault event log, byte for byte.
            for _ in range(args.repeat - 1):
                again = run_campaign(
                    plan,
                    seed=seed,
                    users=args.users,
                    rounds=args.rounds,
                    concurrency=args.concurrency,
                    min_completion=args.min_completion,
                    store_path=_store_for(seed),
                )
                if again.events_json != result.events_json:
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

    if quiet or args.out:
        doc = {
            "schema": "chaos-report/v1",
            "plan_path": args.plan,
            "campaigns": [r.to_json() for r in results],
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asbestos labels & event processes reproduction "
        "(exit codes: 0 clean, 1 violation or regression, 2 usage error)",
    )
    sub = parser.add_subparsers(dest="command")

    # The shared option surface: every subcommand accepts the same
    # --format/--out/--seed spellings (see the module docstring for the
    # per-command meaning of --out).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif: GitHub code-scanning schema; "
        "analyze/check/explore only)",
    )
    common.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output location: report file (analyze/check/run/chaos) or "
        "directory (bench documents, explore counterexamples)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="deterministic seed where one applies (explore fault draws, "
        "chaos campaigns); ignored by fully deterministic commands",
    )

    sub.add_parser(
        "tour", parents=[common], help="the two-minute guided tour (default)"
    )

    analyze = sub.add_parser(
        "analyze",
        parents=[common],
        help="run the asblint static label-flow checker",
    )
    analyze.add_argument("paths", nargs="*", help="files or directories to analyze")
    analyze.add_argument(
        "--topology",
        metavar="FILE",
        help="asbcheck topology document; findings cite the edges they feed",
    )
    analyze.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids/names to run (default: all)",
    )
    analyze.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    analyze.add_argument(
        "-v", "--verbose", action="store_true", help="also list analyzed programs"
    )

    check = sub.add_parser(
        "check",
        parents=[common],
        help="run the asbcheck whole-system model checker",
    )
    check.add_argument(
        "--topology", metavar="FILE", help="topology document (topology/v1 JSON)"
    )
    check.add_argument(
        "--okws",
        action="store_true",
        help="extract and check the shipped OKWS topology from a live run",
    )
    check.add_argument(
        "--policy",
        metavar="FILE",
        help="policy JSON (list or {\"policies\": [...]}); default: the "
        "topology's embedded battery",
    )
    check.add_argument(
        "--exact",
        action="store_true",
        help="disable the state-space reduction (small topologies only)",
    )
    check.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        metavar="N",
        help="cap per exploration before truncating (default: 200000)",
    )
    check.add_argument(
        "--dump-topology",
        metavar="FILE",
        help="also write the checked topology document to FILE",
    )
    check.add_argument(
        "--emit-proofs",
        metavar="FILE",
        dest="emit_proofs",
        help="compile the always-allowed edges into a proofs/v1 verified-"
        "flow document at FILE (consumed by REPRO_ELIDE=1, DESIGN.md §15); "
        "only written when the check passes",
    )

    explore = sub.add_parser(
        "explore",
        parents=[common],
        help="run the asbsched schedule-space explorer over a topology",
    )
    explore.add_argument(
        "--topology", metavar="FILE", help="topology document (topology/v1 JSON)"
    )
    explore.add_argument(
        "--okws",
        action="store_true",
        help="animate and explore the shipped OKWS topology",
    )
    explore.add_argument(
        "--plan",
        metavar="FILE",
        help="faultplan/v1 JSON; fractional rules become explored branches",
    )
    explore.add_argument(
        "--policy",
        metavar="FILE",
        help="policy JSON (list or {\"policies\": [...]}); default: the "
        "topology's embedded battery",
    )
    explore.add_argument(
        "--max-steps",
        type=int,
        default=4000,
        metavar="N",
        help="per-schedule kernel step budget (default: 4000)",
    )
    explore.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help="only the first N choice points branch (default: unbounded)",
    )
    explore.add_argument(
        "--exhaustive",
        action="store_true",
        help="branch every option at every choice point instead of DPOR",
    )
    explore.add_argument(
        "--dpor",
        dest="exhaustive",
        action="store_false",
        help="dynamic partial-order reduction (the default)",
    )
    explore.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="report the first violating schedule without minimizing it",
    )
    explore.add_argument(
        "--max-schedules",
        type=int,
        default=20_000,
        metavar="N",
        help="schedule budget before truncating (default: 20000)",
    )
    explore.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget before truncating (default: none)",
    )
    explore.add_argument(
        "--replay",
        metavar="FILE",
        help="re-execute one schedule/v1 file instead of exploring",
    )
    explore.set_defaults(exhaustive=False, shrink=True)

    run = sub.add_parser(
        "run", parents=[common], help="run the OKWS demo workload"
    )
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="cross-check every IPC against the naive label operators",
    )
    run.add_argument(
        "--no-strict",
        dest="strict",
        action="store_false",
        help="record sanitizer violations instead of raising on the first",
    )
    run.add_argument(
        "--trace", action="store_true", help="print the label-flow transcript"
    )
    run.add_argument(
        "--trace-last",
        type=int,
        default=None,
        metavar="N",
        help="with --trace, only the last N events",
    )
    run.set_defaults(strict=True)

    chaos = sub.add_parser(
        "chaos",
        parents=[common],
        help="run a seeded fault-injection campaign against the OKWS site",
    )
    chaos.add_argument(
        "--plan",
        required=True,
        metavar="FILE",
        help="faultplan/v1 JSON (see examples/faultplans/)",
    )
    chaos.add_argument(
        "--seeds",
        type=lambda s: [int(x) for x in s.split(",") if x.strip()],
        default=None,
        metavar="N[,N...]",
        help="injector seeds, one campaign each (default: the one --seed)",
    )
    chaos.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="back ok-dbproxy with a wal/v1 store (one fresh file per "
        "seed at PATH.seed-N); crashes then exercise log recovery",
    )
    chaos.add_argument(
        "--users", type=int, default=8, metavar="N", help="site users (default: 8)"
    )
    chaos.add_argument(
        "--rounds",
        type=int,
        default=4,
        metavar="N",
        help="requests per user (default: 4)",
    )
    chaos.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="closed-loop wave size (default: 8)",
    )
    chaos.add_argument(
        "--min-completion",
        type=float,
        default=0.9,
        metavar="F",
        help="liveness floor as a fraction (default: 0.9)",
    )
    chaos.add_argument(
        "--repeat",
        type=int,
        default=2,
        metavar="N",
        help="runs per seed for the determinism audit (default: 2; 1 skips it)",
    )

    crashcheck = sub.add_parser(
        "crashcheck",
        parents=[common],
        help="enumerate every crash point of the store's write-ahead log "
        "and verify recovery (durability + IFC monotonicity)",
    )
    crashcheck.add_argument(
        "--broken-recovery",
        action="store_true",
        help="check the deliberately broken recovery (naive redo, no "
        "label check) instead — must exit 1 with a minimized plan",
    )
    crashcheck.add_argument(
        "--replay",
        metavar="FILE",
        help="replay one minimized counterexample plan live instead of "
        "sweeping; exits 1 when it reproduces byte-identically",
    )
    crashcheck.add_argument(
        "--dir",
        metavar="DIR",
        help="directory for the recorded/replayed store files "
        "(default: a temporary directory)",
    )
    crashcheck.add_argument(
        "--wal",
        metavar="FILE",
        help="sweep an existing wal/v1 image instead of recording the "
        "board workload",
    )
    crashcheck.add_argument(
        "--boot-records",
        type=int,
        default=0,
        metavar="N",
        help="with --wal, how many leading records are boot-phase "
        "(excluded from plan minimization; default: 0)",
    )
    crashcheck.add_argument(
        "--plan-out",
        metavar="FILE",
        help="write the minimized replayable faultplan/v1 document here "
        "when the sweep fails",
    )

    bench = sub.add_parser(
        "bench",
        parents=[common],
        help="regenerate the paper's numbers as BENCH_*.json",
    )
    # NB: no set_defaults(out=...) here — parents=[common] shares the
    # action objects, so a subparser-level default would leak into every
    # other command.  bench resolves None to "." in its handler.
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-scale grids (about a minute) instead of the paper's",
    )
    bench.add_argument(
        "--only",
        metavar="FIGS",
        help="comma-separated subset of fig6,fig7,fig8,fig9,labelops,eventproc "
        "(the default run) and scale (the sharded repro.cluster bench)",
    )
    bench.add_argument(
        "--validate",
        nargs="+",
        metavar="FILE",
        help="validate existing BENCH_*.json files instead of running",
    )
    bench.add_argument(
        "--guard",
        nargs="+",
        metavar="BASELINE",
        help="after running, fail if the fresh documents differ from these "
        "committed baselines anywhere (simulated numbers are deterministic)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    namespace = parser.parse_args(args)
    if namespace.command in (None, "tour"):
        return _cmd_tour()
    if namespace.command == "analyze":
        return _cmd_analyze(namespace)
    if namespace.command == "check":
        return _cmd_check(namespace)
    if namespace.command == "explore":
        return _cmd_explore(namespace)
    if namespace.command == "run":
        return _cmd_run(namespace)
    if namespace.command == "chaos":
        return _cmd_chaos(namespace)
    if namespace.command == "crashcheck":
        return _cmd_crashcheck(namespace)
    if namespace.command == "bench":
        return _cmd_bench(namespace)
    parser.error(f"unknown command {namespace.command!r}")  # pragma: no cover
    return 2  # pragma: no cover
