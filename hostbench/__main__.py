"""``python -m hostbench <command>`` — see the package docstring."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def _program_on_path() -> None:
    """The program under test is the source tree beside this package."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"hostbench: no program to measure: {source}/repro is missing")
    if source not in sys.path:
        sys.path.insert(0, source)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)


def _workload_names(only: str):
    from hostbench import spec

    names = [n for n in only.split(",") if n] if only else list(spec.ALL)
    unknown = [n for n in names if n not in spec.BY_NAME]
    if unknown:
        sys.exit(f"hostbench: unknown workload(s): {', '.join(unknown)}")
    return names


# -- bench: one workload in this process ------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    _program_on_path()
    from hostbench import bench, spec

    if args.workload not in spec.BY_NAME:
        sys.exit(f"hostbench: unknown workload {args.workload!r}")
    workload = spec.BY_NAME[args.workload]
    scratch = os.path.join(HERE, ".scratch", str(os.getpid()))
    os.makedirs(scratch)
    try:
        if args.trace:
            result = bench.traced(workload, args.seed, scratch, RESULTS, args.smoke)
        else:
            result = bench.untraced(
                workload, args.seed, args.seconds, scratch, args.smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _print_result(result)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps(bench.contract_line(result)))
    return 0 if result["correct"] else 1


def _print_result(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, seed {result['seed']}, "
          f"{result['reps']} rep(s)) ==")
    for name, entry in result["metrics"].items():
        print(f"  {name:46} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  checked {result['attempted']} operation(s), {result['failed']} failed")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


# -- run / trace: every workload, each in a fresh interpreter ---------------------------


def _children(args: argparse.Namespace, trace: bool) -> dict:
    """One child per workload, one at a time: the intern table is
    process-global and ``peak_rss_mb`` must be per workload."""
    _program_on_path()
    results = {}
    os.makedirs(RESULTS, exist_ok=True)
    for name in _workload_names(args.only):
        detail = os.path.join(RESULTS, f".detail-{os.getpid()}-{name}.json")
        command = [
            sys.executable, "-m", "hostbench", "bench", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if trace else "0", "--detail", detail,
        ] + (["--smoke"] if args.smoke else [])
        begun = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        # Everything but the driver's JSON line is for people.
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        print(f"  the whole command took {time.perf_counter() - begun:.1f} s")
        try:
            with open(detail) as handle:
                results[name] = json.load(handle)
            os.unlink(detail)
        except OSError:
            results[name] = {"workload": name, "correct": False, "attempted": 1,
                             "failed": 1, "metrics": {},
                             "failures": [f"child exited {done.returncode} with no result"]}
            print(f"== {name}: child exited {done.returncode} with no result ==")
    return results


def _finish(args: argparse.Namespace, results: dict, schema: str) -> int:
    out = {"schema": schema, "seed": args.seed, "smoke": args.smoke,
           "seconds": args.seconds, "workloads": results}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    failed = [name for name, r in results.items() if not r["correct"]]
    if failed:
        print(f"hostbench: output checks FAILED on: {', '.join(failed)}")
    return 1 if failed else 0


def cmd_run(args: argparse.Namespace) -> int:
    from hostbench import compare

    passes = [_children(args, trace=False) for _ in range(args.passes)]
    return _finish(args, compare.median_of(passes), "hostbench-run/v1")


def cmd_trace(args: argparse.Namespace) -> int:
    return _finish(args, _children(args, trace=True), "hostbench-trace/v1")


# -- compare / spread / manifest ----------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    from hostbench import compare

    with open(args.base) as a, open(args.change) as b:
        return compare.report(json.load(a), json.load(b))


def cmd_spread(args: argparse.Namespace) -> int:
    from hostbench import compare

    runs = []
    for index in range(args.runs):
        args.seed = args.first_seed + index
        print(f"-- spread run {index + 1}/{args.runs} (seed {args.seed}) --")
        runs.append({"seed": args.seed, "workloads": _children(args, trace=False)})
    table = compare.spread(runs)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": "hostbench-spread/v1", "runs": args.runs,
                       "first_seed": args.first_seed, "spread": table},
                      handle, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    from hostbench import spec

    print(json.dumps(spec.benchmark_manifest(), indent=2))
    return 0


def main(argv=None) -> int:
    from hostbench.spec import RUN_SECONDS

    parser = argparse.ArgumentParser(prog="python -m hostbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="one workload in this process")
    bench.add_argument("--workload", required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--seconds", type=float, default=RUN_SECONDS)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.add_argument("--smoke", action="store_true")
    bench.add_argument("--detail", help="also write the full result document here")
    bench.set_defaults(run=cmd_bench)

    for name, function, default_out in (
        ("run", cmd_run, os.path.join(RESULTS, "latest.json")),
        ("trace", cmd_trace, os.path.join(RESULTS, "latest-trace.json")),
    ):
        sub = commands.add_parser(name, help=f"{name} every workload, one child each")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--seconds", type=float, default=RUN_SECONDS)
        sub.add_argument("--only", default="", help="comma-separated workload names")
        sub.add_argument("--smoke", action="store_true",
                         help="~1/10 size, one rep: a self-test, not a measurement")
        sub.add_argument("--out", default=default_out)
        sub.set_defaults(run=function)
        if name == "run":
            sub.add_argument("--passes", type=int, default=1,
                             help="run everything this many times and keep each metric's "
                                  "median: the box's noise comes in bursts one pass can sit in")

    compare = commands.add_parser("compare", help="two run documents, bounds applied")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.set_defaults(run=cmd_compare)

    spread = commands.add_parser("spread", help="run-to-run spread over N seeds")
    spread.add_argument("--runs", type=int, default=10)
    spread.add_argument("--first-seed", type=int, default=100)
    spread.add_argument("--seconds", type=float, default=RUN_SECONDS)
    spread.add_argument("--only", default="")
    spread.add_argument("--out", default=os.path.join(RESULTS, "spread.json"))
    spread.set_defaults(run=cmd_spread, smoke=False)

    manifest = commands.add_parser("manifest", help="print BENCHMARK.json from spec.py")
    manifest.set_defaults(run=cmd_manifest)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    sys.exit(main())
