"""The two-minute guided tour (the default command).

The label lattice, kernel-enforced per-user isolation in OKWS, and the
evaluation's two headline numbers, each in a few lines of output.
"""

from __future__ import annotations

import argparse

from repro.cli.run import demo_site


def configure(parser: argparse.ArgumentParser) -> None:
    """The tour takes no options of its own."""


def run(args: argparse.Namespace) -> int:
    from repro.core.labels import Label
    from repro.core.levels import L1, L2, L3
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
    site = demo_site()
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
