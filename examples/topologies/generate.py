"""Regenerate the example topology documents in this directory.

Run from the repository root::

    PYTHONPATH=src python examples/topologies/generate.py

``leaky_site.json`` is the deliberately broken four-process site used in
README and the test suite: a user worker's taint reaches another user's
worker through an over-permissive front end, so the embedded battery
yields an isolation violation with a two-message counterexample (which
``repro.analysis.replay`` re-executes on the real kernel), a
mandatory-declassifier violation, and a dead edge.  ``clean_site.json``
is the same site with the sink's receive label left at the default — the
kernel then drops the tainted forward, and every policy proves out.

``race_site.json`` is the seeded-bug fixture for the schedule explorer
(``repro.analysis.sched``): its battery holds under the default FIFO
schedule but a relay that polls its inbox before forwarding picks up a
secret taint when the scheduler runs the tainted sender first — a
schedule-dependent leak only interleaving exploration can find.
``okws_request_mix.json`` is a five-process OKWS-shaped request mix
(two users' requests demultiplexed to per-user workers that share a
database proxy) whose battery holds under *every* interleaving; the
explorer's DPOR must verify it exhaustively and agree with
``--exhaustive`` while exploring far fewer schedules.
``dropped_emission.json`` is a tainted send the kernel drops: isolation
covers what a process emits, not only what gets through, so both
checkers must fail it.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.model import Topology

HERE = Path(__file__).resolve().parent


def leaky_site() -> Topology:
    topo = Topology(name="leaky-site")
    # worker_u carries user u's taint at 3 and may send to the front end
    # and the declassifier (it holds their port handles at *).
    topo.add_process(
        "worker_u",
        send=topo.label({"uT:u": 3, "front_port": "*", "decl_port": "*"}),
    )
    # The front end accepts the taint (receive raised to uT:u 3) and can
    # forward to the sink — the over-permissive hop that leaks.
    topo.add_process(
        "web_front",
        send=topo.label({"sink_port": "*"}),
        receive=topo.label({"uT:u": 3}, default=2),
    )
    # sink_v is another user's worker; its receive label also accepts
    # uT:u at 3, which is the bug the isolation policy catches.
    topo.add_process("sink_v", receive=topo.label({"uT:u": 3}, default=2))
    # The declassifier holds uT:u at * — the one legitimate path.
    topo.add_process(
        "decl",
        send=topo.label({"uT:u": "*", "sink_port": "*"}),
        receive=topo.label({"uT:u": 3}, default=2),
    )
    # vault's port keeps new_port's closed {p 0}; nobody holds the
    # handle, so sends to it are dead wiring.
    topo.add_process("vault")

    topo.add_port("front_port", owner="web_front")
    topo.add_port("sink_port", owner="sink_v")
    topo.add_port("decl_port", owner="decl")
    topo.add_port("locked_port", owner="vault")

    topo.add_edge("worker_u", "front_port", name="worker_u->front")
    topo.add_edge("web_front", "sink_port", name="front->sink")
    topo.add_edge("worker_u", "decl_port", name="worker_u->decl")
    topo.add_edge(
        "decl", "sink_port", name="decl->sink", declassifier=True
    )
    topo.add_edge("worker_u", "locked_port", name="worker_u->locked")

    topo.policies = [
        {"kind": "isolation", "process": "sink_v", "handle": "uT:u"},
        {"kind": "capability-confinement", "handle": "uT:u", "allowed": ["decl"]},
        {"kind": "mandatory-declassifier", "handle": "uT:u", "sink": "sink_v"},
        {"kind": "dead-edge", "edges": ["worker_u->locked"]},
    ]
    return topo


def clean_site() -> Topology:
    topo = Topology(name="clean-site")
    topo.add_process(
        "worker_u",
        send=topo.label({"uT:u": 3, "front_port": "*", "decl_port": "*"}),
    )
    topo.add_process(
        "web_front",
        send=topo.label({"sink_port": "*"}),
        receive=topo.label({"uT:u": 3}, default=2),
    )
    # The fix: sink_v keeps the default receive label {2}, so the kernel
    # drops any forward carrying uT:u at 3.
    topo.add_process("sink_v")
    topo.add_process(
        "decl",
        send=topo.label({"uT:u": "*", "sink_port": "*"}),
        receive=topo.label({"uT:u": 3}, default=2),
    )

    topo.add_port("front_port", owner="web_front")
    topo.add_port("sink_port", owner="sink_v")
    topo.add_port("decl_port", owner="decl")

    topo.add_edge("worker_u", "front_port", name="worker_u->front")
    topo.add_edge("web_front", "sink_port", name="front->sink")
    topo.add_edge("worker_u", "decl_port", name="worker_u->decl")
    topo.add_edge(
        "decl", "sink_port", name="decl->sink", declassifier=True
    )

    topo.policies = [
        {"kind": "isolation", "process": "sink_v", "handle": "uT:u"},
        {"kind": "capability-confinement", "handle": "uT:u", "allowed": ["decl"]},
        {"kind": "mandatory-declassifier", "handle": "uT:u", "sink": "sink_v"},
        {
            "kind": "dead-edge",
            "edges": [
                "worker_u->front",
                "front->sink",
                "worker_u->decl",
                "decl->sink",
            ],
        },
    ]
    return topo


def race_site() -> Topology:
    """The explorer's seeded bug: a schedule-dependent isolation leak.

    ``relay`` polls its inbox once before forwarding to ``sink`` (the
    edge bodies the explorer animates always poll-then-send).  Under the
    default FIFO schedule the forward happens before ``alice_w``'s
    tainted message arrives, so the forward is clean and asbcheck-style
    per-edge analysis sees nothing.  But any schedule that runs
    ``alice_w`` before relay's poll contaminates relay's send label with
    ``secret`` at 3 first, and the forward then carries the taint into
    ``sink`` — an isolation breach that exists only on some
    interleavings.
    """
    topo = Topology(name="race-site")
    topo.add_process(
        "alice_w",
        send=topo.label({"secret": 3, "relay_port": "*"}),
    )
    topo.add_process(
        "relay",
        send=topo.label({"sink_port": "*"}),
        receive=topo.label({"secret": 3}, default=2),
    )
    topo.add_process("sink", receive=topo.label({"secret": 3}, default=2))

    topo.add_port("relay_port", owner="relay")
    topo.add_port("sink_port", owner="sink")

    topo.add_edge("alice_w", "relay_port", name="alice->relay")
    topo.add_edge("relay", "sink_port", name="relay->sink")

    topo.policies = [
        {"kind": "isolation", "process": "sink", "handle": "secret", "max_level": 2},
    ]
    return topo


def okws_request_mix() -> Topology:
    """An OKWS-shaped request mix that is clean under every interleaving.

    netd hands two requests to the demultiplexer; the demultiplexer
    contaminates each per-user forward with that user's taint; each
    worker accepts only its own user's taint (the other user's is
    dropped by the receive label, whatever the schedule) and queries the
    shared database proxy, which accepts both taints.  The explorer's
    DPOR pass must prove the isolation battery over the full bounded
    schedule space and match ``--exhaustive``'s verdict.
    """
    topo = Topology(name="okws-request-mix")
    topo.add_process("netd", send=topo.label({"demux_port": "*"}))
    topo.add_process(
        "demux",
        send=topo.label(
            {
                "worker_alice_port": "*",
                "worker_bob_port": "*",
                "uT:alice": "*",
                "uT:bob": "*",
            }
        ),
    )
    topo.add_process(
        "worker_alice",
        send=topo.label({"db_port": "*"}),
        receive=topo.label({"uT:alice": 3}, default=2),
    )
    topo.add_process(
        "worker_bob",
        send=topo.label({"db_port": "*"}),
        receive=topo.label({"uT:bob": 3}, default=2),
    )
    topo.add_process(
        "dbproxy",
        send=topo.label({"db": "*"}),
        receive=topo.label({"uT:alice": 3, "uT:bob": 3}, default=2),
    )

    topo.add_port("demux_port", owner="demux")
    topo.add_port("worker_alice_port", owner="worker_alice")
    topo.add_port("worker_bob_port", owner="worker_bob")
    topo.add_port("db_port", owner="dbproxy")

    topo.add_edge("netd", "demux_port", name="req-alice")
    topo.add_edge("netd", "demux_port", name="req-bob")
    topo.add_edge(
        "demux",
        "worker_alice_port",
        cs=topo.label({"uT:alice": 3}, default="*"),
        name="demux->alice",
    )
    topo.add_edge(
        "demux",
        "worker_bob_port",
        cs=topo.label({"uT:bob": 3}, default="*"),
        name="demux->bob",
    )
    topo.add_edge("worker_alice", "db_port", name="alice->db")
    topo.add_edge("worker_bob", "db_port", name="bob->db")

    topo.policies = [
        {"kind": "isolation", "process": "worker_alice", "handle": "uT:bob", "max_level": 2},
        {"kind": "isolation", "process": "worker_bob", "handle": "uT:alice", "max_level": 2},
        {"kind": "capability-confinement", "handle": "db", "allowed": ["dbproxy"]},
        {
            "kind": "dead-edge",
            "edges": [
                "req-alice",
                "req-bob",
                "demux->alice",
                "demux->bob",
                "alice->db",
                "bob->db",
            ],
        },
    ]
    return topo


def dropped_emission() -> Topology:
    """An emission breach no delivery ever shows.

    ``p`` contaminates its one send with ``uT`` at 3, above its isolation
    bound of 2; the send's verification label ``{uT 0, 3}`` makes the
    kernel drop it, so the taint never lands anywhere.  The breach is the
    effective send label itself, which exists at send time whether or not
    the message is delivered.
    """
    topo = Topology(name="dropped-emission")
    topo.add_process("p", send=topo.label({"sink_port": "*"}))
    topo.add_process("sink")
    topo.add_port("sink_port", owner="sink")
    topo.add_edge(
        "p",
        "sink_port",
        cs=topo.label({"uT": 3}, default="*"),
        v=topo.label({"uT": 0}, default=3),
        name="p->sink",
    )
    topo.policies = [
        {"kind": "isolation", "process": "p", "handle": "uT", "max_level": 2},
    ]
    return topo


def main() -> None:
    for topo, filename in (
        (leaky_site(), "leaky_site.json"),
        (clean_site(), "clean_site.json"),
        (race_site(), "race_site.json"),
        (okws_request_mix(), "okws_request_mix.json"),
        (dropped_emission(), "dropped_emission.json"),
    ):
        (HERE / filename).write_text(topo.dumps() + "\n", encoding="utf-8")
        print(f"wrote {HERE / filename}")


if __name__ == "__main__":
    main()
