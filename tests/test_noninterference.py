"""Randomised noninterference tests.

A web of relay processes forwards everything it receives to random
targets.  One process holds a secret and sends it out contaminated with a
fresh compartment; observers have explicitly refused that compartment
(receive label lowered below the taint).  Whatever the topology and
forwarding pattern, no payload *derived from the secret* may ever reach
an observer — the kernel's transitive contamination must track derivation
through any number of hops.

This is the property the paper's design argument rests on ("isolation
policies can restrict information flow among processes that may be
ignorant of the policies"), tested against an oracle that tracks
derivation in payload metadata the kernel never looks at.
"""

import random

import pytest

from repro.core.labels import Label
from repro.core.levels import L1, L2, L3, STAR
from repro.kernel import (
    ChangeLabel,
    Kernel,
    NewHandle,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
)

RELAYS = 6
ROUNDS = 25


def _run_web(seed: int, taint_level: int):
    """Build the web, run the gossip, return (observer_log, kernel)."""
    rng = random.Random(seed)
    kernel = Kernel()
    observer_log = []
    ports = {}

    def relay(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["coord"], {"who": ctx.env["who"], "port": port})
        while True:
            msg = yield Recv(port=port)
            payload = msg.payload
            if payload.get("kind") == "route" and payload["route"]:
                # Forward a *derived* payload along the remaining route.
                next_hop, rest = payload["route"][0], payload["route"][1:]
                yield Send(
                    next_hop,
                    {
                        "kind": "route",
                        "route": rest,
                        "derived_from_secret": payload["derived_from_secret"],
                        "body": f"derived({payload['body']})",
                    },
                )

    def observer(ctx):
        h = ctx.env["h"]
        # Refuse the secret compartment outright.
        yield ChangeLabel(receive=Label({h: L1}, L2))
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["coord"], {"who": "observer", "port": port})
        while True:
            msg = yield Recv(port=port)
            observer_log.append(msg.payload)

    def coordinator(ctx):
        h = yield NewHandle()
        ctx.env["h"] = h
        coord = yield NewPort()
        yield SetPortLabel(coord, Label.top())
        from repro.kernel import Spawn

        for i in range(RELAYS):
            yield Spawn(relay, name=f"relay{i}", env={"coord": coord, "who": i})
        yield Spawn(observer, name="observer", env={"coord": coord, "h": h})
        for _ in range(RELAYS + 1):
            msg = yield Recv(port=coord)
            ports[msg.payload["who"]] = msg.payload["port"]

        # Gossip: secret and innocuous payloads along random routes that
        # may well end at the observer.
        for round_no in range(ROUNDS):
            secret = rng.random() < 0.5
            hops = rng.randint(1, 3)
            route = [ports[rng.randrange(RELAYS)] for _ in range(hops)]
            route.append(ports["observer"])
            payload = {
                "kind": "route",
                "route": route[1:],
                "derived_from_secret": secret,
                "body": f"msg{round_no}",
            }
            if secret:
                yield Send(
                    route[0],
                    payload,
                    cs=Label({h: taint_level}, STAR),
                )
            else:
                yield Send(route[0], payload)

    kernel.spawn(coordinator, "coordinator")
    kernel.run(max_steps=10_000_000)
    return observer_log, kernel


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_no_secret_derivation_reaches_observer_level2(seed):
    # Partial taint (level 2) spreads freely among relays (default receive
    # is 2) — the permissive model — yet the observer, who lowered its
    # receive label, must never see anything derived from the secret.
    log, kernel = _run_web(seed, taint_level=L2)
    assert log, "the web must deliver *something* (innocuous traffic flows)"
    assert all(not p["derived_from_secret"] for p in log)
    assert kernel.drop_log.count("label-check") > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_secret_derivation_reaches_observer_level3(seed):
    # Full taint (level 3): even the relays refuse it (default receive 2),
    # so the secret dies at the first hop — and certainly never arrives.
    log, kernel = _run_web(seed, taint_level=L3)
    assert all(not p["derived_from_secret"] for p in log)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_relays_that_saw_secret_are_tainted(seed):
    # Oracle on final kernel state: any relay whose payload history could
    # include the secret carries the taint in its send label; relays are
    # interchangeable, so check globally: every process that is NOT
    # tainted never forwarded a derived payload to the observer (implied
    # by the observer log being clean, asserted in the tests above) and
    # every tainted relay got there through delivery effects only.
    log, kernel = _run_web(seed, taint_level=L2)
    for proc in kernel.processes.values():
        if not proc.name.startswith("relay"):
            continue
        for handle, level in proc.send_label.iter_entries():
            assert level in (L2, STAR), f"{proc.name} has unexpected level {level}"
