"""Seeded inputs.  The seed drives request order, passwords and note
text — nothing else; the program under test only ever sees the
generated requests, never the seed."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from hostbench.spec import NOTES, Workload

Request = Tuple[str, str, str, Any, Optional[Dict[str, Any]]]

ECHO_ARGS = {"length": 11}
NOTES_TABLE = "CREATE TABLE notes (author TEXT, text TEXT)"


@dataclass(frozen=True)
class Inputs:
    users: Tuple[Tuple[str, str], ...]
    #: ``(phase, requests)`` per round; every rep replays the same list.
    rounds: Tuple[Tuple[str, Tuple[Request, ...]], ...]

    @property
    def connections(self) -> int:
        return sum(len(requests) for _, requests in self.rounds)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(seed)
    users = tuple(
        (f"u{i}", "%08x" % rng.getrandbits(32)) for i in range(workload.users)
    )
    if workload.kind == NOTES:
        # One create round of add, then per resume round: add, add, list.
        ops = ["add"] + ["add", "add", "list"] * workload.resume_rounds
        phases = ["create"] + ["write", "write", "read"] * workload.resume_rounds
    else:
        ops = ["echo"] * (1 + workload.resume_rounds)
        phases = ["create"] + ["resume"] * workload.resume_rounds
    rounds = []
    for index, (op, phase) in enumerate(zip(ops, phases)):
        order = list(users)
        rng.shuffle(order)
        rounds.append((phase, tuple(_request(op, index, name, pw, rng) for name, pw in order)))
    return Inputs(users=users, rounds=tuple(rounds))


def _request(op: str, index: int, name: str, password: str, rng: random.Random) -> Request:
    if op == "echo":
        return (name, password, "echo", None, ECHO_ARGS)
    if op == "add":
        text = f"{name} r{index} %06x" % rng.getrandbits(24)
        return (name, password, "notes", text, {"op": "add"})
    return (name, password, "notes", None, {"op": "list"})
