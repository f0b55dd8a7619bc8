"""Sharded OKWS wiring for ``repro.cluster``.

A cluster shard is a complete per-partition OKWS instance: its own netd,
ok-demux, workers, okc — and its slice of the one *logical* idd/dbproxy,
horizontally partitioned by the same user→shard map that routes
connections, so a shard's workers never need an off-shard database call
(a user's row lives exactly where its sessions run).

Two small cluster-only processes ride on top of the ordinary
:func:`repro.okws.launcher.launch` stack:

- the **board**: one per shard, a process owning a wide-open port
  (``pR = {3}``) that collects cross-shard messages.  Its receive label
  is where cross-shard *taint* lands, so the differential suite can
  watch contamination propagate across the wire.
- the **courier**: the cross-shard sender.  For each local user it mints
  a fresh taint handle, then sends that user's session digest to the
  board of the shard owning the *next* user — contaminated at 3 in the
  new compartment, with a ``DR`` raise so the board can accept it
  (decontaminate-receive across the wire).  Odd-numbered users also send
  a doomed variant whose verify label pins ``V = {0}``: Figure 4
  requirement (1) must reject it *at the receiving shard*, which is how
  the tests pin cross-shard drop accounting.

Both the send-side checks (requirements 2 and 3, run on the courier's
shard) and the delivery-side checks (1 and 4, run on the board's shard
against its own interned labels) are the verbatim kernel paths — the
wire only moves ``(message, labels, effects)`` between them.

The user→shard map is :func:`shard_of_user` — a CRC of the user name, so
it is stable across OS processes (Python's ``hash`` is salted) and
independent of shard bring-up order.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.labels import Label
from repro.core.levels import L0, L3, STAR
from repro.kernel.kernel import Kernel
from repro.kernel.ports import RemoteRoute
from repro.ipc.rpc import open_port
from repro.kernel.syscalls import NewHandle, Recv, Send
from repro.okws.launcher import OkwsSite, ServiceConfig, launch
from repro.okws.services import echo_handler, notes_handler, session_cache_handler

__all__ = [
    "SERVICES",
    "board_body",
    "build_shard_site",
    "courier_body",
    "courier_targets",
    "partition_users",
    "register_peer_boards",
    "shard_of_user",
]

#: Services a :class:`~repro.cluster.ClusterConfig` may name.  Names keep
#: shard specs picklable and identical across OS processes; handlers are
#: the ordinary OKWS service generators.
SERVICES: Dict[str, Callable] = {
    "echo": echo_handler,
    "cache": session_cache_handler,
    # A write-backed service: the store's shard-invariance tests drive it
    # (with the notes schema in ClusterConfig.schema) so each shard's
    # dbproxy actually logs rows.
    "notes": notes_handler,
}


def shard_of_user(user: str, n_shards: int) -> int:
    """The shard owning *user* — stable across processes and runs."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(user.encode("utf-8")) % n_shards


def partition_users(
    users: Sequence[Tuple[str, str]], n_shards: int
) -> List[List[Tuple[str, str]]]:
    """Split ``(name, password)`` pairs into per-shard partitions."""
    parts: List[List[Tuple[str, str]]] = [[] for _ in range(n_shards)]
    for name, password in users:
        parts[shard_of_user(name, n_shards)].append((name, password))
    return parts


def board_body(ctx):
    """The per-shard cross-shard ingress sink.

    Owns one wide-open port and logs every delivered payload.
    Contamination arrives through the ordinary delivery effects on its
    labels.
    """
    port = yield from open_port()
    ctx.env["board_port"] = port
    ctx.env["log"] = []
    while True:
        msg = yield Recv(port=port)
        ctx.env["log"].append(msg.payload)


def courier_targets(
    local_users: Sequence[str],
    all_users: Sequence[str],
    boards: Dict[int, int],
    n_shards: int,
) -> List[Dict[str, Any]]:
    """Build the courier's send list for one shard.

    One digest per *local* user, addressed to the board of the shard
    owning the next user in the global ring — so the total message set
    over all shards is a function of the user list alone, never of the
    shard count (what the cross-shard differential suite compares).
    Odd-indexed users add the doomed ``V = {0}`` variant.
    """
    ring = list(all_users)
    index = {name: i for i, name in enumerate(ring)}
    targets: List[Dict[str, Any]] = []
    for name in local_users:
        i = index[name]
        peer = ring[(i + 1) % len(ring)]
        board = boards[shard_of_user(peer, n_shards)]
        targets.append(
            {"port": board, "payload": {"type": "DIGEST", "user": name, "seq": i}}
        )
        if i % 2 == 1:
            targets.append(
                {
                    "port": board,
                    "payload": {"type": "DOOMED", "user": name, "seq": i},
                    "deny": True,
                }
            )
    return targets


def courier_body(ctx):
    """Send each target its message, with real labels on the wire.

    Per message: a fresh handle ``h`` (``PS(h) = ⋆``, so requirements 2/3
    pass locally), contamination ``CS = {h 3}``, and a matching
    ``DR = {h 3}`` raise so the board's ``QR`` (default 2) admits the
    taint.  ``deny`` targets instead carry ``V = {0}``, which requirement
    (1) rejects wherever the board lives.
    """
    for target in ctx.env["targets"]:
        handle = yield NewHandle()
        if target.get("deny"):
            # Doomed by design: the differential suite counts this drop
            # on whichever shard owns the board.  # asblint: ignore[never-pass]
            yield Send(
                target["port"],
                target["payload"],
                cs=Label({handle: L3}, STAR),
                v=Label({}, L0),
                dr=Label({handle: L3}, STAR),
            )
        else:
            yield Send(
                target["port"],
                target["payload"],
                cs=Label({handle: L3}, STAR),
                dr=Label({handle: L3}, STAR),
            )
    ctx.env["done"] = True


def build_shard_site(
    kernel: Kernel,
    service: str,
    users: Sequence[Tuple[str, str]],
    schema: Sequence[str] = (),
    network: str = "classic",
) -> Tuple[OkwsSite, Dict[str, Any]]:
    """Boot one shard: the full OKWS stack for *users* plus its board.

    Returns ``(site, board_env)``; ``board_env["board_port"]`` is the
    handle peers address cross-shard messages to.
    """
    handler = SERVICES.get(service)
    if handler is None:
        raise ValueError(
            f"unknown cluster service {service!r} (expected one of "
            f"{sorted(SERVICES)})"
        )
    site = launch(
        kernel=kernel,
        services=[ServiceConfig(service, handler)],
        users=list(users),
        schema=list(schema),
        network=network,
    )
    board = kernel.spawn(board_body, "xboard", env={})
    kernel.run()
    return site, board.env


def register_peer_boards(
    kernel: Kernel, shard_id: int, boards: Dict[int, int]
) -> None:
    """Install :class:`RemoteRoute` entries for every peer shard's board."""
    for peer, handle in boards.items():
        if peer != shard_id:
            kernel.remote_routes[handle] = RemoteRoute(
                shard=peer, name=f"xboard@{peer}"
            )
