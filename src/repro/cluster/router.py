"""The cluster router: shard endpoints and message routing.

The :class:`Router` owns the shard endpoints — one forked worker process
behind a pipe per shard, or, for a one-shard cluster, a single
:class:`~repro.cluster.shard.InlineShard` in this process.  It is
deliberately dumb: shards never talk to each other directly — every
``wire/v1`` document a shard emits comes back to the router, which
forwards it to the owning shard's endpoint.  That keeps the transport a
star (N pipes, no N² mesh), and it makes cross-shard traffic observable
in one place, which is what the tests and the scale bench count.

Requests fan out with :meth:`Router.call_all` — commands are written to
*every* pipe before any reply is read, so shard kernels genuinely run
concurrently as OS processes; the router only synchronizes at reply
collection, and reads every reply before it raises a shard's error, so
no stale reply is left in a pipe.  :meth:`Router.pump` then drains
cross-shard traffic to a fixed point, fanning out the same way: each
round writes every destination's ``xsend`` before reading any reply, and
the replies' outboxes go around again (a delivery can itself trigger
sends) until the cluster is quiet.  Outbox entries are ``(dst, count,
blob)``; the router forwards a blob as bytes and never opens it.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.shard import InlineShard, ShardSpec, shard_main
from repro.okws.sharding import shard_of_user

__all__ = ["ClusterError", "Router", "requests_by_shard"]


class ClusterError(RuntimeError):
    """A shard reported an error or died mid-conversation."""


def requests_by_shard(
    requests: Sequence[Tuple[str, str, str, Any, Optional[Dict[str, Any]]]],
    n_shards: int,
) -> List[List[Tuple[str, str, str, Any, Optional[Dict[str, Any]]]]]:
    """Partition ``(user, password, service, body, args)`` tuples by the
    user→shard map, preserving each shard's request order."""
    parts: List[List[Any]] = [[] for _ in range(n_shards)]
    for request in requests:
        parts[shard_of_user(request[0], n_shards)].append(request)
    return parts


class Router:
    """Owns the shard endpoints (and the worker processes behind them)."""

    def __init__(self, specs: Sequence[ShardSpec]) -> None:
        self.specs = list(specs)
        self.n_shards = len(self.specs)
        self._processes: List[Any] = []
        self._pipes: List[Any] = []
        #: shard id → board port handle, filled in by :meth:`boot`.
        self.boards: Dict[int, int] = {}
        #: Total wire/v1 documents routed shard-to-shard.
        self.routed = 0

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> Dict[int, int]:
        """Start every shard, collect board ports, broadcast the peer map."""
        if self.n_shards == 1:
            self._pipes.append(InlineShard(self.specs[0]))
        else:
            self._fork_workers()
        for shard, pipe in enumerate(self._pipes):
            status, payload = pipe.recv()
            if status != "ready":
                raise ClusterError(f"shard {shard} failed to boot: {payload}")
            self.boards[shard] = payload["board_port"]
        self.call_all([("peers", self.boards)] * self.n_shards)
        return dict(self.boards)

    def _fork_workers(self) -> None:
        context = multiprocessing.get_context("fork")
        for spec in self.specs:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=shard_main,
                args=(child_end, spec),
                name=f"repro-shard-{spec.shard_id}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            self._pipes.append(parent_end)

    def stop(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
                pipe.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            pipe.close()
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        self._processes.clear()
        self._pipes.clear()

    # -- conversation ----------------------------------------------------

    def _gather(self, shards: Sequence[int]) -> List[Any]:
        """Read one reply from each of *shards*, in order.  A shard's error
        is raised only once every reply is read, so none is left behind in
        its pipe to answer the next command."""
        replies: List[Any] = []
        errors: List[str] = []
        for shard in shards:
            try:
                status, payload = self._pipes[shard].recv()
            except EOFError:
                status, payload = "error", f"shard {shard} died"
            if status != "ok":
                errors.append(str(payload))
            replies.append(payload)
        if errors:
            raise ClusterError(errors[0])
        return replies

    def call_all(self, commands: Sequence[Tuple[Any, ...]]) -> List[Any]:
        """One command per shard, written before any reply is read — the
        fan-out that lets all shard kernels run concurrently."""
        if len(commands) != self.n_shards:
            raise ValueError(
                f"need one command per shard ({self.n_shards}), got {len(commands)}"
            )
        for pipe, command in zip(self._pipes, commands):
            pipe.send(command)
        return self._gather(range(self.n_shards))

    # -- cross-shard traffic ---------------------------------------------

    def pump(self, outbox: List[Tuple[int, int, bytes]]) -> int:
        """Route *outbox* entries (and any traffic their delivery triggers)
        until the cluster is quiet.  Returns the number of documents routed.

        A round fans out like :meth:`call_all`.  Each shard's reply depends
        only on its own command stream, so the result equals delivering one
        destination at a time."""
        total = 0
        while outbox:
            by_dst: Dict[int, List[bytes]] = {}
            for dst, count, blob in outbox:
                by_dst.setdefault(dst, []).append(blob)
                total += count
            dsts = sorted(by_dst)
            for dst in dsts:
                self._pipes[dst].send(("xsend", by_dst[dst]))
            outbox = [entry for reply in self._gather(dsts) for entry in reply["outbox"]]
        self.routed += total
        return total
