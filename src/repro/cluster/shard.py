"""The shard worker: one kernel, one OKWS partition, one endpoint.

A :class:`ShardRuntime` boots a full per-partition OKWS site (netd →
demux → workers, plus this shard's slice of the logical idd/dbproxy and
its cross-shard board); :func:`dispatch` serves it one command of the
parent :class:`~repro.cluster.router.Router` at a time.  The router
reaches it through a pipe-shaped endpoint: :func:`shard_main`, the
child-process entry point behind a ``multiprocessing`` pipe, or — for a
one-shard cluster — :class:`InlineShard` in the router's own process.

Protocol (request → reply, both plain tuples):

=========================== =============================================
``("peers", boards)``        install RemoteRoutes for peer boards
``("batch", reqs, conc)``    drive the local HTTP workload; reply with
                             per-session outcomes, the simulated clock
                             delta, latencies, and any cross-shard outbox
``("courier", targets)``     run the cross-shard courier over *targets*
``("xsend", blobs)``         unpickle each blob to a list of wire/v1
                             documents, decode (re-intern) them all, then
                             deliver them in order
``("mark",)``                start a drop-accounting phase
``("snapshot",)``            drop/label/sanitizer accounting
``("stop",)``                clean shutdown
=========================== =============================================

Every reply is ``("ok", payload)`` or ``("error", message)``; a child
reports an unexpected exception rather than dying silently, so the
parent never blocks on a dead pipe (inline, it simply propagates).  A
reply's ``outbox`` is ``[(dst, count, blob)]``, one entry per destination
shard in ascending order: *blob* is the pickled list of that
destination's *count* wire/v1 documents, in emission order.  The router
forwards blobs without opening them.

Shards are deterministic in simulated time: a shard's clock advances only
with its own work, so the cluster-level throughput measure (total
connections over the *slowest shard's* simulated busy time — shards run
on independent simulated CPUs) is reproducible regardless of how the
host OS schedules the worker processes.
"""

from __future__ import annotations

import pickle
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.interning import InternTable
from repro.cluster.wire import WIRE_SCHEMA, WireDecoder, WireEncoder, WireError
from repro.kernel.kernel import Kernel
from repro.kernel.message import QueuedMessage
from repro.kernel.ports import RemoteRoute
from repro.okws.sharding import (
    build_shard_site,
    courier_body,
    register_peer_boards,
)
from repro.sim.workload import HttpClient

__all__ = ["InlineShard", "ShardSpec", "ShardRuntime", "dispatch", "shard_main"]


class ShardSpec:
    """Everything a shard worker needs to boot (plain data, fork-safe)."""

    def __init__(
        self,
        shard_id: int,
        n_shards: int,
        kernel_config,
        service: str,
        users: Tuple[Tuple[str, str], ...],
        schema: Tuple[str, ...] = (),
        network: str = "classic",
    ) -> None:
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.kernel_config = kernel_config
        self.service = service
        self.users = tuple(users)
        self.schema = tuple(schema)
        self.network = network


class ShardRuntime:
    """One shard's kernel + site + wire codecs, in whichever process
    hosts it."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.kernel = Kernel(config=spec.kernel_config)
        self.site, self.board_env = build_shard_site(
            self.kernel,
            spec.service,
            spec.users,
            schema=spec.schema,
            network=spec.network,
        )
        self.client = HttpClient(self.site)
        # The codecs name labels by value, through a table of their own.
        table = InternTable()
        self.encoder = WireEncoder(table, src=spec.shard_id)
        self.decoder = WireDecoder(table)
        self._outbox: List[Tuple[int, QueuedMessage]] = []
        self.kernel.xshard_out = self._on_xshard_out
        self._drops_mark: Dict[str, int] = {}

    # -- egress ----------------------------------------------------------

    def _on_xshard_out(self, route: RemoteRoute, qmsg: QueuedMessage) -> None:
        self._outbox.append((route.shard, qmsg))

    def take_outbox(self) -> List[Tuple[int, int, bytes]]:
        """Encode and drain everything queued for other shards, as one
        ``(dst, count, blob)`` per destination, sorted by ``dst``."""
        by_dst: Dict[int, List[Dict[str, Any]]] = {}
        for dst, qmsg in self._outbox:
            by_dst.setdefault(dst, []).append(self.encoder.encode(
                dst=dst,
                port=qmsg.port,
                payload=qmsg.payload,
                es=qmsg.effective_send,
                ds=qmsg.decontaminate_send,
                v=qmsg.verify,
                dr=qmsg.decontaminate_receive,
                sender=qmsg.sender_name,
            ))
        self._outbox.clear()
        return [(dst, len(docs), pickle.dumps(docs)) for dst, docs in sorted(by_dst.items())]

    # -- commands --------------------------------------------------------

    def install_peers(self, boards: Dict[int, int]) -> None:
        register_peer_boards(self.kernel, self.spec.shard_id, boards)

    def run_batch(
        self, requests: List[Tuple[str, str, str, Any, Optional[Dict[str, Any]]]],
        concurrency: int,
    ) -> Dict[str, Any]:
        snap = self.kernel.clock.snapshot()
        responses = self.client.run_batch(requests, concurrency=concurrency)
        delta = self.kernel.clock.delta(snap)
        outcomes = [
            (
                request[0],
                response.payload.get("status")
                if isinstance(response.payload, dict)
                else None,
                response.body,
                response.latency_cycles,
            )
            for request, response in zip(requests, responses)
        ]
        return {
            "outcomes": outcomes,
            "clock_delta": dict(delta),
            "busy_cycles": sum(delta.values()),
            "outbox": self.take_outbox(),
        }

    def run_courier(self, targets: List[Dict[str, Any]]) -> Dict[str, Any]:
        self.kernel.spawn(
            courier_body, f"courier-{self.spec.shard_id}", env={"targets": targets}
        )
        self.kernel.run()
        return {"outbox": self.take_outbox()}

    def deliver(self, blobs: List[bytes]) -> Dict[str, Any]:
        # Decode the whole command before enqueueing any of it: a bad
        # batch delivers nothing.
        messages = []
        for blob in blobs:
            docs = pickle.loads(blob)
            if not isinstance(docs, list):
                raise WireError(f"not a list of {WIRE_SCHEMA} documents: {type(docs).__name__}")
            messages.extend(map(self.decoder.decode, docs))
        for message in messages:
            self.kernel.enqueue_external(
                message.port,
                message.payload,
                effective_send=message.es,
                ds=message.ds,
                v=message.v,
                dr=message.dr,
                sender_name=f"{message.sender}@shard{message.src}",
            )
        self.kernel.run()
        return {"delivered": len(messages), "outbox": self.take_outbox()}

    def mark_drops(self) -> None:
        """Start a drop-accounting phase (e.g. after boot, before load)."""
        self._drops_mark = dict(self.kernel.drop_log.by_reason)

    def snapshot(self) -> Dict[str, Any]:
        kernel = self.kernel
        # Counter subtraction keeps only the reasons that moved since the mark.
        drops = dict(Counter(kernel.drop_log.by_reason) - Counter(self._drops_mark))
        sanitizer = kernel.sanitizer
        return {
            "shard": self.spec.shard_id,
            "users": len(self.spec.users),
            "drops": drops,
            "board_log": list(self.board_env.get("log", ())),
            "board_port": self.board_env.get("board_port"),
            "sanitizer_violations": sanitizer.total if sanitizer is not None else None,
            "clock_now": kernel.clock.now,
            "labelop_cache": (
                kernel.labelop_cache.counters()
                if kernel.labelop_cache is not None
                else None
            ),
        }


#: Router verb → the :class:`ShardRuntime` method that serves it.
_VERBS = {
    "peers": ShardRuntime.install_peers,
    "batch": ShardRuntime.run_batch,
    "courier": ShardRuntime.run_courier,
    "xsend": ShardRuntime.deliver,
    "mark": ShardRuntime.mark_drops,
    "snapshot": ShardRuntime.snapshot,
    "stop": lambda runtime: None,  # the endpoint, not the runtime, shuts down
}


def dispatch(runtime: ShardRuntime, command: Tuple[Any, ...]) -> Any:
    """Run one router command against *runtime*; returns the reply payload."""
    handler = _VERBS.get(command[0])
    if handler is None:
        raise ValueError(f"unknown shard command: {command[0]!r}")
    return handler(runtime, *command[1:])


class InlineShard:
    """A one-shard cluster's endpoint: the pipe's ``send``/``recv`` over a
    live :class:`ShardRuntime` — no fork, no pipe, no pickling, and (with
    no peer to address) no wire codec, so the run stays bit-identical to
    the bare kernel's."""

    def __init__(self, spec: ShardSpec) -> None:
        self.runtime = ShardRuntime(spec)
        self._reply: Any = ("ready", {"board_port": self.runtime.board_env["board_port"]})

    def send(self, command: Tuple[Any, ...]) -> None:
        self._reply = ("ok", dispatch(self.runtime, command))

    def recv(self) -> Any:
        return self._reply

    def close(self) -> None:
        pass


def shard_main(conn, spec: ShardSpec) -> None:
    """Child-process entry point: boot, announce the board, serve commands."""
    try:
        runtime = ShardRuntime(spec)
    except BaseException as err:  # noqa: BLE001 - reported to the parent
        conn.send(("error", f"shard {spec.shard_id} failed to boot: {err!r}"))
        conn.close()
        return
    conn.send(("ready", {"board_port": runtime.board_env["board_port"]}))
    while True:
        try:
            command = conn.recv()
        except EOFError:
            break
        try:
            conn.send(("ok", dispatch(runtime, command)))
        except BaseException as err:  # noqa: BLE001 - reported to the parent
            conn.send(("error", f"shard {spec.shard_id} {command[0]} failed: {err!r}"))
        if command[0] == "stop":
            break
    conn.close()
