"""The shard worker: one kernel, one OKWS partition, one OS process.

:func:`shard_main` is the child-process entry point.  It boots a full
per-partition OKWS site (netd → demux → workers, plus this shard's slice
of the logical idd/dbproxy and its cross-shard board), then serves
commands from the parent :class:`~repro.cluster.router.Router` over a
``multiprocessing`` pipe until told to stop.

Protocol (request → reply, both plain tuples):

=========================== =============================================
``("peers", boards)``        install RemoteRoutes for peer boards
``("batch", reqs, conc)``    drive the local HTTP workload; reply with
                             per-session outcomes, the simulated clock
                             delta, latencies, and any cross-shard outbox
``("courier", targets)``     run the cross-shard courier over *targets*
``("xsend", docs)``          decode wire/v1 *docs*, re-intern, deliver
``("snapshot", phase)``      drop/label/sanitizer accounting
``("stop",)``                clean shutdown
=========================== =============================================

Every reply is ``("ok", payload)`` or ``("error", message)``; an
unexpected exception is reported rather than silently killing the child,
so the parent never blocks on a dead pipe.

Shards are deterministic in simulated time: a shard's clock advances only
with its own work, so the cluster-level throughput measure (total
connections over the *slowest shard's* simulated busy time — shards run
on independent simulated CPUs) is reproducible regardless of how the
host OS schedules the worker processes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.interning import global_intern_table
from repro.cluster.wire import WireDecoder, WireEncoder
from repro.kernel.kernel import Kernel
from repro.kernel.message import QueuedMessage
from repro.kernel.ports import RemoteRoute
from repro.okws.sharding import (
    build_shard_site,
    courier_body,
    register_peer_boards,
)
from repro.sim.workload import HttpClient

__all__ = ["ShardSpec", "ShardRuntime", "shard_main"]


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
    """The in-process half of a shard: kernel + site + wire codecs.

    Also usable directly (no child process) — the facade's ``n_shards=1``
    path and the unit tests drive it inline.
    """

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
        table = global_intern_table()
        self.encoder = WireEncoder(table, src=spec.shard_id)
        self.decoder = WireDecoder(table)
        self._outbox: List[Tuple[int, QueuedMessage]] = []
        self.kernel.xshard_out = self._on_xshard_out
        self._drops_mark = 0

    # -- egress ----------------------------------------------------------

    def _on_xshard_out(self, route: RemoteRoute, qmsg: QueuedMessage) -> None:
        self._outbox.append((route.shard, qmsg))

    def take_outbox(self) -> List[Dict[str, Any]]:
        """Encode and drain everything queued for other shards."""
        docs = [
            self.encoder.encode(
                dst=dst,
                port=qmsg.port,
                payload=qmsg.payload,
                es=qmsg.effective_send,
                ds=qmsg.decontaminate_send,
                v=qmsg.verify,
                dr=qmsg.decontaminate_receive,
                sender=qmsg.sender_name,
            )
            for dst, qmsg in self._outbox
        ]
        self._outbox.clear()
        return docs

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

    def deliver(self, docs: List[Dict[str, Any]]) -> Dict[str, Any]:
        delivered = 0
        for doc in docs:
            message = self.decoder.decode(doc)
            self.kernel.enqueue_external(
                message.port,
                message.payload,
                effective_send=message.es,
                ds=message.ds,
                v=message.v,
                dr=message.dr,
                sender_name=f"{message.sender}@shard{message.src}",
            )
            delivered += 1
        self.kernel.run()
        return {"delivered": delivered, "outbox": self.take_outbox()}

    def mark_drops(self) -> None:
        """Start a drop-accounting phase (e.g. after boot, before load)."""
        self._drops_mark = len(self.kernel.drop_log.records)

    def snapshot(self) -> Dict[str, Any]:
        kernel = self.kernel
        drops: Dict[str, int] = {}
        for reason, _, _ in kernel.drop_log.records[self._drops_mark :]:
            drops[reason] = drops.get(reason, 0) + 1
        sanitizer = kernel.sanitizer
        return {
            "shard": self.spec.shard_id,
            "users": len(self.spec.users),
            "drops": drops,
            "board_log": list(self.board_env.get("log", ())),
            "board_port": self.board_env.get("board_port"),
            "sanitizer_violations": (
                len(sanitizer.violations) if sanitizer is not None else None
            ),
            "clock_now": kernel.clock.now,
            "labelop_cache": (
                kernel.labelop_cache.counters()
                if kernel.labelop_cache is not None
                else None
            ),
        }


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
        verb = command[0]
        try:
            if verb == "peers":
                runtime.install_peers(command[1])
                reply: Any = None
            elif verb == "batch":
                reply = runtime.run_batch(command[1], command[2])
            elif verb == "courier":
                reply = runtime.run_courier(command[1])
            elif verb == "xsend":
                reply = runtime.deliver(command[1])
            elif verb == "mark":
                runtime.mark_drops()
                reply = None
            elif verb == "snapshot":
                reply = runtime.snapshot()
            elif verb == "stop":
                conn.send(("ok", None))
                break
            else:
                conn.send(("error", f"unknown shard command: {verb!r}"))
                continue
            conn.send(("ok", reply))
        except BaseException as err:  # noqa: BLE001 - reported to the parent
            conn.send(("error", f"shard {spec.shard_id} {verb} failed: {err!r}"))
    conn.close()
