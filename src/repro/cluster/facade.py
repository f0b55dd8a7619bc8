"""The public cluster API: :class:`ClusterConfig` and :class:`Cluster`.

This is the one import a user needs for multi-shard runs:

.. code-block:: python

    from repro import Cluster, ClusterConfig

    config = ClusterConfig(n_shards=4, users=USERS, service="echo")
    with Cluster(config) as cluster:
        result = cluster.run_batch(requests)
        cluster.run_courier()
        report = cluster.report()

Every shard count takes the same path through
:class:`~repro.cluster.router.Router`.  ``n_shards=1`` is still the
identity: the router's one endpoint is an in-process
:class:`~repro.cluster.shard.InlineShard` over the ordinary
:class:`~repro.kernel.Kernel` — same boot key, same schedule, same drop
log, no worker processes, no pipes and no wire codec — so a single-shard
cluster run is bit-identical to the pre-cluster API.  Only ``n_shards>1``
brings in per-shard OS processes and the ``wire/v1`` cross-shard path.

Sharding is by user (:func:`repro.okws.sharding.shard_of_user`): each
shard boots a complete OKWS stack over its user partition, including its
slice of the logical idd/dbproxy.  Per-shard kernels get disjoint handle
spaces by deriving the boot key (``boot_key + b"/shard-N"``), so a handle
minted on one shard never collides with a peer's — which is what lets
cross-shard labels name handles globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.kernel.config import KernelConfig
from repro.cluster.router import ClusterError, Router, requests_by_shard
from repro.cluster.shard import ShardSpec
from repro.okws.sharding import (
    SERVICES,
    courier_targets,
    partition_users,
    shard_of_user,
)

__all__ = ["BatchResult", "Cluster", "ClusterConfig", "ClusterError"]


@dataclass(frozen=True)
class ClusterConfig:
    """Immutable shape of one cluster run.

    Wraps a :class:`~repro.kernel.config.KernelConfig` (applied to every
    shard kernel) with the cluster-level knobs: how many shards, which
    OKWS service, the user universe, and the sampled-sanitizer override.
    ``sanitize_sample=None`` defers to ``kernel.sanitize_sample``;
    setting it (e.g. ``64`` for the production-shaped 1/64 sampling)
    overrides the kernel config on every shard.
    """

    n_shards: int = 1
    kernel: KernelConfig = field(default_factory=KernelConfig)
    service: str = "echo"
    users: Tuple[Tuple[str, str], ...] = ()
    schema: Tuple[str, ...] = ()
    network: str = "classic"
    sanitize_sample: Optional[int] = None
    concurrency: int = 16

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.service not in SERVICES:
            raise ValueError(
                f"unknown cluster service {self.service!r} "
                f"(expected one of {sorted(SERVICES)})"
            )
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.sanitize_sample is not None and self.sanitize_sample <= 0:
            raise ValueError(
                f"sanitize_sample must be positive, got {self.sanitize_sample}"
            )
        # Normalise sequences so the config is hashable and fork-safe.
        object.__setattr__(self, "users", tuple(tuple(u) for u in self.users))
        object.__setattr__(self, "schema", tuple(self.schema))

    def shard_kernel_config(self, shard_id: int) -> KernelConfig:
        """The kernel config for one shard.

        Single-shard clusters keep the boot key (and any ``store_path``)
        verbatim — that is the bit-identical guarantee.  Multi-shard
        clusters derive per-shard keys so handle spaces are disjoint
        across the cluster, and per-shard store paths
        (``<path>.shard-<k>``) so each shard's dbproxy logs to — and
        recovers from — its own file.  Because users are partitioned by
        :func:`shard_of_user` independently of the shard count, a user's
        rows land in the store of whichever shard owns them; recovery is
        per-shard and needs no cross-shard coordination.
        """
        config = self.kernel
        if self.sanitize_sample is not None:
            config = config.replace(sanitize_sample=self.sanitize_sample)
        if self.n_shards > 1:
            config = config.replace(
                boot_key=config.boot_key + b"/shard-%d" % shard_id
            )
            if config.store_path is not None:
                config = config.replace(
                    store_path=f"{config.store_path}.shard-{shard_id}"
                )
        return config

    def shard_specs(self) -> List[ShardSpec]:
        parts = partition_users(self.users, self.n_shards)
        return [
            ShardSpec(
                shard_id=shard,
                n_shards=self.n_shards,
                kernel_config=self.shard_kernel_config(shard),
                service=self.service,
                users=tuple(parts[shard]),
                schema=self.schema,
                network=self.network,
            )
            for shard in range(self.n_shards)
        ]


@dataclass
class BatchResult:
    """One :meth:`Cluster.run_batch` round, aggregated.

    ``outcomes`` is in the original request order regardless of sharding
    (one ``(user, status, body, latency_cycles)`` per request), which is
    what makes single- and multi-shard runs directly comparable.
    ``elapsed_cycles`` is the *slowest* shard's simulated busy time —
    shards run on independent simulated CPUs, so the cluster is as slow
    as its busiest member.
    """

    outcomes: List[Tuple[str, Any, Any, int]]
    busy_cycles: Tuple[int, ...]
    routed: int

    @property
    def elapsed_cycles(self) -> int:
        return max(self.busy_cycles) if self.busy_cycles else 0

    @property
    def latencies_cycles(self) -> List[int]:
        return [outcome[3] for outcome in self.outcomes]


class Cluster:
    """N kernel shards behind one object (the stable public facade)."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.n_shards = config.n_shards
        self._closed = False
        self._router = Router(config.shard_specs())
        try:
            self.boards = self._router.boot()
        except BaseException:
            self._router.stop()
            raise

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._router.stop()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- workload --------------------------------------------------------

    def run_batch(
        self,
        requests: Sequence[Tuple[str, str, str, Any, Optional[Dict[str, Any]]]],
    ) -> BatchResult:
        """Drive *requests* through the cluster, routing each to the shard
        owning its user, and drain any cross-shard traffic they cause."""
        requests = list(requests)
        parts = requests_by_shard(requests, self.n_shards)
        # Remember each request's (shard, position) so per-shard replies
        # can be stitched back into the original order.
        slots: List[List[int]] = [[] for _ in range(self.n_shards)]
        for i, request in enumerate(requests):
            slots[shard_of_user(request[0], self.n_shards)].append(i)
        replies = self._router.call_all(
            [("batch", parts[shard], self.config.concurrency)
             for shard in range(self.n_shards)]
        )
        outcomes: List[Any] = [None] * len(requests)
        outbox: List[Tuple[int, int, bytes]] = []
        busy: List[int] = []
        for shard, reply in enumerate(replies):
            for position, outcome in zip(slots[shard], reply["outcomes"]):
                outcomes[position] = tuple(outcome)
            busy.append(reply["busy_cycles"])
            outbox.extend(reply["outbox"])
        routed = self._router.pump(outbox)
        return BatchResult(
            outcomes=outcomes, busy_cycles=tuple(busy), routed=routed
        )

    def run_courier(self) -> int:
        """Run the cross-shard courier phase on every shard.

        Each shard sends one digest per local user to the board of the
        shard owning the next user in the global ring (plus the doomed
        ``V = {0}`` variants) — see :mod:`repro.okws.sharding`.  Returns
        the number of wire documents routed shard-to-shard.
        """
        all_users = [name for name, _ in self.config.users]
        commands = []
        for spec in self._router.specs:
            targets = courier_targets(
                [name for name, _ in spec.users],
                all_users,
                self.boards,
                self.n_shards,
            )
            commands.append(("courier", targets))
        replies = self._router.call_all(commands)
        return self._router.pump([entry for reply in replies for entry in reply["outbox"]])

    # -- accounting ------------------------------------------------------

    def mark(self) -> None:
        """Start a drop-accounting phase on every shard (excludes boot
        noise from the next :meth:`report`)."""
        self._router.call_all([("mark",)] * self.n_shards)

    def report(self) -> Dict[str, Any]:
        """Aggregate per-shard accounting: drops by reason, board logs,
        sanitizer verdicts, simulated clocks, cross-shard traffic."""
        shards = self._router.call_all([("snapshot",)] * self.n_shards)
        drops: Dict[str, int] = {}
        violations: Optional[int] = None
        board_log: List[Any] = []
        for snap in shards:
            for reason, count in snap["drops"].items():
                drops[reason] = drops.get(reason, 0) + count
            if snap["sanitizer_violations"] is not None:
                violations = (violations or 0) + snap["sanitizer_violations"]
            board_log.extend(snap["board_log"])
        return {
            "n_shards": self.n_shards,
            "shards": shards,
            "drops": drops,
            "sanitizer_violations": violations,
            "board_log": board_log,
            "routed": self._router.routed,
        }
