"""End-to-end experiment drivers for the paper's evaluation (Section 9).

One function per experiment family:

- :func:`run_memory_experiment` — Figure 6: total memory (pages) after
  creating N cached or active web sessions.
- :func:`run_session_sweep` — Figures 7 and 9: throughput and the
  per-connection component cycle breakdown as the number of cached
  sessions varies (each user connects to its session exactly 4 times,
  matching Section 9.2.1's workload).
- :func:`run_latency_experiment` — Figure 8: request latencies at
  concurrency 4 for a given number of cached sessions.

Results are plain dataclasses so ``python -m repro bench`` can write the
paper's rows/series and the tests can assert on shapes.

Each workload is said once: :func:`echo_requests` is the Section 9.2
echo request mix and :func:`warm_window` the "warm, then measure one
round through a clock window" protocol every cycle figure uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.kernel.clock import CPU_HZ
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.memory import PAGE_SIZE
from repro.okws.launcher import OkwsSite, ServiceConfig, launch
from repro.okws.services import echo_handler, session_cache_handler
from repro.sim.workload import HttpClient


def _users(n: int) -> List[Tuple[str, str]]:
    return [(f"u{i}", f"pw{i}") for i in range(n)]


#: The Section 9.2 request: an 11-byte echo, 144 bytes on the wire.
ECHO_ARGS = {"length": 11}


def echo_requests(
    n_users: int, n_requests: Optional[int] = None, args: Optional[dict] = ECHO_ARGS
) -> List[tuple]:
    """*n_requests* echo-service requests (``HttpClient.run_batch``
    tuples), round-robin over users ``u0 … u{n_users-1}``; default one
    per user.  ``args=None`` is the Figure 8 bare request."""
    count = n_users if n_requests is None else n_requests
    return [
        (f"u{i % n_users}", f"pw{i % n_users}", "echo", None, args)
        for i in range(count)
    ]


def warm_window(
    site: OkwsSite, requests, warm_rounds: int = 2, concurrency: int = 16
):
    """Run *requests* *warm_rounds* times unmeasured (so every label
    reaches its per-user fixed point), then once more through a clock
    snapshot/delta window.  Returns ``(delta, responses)`` of the
    measured round: simulated cycles by category, and its responses."""
    client = HttpClient(site)
    for _ in range(warm_rounds):
        client.run_batch(requests, concurrency=concurrency)
    snap = site.kernel.clock.snapshot()
    responses = client.run_batch(requests, concurrency=concurrency)
    return site.kernel.clock.delta(snap), responses


def build_echo_site(n_users: int, config: Optional[KernelConfig] = None) -> OkwsSite:
    """An OKWS instance running the Section 9.2 echo service; *config*
    controls every kernel option (default: from the environment)."""
    return launch(
        kernel=Kernel(config=config),
        services=[ServiceConfig("echo", echo_handler)],
        users=_users(n_users),
    )


def build_cache_site(
    n_users: int,
    no_clean: bool = False,
    config: Optional[KernelConfig] = None,
) -> OkwsSite:
    """An OKWS instance running the Section 9.1 session-cache service."""
    return launch(
        kernel=Kernel(config=config),
        services=[ServiceConfig("cache", session_cache_handler, no_clean=no_clean)],
        users=_users(n_users),
    )


# -- Figure 6 -----------------------------------------------------------------------


@dataclass
class MemoryPoint:
    sessions: int
    total_pages: float
    user_pages: int
    kernel_bytes: int
    breakdown: Dict[str, int] = field(default_factory=dict)


def run_memory_experiment(
    session_counts: List[int],
    active: bool = False,
    concurrency: int = 16,
    config: Optional[KernelConfig] = None,
) -> List[MemoryPoint]:
    """Create N sessions (one connection each) and measure total memory.

    ``active=False`` measures *cached* sessions: the worker ep_cleans down
    to its session page before yielding.  ``active=True`` measures the
    worst case: the worker never cleans, so every session retains its
    stack, message-queue and scratch pages (Section 9.1).
    """
    points: List[MemoryPoint] = []
    for count in session_counts:
        site = build_cache_site(max(count, 1), no_clean=active, config=config)
        client = HttpClient(site)
        baseline = site.kernel.memory_report()
        requests = [
            (f"u{i}", f"pw{i}", "cache", b"s" * 900, None) for i in range(count)
        ]
        client.run_batch(requests, concurrency=concurrency)
        report = site.kernel.memory_report()
        points.append(
            MemoryPoint(
                sessions=count,
                total_pages=report["total_bytes"] / PAGE_SIZE,
                user_pages=report["user_pages"],
                kernel_bytes=report["kernel_bytes"],
                breakdown={
                    key: report[key]
                    for key in (
                        "process_bytes",
                        "ep_bytes",
                        "port_bytes",
                        "label_bytes",
                        "vnode_bytes",
                    )
                },
            )
        )
    return points


# -- Figures 7 and 9 -----------------------------------------------------------------


@dataclass
class SweepPoint:
    sessions: int
    connections: int
    throughput: float                      # completed connections/second
    components_kcycles: Dict[str, float]   # per-connection, by category
    total_kcycles: float
    latencies_us: List[float] = field(default_factory=list)


def run_session_sweep(
    session_counts: List[int],
    rounds: int = 4,
    concurrency: int = 16,
    min_connections: int = 64,
    config: Optional[KernelConfig] = None,
) -> List[SweepPoint]:
    """The Section 9.2.1 throughput experiment.

    For each point, S users each connect to their session *rounds* times
    (round-robin, so sessions are created in round one and resumed in the
    rest).  Throughput and component costs are measured over the entire
    run, matching the paper ("the throughput results thus contain data
    both for forwarding messages to existing event processes and for
    creating new event processes").
    """
    points: List[SweepPoint] = []
    for count in session_counts:
        effective_rounds = max(rounds, -(-min_connections // count))
        n = effective_rounds * count
        delta, responses = warm_window(
            build_echo_site(count, config=config),
            echo_requests(count, n),
            warm_rounds=0,
            concurrency=concurrency,
        )
        total = sum(delta.values())
        points.append(
            SweepPoint(
                sessions=count,
                connections=n,
                throughput=n / (total / CPU_HZ),
                components_kcycles={k: v / n / 1000 for k, v in delta.items()},
                total_kcycles=total / n / 1000,
                latencies_us=[r.latency_cycles / CPU_HZ * 1e6 for r in responses],
            )
        )
    return points


# -- Figure 8 ----------------------------------------------------------------------------


def run_latency_experiment(
    sessions: int,
    n_requests: int = 400,
    concurrency: int = 4,
    config: Optional[KernelConfig] = None,
) -> List[float]:
    """Per-request latencies for OKWS with *sessions* cached sessions, at
    the paper's measurement concurrency of four."""
    users = max(sessions, 1)
    site = build_echo_site(users, config=config)
    client = HttpClient(site)
    # Pre-create the cached sessions.
    client.run_batch(echo_requests(users, sessions, args=None), concurrency=16)
    # Measure over a closed loop of existing sessions.
    responses = client.run_batch(
        echo_requests(users, n_requests, args=None), concurrency=concurrency
    )
    return [r.latency_cycles / CPU_HZ * 1e6 for r in responses]
