"""The workload generator, the Wire boundary object, and the experiment
drivers' small moving parts."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.okws import ServiceConfig, launch
from repro.okws.services import echo_handler, session_cache_handler
from repro.servers.netd import Wire
from repro.sim.runner import (
    run_latency_experiment,
    run_memory_experiment,
    run_session_sweep,
)
from repro.sim.stats import percentile
from repro.sim.workload import HttpClient, HttpResponse


def test_wire_buffers_and_stamps():
    wire = Wire()
    wire.deliver(1, b"a", now=100)
    wire.deliver(1, b"b", now=200)
    wire.deliver(2, b"c", now=300)
    assert wire.take(1) == [b"a", b"b"]
    assert wire.take(1) == []           # drained
    assert wire.stamps[1] == [100, 200]
    wire.close(2)
    assert wire.closed[2] is True


def test_http_response_properties():
    ok = HttpResponse(conn_id=1, payload={"body": "x"}, open_cycles=100, done_cycles=400)
    assert ok.ok and ok.body == "x" and ok.latency_cycles == 300
    forbidden = HttpResponse(conn_id=2, payload={"status": 403}, open_cycles=0, done_cycles=1)
    assert not forbidden.ok
    dead = HttpResponse(conn_id=3, payload=None, open_cycles=0, done_cycles=0)
    assert dead.body is None


@pytest.fixture(scope="module")
def site():
    return launch(
        services=[
            ServiceConfig("echo", echo_handler),
            ServiceConfig("cache", session_cache_handler),
        ],
        users=[(f"u{i}", f"pw{i}") for i in range(8)],
    )


def test_request_assigns_fresh_conn_ids(site):
    client = HttpClient(site)
    r1 = client.request("u0", "pw0", "echo")
    r2 = client.request("u1", "pw1", "echo")
    assert r1.conn_id != r2.conn_id
    assert r1.latency_cycles > 0


def test_run_batch_returns_one_response_per_request(site):
    client = HttpClient(site)
    requests = [(f"u{i % 8}", f"pw{i % 8}", "echo", None, {"length": i % 5 + 1}) for i in range(24)]
    responses = client.run_batch(requests, concurrency=7)
    assert len(responses) == 24
    assert all(r.ok for r in responses)


def test_batch_sessions_accumulate(site):
    client = HttpClient(site)
    client.run_batch(
        [(f"u{i}", f"pw{i}", "cache", b"x", None) for i in range(8)], concurrency=4
    )
    procs = {p.name: p for p in site.kernel.processes.values()}
    assert len(procs["worker-cache"].event_processes) == 8
    # Section 9.3: ok-demux holds a session handle per cached session.
    assert len(procs["ok-demux"].send_label) >= 8


def test_run_session_sweep_point_shape():
    points = run_session_sweep([2], rounds=2, min_connections=4)
    point = points[0]
    assert point.sessions == 2
    assert point.connections >= 4
    assert point.throughput > 0
    assert set(point.components_kcycles) >= {"Network", "OKWS", "Kernel IPC"}
    assert abs(sum(point.components_kcycles.values()) - point.total_kcycles) < 1


def test_run_memory_experiment_monotonic():
    points = run_memory_experiment([0, 50])
    empty, full = points
    assert full.total_pages > empty.total_pages
    assert full.user_pages > empty.user_pages
    # Every kernel byte comes from a concrete structure; labels, not the
    # 44-byte event processes, are the dominant term (Section 9.1), and
    # a cached session costs well under a page of kernel memory.
    assert sum(full.breakdown.values()) == full.kernel_bytes
    assert full.breakdown["label_bytes"] > full.breakdown["ep_bytes"]
    assert 0.2 <= (full.kernel_bytes - empty.kernel_bytes) / 4096 / 50 <= 0.8


def test_run_latency_experiment_returns_microseconds():
    latencies = run_latency_experiment(1, n_requests=12, concurrency=4)
    assert len(latencies) == 12
    assert all(100 < l < 100_000 for l in latencies)


def test_a_thousand_cached_sessions_cost_real_latency():
    # Figure 8's last row: 1,000 cached sessions cost real latency, and
    # land within reach of Apache ("just a bit worse" in the paper).
    # The paper's kernel: the interned fast path flattens this on purpose.
    from repro.baselines import ApacheCgiModel
    from repro.kernel import KernelConfig

    plain = KernelConfig()
    one = percentile(run_latency_experiment(1, n_requests=20, config=plain), 50)
    big = percentile(run_latency_experiment(1000, n_requests=20, config=plain), 50)
    apache = percentile(ApacheCgiModel().run(150, concurrency=4).latencies_us, 50)
    assert big > 1.2 * one
    assert big > 0.55 * apache


def test_a_plain_run_imports_no_checker():
    """Launching a site and serving a request on a default kernel pulls
    in none of the optional subsystems: the checkers (and with them the
    policies), fault injection, the store and the cluster are imported
    by the configurations and tools that use them."""
    script = (
        "import sys\n"
        "from repro.okws.launcher import ServiceConfig, launch\n"
        "from repro.okws.services import echo_handler\n"
        "from repro.sim.workload import HttpClient\n"
        "from repro.kernel import Kernel, KernelConfig\n"
        "site = launch(kernel=Kernel(config=KernelConfig()),\n"
        "              services=[ServiceConfig('echo', echo_handler)], users=[('u', 'pw')])\n"
        "assert HttpClient(site).request('u', 'pw', 'echo').ok\n"
        "optional = ('analysis', 'policies', 'faults', 'store', 'cluster')\n"
        "print(sorted(m for m in sys.modules if m.startswith(tuple('repro.' + o for o in optional))))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
