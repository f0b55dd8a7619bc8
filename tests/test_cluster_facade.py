"""The ``repro.cluster`` public facade: config, identity path, routing.

Everything here runs in-process (``n_shards=1``) or exercises pure
routing logic — the multi-process paths live in
``test_cluster_differential.py``.
"""

from __future__ import annotations

import pytest

from repro import Cluster as LazyCluster
from repro.cluster import BatchResult, Cluster, ClusterConfig
from repro.cluster.router import requests_by_shard
from repro.kernel.config import KernelConfig
from repro.okws.sharding import courier_targets, partition_users, shard_of_user

USERS = tuple((f"user{i}", f"pw{i}") for i in range(6))


def _requests(n=12):
    return [
        (f"user{i % len(USERS)}", f"pw{i % len(USERS)}", "echo", None, {"length": 5})
        for i in range(n)
    ]


def test_cluster_is_reexported_from_repro():
    assert LazyCluster is Cluster


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_shards=0)
    with pytest.raises(ValueError):
        ClusterConfig(service="no-such-service")
    with pytest.raises(ValueError):
        ClusterConfig(concurrency=0)
    with pytest.raises(ValueError):
        ClusterConfig(sanitize_sample=-1)


def test_single_shard_keeps_the_boot_key_verbatim():
    config = ClusterConfig(n_shards=1, users=USERS)
    assert config.shard_kernel_config(0).boot_key == KernelConfig().boot_key


def test_multi_shard_derives_disjoint_boot_keys():
    config = ClusterConfig(n_shards=3, users=USERS)
    keys = {config.shard_kernel_config(s).boot_key for s in range(3)}
    assert len(keys) == 3
    for key in keys:
        assert key.startswith(KernelConfig().boot_key)


def test_sanitize_sample_override_reaches_shard_configs():
    config = ClusterConfig(
        n_shards=2, users=USERS, kernel=KernelConfig(sanitize=True), sanitize_sample=64
    )
    assert config.shard_kernel_config(0).sanitize_sample == 64
    assert config.shard_kernel_config(1).sanitize


def test_shard_of_user_is_stable_and_partition_covers():
    # CRC-based: the same name must land on the same shard in every
    # process, every run (Python's hash() is salted — unusable here).
    assert shard_of_user("alice", 4) == shard_of_user("alice", 4)
    assert shard_of_user("anything", 1) == 0
    parts = partition_users(USERS, 3)
    assert sorted(u for part in parts for u in part) == sorted(USERS)
    for shard, part in enumerate(parts):
        for name, _ in part:
            assert shard_of_user(name, 3) == shard


def test_requests_by_shard_preserves_per_shard_order():
    requests = _requests(12)
    parts = requests_by_shard(requests, 2)
    assert sum(len(p) for p in parts) == len(requests)
    for shard, part in enumerate(parts):
        assert part == [r for r in requests if shard_of_user(r[0], 2) == shard]


def test_courier_targets_are_shard_count_invariant():
    names = [name for name, _ in USERS]
    # The (port-independent) message multiset must depend only on the
    # user list: same payloads whether boards live on 1 shard or 4.
    def payload_set(n_shards):
        boards = {s: 1000 + s for s in range(n_shards)}
        parts = partition_users(USERS, n_shards)
        out = []
        for part in parts:
            for target in courier_targets(
                [n for n, _ in part], names, boards, n_shards
            ):
                out.append((target["payload"]["user"], target["payload"]["type"]))
        return sorted(out)

    assert payload_set(1) == payload_set(2) == payload_set(4)
    doomed = [p for p in payload_set(1) if p[1] == "DOOMED"]
    assert len(doomed) == len(names) // 2  # odd-indexed users only


def test_single_shard_cluster_runs_inline_and_deterministically():
    def run():
        with Cluster(ClusterConfig(n_shards=1, users=USERS)) as cluster:
            cluster.mark()
            result = cluster.run_batch(_requests())
            routed = cluster.run_courier()
            report = cluster.report()
        return result, routed, report

    first, routed_a, report_a = run()
    second, routed_b, report_b = run()
    assert isinstance(first, BatchResult)
    assert routed_a == routed_b == 0  # no peers, nothing crosses a wire
    # Bit-identical identity path: same outcomes, same simulated cycles.
    assert first.outcomes == second.outcomes
    assert first.busy_cycles == second.busy_cycles
    assert first.elapsed_cycles == first.busy_cycles[0]
    assert report_a["drops"] == report_b["drops"]
    # Every digest reached the (local) board; doomed variants dropped.
    digests = sorted(p["user"] for p in report_a["board_log"])
    assert digests == sorted(name for name, _ in USERS)
    assert report_a["drops"].get("label-check", 0) == len(USERS) // 2


def test_single_shard_cluster_forks_nothing_and_encodes_nothing():
    """In a fresh interpreter: a one-shard run goes through the Router but
    never opens a multiprocessing pipe nor touches the wire codec."""
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from repro.cluster import Cluster, ClusterConfig, WireEncoder\n"
        "from repro.cluster.router import Router\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('wire codec used at n_shards=1')\n"
        "WireEncoder.encode = refuse\n"
        "users = tuple((f'user{i}', f'pw{i}') for i in range(4))\n"
        "requests = [(u, p, 'echo', None, {'length': 5}) for u, p in users]\n"
        "with Cluster(ClusterConfig(n_shards=1, users=users)) as cluster:\n"
        "    assert isinstance(cluster._router, Router)\n"
        "    cluster.mark()\n"
        "    assert all(o[2] == 'xxxxx' for o in cluster.run_batch(requests).outcomes)\n"
        "    assert cluster.run_courier() == 0\n"
        "    assert len(cluster.report()['board_log']) == len(users)\n"
        "assert 'multiprocessing.connection' not in sys.modules, 'pipes imported'\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_single_shard_sampled_sanitizer_is_clean():
    config = ClusterConfig(
        n_shards=1,
        users=USERS,
        kernel=KernelConfig(sanitize=True, intern_labels=True),
        sanitize_sample=8,
    )
    with Cluster(config) as cluster:
        cluster.run_batch(_requests())
        cluster.run_courier()
        report = cluster.report()
    assert report["sanitizer_violations"] == 0


def test_sampled_sanitizer_does_not_change_simulated_time():
    # Sampling gates only the *diagnostic* cross-check; the billed
    # kernel work must be identical whichever IPCs the sanitizer picks.
    def elapsed(sample):
        config = ClusterConfig(
            n_shards=1,
            users=USERS,
            kernel=KernelConfig(sanitize=True),
            sanitize_sample=sample,
        )
        with Cluster(config) as cluster:
            return cluster.run_batch(_requests()).elapsed_cycles

    assert elapsed(1) == elapsed(7)
