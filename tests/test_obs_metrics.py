"""The metrics layer: instruments, registry semantics, and — the part
that matters — reconciliation of the kernel's hot-path counters against
the accounting the kernel already keeps (DropLog, OpStats)."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L1, L3
from repro.kernel import Kernel, KernelConfig, NewPort, Recv, Send, SetPortLabel
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, NULL, kernel_snapshot


# -- instruments --------------------------------------------------------------------


def test_counter():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.snapshot() == 5


def test_histogram_snapshot():
    h = Histogram()
    for value in (1, 2, 3):
        h.observe(value)
    snap = h.snapshot()
    assert snap["count"] == 3
    assert snap["sum"] == 6
    assert snap["min"] == 1
    assert snap["max"] == 3
    assert snap["mean"] == 2


def test_registry_kind_conflict():
    registry = MetricsRegistry()
    registry.counter("a.b")
    with pytest.raises(ValueError):
        registry.histogram("a.b")


def test_disabled_registry_returns_null():
    registry = MetricsRegistry(enabled=False)
    instrument = registry.counter("x")
    assert instrument is NULL
    instrument.inc()
    instrument.observe(3)
    assert registry.snapshot() == {}
    assert len(registry) == 0


def test_scope_prefixes_names():
    registry = MetricsRegistry()
    scope = registry.scope("kernel").scope("ipc")
    scope.counter("sends").inc()
    assert registry.get("kernel.ipc.sends") == 1


# -- kernel reconciliation ----------------------------------------------------------


def _obs_kernel() -> Kernel:
    return Kernel(config=KernelConfig(metrics=True))


def test_send_and_delivery_counts_reconcile():
    kernel = _obs_kernel()
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        state["port"] = port
        for _ in range(3):
            msg = yield Recv(port=port)
            state.setdefault("got", []).append(msg.payload)

    def sender(ctx):
        for i in range(3):
            yield Send(state["port"], i)

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()

    metrics = kernel.metrics
    assert state["got"] == [0, 1, 2]
    assert metrics.get("kernel.ipc.sends") == 3
    assert metrics.get("kernel.ipc.enqueued") == 3
    assert metrics.get("kernel.ipc.delivered") == 3
    assert metrics.get("kernel.sched.steps") == kernel.steps_executed


def test_drop_counters_reconcile_with_drop_log():
    kernel = _obs_kernel()
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        state["port"] = port
        # Raise the receive label's strictness: default receive refuses
        # full taint, so a contaminated send gets dropped at delivery.
        msg = yield Recv(port=port)
        state["got"] = msg.payload

    def sender(ctx):
        taint = (yield from _new_handle(ctx))
        # Contaminated at uT 3; receiver's default {2} refuses it.
        yield Send(state["port"], "tainted", cs=Label({taint: L3}, L1))
        yield Send(state["port"], "clean")

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()

    assert state["got"] == "clean"
    drops = kernel.drop_log
    total_metric_drops = sum(
        value
        for name, value in kernel.metrics.snapshot().items()
        if name.startswith("kernel.ipc.drops.")
    )
    assert total_metric_drops == drops.count() > 0
    for reason in ("label-check", "dead-port", "queue-limit", "port-label"):
        assert kernel.metrics.get(f"kernel.ipc.drops.{reason}") == drops.count(reason)


def _new_handle(ctx):
    from repro.kernel.syscalls import NewHandle

    handle = yield NewHandle()
    return handle


def test_label_fastpath_counters_reconcile_with_opstats():
    kernel = _obs_kernel()
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        state["port"] = port
        for _ in range(4):
            yield Recv(port=port)

    def sender(ctx):
        for i in range(4):
            yield Send(state["port"], i)

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()

    stats = kernel.label_stats
    assert stats.fast_path + stats.full_merges > 0
    assert kernel.metrics.get("kernel.labels.fast_path") == stats.fast_path
    assert kernel.metrics.get("kernel.labels.full_merges") == stats.full_merges
    assert kernel.metrics.get("kernel.labels.entries_scanned") == stats.entries_scanned


def test_disabled_kernel_records_nothing():
    kernel = Kernel(config=KernelConfig())
    state = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        state["port"] = port
        yield Recv(port=port)

    def sender(ctx):
        yield Send(state["port"], "x")

    kernel.spawn(receiver, "receiver")
    kernel.run()
    kernel.spawn(sender, "sender")
    kernel.run()
    assert kernel.metrics.snapshot() == {}
    assert kernel.spans is None


#: Every ``kernel.*`` series a metrics-enabled kernel publishes.  A name
#: added, lost or renamed must be a deliberate edit here (and DESIGN §8.1).
KERNEL_SERIES = sorted(
    [f"kernel.elide.{n}" for n in (
        "batch_drains", "batched_messages", "deliver_stub_hits",
        "send_stub_hits")]
    + [f"kernel.ipc.{n}" for n in (
        "delivered", "enqueued", "injected", "sends", "xshard_in", "xshard_out")]
    + [f"kernel.ipc.drops.{r}" for r in (
        "dead-port", "decont-privilege", "fault-injected", "label-check",
        "port-label", "queue-limit")]
    + [f"kernel.labels.{n}" for n in (
        "cache_evictions", "cache_hits", "cache_misses", "entries_scanned",
        "fast_path", "full_merges")]
    + [f"kernel.proc.{n}" for n in ("ep_created", "ep_switched", "spawned")]
    + ["kernel.sched.queue_depth", "kernel.sched.steps"]
)


def _okws_round(config):
    from repro.okws import ServiceConfig, launch
    from repro.okws.services import echo_handler
    from repro.sim.workload import HttpClient

    site = launch(
        kernel=Kernel(config=config),
        services=[ServiceConfig("echo", echo_handler)],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
    )
    client = HttpClient(site)
    for user, password in (("alice", "pw-a"), ("bob", "pw-b")):
        assert client.request(user, password, "echo", args={"length": 5}).ok
    return site.kernel


def test_kernel_series_catalogue_is_pinned():
    kernel = _okws_round(KernelConfig(metrics=True))
    snap = kernel.metrics.snapshot()
    assert sorted(n for n in snap if n.startswith("kernel.")) == KERNEL_SERIES
    assert snap["kernel.ipc.delivered"] == kernel._delivered > 0
    assert snap["kernel.proc.spawned"] == len(kernel.processes)
    assert snap["kernel.sched.queue_depth"]["count"] == snap["kernel.sched.steps"]


def test_counts_are_kept_with_metrics_off():
    on = _okws_round(KernelConfig(metrics=True))
    off = _okws_round(KernelConfig())
    assert len(off.metrics) == 0 and off.metrics.snapshot() == {}
    for attr in ("_sends", "_injected", "_enqueued", "_delivered", "_steps",
                 "_pid", "_ep_created", "_ep_switched"):
        assert getattr(off, attr) == getattr(on, attr), attr
    assert off._sends > 0 and off._ep_created == 2


def test_kernel_snapshot_shape():
    kernel = _obs_kernel()

    def noop(ctx):
        yield NewPort()

    kernel.spawn(noop, "noop")
    kernel.run()
    snap = kernel_snapshot(kernel)
    for key in ("metrics", "clock", "drops", "label_ops", "memory", "scheduler", "steps"):
        assert key in snap
    assert snap["label_ops"]["fast_path"] == kernel.label_stats.fast_path
    assert snap["steps"] == kernel.steps_executed


def test_okws_component_counts(tmp_path):
    """The app.* metric scopes wired through demux/worker/dbproxy/cache."""
    from repro.okws import ServiceConfig, launch
    from repro.okws.services import session_cache_handler
    from repro.sim.workload import HttpClient

    site = launch(
        kernel=Kernel(config=KernelConfig(metrics=True)),
        services=[ServiceConfig("cache", session_cache_handler)],
        users=[("alice", "pw-a"), ("bob", "pw-b")],
    )
    client = HttpClient(site)
    client.request("alice", "pw-a", "cache", body=b"a1")
    client.request("alice", "pw-a", "cache", body=b"a2")
    client.request("bob", "pw-b", "cache", body=b"b1")

    metrics = site.kernel.metrics.snapshot()
    connects = [v for k, v in metrics.items() if k.endswith(".connects")]
    requests = [v for k, v in metrics.items() if k.endswith(".requests")]
    assert sum(connects) == 3
    assert sum(requests) == 3
    new = sum(v for k, v in metrics.items() if k.endswith(".session_new"))
    reuse = sum(v for k, v in metrics.items() if k.endswith(".session_reuse"))
    assert new == 2 and reuse == 1
