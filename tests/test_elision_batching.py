"""Property tests for batched delivery under proof-guided elision.

Batching is purely an amortization: consecutive queued messages whose
(port, label-operand ids, epoch) signature is unchanged reuse the
previous probe's plans and stub instead of re-probing (DESIGN.md §15).
It must be *observationally invisible* — these tests pin that a batched
drain of N same-label-key messages is identical to N single deliveries
in delivery order, drop reasons, final labels, per-message billing (the
simulated clock, cycle for cycle) and stub-hit accounting, and that an
invalidation arriving mid-batch splits the batch and stops elision
without losing a message.
"""

import contextlib
import os
import tempfile

from repro.analysis.extract import TopologyRecorder
from repro.core.interning import InternTable
from repro.analysis.proofs import compile_proofs, write_proofs
from repro.kernel.config import KernelConfig
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient

N_USERS = 12
CONCURRENCY = 8
ROUNDS = 4


def _requests():
    return [
        (f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(N_USERS)
    ]


def _proofs_path(scratch):
    site = build_echo_site(N_USERS, config=KernelConfig())
    client = HttpClient(site)
    for _ in range(2):
        client.run_batch(_requests(), concurrency=CONCURRENCY)
    recorder = TopologyRecorder(site.kernel)
    client.run_batch(_requests(), concurrency=CONCURRENCY)
    doc = compile_proofs(recorder.build("batching"))
    path = os.path.join(scratch, "proofs.json")
    write_proofs(doc, path)
    return path


def _run(path, tweak=None):
    """An elided replay; *tweak* (if given) gets the kernel after boot,
    before the workload — e.g. to disable or split batching."""
    config = KernelConfig(
        intern_labels=True,
        elide_checks=True,
        proof_path=path,
        labelop_cache_size=1 << 12,
    )
    site = build_echo_site(N_USERS, config=config)
    if tweak is not None:
        tweak(site.kernel)
    client = HttpClient(site)
    payloads = []
    for _ in range(ROUNDS):
        payloads.extend(
            r.payload
            for r in client.run_batch(_requests(), concurrency=CONCURRENCY)
        )
    return site.kernel, payloads


@contextlib.contextmanager
def _pinned_interning():
    """Hold a strong reference to every label interned while active.

    A kernel's intern table is weak: a label with no strong refs is
    collected and re-interning the same value issues a fresh id.  Which
    labels stay alive is a host-side allocation question — and batching
    changes it, because streak continuations skip plan recomputation and
    let plan intermediates die that the single-delivery twin keeps warm.
    The reborn ids then re-miss the id-keyed labelop cache, skewing the
    simulated clock by a handful of cache misses that have nothing to do
    with per-message delivery billing.  Pinning makes intern ids a pure
    function of label values for the duration, so the two twins see
    identical cache-key sequences and their clocks compare cycle for
    cycle.
    """
    orig = InternTable.intern
    pins = []

    def pin(table, label):
        result = orig(table, label)
        pins.append(result)
        return result

    InternTable.intern = pin
    try:
        yield
    finally:
        InternTable.intern = orig


def _unbatch(kernel):
    """Force every probe down the single-delivery path by clearing the
    batch signature before each call — N singles instead of one drain."""
    table = kernel.flow_table
    orig = table.plan_deliver

    def single(*args):
        table._last_sig = None
        return orig(*args)

    table.plan_deliver = single


def _assert_observationally_identical(a_kernel, a_payloads, b_kernel, b_payloads):
    assert a_payloads == b_payloads
    assert a_kernel.drop_log.records == b_kernel.drop_log.records
    for key, task in a_kernel.tasks.items():
        other = b_kernel.tasks[key]
        assert task.send_label.to_label() == other.send_label.to_label(), key
        assert task.receive_label.to_label() == other.receive_label.to_label(), key


def test_batched_drain_is_identical_to_n_singles():
    with tempfile.TemporaryDirectory(prefix="repro-elide-batch-") as scratch:
        path = _proofs_path(scratch)
        with _pinned_interning():
            batched_kernel, batched_payloads = _run(path)
            single_kernel, single_payloads = _run(path, tweak=_unbatch)
    batched = batched_kernel.flow_table
    single = single_kernel.flow_table
    # The workload really did drain batches, and the unbatched twin did not.
    assert batched.batch_drains > 0
    assert batched.batched_messages > batched.batch_drains
    assert single.batch_drains == 0 and single.batched_messages == 0
    # Observationally identical: order, drops, labels...
    _assert_observationally_identical(
        batched_kernel, batched_payloads, single_kernel, single_payloads
    )
    # ...stub accounting (every batched message was still billed as a
    # hit, one by one)...
    assert batched.deliver_hits == single.deliver_hits
    assert batched.send_hits == single.send_hits
    assert batched.ops_elided == single.ops_elided
    # ...and per-message cycles: the simulated clock agrees cycle for
    # cycle, per category.  Batching amortizes host-side probe work only.
    assert batched_kernel.clock.now == single_kernel.clock.now
    assert dict(batched_kernel.clock.by_category) == dict(
        single_kernel.clock.by_category
    )


def test_mid_batch_invalidation_splits_the_batch_and_falls_back():
    split_after = 40

    def split(kernel):
        table = kernel.flow_table
        orig = table.plan_deliver
        calls = {"n": 0}

        def hook(*args):
            calls["n"] += 1
            if calls["n"] == split_after:
                table.invalidate("mid-batch test event")
            return orig(*args)

        table.plan_deliver = hook

    with tempfile.TemporaryDirectory(prefix="repro-elide-batch-") as scratch:
        path = _proofs_path(scratch)
        split_kernel, split_payloads = _run(path, tweak=split)
    plain_site = build_echo_site(N_USERS, config=KernelConfig())
    plain_client = HttpClient(plain_site)
    plain_payloads = []
    for _ in range(ROUNDS):
        plain_payloads.extend(
            r.payload
            for r in plain_client.run_batch(_requests(), concurrency=CONCURRENCY)
        )
    table = split_kernel.flow_table
    # The invalidation split the stream: whatever was elided before it
    # stays elided, everything after takes the full checked path — and
    # the result is still bit-identical to the never-elided kernel.
    assert table.valid is False
    assert table.invalidations == 1
    _assert_observationally_identical(
        split_kernel, split_payloads, plain_site.kernel, plain_payloads
    )


def test_streak_counters_and_epoch_split_at_the_table_level():
    """Drive the streak machinery directly with live operands captured
    from a real run: N identical probes form one drain, the counters add
    up, and an epoch bump ends the streak immediately."""
    captured = []

    def capture(kernel):
        table = kernel.flow_table
        orig = table.plan_deliver

        def hook(*args):
            hit = orig(*args)
            if hit is not None:
                captured.append(args)
            return hit

        table.plan_deliver = hook

    with tempfile.TemporaryDirectory(prefix="repro-elide-batch-") as scratch:
        path = _proofs_path(scratch)
        kernel, _ = _run(path, tweak=capture)
    table = kernel.flow_table
    assert captured, "expected at least one live deliver-stub hit"
    args = captured[-1]

    table._last_sig = None  # start a fresh streak
    drains0 = table.batch_drains
    batched0 = table.batched_messages
    hits0 = table.deliver_hits
    first = table.plan_deliver(*args)
    assert first is not None and first.batched is False
    rest = [table.plan_deliver(*args) for _ in range(4)]
    assert all(h is not None and h.batched for h in rest)
    # One drain of five messages: probe one opened it, the second probe
    # retroactively counts both, the rest count one each.
    assert table.batch_drains == drains0 + 1
    assert table.batched_messages == batched0 + 5
    assert table.deliver_hits == hits0 + 5
    # Every reuse returns the very same applied labels as the probe.
    for hit in rest:
        assert hit.new_qs is first.new_qs
        assert hit.new_qr is first.new_qr
        assert hit.first_use is False
    # An invalidation mid-streak ends it: the same operands no longer hit.
    table.invalidate("epoch split")
    assert table.plan_deliver(*args) is None
    assert table.deliver_hits == hits0 + 5
