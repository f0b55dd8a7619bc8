"""Batches under proof-guided elision.

A batch is a streak of consecutive deliveries with the same stub key
(DESIGN.md §15): ``batch_drains`` / ``batched_messages`` count what a
kernel could amortize into one probe.  There is no batched code path,
so billing is per message; these tests pin the counters at the table
level and that a quarantine arriving mid-batch splits the batch and
stops stub billing without losing a message or moving a label.
"""

import os
import tempfile

from repro.analysis.extract import TopologyRecorder
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
    before the workload — e.g. to split a batch."""
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


def _assert_observationally_identical(a_kernel, a_payloads, b_kernel, b_payloads):
    assert a_payloads == b_payloads
    assert a_kernel.drop_log.records == b_kernel.drop_log.records
    for key, task in a_kernel.tasks.items():
        other = b_kernel.tasks[key]
        assert task.send_label.to_label() == other.send_label.to_label(), key
        assert task.receive_label.to_label() == other.receive_label.to_label(), key


def test_mid_batch_invalidation_splits_the_batch_and_falls_back():
    split_after = 40

    def split(kernel):
        table = kernel.flow_table
        orig = table.plan_deliver
        calls = {"n": 0}

        def hook(*args):
            calls["n"] += 1
            if calls["n"] == split_after:
                table.quarantine("mid-batch test event")
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
    # The quarantine split the stream: whatever was elided before it
    # stays elided, everything after takes the full checked path — and
    # the result is still bit-identical to the never-elided kernel.
    assert table.valid is False
    assert table.quarantines == 1
    _assert_observationally_identical(
        split_kernel, split_payloads, plain_site.kernel, plain_payloads
    )


def test_streak_counters_and_epoch_split_at_the_table_level():
    """Drive the streak machinery directly with live operands captured
    from a real run: N identical probes form one drain, the counters add
    up, and a quarantine ends the streak immediately."""
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

    table._last_key = None  # start a fresh streak
    drains0 = table.batch_drains
    batched0 = table.batched_messages
    hits0 = table.deliver_hits
    first = table.plan_deliver(*args)
    assert first is not None
    rest = [table.plan_deliver(*args) for _ in range(4)]
    assert all(hit is not None for hit in rest)
    # One drain of five messages: probe one opened it, the second probe
    # retroactively counts both, the rest count one each.
    assert table.batch_drains == drains0 + 1
    assert table.batched_messages == batched0 + 5
    assert table.deliver_hits == hits0 + 5
    # Every probe returns Figure 4's labels for its operands.
    for hit in rest:
        assert [label.to_label() for label in hit] == [label.to_label() for label in first]
    # A quarantine mid-streak ends it: the same operands no longer hit.
    table.quarantine("streak split")
    assert table.plan_deliver(*args) is None
    assert table.deliver_hits == hits0 + 5
