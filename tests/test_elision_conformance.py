"""Differential conformance suite for proof-guided check elision.

The verified-flow table (:mod:`repro.kernel.elide`) bills a delivery as
the verified fastpath when asbcheck proved the (port, label-values)
instance always-allowed (:mod:`repro.analysis.proofs`); the labels still
come from Figure 4.  This suite runs the full pipeline — record a live
topology, compile proofs, reload them into a fresh kernel — against the
unelided kernel three ways:

1. Hypothesis-generated workloads: random session counts, payload sizes,
   concurrency and warm-up depth, each recorded/compiled/replayed, with
   the elided replay required to be *bit-identical* to the plain one
   (responses, drop log, every surviving task's labels);
2. a deterministic replay asserting the OpStats reconciliation invariant
   — every label operation the elided kernel did not bill is accounted
   for by either a labelop-cache hit or a verified-flow stub hit, no
   more, no less — plus metric/`kernel_snapshot` exposure, and the
   first-use check of every stub key;
3. sanitizer-strict replays that must stay clean while the stub path is
   demonstrably exercised.
"""

import json
import os
import tempfile
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.analysis.extract import TopologyRecorder
from repro.analysis.proofs import compile_proofs, write_proofs
from repro.kernel.config import KernelConfig
from repro.kernel.elide import VerifiedFlowTable
from repro.obs.metrics import kernel_snapshot
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient


def _requests(n_users, length):
    return [
        (f"u{i}", f"pw{i}", "echo", None, {"length": length}) for i in range(n_users)
    ]


def _compile_site_proofs(n_users, requests, concurrency, warm_rounds, path):
    """Warm an echo site, record one round, compile and write proofs."""
    site = build_echo_site(n_users, config=KernelConfig())
    client = HttpClient(site)
    for _ in range(warm_rounds):
        client.run_batch(requests, concurrency=concurrency)
    recorder = TopologyRecorder(site.kernel)
    client.run_batch(requests, concurrency=concurrency)
    topology = recorder.build(f"conformance-{n_users}")
    assert topology.validate() == []
    doc = compile_proofs(topology)
    write_proofs(doc, path)
    return doc


def _replay(n_users, requests, concurrency, rounds, config):
    """A fresh site through *rounds* identical batches; returns the
    kernel and the flattened response payloads."""
    site = build_echo_site(n_users, config=config)
    client = HttpClient(site)
    payloads = []
    for _ in range(rounds):
        payloads.extend(
            r.payload for r in client.run_batch(requests, concurrency=concurrency)
        )
    return site.kernel, payloads


def _assert_bit_identical(plain_kernel, plain_payloads, elided_kernel, elided_payloads):
    assert plain_payloads == elided_payloads
    assert plain_kernel.drop_log.records == elided_kernel.drop_log.records
    assert set(plain_kernel.tasks) == set(elided_kernel.tasks)
    for key, task in plain_kernel.tasks.items():
        other = elided_kernel.tasks[key]
        assert task.send_label.to_label() == other.send_label.to_label(), key
        assert task.receive_label.to_label() == other.receive_label.to_label(), key
    assert set(plain_kernel.ports) == set(elided_kernel.ports)
    for handle, entry in plain_kernel.ports.items():
        assert (
            entry.label.to_label() == elided_kernel.ports[handle].label.to_label()
        ), handle


def _elide_config(path, **extra):
    return KernelConfig(
        intern_labels=True,
        elide_checks=True,
        proof_path=path,
        labelop_cache_size=1 << 12,
        **extra,
    )


# -- 1. Hypothesis-randomized topologies through the full pipeline ------------------


@given(
    n_users=st.integers(min_value=2, max_value=6),
    length=st.integers(min_value=1, max_value=60),
    concurrency=st.integers(min_value=1, max_value=8),
    warm_rounds=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=6, deadline=None)
def test_random_workload_elided_replay_is_bit_identical(
    n_users, length, concurrency, warm_rounds
):
    requests = _requests(n_users, length)
    rounds = warm_rounds + 2
    with tempfile.TemporaryDirectory(prefix="repro-elide-conf-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        doc = _compile_site_proofs(n_users, requests, concurrency, warm_rounds, path)
        assert doc["stats"]["proven_edges"] == doc["stats"]["edges"]
        plain_kernel, plain_payloads = _replay(
            n_users, requests, concurrency, rounds, KernelConfig()
        )
        elided_kernel, elided_payloads = _replay(
            n_users, requests, concurrency, rounds, _elide_config(path)
        )
    _assert_bit_identical(plain_kernel, plain_payloads, elided_kernel, elided_payloads)
    table = elided_kernel.flow_table
    assert table is not None
    # The proofs were compiled for this exact world: no claim may fail
    # its first-use check, and at least the send-stub path must be
    # exercised.
    assert table.valid, table.quarantine_reason
    assert table.quarantines == 0
    assert table.deliver_hits + table.send_hits > 0


# -- 2. OpStats reconciliation: every skipped op is a hit somewhere -----------------


def test_elided_ops_reconcile_with_stub_and_cache_hits():
    n_users, concurrency = 12, 8
    requests = _requests(n_users, 11)
    with tempfile.TemporaryDirectory(prefix="repro-elide-conf-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        _compile_site_proofs(n_users, requests, concurrency, 2, path)
        plain_kernel, plain_payloads = _replay(
            n_users, requests, concurrency, 4, KernelConfig()
        )
        elided_kernel, elided_payloads = _replay(
            n_users, requests, concurrency, 4, _elide_config(path)
        )
    _assert_bit_identical(plain_kernel, plain_payloads, elided_kernel, elided_payloads)
    table = elided_kernel.flow_table
    cache = elided_kernel.labelop_cache
    assert table.deliver_hits > 0 and table.send_hits > 0
    # The reconciliation ledger: each deliver-stub hit elided 4 label
    # operations (req-4 leq, check, effects, raise), each send-stub hit
    # elided the ES join, each cache hit elided one op — and nothing
    # else may touch the operation count.
    assert (
        plain_kernel.label_stats.operations
        == elided_kernel.label_stats.operations + cache.hits + table.ops_elided
    )
    assert table.ops_elided == 4 * table.deliver_hits + table.send_hits


def test_elide_counters_surface_in_kernel_snapshot():
    n_users = 4
    requests = _requests(n_users, 11)
    with tempfile.TemporaryDirectory(prefix="repro-elide-conf-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        _compile_site_proofs(n_users, requests, 4, 1, path)
        elided_kernel, _ = _replay(
            n_users, requests, 4, 3, _elide_config(path, metrics=True)
        )
        plain_kernel, _ = _replay(n_users, requests, 4, 1, KernelConfig())
    snap = kernel_snapshot(elided_kernel)
    table = elided_kernel.flow_table
    assert snap["elide"] == table.counters()
    assert snap["config"]["elide_checks"] is True
    assert snap["config"]["proof_path"] == path
    assert kernel_snapshot(plain_kernel)["elide"] is None
    # The kernel.elide.* metric subtree mirrors the table's counters.
    metrics = snap["metrics"]
    assert metrics["kernel.elide.deliver_stub_hits"] == table.deliver_hits
    assert metrics["kernel.elide.send_stub_hits"] == table.send_hits
    assert metrics["kernel.elide.batch_drains"] == table.batch_drains
    assert metrics["kernel.elide.batched_messages"] == table.batched_messages


def test_first_use_of_every_stub_key_is_checked_against_its_claim():
    n_users = 6
    requests = _requests(n_users, 11)
    with tempfile.TemporaryDirectory(prefix="repro-elide-conf-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        _compile_site_proofs(n_users, requests, 4, 2, path)
        elided_kernel, _ = _replay(n_users, requests, 4, 4, _elide_config(path))
    table = elided_kernel.flow_table
    assert table.deliver_hits + table.send_hits > table.first_use_checks > 0
    assert table.first_use_checks == len(table._seen_keys)
    assert table.quarantines == 0


def test_every_probe_is_billed_as_a_hit_or_a_miss(monkeypatch):
    probes = Counter()
    for name in ("plan_deliver", "plan_send"):
        probe = getattr(VerifiedFlowTable, name)

        def counted(self, *args, _probe=probe, _name=name):
            probes[_name] += 1
            return _probe(self, *args)

        monkeypatch.setattr(VerifiedFlowTable, name, counted)
    n_users = 6
    requests = _requests(n_users, 11)
    with tempfile.TemporaryDirectory(prefix="repro-elide-conf-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        _compile_site_proofs(n_users, requests, 4, 2, path)
        elided_kernel, _ = _replay(n_users, requests, 4, 4, _elide_config(path))
    table = elided_kernel.flow_table
    assert table.valid
    assert probes["plan_deliver"] > 0 and probes["plan_send"] > 0
    assert table.deliver_hits + table.send_hits + table.misses == sum(probes.values())


# -- 3. sanitizer-strict replays stay clean -----------------------------------------


def test_elided_replay_is_sanitizer_strict_clean():
    n_users = 8
    requests = _requests(n_users, 11)
    with tempfile.TemporaryDirectory(prefix="repro-elide-conf-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        _compile_site_proofs(n_users, requests, 8, 2, path)
        config = _elide_config(path, sanitize=True, sanitize_strict=True)
        elided_kernel, _ = _replay(n_users, requests, 8, 4, config)
    table = elided_kernel.flow_table
    assert elided_kernel.sanitizer is not None
    assert elided_kernel.sanitizer.violations == []
    assert table.deliver_hits > 0
    assert table.quarantines == 0


# -- 4. the environment wiring ------------------------------------------------------


def test_repro_elide_env_vars_configure_the_kernel():
    config = KernelConfig.from_env(
        {"REPRO_ELIDE": "1", "REPRO_PROOFS": "/tmp/p.json"}
    )
    assert config.elide_checks is True
    assert config.proof_path == "/tmp/p.json"
    off = KernelConfig.from_env({})
    assert off.elide_checks is False
    assert off.proof_path is None


def test_elide_without_proofs_boots_and_never_hits():
    kernel, payloads = _replay(
        3,
        _requests(3, 11),
        2,
        1,
        KernelConfig(intern_labels=True, elide_checks=True),
    )
    assert kernel.flow_table is None
    assert len(payloads) == 3


def test_proofs_document_round_trips_through_json():
    n_users = 3
    requests = _requests(n_users, 11)
    with tempfile.TemporaryDirectory(prefix="repro-elide-conf-") as scratch:
        path = os.path.join(scratch, "proofs.json")
        doc = _compile_site_proofs(n_users, requests, 2, 1, path)
        with open(path) as fh:
            reread = json.load(fh)
    assert reread["schema"] == "proofs/v1"
    assert reread["stats"] == doc["stats"]
    assert reread["topology"] == doc["topology"] == {"name": "conformance-3"}
    assert len(reread["delivers"]) == doc["stats"]["deliver_stubs"]
    assert len(reread["sends"]) == doc["stats"]["send_stubs"]
