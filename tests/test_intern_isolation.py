"""Label identity is a value.

A label crosses a process boundary only by value (``wire/v1``,
``proofs/v1``), and an :class:`InternTable` canonicalises by value: what
another table did can change neither which instance answers nor a
fingerprint, and proof compilation is a pure function of the topology.
A kernel is a closed world: what one kernel caches and bills depends on
nothing another kernel in the interpreter did — not on whether it is
still alive, not on the order they ran in, not on when the cycle
collector fired.  That the bill survives a different hash seed as well
is ``tests/test_conformance.py::test_hits_and_misses_are_a_pure_function_of_the_operand_stream``.
"""

import gc
import json

import pytest

from repro.analysis.extract import TopologyRecorder
from repro.analysis.proofs import compile_proofs, write_proofs
from repro.core import labelops
from repro.core.chunks import ChunkedLabel
from repro.core.interning import InternTable
from repro.core.labels import Label
from repro.core.levels import L1, L3, STAR
from repro.kernel.config import KernelConfig
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient

N_USERS = 12
WAVE = 6
ROUNDS = 3


def _waves(n_users=N_USERS):
    requests = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(n_users)]
    for _ in range(ROUNDS):
        for start in range(0, n_users, WAVE):
            yield requests[start : start + WAVE]


def _drive(client, n_users=N_USERS):
    for wave in _waves(n_users):
        client.run_batch(wave, concurrency=WAVE)


@pytest.fixture(scope="module")
def proofs_path(tmp_path_factory):
    site = build_echo_site(N_USERS, config=KernelConfig())
    client = HttpClient(site)
    _drive(client)
    recorder = TopologyRecorder(site.kernel)
    _drive(client)
    path = tmp_path_factory.mktemp("isolation") / "proofs.json"
    write_proofs(compile_proofs(recorder.build("isolation")), path)
    return str(path)


def _elided_site(proofs_path):
    config = KernelConfig(intern_labels=True, elide_checks=True, proof_path=proofs_path)
    return build_echo_site(N_USERS, config=config)


def _observed(kernel):
    return {
        "clock": kernel.clock.snapshot(),
        "drops": list(kernel.drop_log.records),
        "cache": kernel.labelop_cache.counters(),
        "flows": kernel.flow_table.counters() if kernel.flow_table else None,
    }


def test_foreign_canonical_label_is_interned_by_value():
    a, b = InternTable(), InternTable()
    value = Label({1: STAR, 2: L3}, L1)
    in_a = a.intern_label(value)
    in_b = b.intern(in_a)
    # B answers with its own instance for the value, never A's object...
    assert in_b is not in_a
    assert in_b is b.intern_label(value)
    assert b.intern(in_b) is in_b
    assert in_b.to_label() == in_a.to_label() == value
    assert all(x is y for x, y in zip(in_b.chunks, in_a.chunks))
    assert in_b.intern_table is b
    # ...and A's instance is neither re-stamped nor displaced.
    assert in_a.intern_table is a
    assert a.intern(in_a) is in_a
    assert len(a) == len(b) == 1
    assert a.fingerprint(in_a) == b.fingerprint(in_b)


def test_chunking_is_erased_from_a_labels_identity():
    # Equal as functions, chunked differently: one cut at every 64th entry
    # by from_label, one grown past that by sparse_update (even splits,
    # a rebalance) and shrunk back.  The intern key, the fingerprint and
    # the digest read the value, not the directory.
    value = Label({h: L3 for h in range(0, 300, 2)}, L1)
    cut = ChunkedLabel.from_label(value)
    grown = ChunkedLabel.from_label(Label({}, L1))
    for h in range(300):
        grown = labelops.sparse_update(grown, {h: L3}, None)
    grown = labelops.sparse_update(grown, {h: L1 for h in range(1, 300, 2)}, None)
    assert grown.to_label() == value
    assert [len(c) for c in grown.chunks] != [len(c) for c in cut.chunks]
    table = InternTable()
    assert table.intern(grown) is table.intern(cut)
    assert table.fingerprint(grown) == InternTable().fingerprint(cut)
    assert grown.digest() == cut.digest()


# -- two live kernels, stepped alternately -------------------------------------------


def test_two_live_elided_sites_each_behave_as_if_alone(proofs_path):
    alone = _elided_site(proofs_path)
    _drive(HttpClient(alone))
    want = _observed(alone.kernel)
    # The site really elides, so there is a stub bill to disturb.
    assert want["flows"]["deliver_hits"] > 0 and want["flows"]["send_hits"] > 0

    first, second = _elided_site(proofs_path), _elided_site(proofs_path)
    clients = HttpClient(first), HttpClient(second)
    for wave in _waves():
        for client in clients:
            client.run_batch(wave, concurrency=WAVE)
    assert first.kernel.labelop_cache is not second.kernel.labelop_cache
    assert first.kernel.flow_table is not second.kernel.flow_table
    assert _observed(first.kernel) == want
    assert _observed(second.kernel) == want


# -- order and collector independence ------------------------------------------------


def _bill(config, n_users):
    """Run one site to completion and drop it: only its bill survives."""
    site = build_echo_site(n_users, config=config)
    _drive(HttpClient(site), n_users)
    return site.kernel.clock.snapshot()


@pytest.mark.parametrize("collector_off", [False, True])
def test_run_order_never_changes_a_bill(proofs_path, collector_off):
    interned = (KernelConfig(intern_labels=True), 8)
    elided = (
        KernelConfig(intern_labels=True, elide_checks=True, proof_path=proofs_path),
        N_USERS,
    )
    was_enabled = gc.isenabled()
    if collector_off:
        gc.disable()  # dead kernels (cyclic garbage) now linger throughout
    try:
        a_first = (_bill(*interned), _bill(*elided))
        b_first = (_bill(*elided), _bill(*interned))
    finally:
        if was_enabled:
            gc.enable()
    assert a_first == b_first[::-1]


def test_compile_proofs_twice_is_byte_identical():
    site = build_echo_site(6, config=KernelConfig())
    client = HttpClient(site)
    requests = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(6)]
    client.run_batch(requests, concurrency=3)
    recorder = TopologyRecorder(site.kernel)
    client.run_batch(requests, concurrency=3)
    topology = recorder.build("isolation")
    first = json.dumps(compile_proofs(topology), sort_keys=True)
    second = json.dumps(compile_proofs(topology), sort_keys=True)
    assert first == second
