"""asbcheck's label store holds the kernel's chunked labels, exactly.

`LabelStore` interns the fused results of `repro.core.labelops` as they
come out, so a result keeps sharing every chunk it did not rewrite.  Ids
are keyed on the value digest and confirmed by value equality, so the
digest decides only how fast an id is found, never which: with every
digest equal, every report is the same.  And the eager-closure test reads
only the chunks two labels do not share.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.check import Engine, Exploration, lowers_only_unwatched, run_check
from repro.analysis.extract import TopologyRecorder
from repro.analysis.model import LabelStore, load
from repro.analysis.proofs import compile_proofs
from repro.core import labelops
from repro.core.chunks import ChunkedLabel, shared_memory_bytes
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L1, L3, STAR
from repro.kernel.config import KernelConfig
from repro.okws.topology import record_okws_topology
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient

TOPOLOGIES = sorted((Path(__file__).resolve().parents[1] / "examples" / "topologies").glob("*.json"))


def _recorded_echo_site(n_users, concurrency):
    """An echo site's topology: one round to the per-user fixed point,
    then one round recorded."""
    site = build_echo_site(n_users, config=KernelConfig())
    client = HttpClient(site)
    requests = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(n_users)]
    client.run_batch(requests, concurrency=concurrency)
    recorder = TopologyRecorder(site.kernel)
    client.run_batch(requests, concurrency=concurrency)
    return recorder.build(f"echo-{n_users}")


def _report(topology):
    doc = run_check(topology).to_json()
    del doc["stats"]["elapsed_s"]
    return doc


def _explored_store(topology):
    """The store of the fully-eager exploration `compile_proofs` runs."""
    engine = Engine(topology)
    Exploration(engine, set(), exact=False, max_states=200_000)
    return engine.store


# -- the store is exact ------------------------------------------------------------


@pytest.fixture(scope="module")
def topologies():
    return {path.name: load(path) for path in TOPOLOGIES} | {"okws": record_okws_topology()}


def test_reports_do_not_depend_on_the_digest(topologies, monkeypatch):
    honest = {name: _report(topo) for name, topo in topologies.items()}
    monkeypatch.setattr(ChunkedLabel, "digest", lambda self: 0)
    for name, topo in topologies.items():
        assert _report(topo) == honest[name], name
    # Every id names its own value, though every label now collides.
    store = _explored_store(topologies["okws"])
    values = {store.chunked(i).value_key() for i in range(len(store))}
    assert len(values) == len(store) > 100


def test_equal_values_chunked_differently_get_one_id():
    value = Label({h: L3 for h in range(0, 300, 2)}, L1)
    grown = ChunkedLabel.from_label(Label({}, L1))
    for h in range(300):
        grown = labelops.sparse_update(grown, {h: L3}, None)
    grown = labelops.sparse_update(grown, {h: L1 for h in range(1, 300, 2)}, None)
    cut = ChunkedLabel.from_label(value)
    assert [len(c) for c in grown.chunks] != [len(c) for c in cut.chunks]
    store = LabelStore()
    ident = store.intern(value)
    assert store.intern_chunked(grown) == ident == store.intern_chunked(cut)
    assert store.intern_chunked(labelops.sparse_update(grown, {7: L3}, None)) != ident
    assert len(store) == 2
    assert store.label(ident) == value


def test_compile_proofs_is_pinned():
    # The sha256 of this site's proofs/v1 document as it was compiled
    # while the store still held naive Label copies, less the assumed
    # worldview and topology fingerprint documents carried then.
    doc = compile_proofs(_recorded_echo_site(6, concurrency=3))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "d454b5d5e480cf9dacc9a0f68f3d2cb7160b2c2b413afe0afb6fa6800c6b583d"


def test_the_store_shares_chunks_between_labels():
    # Memory without a clock: the chunk-sharing store's label bytes
    # against the same labels each counted whole (1.0 when every label
    # was re-packed into fresh chunks).  Most of a 40-user store's labels
    # are one chunk and cannot share; the ratio falls with size (0.11 at
    # 300 users).
    store = _explored_store(_recorded_echo_site(40, concurrency=8))
    labels = [store.chunked(i) for i in range(len(store))]
    unshared = sum(label.memory_bytes() for label in labels)
    assert shared_memory_bytes(labels) <= 0.6 * unshared


# -- the eager-closure test reads only unshared chunks ---------------------------------


def _naive_lowers_only_unwatched(a: Label, b: Label, watched) -> bool:
    if a.default != b.default:
        return False
    for handle in set(a.handles()) | set(b.handles()):
        before, after = a(handle), b(handle)
        if after > before or (after != before and handle in watched):
            return False
    return True


def _base(rng):
    default = rng.choice(ALL_LEVELS)
    others = [lvl for lvl in ALL_LEVELS if lvl != default]
    size = rng.choice([0, 1, 40, 64, 65, 200, 400])
    entries = {h: rng.choice(others) for h in rng.sample(range(300, 900), size)}
    return ChunkedLabel.from_label(Label(entries, default))


def _derive(rng, base):
    """A label made from *base* by the kernel's operations (sharing its
    untouched chunks), or the same made afresh (sharing nothing)."""
    handles = [h for chunk in base.chunks for h in chunk.handles]
    picks = rng.sample(handles, min(len(handles), rng.choice([1, 2, 5]))) if handles else []
    picks += rng.sample(range(250, 950), rng.choice([0, 1, 3]))
    updates = {}
    for handle in picks:
        lower = [lvl for lvl in ALL_LEVELS if lvl < base(handle)]
        updates[handle] = rng.choice(lower if lower and rng.random() < 0.8 else ALL_LEVELS)
    kind = rng.randrange(4)
    if kind == 0:
        return labelops.sparse_update(base, updates)
    if kind == 1:
        grant = ChunkedLabel.from_label(Label(updates, L3))
        return labelops.apply_send_effects(base, ChunkedLabel.from_label(Label({}, STAR)), grant)
    if kind == 2:
        return labelops.raise_receive(base, ChunkedLabel.from_label(Label(updates, STAR)))
    return ChunkedLabel.from_label(labelops.sparse_update(base, updates).to_label())


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_lowers_only_unwatched_equals_the_per_handle_spelling(rng):
    a = _base(rng)
    b = _derive(rng, a) if rng.random() < 0.85 else _base(rng)
    explicit = [h for label in (a, b) for chunk in label.chunks for h in chunk.handles]
    watched = set(rng.sample(explicit, min(len(explicit), rng.choice([0, 0, 1, 3]))))
    for old, new in ((a, b), (b, a)):
        want = _naive_lowers_only_unwatched(old.to_label(), new.to_label(), watched)
        assert lowers_only_unwatched(old, new, watched) == want
