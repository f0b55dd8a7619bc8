"""The seam: interned and elided kernels against the plain one.

The :class:`~repro.core.interning.LabelOpCache` and the verified-flow
table (:mod:`repro.kernel.elide`) decide only what a Figure 4 operation
is *billed*; every label still comes from the fused
:mod:`repro.core.labelops` operations on the full operands.  This suite
holds both halves of that claim:

1. the labels — an interned kernel and an elided kernel (with proofs
   compiled from the site itself) run the OKWS site response for
   response, drop for drop and label for label as the plain kernel does,
   clean under the strict sanitizer; the cache's own answers equal the
   naive ``Label`` operators on misses and on hits;
2. the bill — the hit/miss sequence is a pure function of the operand
   stream: the same site in two processes with different
   ``PYTHONHASHSEED`` and the collector off gives identical counters and
   clock totals; the ⋆-factoring rules T1–T4 hit where they should and
   nowhere else; ``plain ops == cached ops + hits``; and the bill is
   smaller than the plain kernel's.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis.extract import TopologyRecorder
from repro.analysis.proofs import compile_proofs, write_proofs
from repro.analysis.sanitizer import spec_deliver
from repro.core import labelops as lo
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.interning import LabelOpCache, check_key, effects_key, raise_key
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L1, L2, L3, STAR
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.okws import ServiceConfig, launch
from repro.okws.services import (
    notes_handler,
    profile_declassifier_handler,
    profile_handler,
    session_cache_handler,
)
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient

# ⋆-heavy operands are what the factoring rules fire on — bias the
# generator so most examples exercise the stripped keys, not exact ones.
star_biased = st.sampled_from(ALL_LEVELS + (STAR, STAR))
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=80), star_biased, max_size=25),
    default=star_biased,
)


def _c(label: Label) -> ChunkedLabel:
    return ChunkedLabel.from_label(label)


TOP, BOTTOM = Label.top(), Label.bottom()


def requirement_1(es: Label, qr: Label, dr: Label, v: Label, pr: Label) -> bool:
    """What ``check_send`` answers — requirement (1) alone — through the
    spec: the same delivery to a receiver whose QR already holds DR, which
    requirement (4) cannot refuse."""
    return spec_deliver(es, TOP, v, BOTTOM, pr, TOP, qr | dr)[0] is None


def send_effect_spec(qs: Label, es: Label, ds: Label) -> Label:
    """The spec's send effect alone: a delivery nothing refuses (QR, V and
    pR at 3, DR at ⋆)."""
    return spec_deliver(es, ds, TOP, BOTTOM, TOP, qs, TOP)[1]


def _cache(size: int = 8) -> LabelOpCache:
    return LabelOpCache(size=size)


# -- 1. the cache answers what labelops answers, on miss and on hit -----------------


@given(labels, labels, labels, labels, labels)
@settings(max_examples=300)
def test_cached_check_send_matches_reference(es, qr, dr, v, pr):
    cache = _cache()
    args = tuple(_c(x) for x in (es, qr, dr, v, pr))
    want = requirement_1(es, qr, dr, v, pr)
    got_miss, hit1 = cache.check_send(*args, OpStats())
    got_hit, hit2 = cache.check_send(*args, OpStats())
    assert got_miss == want
    assert got_hit == want
    assert (hit1, hit2) == (False, True)


@given(labels, labels, labels)
@settings(max_examples=300)
def test_cached_apply_send_effects_matches_reference(qs, es, ds):
    cache = _cache()
    want = send_effect_spec(qs, es, ds)
    got_miss, hit1 = cache.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats())
    got_hit, hit2 = cache.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats())
    assert got_miss.to_label() == want
    assert got_hit.to_label() == want
    assert (hit1, hit2) == (False, True)


@given(labels, labels)
@settings(max_examples=300)
def test_cached_raise_receive_matches_reference(qr, dr):
    cache = _cache()
    want = qr | dr
    got_miss, hit1 = cache.raise_receive(_c(qr), _c(dr), OpStats())
    got_hit, hit2 = cache.raise_receive(_c(qr), _c(dr), OpStats())
    assert got_miss.to_label() == want
    assert got_hit.to_label() == want
    assert (hit1, hit2) == (False, True)


# One cache shared across all examples: keys from earlier examples stay
# resident (or get evicted), and a hit on any of them must still answer
# for the operands actually passed.
_SHARED = LabelOpCache(size=16)


@given(labels, labels, labels, labels, labels)
@settings(max_examples=300)
def test_shared_tiny_cache_never_serves_a_wrong_result(a, b, c, d, e):
    assert _SHARED.check_send(
        _c(a), _c(b), _c(c), _c(d), _c(e), OpStats()
    )[0] == requirement_1(a, b, c, d, e)
    assert _SHARED.apply_send_effects(_c(a), _c(b), _c(c), OpStats())[
        0
    ].to_label() == send_effect_spec(a, b, c)
    assert _SHARED.raise_receive(_c(d), _c(e), OpStats())[
        0
    ].to_label() == (d | e)


# -- 2. what counts as a hit: the factoring rules -----------------------------------

# Few handles, so that the ⋆ entries added below land on the other
# operands' explicit entries often.
_small = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=12), star_biased, max_size=6),
    default=star_biased,
)
_star_sets = st.sets(st.integers(min_value=0, max_value=12), max_size=4)


def _starred(label: Label, handles) -> Label:
    return label.with_entries(dict.fromkeys(handles, STAR))


def _agree_off_stars(a: Label, b: Label) -> bool:
    """Equal default, and equal at every handle where neither is ⋆: what
    is left once a factored kernel's star sets are set aside."""
    return a.default == b.default and all(
        a(h) == b(h) for h in set(a.handles()) | set(b.handles()) if STAR not in (a(h), b(h))
    )


@given(_small, _small, _small, _small, _small, _small, _small, _star_sets, _star_sets)
@settings(max_examples=1500)
def test_equal_keys_mean_equal_answers_off_the_star_set(
    es, qr, dr, v, pr, qs, ds, es_stars, q_stars
):
    # The same operands with more ⋆ entries on the sides the rules factor
    # (ES for T1/T2/T4, QS for T1, QR for T3).  Wherever the keys still
    # agree, a hit would be sound: the verdicts are equal, and the results
    # differ only in the star sets a factored kernel keeps beside the core.
    es2, qs2, qr2 = _starred(es, es_stars), _starred(qs, q_stars), _starred(qr, q_stars)
    a, b = [_c(x) for x in (es, qr, dr, v, pr)], [_c(x) for x in (es2, qr, dr, v, pr)]
    if check_key(*a)[0] == check_key(*b)[0]:
        assert requirement_1(es, qr, dr, v, pr) == requirement_1(
            es2, qr, dr, v, pr
        )
    if effects_key(_c(qs), _c(es), _c(ds)) == effects_key(_c(qs2), _c(es2), _c(ds)):
        got, got2 = (send_effect_spec(q, e, ds) for q, e in ((qs, es), (qs2, es2)))
        assert _agree_off_stars(got, got2)
    if raise_key(_c(qr), _c(dr)) == raise_key(_c(qr2), _c(dr)):
        assert _agree_off_stars(qr | dr, qr2 | dr)


@pytest.mark.parametrize("low", ["qr", "v"])
def test_t2_a_star_over_a_low_bound_keeps_es_exact(low):
    # ES's ⋆(h) is what lets the send pass where the bound is 0 at h: a
    # sender without it is refused, so the two must not share a key.
    h = 7
    ops = {"qr": Label({}, L3), "v": Label({}, L3), low: Label({h: 0}, L3)}
    dr, pr = Label({}, STAR), Label({}, L3)
    with_star, without = Label({h: STAR}, L2), Label({}, L2)
    assert requirement_1(with_star, ops["qr"], dr, ops["v"], pr)
    assert not requirement_1(without, ops["qr"], dr, ops["v"], pr)
    rest = [_c(x) for x in (ops["qr"], dr, ops["v"], pr)]
    assert check_key(_c(with_star), *rest)[0] != check_key(_c(without), *rest)[0]


def test_t1_shortcut_reads_ds_default():
    # A receiver with a ⋆ default holds h at 3; ES holds ⋆(h) over a
    # default of 3, and DS lowers by default to 1.  The full effect gives
    # min(3, 1) = 1 at h, but ES's default would contaminate it back to 3:
    # ES's ⋆ is not inert, so ES stays exact in the key.
    h = 7
    qs, ds = _c(Label({h: L3}, STAR)), _c(Label({}, L1))
    with_star, without = _c(Label({h: STAR}, L3)), _c(Label({}, L3))
    assert lo.apply_send_effects(qs, with_star, ds)(h) == L1
    assert lo.apply_send_effects(qs, without, ds)(h) == L3
    assert effects_key(qs, with_star, ds) != effects_key(qs, without, ds)


def test_t1_grant_handle_survives_the_stripped_computation():
    # ES holds ⋆(h) and DS *grants* ⋆(h): the effect yields ⋆ at h.  The
    # grant joins the star set, so the key reads ES's core — a sender
    # holding one more, inert ⋆ is a hit, with its own correct result.
    h = 7
    qs = Label({}, L2)
    ds = Label({h: STAR}, L3)
    cache = _cache()
    for expected_hit, es in ((False, Label({h: STAR}, L1)), (True, Label({h: STAR, 9: STAR}, L1))):
        want = send_effect_spec(qs, es, ds)
        assert want(h) == STAR
        got, hit = cache.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats())
        assert got.to_label() == want
        assert hit == expected_hit


def test_t3_taint_punches_through_a_held_star():
    # DR explicitly raises a handle the receiver holds at ⋆: the raise
    # wins, and QR's core still keys the hit.
    h = 11
    qr = Label({h: STAR, 40: L2}, L1)
    dr = Label({h: L2}, STAR)
    want = qr | dr
    assert want(h) == L2
    cache = _cache()
    for expected_hit in (False, True):
        got, hit = cache.raise_receive(_c(qr), _c(dr), OpStats())
        assert got.to_label() == want
        assert hit == expected_hit
    # A different star set around the same core is the same key.
    got, hit = cache.raise_receive(_c(Label({h: STAR, 12: STAR, 40: L2}, L1)), _c(dr))
    assert hit and got(12) == STAR


def test_t4_fresh_pin_capability_check_hits_across_connections():
    # The per-connection shape: a pinned-low port label pR(u) = 0 guarded
    # by the sender's held ⋆(u), where u is a *fresh* handle every time.
    # T4 abstracts the pin to its bare level, so the second connection
    # is a hit even though its handle differs.
    qr, dr, v = Label({}, L2), Label({}, STAR), Label({}, L3)
    cache = _cache()
    hits = []
    for conn in (500, 501, 502):
        es = Label({conn: STAR}, L1)
        pr = Label({conn: 0}, L3)
        want = requirement_1(es, qr, dr, v, pr)
        assert want  # the capability makes the send admissible
        got, hit = cache.check_send(_c(es), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
        assert got == want
        hits.append(hit)
    assert hits == [False, True, True]


def test_t4_denied_send_is_not_confused_with_the_admissible_one():
    # Same pinned-low port label, but the sender does NOT hold the ⋆: the
    # verdict flips to False, and its key is not the admissible variant's.
    qr, dr, v = Label({}, L2), Label({}, STAR), Label({}, L3)
    cache = _cache()
    conn = 600
    es_cap = Label({conn: STAR}, L1)
    es_plain = Label({999: STAR}, L1)  # a ⋆, but not the one the pin needs
    pr = Label({conn: 0}, L3)
    ok, _ = cache.check_send(_c(es_cap), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
    denied, hit = cache.check_send(_c(es_plain), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
    assert ok is True
    assert denied is False and hit is False
    assert denied == requirement_1(es_plain, qr, dr, v, pr)


def test_seeded_differential_sweep_under_eviction():
    """10k+ mixed operations through one 64-entry cache: every result is
    compared against the reference, and the LRU must actually churn."""
    rng = random.Random(0xA5BE5705)
    pool = ALL_LEVELS + (STAR, STAR, STAR)

    def rand_label():
        entries = {
            rng.randrange(0, 120): rng.choice(pool)
            for _ in range(rng.randrange(0, 18))
        }
        return Label(entries, rng.choice(pool))

    cache = LabelOpCache(size=64)
    for i in range(3500):
        es, qr, dr, v, pr = (rand_label() for _ in range(5))
        got, _ = cache.check_send(
            _c(es), _c(qr), _c(dr), _c(v), _c(pr), OpStats()
        )
        assert got == requirement_1(es, qr, dr, v, pr), (i, "check")
        got, _ = cache.apply_send_effects(_c(qr), _c(es), _c(dr), OpStats())
        assert got.to_label() == send_effect_spec(qr, es, dr), (
            i,
            "effects",
        )
        got, _ = cache.raise_receive(_c(v), _c(pr), OpStats())
        assert got.to_label() == (v | pr), (i, "raise")
    assert cache.lookups == 10_500
    assert cache.evictions > 5_000  # the sweep really did thrash the LRU


# -- 3. the OKWS site: interned and elided kernels are the plain kernel -------------


USERS = (("alice", "pw-a"), ("bob", "pw-b"), ("carol", "pw-c"))


def _run_okws_workload(kernel, network="classic"):
    site = launch(
        kernel=kernel,
        services=[
            ServiceConfig("cache", session_cache_handler),
            ServiceConfig("notes", notes_handler),
            ServiceConfig("profile", profile_handler),
            ServiceConfig("publish", profile_declassifier_handler, declassifier=True),
        ],
        users=list(USERS),
        schema=[
            "CREATE TABLE notes (author TEXT, text TEXT)",
            "CREATE TABLE profiles (owner TEXT, bio TEXT)",
        ],
        network=network,
    )
    client = HttpClient(site)
    responses = []
    for user, pw in USERS:
        responses.append(client.request(user, pw, "cache", body=f"{user}-state".encode()))
        responses.append(client.request(user, pw, "notes", body=f"{user}-note", args={"op": "add"}))
        responses.append(client.request(user, pw, "notes", args={"op": "list"}))
        responses.append(client.request(user, pw, "profile", body=f"{user}-bio", args={"op": "set"}))
    responses.append(client.request("alice", "pw-a", "publish"))
    responses.append(client.request("bob", "pw-b", "profile", args={"op": "get"}))
    responses.append(client.request("alice", "pw-a", "cache", body=b"second-visit"))
    return [(r.ok, r.payload) for r in responses]


def _assert_same_kernel(plain, other):
    """Drop for drop and label for label: every task and every port."""
    assert plain.drop_log.records == other.drop_log.records
    assert set(plain.tasks) == set(other.tasks)
    for key, task in plain.tasks.items():
        assert task.send_label.to_label() == other.tasks[key].send_label.to_label(), key
        assert task.receive_label.to_label() == other.tasks[key].receive_label.to_label(), key
    assert set(plain.ports) == set(other.ports)
    for handle, entry in plain.ports.items():
        assert entry.label.to_label() == other.ports[handle].label.to_label(), handle


@pytest.fixture(scope="module")
def okws_proofs(tmp_path_factory):
    """Proofs compiled from a recording of the OKWS site itself, and the
    plain kernel and responses of that recording."""
    kernel = Kernel(config=KernelConfig())
    recorder = TopologyRecorder(kernel)
    responses = _run_okws_workload(kernel)
    path = tmp_path_factory.mktemp("okws") / "proofs.json"
    write_proofs(compile_proofs(recorder.build("okws-site")), path)
    return str(path), kernel, responses


@pytest.mark.parametrize("layer", ["interned", "elided"])
def test_fast_paths_run_the_okws_site_as_the_plain_kernel_does(okws_proofs, layer):
    path, plain, plain_responses = okws_proofs
    config = KernelConfig(intern_labels=True, labelop_cache_size=256)
    if layer == "elided":
        config = config.replace(elide_checks=True, proof_path=path)
    for sanitize in (False, True):
        kernel = Kernel(config=config.replace(sanitize=sanitize, sanitize_strict=True))
        assert _run_okws_workload(kernel) == plain_responses
        _assert_same_kernel(plain, kernel)
        assert kernel.labelop_cache.hits > 0
        if sanitize:
            assert kernel.sanitizer.violations == []
            assert kernel.sanitizer.checked_deliveries > 300
        if layer == "elided":
            counters = kernel.flow_table.counters()
            assert counters["valid"] and counters["quarantines"] == 0
            assert counters["deliver_hits"] > 0 and counters["send_hits"] > 0


@pytest.mark.parametrize("network", ["classic", "decomposed"])
def test_okws_replay_every_cached_decision_matches_reference(network):
    # The strict sanitizer replays both halves of every IPC — cache hits
    # included — through the naive spec, and raises on any divergence.
    kernel = Kernel(
        config=KernelConfig(
            intern_labels=True, labelop_cache_size=256, sanitize=True, sanitize_strict=True
        )
    )
    _run_okws_workload(kernel, network)
    assert kernel.sanitizer.violations == []
    assert kernel.sanitizer.checked_sends > 0
    assert kernel.sanitizer.checked_deliveries > 300
    # The replay must actually have exercised the cache, hits included.
    assert kernel.labelop_cache.hits > 100
    assert kernel.labelop_cache.misses > 0


def test_okws_replay_is_bit_identical_to_the_uncached_kernel():
    def replay(config):
        site = build_echo_site(12, config=config)
        client = HttpClient(site)
        reqs = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(12)]
        responses = []
        for _ in range(2):
            responses.extend(client.run_batch(reqs, concurrency=4))
        return site.kernel, responses

    plain_kernel, plain_res = replay(KernelConfig())
    cached_kernel, cached_res = replay(
        KernelConfig(intern_labels=True, labelop_cache_size=1 << 12)
    )
    assert [r.payload for r in plain_res] == [r.payload for r in cached_res]
    _assert_same_kernel(plain_kernel, cached_kernel)


def test_okws_replay_is_sanitizer_clean_with_interning():
    kernel = Kernel(
        config=KernelConfig(
            intern_labels=True,
            labelop_cache_size=256,
            sanitize=True,
            sanitize_strict=True,
        )
    )
    _run_okws_workload(kernel)
    assert kernel.sanitizer is not None
    assert kernel.sanitizer.violations == []
    assert kernel.sanitizer.checked_sends > 0
    assert kernel.labelop_cache.hits > 0


# -- 4. the bill: a pure function of the operand stream -----------------------------

_BILL_SCRIPT = """
import gc, json, os, sys, tempfile
gc.disable()
from repro.analysis.extract import TopologyRecorder
from repro.analysis.proofs import compile_proofs, write_proofs
from repro.kernel.config import KernelConfig
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient

reqs = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(8)]
site = build_echo_site(8, config=KernelConfig())
client = HttpClient(site)
client.run_batch(reqs, concurrency=4)
recorder = TopologyRecorder(site.kernel)
client.run_batch(reqs, concurrency=4)
path = os.path.join(tempfile.mkdtemp(), "proofs.json")
write_proofs(compile_proofs(recorder.build("bill")), path)
out = {}
for name, config in (
    ("interned", KernelConfig(intern_labels=True, labelop_cache_size=64)),
    ("elided", KernelConfig(elide_checks=True, proof_path=path, labelop_cache_size=64)),
):
    site = build_echo_site(8, config=config)
    client = HttpClient(site)
    for _ in range(3):
        client.run_batch(reqs, concurrency=4)
    kernel = site.kernel
    out[name] = {
        "cache": kernel.labelop_cache.counters(),
        "flows": kernel.flow_table.counters() if kernel.flow_table else None,
        "clock": dict(kernel.clock.by_category),
    }
os.remove(path)
json.dump(out, sys.stdout, sort_keys=True)
"""


def _bill_in_a_fresh_process(hash_seed):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    env.pop("REPRO_SANITIZE", None)
    done = subprocess.run(
        [sys.executable, "-c", _BILL_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_hits_and_misses_are_a_pure_function_of_the_operand_stream():
    first, second = _bill_in_a_fresh_process("0"), _bill_in_a_fresh_process("4242")
    assert first == second
    # The run really priced hits and misses, and the proofs really hit
    # (a 64-entry cache evicts, so the sequence is not just "all seen").
    assert first["interned"]["cache"]["hits"] > 0
    assert first["interned"]["cache"]["evictions"] > 0
    assert first["elided"]["flows"]["deliver_hits"] > 0


def test_cache_counters_reconcile_with_opstats():
    # Every cache hit ran its operation unbilled: the plain kernel's
    # operation count equals the cached kernel's plus its hits.
    def run(config):
        site = build_echo_site(20, config=config)
        client = HttpClient(site)
        reqs = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(20)]
        for _ in range(2):
            client.run_batch(reqs, concurrency=8)
        return site.kernel

    plain = run(KernelConfig())
    cached = run(KernelConfig(intern_labels=True, labelop_cache_size=1 << 12))
    cache = cached.labelop_cache
    assert cache.lookups == cache.hits + cache.misses
    assert cache.hits > 0
    assert (
        plain.label_stats.operations
        == cached.label_stats.operations + cache.hits
    )

    from repro.obs.metrics import kernel_snapshot

    snap = kernel_snapshot(cached)
    assert snap["labelop_cache"] == cache.counters()
    assert snap["config"]["intern_labels"] is True
    assert kernel_snapshot(plain)["labelop_cache"] is None


def test_interning_reduces_modeled_kernel_cycles():
    def warm_window_cycles(config):
        site = build_echo_site(60, config=config)
        client = HttpClient(site)
        reqs = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(60)]
        for _ in range(2):
            client.run_batch(reqs, concurrency=16)
        snapshot = site.kernel.clock.snapshot()
        client.run_batch(reqs, concurrency=16)
        return sum(site.kernel.clock.delta(snapshot).values())

    plain = warm_window_cycles(KernelConfig())
    cached = warm_window_cycles(
        KernelConfig(intern_labels=True, labelop_cache_size=1 << 16)
    )
    assert cached < plain
