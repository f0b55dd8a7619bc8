"""Differential conformance suite for the interned-label fast path.

The :class:`~repro.core.interning.LabelOpCache` serves the three Figure 4
hot operations from a bounded LRU keyed on ⋆-factored interned ids.  The
factorings (theorems T1–T4 in the ``repro.core.interning`` docstring) are
exactly the kind of optimisation that silently corrupts an IFC kernel if
any side condition is wrong, so this suite proves the fast path against
the *naive reference semantics* (plain :class:`~repro.core.labels.Label`
lattice operators) three ways:

1. Hypothesis-generated label algebras — ⋆-biased operands, probed twice
   so both the miss path (compute + store) and the hit path (probe +
   overlay) are compared against the reference on every example;
2. a deterministic seeded sweep of mixed operations through one tiny
   shared cache, forcing thousands of evictions and cross-operation key
   traffic;
3. full OKWS workload replays on the live kernel — every delivery
   re-derived from the reference operators, plus bit-comparability,
   sanitizer-cleanliness, metrics reconciliation and a cycle-count
   sanity check against the uncached kernel.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import labelops as lo
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.interning import InternTable, LabelOpCache
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

# ⋆-heavy operands are what the factoring theorems fire on — bias the
# generator so most examples exercise the stripped-key paths, not the
# exact-key fallback.
star_biased = st.sampled_from(ALL_LEVELS + (STAR, STAR))
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=80), star_biased, max_size=25),
    default=star_biased,
)


def _c(label: Label) -> ChunkedLabel:
    return ChunkedLabel.from_label(label)


def _cache(size: int = 8) -> LabelOpCache:
    return LabelOpCache(InternTable(), size=size)


# -- 1. property tests: cache == reference on miss AND on hit -----------------------


@given(labels, labels, labels, labels, labels)
@settings(max_examples=2500)
def test_cached_check_send_matches_reference(es, qr, dr, v, pr):
    cache = _cache()
    args = tuple(_c(x) for x in (es, qr, dr, v, pr))
    want = lo.check_send_reference(es, qr, dr, v, pr)
    got_miss, hit1 = cache.check_send(*args, OpStats())
    got_hit, hit2 = cache.check_send(*args, OpStats())
    assert got_miss == want
    assert got_hit == want
    assert (hit1, hit2) == (False, True)


@given(labels, labels, labels)
@settings(max_examples=2500)
def test_cached_apply_send_effects_matches_reference(qs, es, ds):
    cache = _cache()
    want = lo.apply_send_effects_reference(qs, es, ds)
    got_miss, hit1 = cache.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats())
    got_hit, hit2 = cache.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats())
    assert got_miss.to_label() == want
    assert got_hit.to_label() == want
    assert (hit1, hit2) == (False, True)


@given(labels, labels)
@settings(max_examples=2500)
def test_cached_raise_receive_matches_reference(qr, dr):
    cache = _cache()
    want = lo.raise_receive_reference(qr, dr)
    got_miss, hit1 = cache.raise_receive(_c(qr), _c(dr), OpStats())
    got_hit, hit2 = cache.raise_receive(_c(qr), _c(dr), OpStats())
    assert got_miss.to_label() == want
    assert got_hit.to_label() == want
    assert (hit1, hit2) == (False, True)


# One cache shared across all examples: keys from earlier examples stay
# resident (or get evicted), so ⋆-factored keys from *different* operand
# tuples must never alias to the wrong result.
_SHARED = LabelOpCache(InternTable(), size=16)


@given(labels, labels, labels, labels, labels)
@settings(max_examples=2500)
def test_shared_tiny_cache_never_serves_a_wrong_result(a, b, c, d, e):
    assert _SHARED.check_send(
        _c(a), _c(b), _c(c), _c(d), _c(e), OpStats()
    )[0] == lo.check_send_reference(a, b, c, d, e)
    assert _SHARED.apply_send_effects(_c(a), _c(b), _c(c), OpStats())[
        0
    ].to_label() == lo.apply_send_effects_reference(a, b, c)
    assert _SHARED.raise_receive(_c(d), _c(e), OpStats())[
        0
    ].to_label() == lo.raise_receive_reference(d, e)


# -- 2. targeted theorem probes (the shapes the OKWS hot path produces) -------------


def test_t1_grant_handle_survives_the_stripped_computation():
    # ES holds ⋆(h) and DS *grants* ⋆(h): the full op yields ⋆ at h, but a
    # computation on ES's core would contaminate h to ES's default.  The
    # factoring must route h through the star overlay instead.
    h = 7
    qs = Label({}, L2)
    es = Label({h: STAR}, L1)
    ds = Label({h: STAR}, L3)
    want = lo.apply_send_effects_reference(qs, es, ds)
    assert want(h) == STAR
    cache = _cache()
    for expected_hit in (False, True):
        got, hit = cache.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats())
        assert got.to_label() == want
        assert hit == expected_hit


def test_t3_taint_punches_through_a_held_star():
    # DR explicitly raises a handle the receiver holds at ⋆.  The overlay
    # must *not* force the handle back to ⋆ — the raise wins.
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


def test_t4_fresh_pin_capability_check_hits_across_connections():
    # The per-connection shape: a pinned-low port label pR(u) = 0 guarded
    # by the sender's held ⋆(u), where u is a *fresh* handle every time.
    # T4 abstracts the pin to its bare level, so the second connection
    # must HIT even though its handle differs — and both verdicts must
    # match the reference on their own exact operands.
    qr, dr, v = Label({}, L2), Label({}, STAR), Label({}, L3)
    cache = _cache()
    hits = []
    for conn in (500, 501, 502):
        es = Label({conn: STAR}, L1)
        pr = Label({conn: 0}, L3)
        want = lo.check_send_reference(es, qr, dr, v, pr)
        assert want  # the capability makes the send admissible
        got, hit = cache.check_send(_c(es), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
        assert got == want
        hits.append(hit)
    assert hits == [False, True, True]


def test_t4_denied_send_is_not_confused_with_the_admissible_one():
    # Same pinned-low port label, but the sender does NOT hold the ⋆: the
    # verdict flips to False and must not be served from the T4 key of
    # the admissible variant (the pin stays concrete in this key).
    qr, dr, v = Label({}, L2), Label({}, STAR), Label({}, L3)
    cache = _cache()
    conn = 600
    es_cap = Label({conn: STAR}, L1)
    es_plain = Label({}, L1)
    pr = Label({conn: 0}, L3)
    ok, _ = cache.check_send(_c(es_cap), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
    denied, _ = cache.check_send(_c(es_plain), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
    assert ok is True
    assert denied is False
    assert denied == lo.check_send_reference(es_plain, qr, dr, v, pr)


# -- 3. seeded mixed-operation sweep under heavy eviction ---------------------------


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

    table = InternTable()
    cache = LabelOpCache(table, size=64)
    for i in range(3500):
        es, qr, dr, v, pr = (rand_label() for _ in range(5))
        got, _ = cache.check_send(
            _c(es), _c(qr), _c(dr), _c(v), _c(pr), OpStats()
        )
        assert got == lo.check_send_reference(es, qr, dr, v, pr), (i, "check")
        got, _ = cache.apply_send_effects(_c(qr), _c(es), _c(dr), OpStats())
        assert got.to_label() == lo.apply_send_effects_reference(qr, es, dr), (
            i,
            "effects",
        )
        got, _ = cache.raise_receive(_c(v), _c(pr), OpStats())
        assert got.to_label() == lo.raise_receive_reference(v, pr), (i, "raise")
    assert cache.lookups == 10_500
    assert cache.evictions > 5_000  # the sweep really did thrash the LRU


# -- 4. full OKWS replays on the live kernel ----------------------------------------


class InternedCheckingKernel(Kernel):
    """An interning kernel whose every delivery is re-derived from the
    naive reference semantics — cache hits included."""

    checked = 0

    def __init__(self):
        super().__init__(
            config=KernelConfig(intern_labels=True, labelop_cache_size=256)
        )

    def _try_deliver(self, task, entry, qmsg):
        es = qmsg.effective_send.to_label()
        qr = task.receive_label.to_label()
        qs = task.send_label.to_label()
        dr = qmsg.decontaminate_receive.to_label()
        ds = qmsg.decontaminate_send.to_label()
        v = qmsg.verify.to_label()
        pr = entry.label.to_label()

        expect_ok = lo.check_send_reference(es, qr, dr, v, pr) and dr <= pr
        delivered = super()._try_deliver(task, entry, qmsg)
        assert delivered == expect_ok, (
            f"cached delivery verdict diverged for {qmsg.sender_name} -> {task.name}"
        )
        if delivered:
            assert task.send_label.to_label() == lo.apply_send_effects_reference(
                qs, es, ds
            ), f"cached send-label effect diverged at {task.name}"
            assert task.receive_label.to_label() == (qr | dr), (
                f"cached receive-label effect diverged at {task.name}"
            )
        InternedCheckingKernel.checked += 1
        return delivered


def _run_okws_workload(kernel, network="classic"):
    site = launch(
        kernel=kernel,
        services=[
            ServiceConfig("cache", session_cache_handler),
            ServiceConfig("notes", notes_handler),
            ServiceConfig("profile", profile_handler),
            ServiceConfig("publish", profile_declassifier_handler, declassifier=True),
        ],
        users=[("alice", "pw-a"), ("bob", "pw-b"), ("carol", "pw-c")],
        schema=[
            "CREATE TABLE notes (author TEXT, text TEXT)",
            "CREATE TABLE profiles (owner TEXT, bio TEXT)",
        ],
        network=network,
    )
    client = HttpClient(site)
    for user, pw in (("alice", "pw-a"), ("bob", "pw-b"), ("carol", "pw-c")):
        client.request(user, pw, "cache", body=f"{user}-state".encode())
        client.request(user, pw, "notes", body=f"{user}-note", args={"op": "add"})
        client.request(user, pw, "notes", args={"op": "list"})
        client.request(user, pw, "profile", body=f"{user}-bio", args={"op": "set"})
    client.request("alice", "pw-a", "publish")
    client.request("bob", "pw-b", "profile", args={"op": "get"})
    client.request("alice", "pw-a", "cache", body=b"second-visit")
    return site


@pytest.mark.parametrize("network", ["classic", "decomposed"])
def test_okws_replay_every_cached_decision_matches_reference(network):
    InternedCheckingKernel.checked = 0
    kernel = InternedCheckingKernel()
    _run_okws_workload(kernel, network)
    assert InternedCheckingKernel.checked > 300
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
    assert plain_kernel.drop_log.records == cached_kernel.drop_log.records
    # Every surviving task carries bit-identical labels.
    assert set(plain_kernel.tasks) == set(cached_kernel.tasks)
    for key, task in plain_kernel.tasks.items():
        other = cached_kernel.tasks[key]
        assert task.send_label.to_label() == other.send_label.to_label(), key
        assert task.receive_label.to_label() == other.receive_label.to_label(), key


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


# -- 5. metrics reconciliation and the cycle-model sanity check ---------------------


def test_cache_counters_reconcile_with_opstats():
    # Every cache hit avoided exactly one labelops call: the uncached
    # kernel's operation count equals the cached kernel's plus its hits.
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
