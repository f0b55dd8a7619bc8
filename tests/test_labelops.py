"""Property tests: the fused kernel label operations are exactly
equivalent to the naive Figure 4 reference semantics."""

import dataclasses
import random
from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.core import labelops as lo
from repro.core.chunks import Chunk, ChunkedLabel, OpStats, pack_chunks, unpack_chunks
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L0, L1, L2, L3, STAR
from tests.test_conformance import requirement_1, send_effect_spec

levels = st.sampled_from(ALL_LEVELS)
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=80), levels, max_size=25),
    default=levels,
)


def _c(label: Label) -> ChunkedLabel:
    return ChunkedLabel.from_label(label)


@given(labels, labels, labels, labels, labels)
@settings(max_examples=300)
def test_check_send_matches_reference(es, qr, dr, v, pr):
    got = lo.check_send(_c(es), _c(qr), _c(dr), _c(v), _c(pr), OpStats())
    assert got == requirement_1(es, qr, dr, v, pr)


@given(labels, labels, labels)
@settings(max_examples=300)
def test_apply_send_effects_matches_reference(qs, es, ds):
    got = lo.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats()).to_label()
    assert got == send_effect_spec(qs, es, ds)


@given(labels, labels)
@settings(max_examples=300)
def test_raise_receive_matches_reference(qr, dr):
    got = lo.raise_receive(_c(qr), _c(dr), OpStats()).to_label()
    assert got == (qr | dr)


@given(labels, st.dictionaries(st.integers(min_value=0, max_value=80), levels, max_size=8))
@settings(max_examples=300)
def test_sparse_update_matches_pointwise(label, updates):
    got = lo.sparse_update(_c(label), updates, OpStats()).to_label()
    want = label
    for handle, level in updates.items():
        want = want.with_entry(handle, level)
    assert got == want


@given(labels, labels, labels)
def test_effects_never_change_star_entries(qs, es, ds):
    # A receiver's * entries are immune to contamination; they change only
    # if DS (a grant) explicitly mentions them — and grants only *lower*,
    # and nothing is below *.
    got = lo.apply_send_effects(_c(qs), _c(es), _c(ds)).to_label()
    for handle in dict(qs.entries()):
        if qs(handle) == STAR:
            assert got(handle) == STAR


@given(labels, labels)
def test_contamination_only_raises(qs, es):
    # With no decontamination (DS = {3}), the send label can only rise.
    got = lo.apply_send_effects(_c(qs), _c(es), _c(Label.top())).to_label()
    assert qs <= got


@given(labels, labels)
def test_decontamination_only_lowers_toward_ds(qs, ds):
    # With no contamination (ES = {*}), the result is QS ⊓ DS.
    got = lo.apply_send_effects(_c(qs), _c(Label.bottom()), _c(ds)).to_label()
    assert got == (qs & ds)


# -- the modelled 2005 cost functions ---------------------------------------------------


def test_paper_cost_scales_with_big_receiver():
    big_qs = _c(Label({i: STAR for i in range(1, 2001)}, L1))
    small_es = _c(Label({5000: L3}, L1))
    ds = _c(Label.top())
    cost = lo.paper_cost_apply_effects(big_qs, small_es, ds)
    # The stars-only projection alone scans all 2000 entries.
    assert cost >= 2000


def test_paper_cost_no_stars_is_cheap():
    qs = _c(Label({i: L2 for i in range(1, 2001)}, L1))
    es = _c(Label({5000: L2}, L1))
    ds = _c(Label.top())
    # QS* = {3}: ES ⊓ {3} short-circuits, QS ⊓ {3} short-circuits, and the
    # final ⊔ must still merge — cost is one merge, not three.
    cost = lo.paper_cost_apply_effects(qs, es, ds)
    assert cost <= 2001 + 10


def test_paper_cost_check_skips_dominated_rhs():
    es = _c(Label({}, L1))
    qr = _c(Label({i: L3 for i in range(1, 1001)}, L2))
    dr = _c(Label.bottom())
    v = _c(Label.top())
    pr = _c(Label.top())
    # QR ⊔ {*} short-circuits; ⊓ {3} twice short-circuits; ES ⊑ rhs skips
    # the rhs scan because ES's default (1) is below the rhs minimum (2).
    assert lo.paper_cost_check_send(es, qr, dr, v, pr) == 0


def test_paper_cost_check_scans_when_port_label_restricts():
    es = _c(Label({}, L1))
    qr = _c(Label({i: L3 for i in range(1, 1001)}, L2))
    dr = _c(Label.bottom())
    v = _c(Label.top())
    # A port label that interleaves with QR's levels (neither operand
    # dominates): the modelled implementation must do the full merge.
    pr = _c(Label({77: 0}, L3))
    assert lo.paper_cost_check_send(es, qr, dr, v, pr) >= 1000


# The straight-line ``paper_cost_*`` against what they replaced: the
# modelled operator chain spelled as a composition of one-operator costs
# over ``(size, min level, max level)`` triples.  These two are the
# reference; ``src/`` no longer has them.


def _lub_cost(a, b):
    """(entries scanned, result) for the paper's a ⊔ b; the min/max hint
    skips the merge when one operand dominates the other."""
    a_size, a_lo, a_hi = a
    b_size, b_lo, b_hi = b
    if b_hi <= a_lo:
        return 0, a
    if a_hi <= b_lo:
        return 0, b
    return a_size + b_size, (max(a_size, b_size), max(a_lo, b_lo), max(a_hi, b_hi))


def _glb_cost(a, b):
    a_size, a_lo, a_hi = a
    b_size, b_lo, b_hi = b
    if b_lo >= a_hi:
        return 0, a
    if a_lo >= b_hi:
        return 0, b
    return a_size + b_size, (max(a_size, b_size), min(a_lo, b_lo), min(a_hi, b_hi))


def _composed_check_send_cost(es, qr, dr, v, pr):
    scanned, rhs = _lub_cost(qr.summary, dr.summary)
    cost, rhs = _glb_cost(rhs, v.summary)
    scanned += cost
    cost, rhs = _glb_cost(rhs, pr.summary)
    scanned += cost
    scanned += len(dr)                           # requirement (4): DR ⊑ pR
    if dr.default > pr.min_level:
        scanned += len(pr)
    scanned += len(es)                           # ES ⊑ rhs
    rhs_size, rhs_min, _ = rhs
    if es.default > rhs_min:
        scanned += rhs_size
    return scanned


def _composed_apply_effects_cost(qs, es, ds):
    scanned = 0
    rhs = es.summary
    if qs.min_level == STAR:
        scanned += len(qs)
        cost, rhs = _glb_cost(rhs, (len(qs), STAR, L3))
        scanned += cost
    cost, t1 = _glb_cost(qs.summary, ds.summary)
    scanned += cost
    cost, _ = _lub_cost(t1, rhs)
    return scanned + cost


def _sized_label(size, present, default):
    return _c(Label({i * 7: present[i % len(present)] for i in range(size)}, default))


#: Every default, every set of levels present, sizes 0–200 (entries at the
#: default normalise away, so sizes in between occur too).
sized_labels = st.builds(
    _sized_label,
    st.integers(0, 200),
    st.lists(levels, min_size=1, max_size=5, unique=True),
    levels,
)


@given(sized_labels, sized_labels, sized_labels, sized_labels, sized_labels)
@settings(max_examples=600)
def test_paper_cost_check_send_equals_the_composed_chain(es, qr, dr, v, pr):
    want = _composed_check_send_cost(es, qr, dr, v, pr)
    assert lo.paper_cost_check_send(es, qr, dr, v, pr) == want


@given(sized_labels, sized_labels, sized_labels)
@settings(max_examples=600)
def test_paper_cost_effects_and_raise_equal_the_composed_chain(qs, es, ds):
    assert lo.paper_cost_apply_effects(qs, es, ds) == _composed_apply_effects_cost(qs, es, ds)
    assert lo.paper_cost_raise_receive(qs, es) == _lub_cost(qs.summary, es.summary)[0]


# -- sparse_update boundary structure: normalisation, routing, chunk sharing ------------

from repro.core.chunks import CHUNK_CAPACITY  # noqa: E402

handles = st.integers(min_value=0, max_value=80)


@given(labels, st.sets(handles, max_size=8))
@settings(max_examples=300)
def test_sparse_update_normalises_default_updates_away(label, touched):
    # Writing the default level at a handle must *remove* its explicit
    # entry, not store a redundant one — canonical form is what makes
    # structurally equal labels intern to one id.
    got = lo.sparse_update(_c(label), {h: label.default for h in touched}, OpStats())
    assert all(lvl != got.default for _, lvl in got.iter_entries())
    want = label
    for h in touched:
        want = want.with_entry(h, label.default)
    assert got.to_label() == want


def test_sparse_update_empty_updates_is_identity():
    chunked = _c(Label({1: L3}, L1))
    assert lo.sparse_update(chunked, {}, OpStats()) is chunked


@given(st.dictionaries(handles, levels, max_size=8), levels)
@settings(max_examples=300)
def test_sparse_update_on_the_empty_label(updates, default):
    got = lo.sparse_update(_c(Label({}, default)), updates, OpStats())
    assert got.to_label() == Label(updates, default)


def test_sparse_update_shares_untouched_chunks():
    label = _c(Label({i * 3: L3 for i in range(200)}, L1))
    assert len(label.chunks) == 4
    target = label.chunks[2].entries[0][0]
    stats = OpStats()
    got = lo.sparse_update(label, {target: L2}, stats)
    assert got.to_label() == Label({i * 3: L3 for i in range(200)}, L1).with_entry(
        target, L2
    )
    # Only the routed chunk is scanned and rewritten; the other three are
    # shared by object identity.
    assert stats.entries_scanned == len(label.chunks[2].entries)
    assert stats.chunks_shared == 3
    assert stats.chunks_allocated == 1
    for i in (0, 1, 3):
        assert got.chunks[i] is label.chunks[i]
    assert got.chunks[2] is not label.chunks[2]


# ``sparse_update`` routes by one walk over the sorted handles; below is
# what it replaced — each handle routed by its own bisect into a ``routed``
# dict — kept as the reference for the directory and the bill.


def _sparse_update_per_handle(label, updates, stats):
    chunks, default = label.chunks, label.default
    if not chunks:
        entries = sorted((h, lvl) for h, lvl in updates.items() if lvl != default)
        packed = pack_chunks(entries)
        stats.chunks_allocated += len(packed)
        stats.labels_allocated += 1
        return ChunkedLabel(packed, default)
    los = label._los
    routed = {}
    for handle in updates:
        idx = bisect_right(los, handle) - 1
        routed.setdefault(idx if idx > 0 else 0, []).append(handle)
    default_code = default + 1
    spliced = []
    size = len(label)
    scanned = allocated = reshared = done = 0
    for idx in sorted(routed):
        spliced += chunks[done:idx]
        done = idx + 1
        chunk = chunks[idx]
        scanned += chunk.size
        handles, levels = list(chunk.handles), bytearray(chunk.levels)
        for handle in routed[idx]:
            code = updates[handle] + 1
            pos = bisect_left(handles, handle)
            if pos < len(handles) and handles[pos] == handle:
                if code == default_code:
                    del handles[pos], levels[pos]
                else:
                    levels[pos] = code
            elif code != default_code:
                handles.insert(pos, handle)
                levels.insert(pos, code)
        size += len(handles) - chunk.size
        for run in zip(lo._balanced_runs(tuple(handles)), lo._balanced_runs(bytes(levels))):
            if run[0] == chunk.handles and run[1] == chunk.levels:
                reshared += 1
            else:
                chunk = Chunk.packed(*run)
                allocated += 1
            spliced.append(chunk)
    spliced += chunks[done:]
    stats.chunks_shared += len(chunks) - len(routed) + reshared
    stats.entries_scanned += scanned
    stats.chunks_allocated += allocated
    stats.labels_allocated += 1
    if len(spliced) > 3 and size < len(spliced) * (CHUNK_CAPACITY // 3):
        buffers = unpack_chunks(spliced)
        spliced = [
            Chunk.packed(*run)
            for run in zip(lo._balanced_runs(buffers[0]), lo._balanced_runs(buffers[1]))
        ]
        stats.chunks_allocated += len(spliced)
        stats.entries_scanned += size
    return ChunkedLabel(spliced, default)


def _wide_label(rng, default):
    """0–400 entries over handles 300–900: up to seven chunks, and room
    on either side for updates below the first and above the last."""
    size = rng.choice([0, 1, 40, 64, 65, 200, 400])
    others = [lvl for lvl in ALL_LEVELS if lvl != default]
    return _c(Label({h: rng.choice(others) for h in rng.sample(range(300, 900), size)}, default))


def _wide_updates(rng, default):
    """1–300 updates over handles 0–1,200, a third of them deletions to
    the default; sometimes packed into one chunk's range so a run
    overflows and splits."""
    count = rng.choice([1, 2, 8, 63, 64, 65, 150, 300])
    span = range(500, 560 + count) if rng.random() < 0.3 else range(0, 1200)
    return {
        h: default if rng.random() < 0.33 else rng.choice(ALL_LEVELS)
        for h in rng.sample(span, count)
    }


@given(st.randoms(use_true_random=False), levels)
@settings(max_examples=150, deadline=None)
def test_sparse_update_equals_per_handle_routing(rng, default):
    before, updates = _wide_label(rng, default), _wide_updates(rng, default)
    got_stats, want_stats = OpStats(), OpStats()
    got = lo.sparse_update(before, updates, got_stats)
    want = _sparse_update_per_handle(before, updates, want_stats)
    assert got.value_key() == want.value_key()
    assert [len(chunk) for chunk in got.chunks] == [len(chunk) for chunk in want.chunks]
    assert got_stats == want_stats
    assert (got._los, len(got), got.level_mask, got.summary) == (
        want._los, len(want), want.level_mask, want.summary
    )
    # Chunks no update reached are shared by identity, not rebuilt.
    untouched = {id(chunk) for chunk in before.chunks} & {id(chunk) for chunk in want.chunks}
    assert untouched <= {id(chunk) for chunk in got.chunks}


@given(st.randoms(use_true_random=False), levels)
@settings(max_examples=80, deadline=None)
def test_digests_read_the_value_not_the_chunking(rng, default):
    label = lo.sparse_update(
        _wide_label(rng, default), dict.fromkeys(rng.sample(range(0, 1200), 270), STAR)
    )
    rebuilt = _c(label.to_label())  # the same value, chunked afresh
    assert label.digest() == rebuilt.digest()
    assert label.core_digest() == rebuilt.core_digest() == label.without_stars().digest()
    moved = lo.sparse_update(label, {1300: L1 if default != L1 else L2})
    assert moved.digest() != label.digest()


def test_digests_separate_labels_that_swap_two_levels():
    # CPython's tuple hash is close to additive in each element: summing
    # the bare entry hashes gave a label and its two-handle level swap the
    # same digest in about a quarter of these pairs.  Squared, none.
    rng = random.Random(2005)
    pairs = collisions = 0
    for _ in range(400):
        default = rng.choice(ALL_LEVELS)
        others = [lvl for lvl in ALL_LEVELS if lvl != default]
        size = rng.choice([2, 5, 40, 70, 200])
        entries = {h: rng.choice(others) for h in rng.sample(range(1, 5000), size)}
        label = _c(Label(entries, default))
        for a, b in (rng.sample(sorted(entries), 2) for _ in range(4)):
            if entries[a] == entries[b]:
                continue
            swapped = _c(Label({**entries, a: entries[b], b: entries[a]}, default))
            pairs += 1
            collisions += label.digest() == swapped.digest()
            collisions += label.core_digest() == swapped.core_digest()
    assert pairs > 1000
    assert collisions == 0


# -- _balanced_runs: minimum chunk count, even sizes --------------------------------


@given(st.lists(st.tuples(st.integers(0, 10_000), levels), max_size=300))
@settings(max_examples=300)
def test_balanced_runs_partition_evenly(entries):
    runs = lo._balanced_runs(entries)
    assert [e for run in runs for e in run] == list(entries)
    if not entries:
        assert runs == []
        return
    sizes = [len(run) for run in runs]
    assert len(runs) == -(-len(entries) // CHUNK_CAPACITY)  # ceil division
    assert max(sizes) <= CHUNK_CAPACITY
    assert min(sizes) >= 1
    assert max(sizes) - min(sizes) <= 1  # evenly sized, no [64, 1] splits


def test_balanced_runs_ceil_boundaries():
    for n in (
        1,
        CHUNK_CAPACITY - 1,
        CHUNK_CAPACITY,
        CHUNK_CAPACITY + 1,
        2 * CHUNK_CAPACITY,
        2 * CHUNK_CAPACITY + 1,
    ):
        runs = lo._balanced_runs([(i, L2) for i in range(n)])
        sizes = [len(run) for run in runs]
        assert len(runs) == -(-n // CHUNK_CAPACITY)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


# -- the billed counts, pinned -----------------------------------------------------------
#
# ``OpStats`` is what ``label_cost_mode="fused"`` and BENCH_labelops bill
# from, and chunk boundaries are what Figure 6's shared-chunk accounting
# reads.  This is the host-time-free twin of the BENCH_labelops guard: one
# seeded lifetime of a label under every kind of update the kernel makes,
# held to the counts the tuple-of-pairs representation (PR 17) produced.
# A representation change must reproduce them; a change that means to move
# a bill re-records them, beside the BENCH baselines it regenerates.

GOLDEN_STATS = {
    "entries_scanned": 275459,
    "chunks_skipped": 0,
    "labels_allocated": 1803,
    "chunks_allocated": 5165,
    "chunks_shared": 22174,
    "operations": 447,
    "fast_path": 322,
    "full_merges": 125,
}
GOLDEN_CHUNK_SIZES = [33, 32, 58, 59, 47, 47, 33, 32, 64, 33, 32, 64, 64, 24]


def test_seeded_label_lifetime_reproduces_the_recorded_counts():
    rng = random.Random(2005)
    stats = OpStats()
    label = _c(Label({}, L1))
    live = []  # handles believed explicit; going stale is part of the mix
    peak = 0

    def fresh():
        return rng.randrange(1, 1 << 24)

    def level_not(default):
        return rng.choice([lvl for lvl in ALL_LEVELS if lvl != default])

    for step in range(2000):
        grow = step < 1000 or step >= 1500
        roll = rng.random()
        if roll < 0.12:
            # Figure 4 effects: contaminate with a small ES, grant with a small DS.
            es = Label(
                {
                    rng.choice(live) if live and rng.random() < 0.5 else fresh(): L3
                    for _ in range(rng.randrange(0, 3))
                },
                rng.choice([STAR, L0, L1, L1] if step < 1700 else [L1, L2]),
            )
            ds = Label(
                {
                    rng.choice(live): rng.choice([STAR, L0, L1])
                    for _ in range(rng.randrange(0, 2))
                    if live
                },
                L3,
            )
            label = lo.apply_send_effects(label, _c(es), _c(ds), stats)
        elif roll < 0.22:
            dr = Label(
                {
                    rng.choice(live) if live and rng.random() < 0.5 else fresh(): rng.choice(
                        [L2, L3]
                    )
                    for _ in range(rng.randrange(0, 3))
                },
                STAR if rng.random() < 0.97 else L1,
            )
            label = lo.raise_receive(label, _c(dr), stats)
        elif roll < 0.245:
            # A burst of neighbouring handles: overflows one chunk, forcing
            # an even split.
            base = fresh()
            burst = {
                base + i: level_not(label.default) for i in range(rng.randrange(66, 80))
            }
            label = lo.sparse_update(label, burst, stats)
            live.extend(burst)
        elif roll < 0.40:
            # Multi-handle update: inserts, overwrites and deletes together.
            updates = {}
            for _ in range(rng.randrange(2, 9)):
                if live and rng.random() < 0.6:
                    updates[rng.choice(live)] = rng.choice(ALL_LEVELS)
                else:
                    handle = fresh()
                    updates[handle] = rng.choice(ALL_LEVELS)
                    live.append(handle)
            label = lo.sparse_update(label, updates, stats)
        elif roll < (0.75 if grow else 0.45):
            handle = fresh()
            live.append(handle)
            label = lo.sparse_update(label, {handle: level_not(label.default)}, stats)
        elif roll < (0.85 if grow else 0.55) and live:
            label = lo.sparse_update(
                label, {rng.choice(live): level_not(label.default)}, stats
            )
        elif live:
            # Delete-to-default; in the shrink phase whole swathes go, which
            # fragments the label until the wholesale rebalance fires.
            count = 1 if grow else rng.randrange(1, 40)
            gone = {
                live.pop(rng.randrange(len(live))): label.default
                for _ in range(min(count, len(live)))
            }
            label = lo.sparse_update(label, gone, stats)
        peak = max(peak, len(label))

    assert peak > 1000  # the mix reaches the sizes it claims to cover
    assert dataclasses.asdict(stats) == GOLDEN_STATS
    assert [len(chunk) for chunk in label.chunks] == GOLDEN_CHUNK_SIZES
