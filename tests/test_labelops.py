"""Property tests: the fused kernel label operations are exactly
equivalent to the naive Figure 4 reference semantics."""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.core import labelops as lo
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L0, L1, L2, L3, STAR

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
    assert got == lo.check_send_reference(es, qr, dr, v, pr)


@given(labels, labels, labels)
@settings(max_examples=300)
def test_apply_send_effects_matches_reference(qs, es, ds):
    got = lo.apply_send_effects(_c(qs), _c(es), _c(ds), OpStats()).to_label()
    assert got == lo.apply_send_effects_reference(qs, es, ds)


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
