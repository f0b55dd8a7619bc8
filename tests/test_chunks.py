"""Unit and property tests for the chunked kernel label representation
(paper Section 5.6)."""


import pytest
from hypothesis import given, strategies as st

from repro.core.chunks import (
    CHUNK_CAPACITY, Chunk, ChunkedLabel, OpStats, pack_chunks, shared_memory_bytes,
)
from repro.core.labelops import apply_send_effects, raise_receive, sparse_update
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L1, L2, L3, STAR

levels = st.sampled_from(ALL_LEVELS)
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=300), levels, max_size=40),
    default=levels,
)


def big_label(n: int, level=L3, default=L1) -> Label:
    return Label({i * 7 + 1: level for i in range(n)}, default)


# -- structure -----------------------------------------------------------------


def test_roundtrip():
    lab = Label({1: STAR, 2: L3, 900: L2}, default=L1)
    assert ChunkedLabel.from_label(lab).to_label() == lab


def test_to_label_is_expanded_once():
    # Both forms are immutable, so the expansion is a slot on the label:
    # the sanitizer converts up to nine operands per IPC, nearly all of
    # them unchanged since the last one.
    grown = sparse_update(
        ChunkedLabel.from_label(big_label(100)), {5: STAR, 8: L1, 9: L2}, OpStats()
    )
    expanded = grown.to_label()
    assert grown.to_label() is expanded
    assert expanded == Label(dict(grown.iter_entries()), grown.default)
    assert expanded == big_label(100).with_entry(5, STAR).without(8).with_entry(9, L2)


@pytest.mark.parametrize("size", [0, 1, CHUNK_CAPACITY, CHUNK_CAPACITY + 1, 300])
def test_to_label_equals_the_validating_constructor(size):
    chunked = ChunkedLabel(
        pack_chunks([(7 + 3 * i, ALL_LEVELS[i % 5]) for i in range(size)]), L1
    )
    got = chunked.to_label()
    want = Label(dict(chunked.iter_entries()), chunked.default)
    assert got == want
    assert list(got.entries()) == list(want.entries())
    assert all(level != L1 for _, level in got.entries())


@pytest.mark.parametrize(
    "handles, codes",
    [
        ((1 << 61,), b"\x01"),   # handle past the 61-bit space
        ((3, -1), b"\x01\x01"),  # negative handle, unsorted
        ((2.5,), b"\x01"),       # not an int
        ((True,), b"\x01"),      # a bool aliases handle 1
        ((4, 5), b"\x01\x05"),   # level byte past 4
    ],
)
def test_to_label_rejects_a_bad_chunk(handles, codes):
    # Carried aggregates, so the bad chunk reaches the expansion (a level
    # byte past 4 would already fail the constructor's mask table).
    good, bad = Chunk.packed((1, 2), b"\x00\x04"), Chunk.packed(handles, codes)
    label = ChunkedLabel.carried((good, bad), L1, (1, bad.lo), 4, good.level_mask)
    with pytest.raises(ValueError):
        label.to_label()


@pytest.mark.parametrize("size", [0, 1, CHUNK_CAPACITY, CHUNK_CAPACITY + 1])
def test_from_label_builds_what_pack_chunks_would(size):
    # No entries: an empty directory; up to one chunk's worth: that chunk,
    # built straight from the sorted keys; more: pack_chunks itself.
    label = Label({7 + 3 * i: ALL_LEVELS[i % 5] for i in range(size)}, L1)
    stats = OpStats()
    got = ChunkedLabel.from_label(label, stats)
    want = ChunkedLabel(pack_chunks(tuple(label.entries())), label.default)
    assert got.value_key() == want.value_key()
    assert [len(chunk) for chunk in got.chunks] == [len(chunk) for chunk in want.chunks]
    assert (got.summary, got.level_mask, got._los, len(got)) == (
        want.summary, want.level_mask, want._los, len(want)
    )
    assert (stats.labels_allocated, stats.chunks_allocated) == (1, len(want.chunks))
    assert got.to_label() is label
    assert all(got(h) == label(h) for h in range(0, 7 + 3 * size + 2))


def test_chunking_splits_at_capacity():
    lab = big_label(CHUNK_CAPACITY * 2 + 5)
    cl = ChunkedLabel.from_label(lab)
    assert len(cl.chunks) == 3
    assert all(len(c) <= CHUNK_CAPACITY for c in cl.chunks)
    # Chunks are globally sorted runs.
    flat = [h for h, _ in cl.iter_entries()]
    assert flat == sorted(flat)


def test_chunk_overflow_rejected():
    with pytest.raises(ValueError):
        Chunk(tuple((i, L1) for i in range(CHUNK_CAPACITY + 1)))


def test_lookup_binary_search():
    lab = big_label(500)
    cl = ChunkedLabel.from_label(lab)
    assert cl(1) == L3          # first entry
    assert cl(499 * 7 + 1) == L3  # last entry
    assert cl(2) == L1          # default


def test_min_max_hints_include_default():
    cl = ChunkedLabel.from_label(Label({5: L3}, STAR))
    assert cl.min_level == STAR
    assert cl.max_level == L3
    assert cl.explicit_min == L3


def test_memory_bytes_smallest_label_about_300():
    # "The smallest label is about 300 bytes long, including space for one
    # chunk."
    empty = ChunkedLabel.from_label(Label({}, L1))
    assert 250 <= empty.memory_bytes() <= 350
    small = ChunkedLabel.from_label(Label({1: L3}, L1))
    assert 250 <= small.memory_bytes() <= 350


def test_memory_grows_with_entries():
    small = ChunkedLabel.from_label(big_label(10)).memory_bytes()
    large = ChunkedLabel.from_label(big_label(1000)).memory_bytes()
    assert large > small
    # Roughly 8 bytes per slot.
    assert large >= 1000 * 8


def test_shared_memory_counts_shared_chunks_once():
    base = ChunkedLabel.from_label(big_label(200))
    # A one-handle update rewrites one chunk and shares the other three.
    updated = sparse_update(base, {1: STAR}, OpStats())
    assert sum(a is b for a, b in zip(base.chunks, updated.chunks)) == 3
    total_shared = shared_memory_bytes([base, updated])
    assert total_shared < base.memory_bytes() + updated.memory_bytes()
    assert total_shared >= base.memory_bytes()


# -- operator equivalence against the reference Label ----------------------------------


@given(labels, labels)
def test_leq_matches_reference(a, b):
    assert ChunkedLabel.from_label(a).leq(ChunkedLabel.from_label(b)) == (a <= b)


# -- the paper's short-circuit, on the ⊔ and ⊓ the kernel runs (core.labelops) ---------


def test_lub_short_circuit_returns_operand():
    # "if L2's maximum level is no larger than L1's minimum level, then
    # L1 ⊔ L2 = L1 by definition" — and no memory is allocated.
    big = ChunkedLabel.from_label(big_label(300, level=L3, default=L2))
    low = ChunkedLabel.from_label(Label({8: L1, 15: L2}, STAR))
    stats = OpStats()
    assert raise_receive(big, low, stats) is big  # QR ⊔ DR
    assert (stats.fast_path, stats.chunks_allocated) == (1, 0)
    assert stats.entries_scanned == 2  # DR's two handles, none of QR's 300


def test_glb_short_circuit_returns_operand():
    # (QS ⊓ {3}) ⊔ (ES ⊓ QS*) with ES below QS's floor: QS itself.
    big = ChunkedLabel.from_label(big_label(300, level=L3, default=L1))
    top = ChunkedLabel.from_label(Label.top())
    low = ChunkedLabel.from_label(Label({8: L1}, STAR))
    stats = OpStats()
    assert apply_send_effects(big, low, top, stats) is big
    assert (stats.fast_path, stats.chunks_allocated) == (1, 0)


def test_merge_shares_unchanged_chunks():
    # Updating one handle in a 5-chunk label reuses the untouched chunks.
    big = ChunkedLabel.from_label(big_label(CHUNK_CAPACITY * 5))
    stats = OpStats()
    updated = sparse_update(big, {1: STAR}, stats)
    assert updated.to_label() == big.to_label().with_entry(1, STAR)
    assert stats.chunks_shared >= 4
    assert stats.chunks_allocated == 1


def test_opstats_merge_and_reset():
    a = OpStats(entries_scanned=3, operations=1)
    b = OpStats(entries_scanned=2, chunks_allocated=5)
    a.merge(b)
    assert a.entries_scanned == 5
    assert a.chunks_allocated == 5
    a.reset()
    assert a.entries_scanned == 0
