"""Unit tests for the 61-bit handle namespace (paper Sections 5.1, 8)."""

import pytest

from repro.core.handles import (
    HANDLE_BITS,
    HANDLE_SPACE,
    HandleAllocator,
    feistel_decrypt,
    feistel_encrypt,
)


def test_handles_are_61_bit():
    allocator = HandleAllocator()
    for _ in range(200):
        handle = allocator.fresh()
        assert 0 <= handle < HANDLE_SPACE
    assert HANDLE_BITS == 61


def test_handles_never_repeat():
    allocator = HandleAllocator()
    seen = {allocator.fresh() for _ in range(5000)}
    assert len(seen) == 5000


def test_cipher_is_a_bijection_on_samples():
    key = b"some-key"
    # Structured and random block values all round-trip.
    samples = list(range(100)) + [HANDLE_SPACE - 1, HANDLE_SPACE // 2, 0x1234567890ABCDE]
    for block in samples:
        assert feistel_decrypt(feistel_encrypt(block, key), key) == block


def test_cipher_vectors_are_the_recorded_ones():
    # Recorded before the round function began hashing its (key, round)
    # prefix once and copying the state per block: the emitted handles
    # are the covert-channel argument *and* every committed bill's
    # chunk boundaries, so they may not move by a bit.
    assert feistel_encrypt(0, b"asbestos-boot-key") == 2154240703533959571
    assert feistel_encrypt(41, b"asbestos-boot-key") == 1611327830527704418
    assert feistel_encrypt(HANDLE_SPACE - 1, b"test-boot") == 250835781032534735
    allocator = HandleAllocator()
    assert [allocator.fresh() for _ in range(3)] == [
        2154240703533959571, 348963850422859461, 1014428092201866688
    ]


def test_cipher_rejects_out_of_range():
    with pytest.raises(ValueError):
        feistel_encrypt(HANDLE_SPACE, b"k")
    with pytest.raises(ValueError):
        feistel_decrypt(-1, b"k")


def test_sequence_looks_unpredictable():
    # The covert-channel argument (Section 8): consecutive handles must
    # not reveal the counter.  Weak but meaningful check: consecutive
    # outputs differ in many bits and are not monotonic.
    allocator = HandleAllocator()
    values = [allocator.fresh() for _ in range(100)]
    assert values != sorted(values)
    diffs = [bin(a ^ b).count("1") for a, b in zip(values, values[1:])]
    assert sum(diffs) / len(diffs) > 15  # ~30 expected for random 61-bit


def test_different_boots_differ():
    a = HandleAllocator(key=b"boot-1")
    b = HandleAllocator(key=b"boot-2")
    assert [a.fresh() for _ in range(10)] != [b.fresh() for _ in range(10)]


def test_same_boot_is_deterministic():
    a = HandleAllocator(key=b"boot")
    b = HandleAllocator(key=b"boot")
    assert [a.fresh() for _ in range(10)] == [b.fresh() for _ in range(10)]


def test_allocated_counter():
    allocator = HandleAllocator()
    assert allocator.allocated == 0
    allocator.fresh()
    allocator.fresh()
    assert allocator.allocated == 2
