"""The 61-bit handle namespace.

Asbestos compartments are named by *handles*, 61-bit numbers (paper
Section 5.1).  Handles double as port names: the port namespace is the
handle value space (Section 5.5), which is what lets labels emulate send
capabilities.

Handle values must be unique since boot and *unpredictable*: the kernel
generates them by encrypting a counter with a 61-bit block cipher, so the
user-visible sequence of handles conveys no information about how many
handles have been created (a covert storage channel otherwise; Section 8).
The paper derives its cipher from Blowfish; we use a small balanced Feistel
network over the 61-bit block, which preserves the properties that matter —
the map is a bijection on [0, 2^61), so values never repeat, and the output
sequence looks unrelated to the counter.

Simply knowing a handle's value confers no privilege; handles are not
self-authenticating.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

#: Handles are 61-bit numbers; a 64-bit word holds a handle plus a 3-bit level.
HANDLE_BITS = 61
HANDLE_SPACE = 1 << HANDLE_BITS

# The Feistel network splits the 61-bit block into a 30-bit left half and a
# 31-bit right half.  An unbalanced split is fine for a Feistel cipher as
# long as the halves swap roles consistently; we alternate round functions
# sized to each half.
_LEFT_BITS = 30
_RIGHT_BITS = 31
_RIGHT_MASK = (1 << _RIGHT_BITS) - 1
_ROUNDS = 8

Handle = int


@lru_cache(maxsize=64)
def _round_prefix(key: bytes, round_no: int) -> "hashlib._Hash":
    """The hash state after (key, round): eight per boot key, copied —
    never updated — by every block that round encrypts."""
    return hashlib.sha256(key + round_no.to_bytes(2, "big"))


def _round_fn(value: int, key: bytes, round_no: int, out_bits: int) -> int:
    """Pseudorandom round function: hash (key, round, value) to out_bits."""
    state = _round_prefix(key, round_no).copy()
    state.update(value.to_bytes(8, "big"))
    return int.from_bytes(state.digest()[:8], "big") & ((1 << out_bits) - 1)


def feistel_encrypt(block: int, key: bytes, rounds: int = _ROUNDS) -> int:
    """Encrypt a 61-bit block with an unbalanced Feistel network.

    The construction is a bijection on [0, 2^61): each round XORs one half
    with a keyed hash of the other and swaps, and every step is invertible
    (see :func:`feistel_decrypt`).
    """
    if not 0 <= block < HANDLE_SPACE:
        raise ValueError(f"block out of range for 61-bit cipher: {block!r}")
    left = block >> _RIGHT_BITS  # 30 bits
    right = block & _RIGHT_MASK  # 31 bits
    for rnd in range(rounds):
        if rnd % 2 == 0:
            left ^= _round_fn(right, key, rnd, _LEFT_BITS)
        else:
            right ^= _round_fn(left, key, rnd, _RIGHT_BITS)
    return (left << _RIGHT_BITS) | right


def feistel_decrypt(block: int, key: bytes, rounds: int = _ROUNDS) -> int:
    """Invert :func:`feistel_encrypt` (used only by tests to prove bijectivity)."""
    if not 0 <= block < HANDLE_SPACE:
        raise ValueError(f"block out of range for 61-bit cipher: {block!r}")
    left = block >> _RIGHT_BITS
    right = block & _RIGHT_MASK
    for rnd in reversed(range(rounds)):
        if rnd % 2 == 0:
            left ^= _round_fn(right, key, rnd, _LEFT_BITS)
        else:
            right ^= _round_fn(left, key, rnd, _RIGHT_BITS)
    return (left << _RIGHT_BITS) | right


@dataclass
class HandleAllocator:
    """Allocates unpredictable, non-repeating 61-bit handles.

    A fixed *key* makes an allocator deterministic, which the simulator
    relies on for reproducible experiment runs; distinct keys model
    distinct boots.
    """

    key: bytes = b"asbestos-boot-key"
    _counter: int = field(default=0, repr=False)

    def fresh(self) -> Handle:
        """Return a previously unused handle value."""
        if self._counter >= HANDLE_SPACE:
            raise RuntimeError("61-bit handle space exhausted")
        value = feistel_encrypt(self._counter, self.key)
        self._counter += 1
        return value

    @property
    def allocated(self) -> int:
        """How many handles this allocator has produced (kernel-private)."""
        return self._counter
