"""The kernel's chunked label representation (paper Section 5.6).

A series of label operations accompanies every IPC, so the in-kernel label
representation dominates both performance and memory use.  The paper's
design, reproduced here:

- a label points to a sorted array of *chunks*;
- each chunk is a sorted array of up to 64 vnode pointers whose low 3 bits
  (free because pointers are 8-byte aligned) encode the level;
- labels and chunks are immutable and updated copy-on-write, so multiple
  labels share chunks (by identity: one chunk object, many directories);
- each chunk (and each label) caches the minimum and maximum of its levels,
  enabling short-circuits such as: if L2's maximum level is no larger than
  L1's minimum level, then ``L1 ⊔ L2 = L1`` by definition.

**Packed layout.**  A chunk stores no per-entry object: its entries are
two parallel buffers, ``handles`` (a sorted tuple of ints) and ``levels``
(``bytes`` of ``level + 1``, so ``*`` is 0), plus ``lo`` (its first
handle), ``size`` and a five-bit ``level_mask`` of the levels present.  Minimum
and maximum are read off the mask through a 32-entry table.  A label is
its chunk directory, a parallel tuple of the chunks' lowest handles, and
three integers (default, size, mask); every other hint derives from
those.  Lookup is two ``bisect`` calls, iteration is a ``zip`` over the
buffers, and :func:`repro.core.labelops.sparse_update` splices the
directory instead of rebuilding it.

Worst-case ⊑/⊔/⊓ remain linear in label size — exactly the linear scaling
the paper observes in Figure 9 — and :class:`OpStats` counts the entries
actually touched so the simulator's cycle model charges for real work, not
an analytic estimate.

Memory accounting mirrors the paper's "smallest label is about 300 bytes,
including space for one chunk": a 44-byte label header plus chunks of
16-byte header + 8 bytes per slot, slots allocated in powers of two with a
minimum of 32 (44 + 16 + 32*8 = 316 bytes for the smallest label).  It is
accounting for the modelled kernel, not a measurement of the Python
objects above.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from operator import mul
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L3, STAR, Level

#: Maximum vnode pointers per chunk.
CHUNK_CAPACITY = 64
#: Accounted bytes of the modelled kernel's per-label bookkeeping (default
#: level, chunk directory, its reference count, cached min/max).
LABEL_HEADER_BYTES = 44
#: Accounted bytes of its per-chunk bookkeeping (length, capacity,
#: reference count, min/max).
CHUNK_HEADER_BYTES = 16
#: Bytes per vnode-pointer slot.
SLOT_BYTES = 8
#: Smallest slot allocation.
MIN_SLOTS = 32


def _slots_for(count: int) -> int:
    """Power-of-two slot allocation, minimum MIN_SLOTS, maximum CHUNK_CAPACITY."""
    slots = MIN_SLOTS
    while slots < count:
        slots *= 2
    return min(max(slots, MIN_SLOTS), CHUNK_CAPACITY)


@dataclass
class OpStats:
    """Counts the work label operations actually perform.

    The kernel cycle model (``repro.kernel.clock``) converts these counts
    into cycles, which is how Figure 9's "Kernel IPC" series is produced.
    """

    entries_scanned: int = 0
    chunks_skipped: int = 0
    labels_allocated: int = 0
    chunks_allocated: int = 0
    chunks_shared: int = 0
    operations: int = 0
    #: Operations resolved entirely by the min/max (or level-mask) hints —
    #: no pointwise walk of the large operand.  fast_path + full_merges
    #: does not necessarily equal operations: cheap ops like sparse_update
    #: are classified as neither.
    fast_path: int = 0
    #: Operations that fell back to a full pointwise merge/scan.
    full_merges: int = 0

    def merge(self, other: "OpStats") -> None:
        self.entries_scanned += other.entries_scanned
        self.chunks_skipped += other.chunks_skipped
        self.labels_allocated += other.labels_allocated
        self.chunks_allocated += other.chunks_allocated
        self.chunks_shared += other.chunks_shared
        self.operations += other.operations
        self.fast_path += other.fast_path
        self.full_merges += other.full_merges

    def reset(self) -> None:
        self.entries_scanned = 0
        self.chunks_skipped = 0
        self.labels_allocated = 0
        self.chunks_allocated = 0
        self.chunks_shared = 0
        self.operations = 0
        self.fast_path = 0
        self.full_merges = 0


def level_bit(level: Level) -> int:
    """Bit index for a level in a levels-present mask (``*`` is bit 0)."""
    return 1 << (level + 1)


#: The mask of a chunk or label whose explicit entries are all ``*``.
_STAR_BIT = level_bit(STAR)

#: ``levels`` byte (``level + 1``) → level.
_DECODE = ALL_LEVELS.__getitem__
#: level → ``levels`` byte.
_ENCODE = (1).__add__


def _mask_table(pick, empty: Level) -> Tuple[Level, ...]:
    return tuple(
        pick([lvl for lvl in ALL_LEVELS if mask & level_bit(lvl)] or [empty])
        for mask in range(1 << len(ALL_LEVELS))
    )


#: Levels-present mask → lowest / highest level present.  An empty mask
#: reads as the identity of the fold: 3 for the minimum, ``*`` for the
#: maximum.
_MASK_MIN = _mask_table(min, L3)
_MASK_MAX = _mask_table(max, STAR)


def _square_sum(entries: Iterable[Tuple[Handle, int]]) -> int:
    """``Σ hash(entry)²``, at C speed: exact ints, no overflow."""
    hashes = list(map(hash, entries))
    return sum(map(mul, hashes, hashes))


class Chunk:
    """An immutable sorted run of up to 64 (handle, level) entries, stored
    as two parallel buffers and shared between labels by identity."""

    __slots__ = ("handles", "levels", "lo", "size", "level_mask", "_hash_sum", "_core_hash_sum")

    def __init__(self, entries: Sequence[Tuple[Handle, Level]]):
        if len(entries) > CHUNK_CAPACITY:
            raise ValueError(f"chunk overflow: {len(entries)} > {CHUNK_CAPACITY}")
        handles, levels = zip(*entries) if entries else ((), ())
        self._fill(handles, bytes(map(_ENCODE, levels)))

    @classmethod
    def packed(cls, handles: Tuple[Handle, ...], levels: bytes) -> "Chunk":
        """A chunk over buffers that are already sorted, parallel, and at
        most 64 long (what every in-kernel producer holds)."""
        chunk = cls.__new__(cls)
        chunk._fill(handles, levels)
        return chunk

    def _fill(self, handles: Tuple[Handle, ...], levels: bytes) -> None:
        self.handles = handles
        self.levels = levels
        self.size = len(handles)
        if handles:
            self.lo = handles[0]
        mask = 0
        for code in set(levels):
            mask |= 1 << code
        self.level_mask = mask
        # Filled on first use by hash_sum() / core_hash_sum().
        self._hash_sum = self._core_hash_sum = None

    @property
    def min_level(self) -> Level:
        return _MASK_MIN[self.level_mask]

    @property
    def max_level(self) -> Level:
        return _MASK_MAX[self.level_mask]

    def hash_sum(self) -> int:
        """The square of ``hash((handle, code))`` summed over the run's
        entries: its share of :meth:`ChunkedLabel.digest`.  A sum does not
        care how entries are grouped, so a label's digest is the same
        however it is chunked.  The square is what keeps it a hash: CPython's
        tuple hash is close to additive in each element, so a plain sum of
        entry hashes let two labels that swap levels between two handles
        collide (a quarter of seeded swapped pairs did)."""
        total = self._hash_sum
        if total is None:
            total = self._hash_sum = _square_sum(zip(self.handles, self.levels))
        return total

    def core_hash_sum(self) -> int:
        """:meth:`hash_sum` over the non-``*`` entries only."""
        total = self._core_hash_sum
        if total is None:
            if not self.level_mask & _STAR_BIT:
                total = self.hash_sum()
            else:
                levels = self.levels
                total = _square_sum(compress(zip(self.handles, levels), levels))
            self._core_hash_sum = total
        return total

    @property
    def entries(self) -> Tuple[Tuple[Handle, Level], ...]:
        """The run as ``(handle, level)`` pairs — a derived view, built on
        every read; the kernel's own code reads the buffers."""
        return tuple(zip(self.handles, map(_DECODE, self.levels)))

    def memory_bytes(self) -> int:
        return CHUNK_HEADER_BYTES + SLOT_BYTES * _slots_for(self.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<Chunk {self.size} entries, levels {self.min_level}..{self.max_level}>"


def pack_chunks(entries: Sequence[Tuple[Handle, Level]]) -> List[Chunk]:
    """Sorted ``(handle, level)`` pairs as full 64-entry chunks (the last
    one takes the remainder)."""
    handles, levels = zip(*entries) if entries else ((), ())
    return pack_columns(handles, bytes(map(_ENCODE, levels)))


def pack_columns(handles: Tuple[Handle, ...], codes: bytes) -> List[Chunk]:
    """:func:`pack_chunks` over the two buffers: sorted handles and their
    parallel ``levels`` codes."""
    return [
        Chunk.packed(handles[i : i + CHUNK_CAPACITY], codes[i : i + CHUNK_CAPACITY])
        for i in range(0, len(handles), CHUNK_CAPACITY)
    ]


def unpack_chunks(chunks: Sequence[Chunk]) -> Tuple[Tuple[Handle, ...], bytes]:
    """The chunks' buffers end to end — the chunking erased.  One chunk
    gives back its own two objects."""
    if len(chunks) == 1:
        return chunks[0].handles, chunks[0].levels
    return (
        tuple(chain.from_iterable(chunk.handles for chunk in chunks)),
        b"".join(chunk.levels for chunk in chunks),
    )


class ChunkedLabel:
    """The kernel-resident form of a :class:`~repro.core.labels.Label`.

    Semantically identical to ``Label``; structurally a sorted tuple of
    shareable chunks.  Only ⊑ lives here; the Figure 4 operations that
    build labels (⊔, ⊓, the send effects) are the fused ones in
    :mod:`repro.core.labelops`, and the naive ``Label`` is their spec.

    Stored: the chunk directory, ``_los`` (each chunk's lowest handle, the
    index lookups bisect), the default, the entry count and the mask of
    levels occurring explicitly.  ``explicit_min`` / ``explicit_max``
    (bounds over the explicit entries) and ``min_level`` / ``max_level``
    (bounds over the whole function, default included) derive from the
    mask.
    """

    __slots__ = (
        "chunks",
        "default",
        "level_mask",
        "_los",
        "_size",
        #: ``(size, min_level, max_level)`` — all the 2005 cost model
        #: (``labelops.paper_cost_*``) reads of an operand, ten times a bill.
        "summary",
        # Lazily filled views of an immutable value: the non-star entries,
        # the expanded Label, and the value digests of the label and of
        # its ⋆-free core (what the label-op cache keys on).
        "_nonstar_cache",
        "_label",
        "_digest",
        "_core_digest",
        # wire/v1 support (repro.core.interning): the table this instance
        # is canonical in (None while it has never been interned) and its
        # content fingerprint once one was computed.  The weakref slot
        # lets the table hold canonical labels weakly.
        "intern_table",
        "fingerprint",
        "__weakref__",
    )

    def __init__(self, chunks: Sequence[Chunk], default: Level):
        los = []
        size = mask = 0
        for chunk in chunks:
            los.append(chunk.lo)
            size += chunk.size
            mask |= chunk.level_mask
        self._carry(tuple(chunks), default, tuple(los), size, mask)

    @classmethod
    def carried(
        cls,
        chunks: Tuple[Chunk, ...],
        default: Level,
        los: Tuple[Handle, ...],
        size: int,
        mask: int,
    ) -> "ChunkedLabel":
        """A label whose aggregates the caller carried forward from the
        label it updated (``sparse_update``'s splice) instead of having
        the constructor walk the directory for them."""
        label = cls.__new__(cls)
        label._carry(chunks, default, los, size, mask)
        return label

    def _carry(
        self,
        chunks: Tuple[Chunk, ...],
        default: Level,
        los: Tuple[Handle, ...],
        size: int,
        mask: int,
    ) -> None:
        self.chunks: Tuple[Chunk, ...] = chunks
        self.default: Level = default
        #: Bitmask of levels occurring explicitly (default not included).
        self.level_mask: int = mask
        self._los = los
        self._size = size
        present = mask | (1 << (default + 1))
        self.summary = (size, _MASK_MIN[present], _MASK_MAX[present])
        self._nonstar_cache = self._label = self._digest = self._core_digest = None
        self.intern_table = self.fingerprint = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_label(cls, label: Label, stats: Optional[OpStats] = None) -> "ChunkedLabel":
        size = len(label)
        if size > CHUNK_CAPACITY:
            chunks = pack_chunks(tuple(label.entries()))
        elif size:
            # What programs supply is a handful of entries: the one chunk,
            # straight from the sorted keys, no pair tuples.
            handles = tuple(label.handles())
            chunks = [Chunk.packed(handles, bytes(map(_ENCODE, map(label, handles))))]
        else:
            chunks = []
        if stats is not None:
            stats.labels_allocated += 1
            stats.chunks_allocated += len(chunks)
        chunked = cls(chunks, label.default)
        chunked._label = label
        return chunked

    def to_label(self) -> Label:
        """The naive :class:`Label` with this value.  Both are immutable,
        so the expansion is built once and kept; it is checked a chunk at
        a time (:meth:`Label.from_columns`)."""
        label = self._label
        if label is None:
            label = self._label = Label.from_columns(
                [(chunk.handles, chunk.levels) for chunk in self.chunks], self.default
            )
        return label

    # -- inspection ---------------------------------------------------------------

    @property
    def explicit_min(self) -> Level:
        """Lowest level among the explicit entries (3 when there are none)."""
        return _MASK_MIN[self.level_mask]

    @property
    def explicit_max(self) -> Level:
        """Highest level among the explicit entries (``*`` when there are none)."""
        return _MASK_MAX[self.level_mask]

    @property
    def min_level(self) -> Level:
        return self.summary[1]

    @property
    def max_level(self) -> Level:
        return self.summary[2]

    def __len__(self) -> int:
        return self._size

    def __call__(self, handle: Handle) -> Level:
        """Evaluate at *handle*: bisect the directory, then the chunk."""
        if not self._size:
            return self.default
        idx = bisect_right(self._los, handle) - 1
        if idx >= 0:
            chunk = self.chunks[idx]
            handles = chunk.handles
            pos = bisect_left(handles, handle)
            if pos < chunk.size and handles[pos] == handle:
                return chunk.levels[pos] - 1
        return self.default

    def iter_entries(self) -> Iterator[Tuple[Handle, Level]]:
        for chunk in self.chunks:
            yield from zip(chunk.handles, map(_DECODE, chunk.levels))

    def value_key(self) -> Tuple[Any, ...]:
        """``(default, handles, levels)`` with the chunking erased: equal
        exactly when two labels are equal as functions, however each came
        to be chunked.  A one-chunk label's key is the chunk's own two
        buffers, so keying a table on it allocates nothing per entry."""
        return (self.default, *unpack_chunks(self.chunks))

    def digest(self) -> int:
        """A 64-bit hash of the value: the default and the sum of the
        entries' squared hashes (:meth:`Chunk.hash_sum`, kept per chunk,
        so a label that shares chunks costs one add per chunk).  Equal labels get
        equal digests however each came to be chunked, in every process:
        the hash reads only ints and tuples, never the ``str``/``bytes``
        hashes ``PYTHONHASHSEED`` randomises.  Computed once per label."""
        digest = self._digest
        if digest is None:
            total = 0
            for chunk in self.chunks:
                total += chunk.hash_sum()
            digest = self._digest = hash((self.default, total))
        return digest

    def core_digest(self) -> int:
        """``without_stars().digest()``, without building that label."""
        digest = self._core_digest
        if digest is None:
            if self.default == STAR or not self.level_mask & _STAR_BIT:
                digest = self.digest()
            else:
                total = 0
                for chunk in self.chunks:
                    total += chunk.core_hash_sum()
                digest = hash((self.default, total))
            self._core_digest = digest
        return digest

    def nonstar_entries(self) -> Tuple[Tuple[Handle, Level], ...]:
        """The explicit entries whose level is not ``*``, cached.

        ``*`` entries are the global minimum: they can never fail a ⊑
        check and never contaminate a receiver, so the hot IPC paths
        iterate only this view.  Privileged servers hold one ``*`` per
        user (netd, idd, ok-dbproxy), making this the difference between
        O(users) and O(1) per message in the simulator.  Labels are
        immutable, so the tuple is computed once; all-star chunks are
        skipped wholesale via their level masks.
        """
        cached = self._nonstar_cache
        if cached is None:
            # An all-star label answers from its own mask, without a walk.
            chunks = () if self.level_mask == _STAR_BIT else self.chunks
            cached = self._nonstar_cache = tuple(
                (handle, code - 1)
                for chunk in chunks
                if chunk.level_mask != _STAR_BIT
                for handle, code in zip(chunk.handles, chunk.levels)
                if code
            )
        return cached

    def without_stars(self) -> "ChunkedLabel":
        """This label with its explicit ``*`` entries dropped (those handles
        revert to the default level).

        This is *not* semantically equal to the original label — it is the
        ⋆-free core the interning cache keys on: a privileged server's
        label is a stable core plus a churning set of per-connection ``*``
        capabilities, and the Figure 4 operations either ignore the ``*``
        entries outright or preserve them verbatim (see
        ``repro.core.interning`` for the exact side conditions).  With a
        ``*`` default there is nothing to drop (canonical labels carry no
        explicit entry equal to their default).
        """
        if self.default == STAR or not (self.level_mask & _STAR_BIT):
            return self
        return ChunkedLabel(pack_chunks(self.nonstar_entries()), self.default)

    def memory_bytes(self) -> int:
        """Bytes of kernel memory for this label, counting shared chunks in
        full (use :func:`shared_memory_bytes` across a set of labels to
        account sharing)."""
        total = LABEL_HEADER_BYTES
        if not self.chunks:
            # Space for one (empty) chunk is always reserved.
            total += CHUNK_HEADER_BYTES + SLOT_BYTES * MIN_SLOTS
        for chunk in self.chunks:
            total += chunk.memory_bytes()
        return total

    def __repr__(self) -> str:
        return f"<ChunkedLabel {self._size} entries in {len(self.chunks)} chunks, default {self.default}>"

    # -- the partial order ----------------------------------------------------------

    def leq(self, other: "ChunkedLabel", stats: Optional[OpStats] = None) -> bool:
        """The partial order ⊑, with min/max short-circuits."""
        if stats is not None:
            stats.operations += 1
        # Short-circuit: everything in self at or below everything in other
        # (self's max_level against other's min_level, off the summaries).
        if self.summary[2] <= other.summary[1] and self.default <= other.default:
            if stats is not None:
                stats.chunks_skipped += len(self.chunks) + len(other.chunks)
                stats.fast_path += 1
            return True
        if self.default > other.default:
            if stats is not None:
                stats.fast_path += 1
            return False
        if stats is not None:
            stats.full_merges += 1
        scanned = 0
        for handle, level in self.iter_entries():
            scanned += 1
            if level > other(handle):
                if stats is not None:
                    stats.entries_scanned += scanned
                return False
        # Handles explicit only in `other` take self's default on the left
        # (the ones explicit in both passed above and pass again).
        default = self.default
        for handle, level in other.iter_entries():
            scanned += 1
            if default > level and self(handle) > level:
                if stats is not None:
                    stats.entries_scanned += scanned
                return False
        if stats is not None:
            stats.entries_scanned += scanned
        return True


def shared_memory_bytes(labels: Iterable[ChunkedLabel]) -> int:
    """Total kernel bytes for a set of labels, counting each shared chunk
    once — how the kernel's memory accountant measures label storage for
    Figure 6."""
    total = 0
    seen = set()
    for label in labels:
        total += LABEL_HEADER_BYTES
        if not label.chunks:
            total += CHUNK_HEADER_BYTES + SLOT_BYTES * MIN_SLOTS
        for chunk in label.chunks:
            if id(chunk) not in seen:
                seen.add(id(chunk))
                total += chunk.memory_bytes()
    return total
