"""The kernel's chunked label representation (paper Section 5.6).

A series of label operations accompanies every IPC, so the in-kernel label
representation dominates both performance and memory use.  The paper's
design, reproduced here:

- a label points to a sorted array of *chunks*;
- each chunk is a sorted array of up to 64 vnode pointers whose low 3 bits
  (free because pointers are 8-byte aligned) encode the level;
- labels and chunks are reference counted and updated copy-on-write, so
  multiple labels can share chunks;
- each chunk (and each label) caches the minimum and maximum of its levels,
  enabling short-circuits such as: if L2's maximum level is no larger than
  L1's minimum level, then ``L1 ⊔ L2 = L1`` by definition.

Worst-case ⊑/⊔/⊓ remain linear in label size — exactly the linear scaling
the paper observes in Figure 9 — and :class:`OpStats` counts the entries
actually touched so the simulator's cycle model charges for real work, not
an analytic estimate.

Memory accounting mirrors the paper's "smallest label is about 300 bytes,
including space for one chunk": a 44-byte label header plus chunks of
16-byte header + 8 bytes per slot, slots allocated in powers of two with a
minimum of 32 (44 + 16 + 32*8 = 316 bytes for the smallest label).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import L3, STAR, Level

#: Maximum vnode pointers per chunk.
CHUNK_CAPACITY = 64
#: Bytes of per-label bookkeeping (default level, chunk directory, refcount,
#: cached min/max).
LABEL_HEADER_BYTES = 44
#: Bytes of per-chunk bookkeeping (length, capacity, refcount, min/max).
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


class Chunk:
    """An immutable sorted run of (handle, level) entries, shareable between
    labels via reference counting."""

    __slots__ = ("entries", "min_level", "max_level", "level_mask", "refcount")

    def __init__(self, entries: Tuple[Tuple[Handle, Level], ...]):
        if len(entries) > CHUNK_CAPACITY:
            raise ValueError(f"chunk overflow: {len(entries)} > {CHUNK_CAPACITY}")
        self.entries = entries
        levels = [level for _, level in entries]
        self.min_level: Level = min(levels) if levels else L3
        self.max_level: Level = max(levels) if levels else STAR
        self.level_mask: int = 0
        for level in levels:
            self.level_mask |= level_bit(level)
        self.refcount = 0  # maintained by ChunkedLabel for accounting

    @property
    def lo(self) -> Handle:
        return self.entries[0][0]

    @property
    def hi(self) -> Handle:
        return self.entries[-1][0]

    def memory_bytes(self) -> int:
        return CHUNK_HEADER_BYTES + SLOT_BYTES * _slots_for(len(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"<Chunk {len(self.entries)} entries, levels {self.min_level}..{self.max_level}>"


class ChunkedLabel:
    """The kernel-resident form of a :class:`~repro.core.labels.Label`.

    Semantically identical to ``Label``; structurally a sorted tuple of
    shareable chunks.  Only ⊑ lives here; the Figure 4 operations that
    build labels (⊔, ⊓, the send effects) are the fused ones in
    :mod:`repro.core.labelops`, and the naive ``Label`` is their spec.
    """

    __slots__ = (
        "chunks",
        "default",
        "min_level",
        "max_level",
        "explicit_min",
        "explicit_max",
        "level_mask",
        "_size",
        "_nonstar_cache",
        # Hash-consing support (repro.core.interning): the table this
        # instance is canonical in and the process-unique id that table
        # gave it (both None while the label has never been interned),
        # and its wire/v1 content fingerprint once one was computed.  The
        # weakref slot lets the table hold canonical labels weakly.
        "intern_id",
        "intern_table",
        "fingerprint",
        "__weakref__",
    )

    def __init__(self, chunks: Sequence[Chunk], default: Level):
        self.chunks: Tuple[Chunk, ...] = tuple(chunks)
        self.default: Level = default
        # One pass over the chunk directory: refcounts, explicit bounds,
        # level mask, size.  (This constructor runs on every label update
        # in the kernel's hottest path.)
        emin: Level = L3
        emax: Level = STAR
        mask = 0
        size = 0
        for chunk in self.chunks:
            chunk.refcount += 1
            if chunk.min_level < emin:
                emin = chunk.min_level
            if chunk.max_level > emax:
                emax = chunk.max_level
            mask |= chunk.level_mask
            size += len(chunk.entries)
        # Explicit-entry bounds (exclude the default)...
        self.explicit_min: Level = emin
        self.explicit_max: Level = emax
        # ...and whole-function bounds (include it).
        self.min_level: Level = min(emin, default)
        self.max_level: Level = max(emax, default) if self.chunks else default
        # Bitmask of levels occurring explicitly (default not included).
        self.level_mask: int = mask
        self._size = size
        self._nonstar_cache: Optional[Tuple[Tuple[Handle, Level], ...]] = None
        self.intern_id = self.intern_table = self.fingerprint = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_label(cls, label: Label, stats: Optional[OpStats] = None) -> "ChunkedLabel":
        entries = tuple(label.entries())
        chunks = [
            Chunk(entries[i : i + CHUNK_CAPACITY])
            for i in range(0, len(entries), CHUNK_CAPACITY)
        ]
        if stats is not None:
            stats.labels_allocated += 1
            stats.chunks_allocated += len(chunks)
        return cls(chunks, label.default)

    def to_label(self) -> Label:
        entries: Dict[Handle, Level] = {}
        for chunk in self.chunks:
            entries.update(chunk.entries)
        return Label(entries, self.default)

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __call__(self, handle: Handle) -> Level:
        """Evaluate at *handle* via binary search over chunk ranges."""
        lo, hi = 0, len(self.chunks) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            chunk = self.chunks[mid]
            if handle < chunk.lo:
                hi = mid - 1
            elif handle > chunk.hi:
                lo = mid + 1
            else:
                clo, chi = 0, len(chunk.entries) - 1
                while clo <= chi:
                    cmid = (clo + chi) // 2
                    h, level = chunk.entries[cmid]
                    if handle == h:
                        return level
                    if handle < h:
                        chi = cmid - 1
                    else:
                        clo = cmid + 1
                return self.default
        return self.default

    def iter_entries(self) -> Iterable[Tuple[Handle, Level]]:
        for chunk in self.chunks:
            yield from chunk.entries

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
        if self._nonstar_cache is None:
            star_bit = level_bit(STAR)
            entries = []
            for chunk in self.chunks:
                if chunk.level_mask == star_bit:
                    continue
                entries.extend(
                    (handle, level) for handle, level in chunk.entries if level != STAR
                )
            self._nonstar_cache = tuple(entries)
        return self._nonstar_cache

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
        if self.default == STAR or not (self.level_mask & level_bit(STAR)):
            return self
        entries = self.nonstar_entries()
        chunks = [
            Chunk(entries[i : i + CHUNK_CAPACITY])
            for i in range(0, len(entries), CHUNK_CAPACITY)
        ]
        return ChunkedLabel(chunks, self.default)

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
        # Short-circuit: everything in self at or below everything in other.
        if self.max_level <= other.min_level and self.default <= other.default:
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
        own_handles = _handle_set(self)
        for handle, level in other.iter_entries():
            scanned += 1
            if handle not in own_handles and self.default > level:
                if stats is not None:
                    stats.entries_scanned += scanned
                return False
        if stats is not None:
            stats.entries_scanned += scanned
        return True


def _handle_set(label: ChunkedLabel) -> frozenset:
    # Small helper for leq's default-comparison pass.  Cached per call site
    # would be premature; leq over disjoint handle sets is rare in practice.
    return frozenset(handle for handle, _ in label.iter_entries())


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
