"""Fused, sparsity-aware kernel label operations.

A series of label operations accompanies every IPC (Section 5.6), and in a
loaded server some of the labels involved are huge — netd's receive label
accumulates one taint-handle entry per user, idd's send label two.  The
naive operators on :class:`~repro.core.labels.Label` are linear in the
*total* size of their inputs; these fused operations exploit the structure
of the Figure 4 rules so the common case touches only the *small* labels,
using:

- **level masks**: each label knows the set of levels occurring among its
  explicit entries, so "would this pointwise function change any entry?"
  is answerable in O(1);
- **chunk-granular copy-on-write**: an update that touches k handles
  rewrites only the chunks containing them and shares the rest, exactly
  the sharing design the paper describes.

The three entry points mirror Figure 4:

- :func:`check_send` — requirement (1): ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``,
  evaluated pointwise without materialising the right-hand side.
- :func:`apply_send_effects` — ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)``.
- :func:`raise_receive` — ``QR ← QR ⊔ DR``.

All are exact: a slow full-merge fallback handles every case the sparse
fast path cannot prove safe, and the property-based test suite checks the
fused results against the naive operators on random labels.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.core.chunks import (
    CHUNK_CAPACITY,
    Chunk,
    ChunkedLabel,
    OpStats,
    level_bit,
)
from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L3, STAR, Level


def _star3(level: Level) -> Level:
    """The pointwise form of the stars-only projection L*."""
    return STAR if level == STAR else L3


def _levels_in(label: ChunkedLabel) -> List[Level]:
    """Distinct levels occurring in *label* (explicit entries + default)."""
    mask = label.level_mask | level_bit(label.default)
    return [lvl for lvl in ALL_LEVELS if mask & level_bit(lvl)]


def _explicit_handles(*labels: ChunkedLabel) -> List[Handle]:
    """Sorted union of the labels' explicit handles."""
    handles = set()
    for label in labels:
        for handle, _ in label.iter_entries():
            handles.add(handle)
    return sorted(handles)


# -- requirement (1): the delivery check ------------------------------------------


def check_send(
    es: ChunkedLabel,
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    v: ChunkedLabel,
    pr: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> bool:
    """Evaluate ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` pointwise.

    ``QR`` may be huge (netd's accumulated decontaminations); ``ES``,
    ``DR``, ``V`` and ``pR`` are small in practice.  The QR-only handles
    are covered by a bound test on QR's explicit minimum; only when that
    test is inconclusive do we scan QR.
    """
    if stats is not None:
        stats.operations += 1
    scanned = 0

    def rhs(h: Handle) -> Level:
        return min(max(qr(h), dr(h)), v(h), pr(h))

    # ES entries at * can never violate the check (⋆ is the global
    # minimum), so only its non-star entries need inspection — privileged
    # senders like netd carry one * per user and would otherwise make this
    # loop O(users).
    small = {h for h, _ in es.nonstar_entries()}
    for label in (dr, v, pr):
        small.update(h for h, _ in label.iter_entries())
    small_handles = sorted(small)
    for handle in small_handles:
        scanned += 1
        if es(handle) > rhs(handle):
            if stats is not None:
                stats.entries_scanned += scanned
            return False

    # Default-vs-default (handles explicit nowhere).
    if es.default > min(max(qr.default, dr.default), v.default, pr.default):
        if stats is not None:
            stats.entries_scanned += scanned
        return False

    # Handles explicit only in QR: need
    #   es.default <= min(max(qr(h), dr.default), v.default, pr.default).
    bound = min(v.default, pr.default)
    if es.default <= bound and (
        es.default <= dr.default or es.default <= qr.explicit_min
    ):
        if stats is not None:
            stats.entries_scanned += scanned
            stats.chunks_skipped += len(qr.chunks)
            stats.fast_path += 1
        return True

    if stats is not None:
        stats.full_merges += 1
    for handle, level in qr.iter_entries():
        if handle in small:
            continue
        scanned += 1
        # es(handle) rather than es.default: the handle may be explicit in
        # ES at * (skipped above precisely because * always passes).
        if es(handle) > min(max(level, dr.default), bound):
            if stats is not None:
                stats.entries_scanned += scanned
            return False
    if stats is not None:
        stats.entries_scanned += scanned
    return True


# -- requirements (2) and (3): the send-time privilege check ---------------------------


def decontamination_privileged(
    ps: ChunkedLabel,
    ds: ChunkedLabel,
    dr: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> bool:
    """Requirements (2) and (3): ``DS(h) < 3 ⇒ PS(h) = ⋆`` and
    ``DR(h) > ⋆ ⇒ PS(h) = ⋆`` — decontaminating a receiver takes the
    sender's ``*`` for every handle it lowers or raises.  Fired by both
    the kernel's send path and the model checker's ``LabelStore``; DS and
    DR are almost always the ``{3}`` / ``{⋆}`` defaults (two comparisons,
    two empty walks)."""
    if ds.default < L3 and ps.max_level != STAR:
        return False
    for handle, level in ds.iter_entries():
        if stats is not None:
            stats.entries_scanned += 1
        if level < L3 and ps(handle) != STAR:
            return False
    if dr.default > STAR and ps.max_level != STAR:
        return False
    for handle, level in dr.iter_entries():
        if stats is not None:
            stats.entries_scanned += 1
        if level > STAR and ps(handle) != STAR:
            return False
    return True


# -- contamination / decontamination effects ------------------------------------------


def apply_send_effects(
    qs: ChunkedLabel,
    es: ChunkedLabel,
    ds: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Compute ``(QS ⊓ DS) ⊔ (ES ⊓ QS*)`` — Figure 4's send-label effect.

    Pointwise this is ``f(qs(h), es(h), ds(h))`` with::

        f(q, e, d) = max(min(q, d), min(e, * if q == * else 3))

    i.e. contaminate with ES and grant DS, but a receiver's ``*`` entries
    are immune to contamination.  The fast path applies when the function
    is the identity on every level actually present in QS (checked exactly
    via the level mask) for the *default* levels of ES and DS — then only
    the handles explicit in ES or DS can change, and QS's chunks are
    rewritten copy-on-write at exactly those handles.
    """
    if stats is not None:
        stats.operations += 1

    def f(q: Level, e: Level, d: Level) -> Level:
        return max(min(q, d), min(e, _star3(q)))

    new_default = f(qs.default, es.default, ds.default)

    fast = new_default == qs.default and all(
        # f must be the identity on every level present in QS both for
        # ES's default and for an explicit ES * (skipped-entry) value —
        # the latter matters when DS's default grants below 3.
        f(lvl, es.default, ds.default) == lvl and f(lvl, STAR, ds.default) == lvl
        for lvl in _levels_in(qs)
    )
    if stats is not None:
        if fast:
            stats.fast_path += 1
        else:
            stats.full_merges += 1
    if fast:
        # Only non-star ES entries and explicit DS entries can change the
        # receiver: an ES entry at * contributes min(*, ·) = *, which the
        # ⊔ absorbs (the fast-path precondition already guarantees the
        # identity at every level present in QS, and at QS's default for
        # handles QS leaves implicit).
        touched_set = {h for h, _ in es.nonstar_entries()}
        touched_set.update(h for h, _ in ds.iter_entries())
        touched = sorted(touched_set)
        updates: Dict[Handle, Level] = {}
        changed = False
        for handle in touched:
            if stats is not None:
                stats.entries_scanned += 1
            old = qs(handle)
            new = f(old, es(handle), ds(handle))
            updates[handle] = new
            if new != old:
                changed = True
        if not changed:
            if stats is not None:
                stats.chunks_shared += len(qs.chunks)
            return qs
        return sparse_update(qs, updates, stats)

    # Slow path: full pointwise merge (star entries of ES included — with
    # a changed default they can matter).
    entries: Dict[Handle, Level] = {}
    for handle in set(_explicit_handles(qs, es, ds)):
        if stats is not None:
            stats.entries_scanned += 1
        entries[handle] = f(qs(handle), es(handle), ds(handle))
    return _from_entries(entries, new_default, stats, reuse=(qs,))


def raise_receive(
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Compute ``QR ⊔ DR``, sparsely when DR is small (the common case: one
    decontaminate-receive entry per message)."""
    if stats is not None:
        stats.operations += 1
    new_default = max(qr.default, dr.default)
    fast = new_default == qr.default and (
        not qr.chunks or dr.default <= qr.explicit_min
    )
    touched = _explicit_handles(dr)
    if stats is not None:
        if fast:
            stats.fast_path += 1
        else:
            stats.full_merges += 1
    if fast:
        updates: Dict[Handle, Level] = {}
        changed = False
        for handle in touched:
            if stats is not None:
                stats.entries_scanned += 1
            old = qr(handle)
            new = max(old, dr(handle))
            updates[handle] = new
            if new != old:
                changed = True
        if not changed:
            if stats is not None:
                stats.chunks_shared += len(qr.chunks)
            return qr
        return sparse_update(qr, updates, stats)

    entries: Dict[Handle, Level] = {}
    for handle in set(_explicit_handles(qr)) | set(touched):
        if stats is not None:
            stats.entries_scanned += 1
        entries[handle] = max(qr(handle), dr(handle))
    return _from_entries(entries, new_default, stats, reuse=(qr,))


# -- chunk-granular copy-on-write update ------------------------------------------------


def _balanced_runs(
    entries: Sequence[Tuple[Handle, Level]]
) -> List[Tuple[Tuple[Handle, Level], ...]]:
    """Split *entries* into the minimum number of chunk runs, sized evenly."""
    entries = tuple(entries)
    if not entries:
        return []
    n_chunks = -(-len(entries) // CHUNK_CAPACITY)
    base = len(entries) // n_chunks
    extra = len(entries) % n_chunks
    runs: List[Tuple[Tuple[Handle, Level], ...]] = []
    pos = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        runs.append(entries[pos : pos + size])
        pos += size
    return runs


def sparse_update(
    label: ChunkedLabel,
    updates: Dict[Handle, Level],
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Return *label* with ``label(h) = level`` for each update, rewriting
    only the chunks that contain touched handles and sharing the rest.

    The label's default is unchanged; updates equal to the default are
    normalised away (entry removed).
    """
    if not updates:
        return label
    if not label.chunks:
        entries = {h: lvl for h, lvl in updates.items() if lvl != label.default}
        return _from_entries(entries, label.default, stats, reuse=())

    # Route each updated handle to a chunk index: the chunk whose range
    # contains it, else the nearest chunk to its insertion point.
    los = [chunk.lo for chunk in label.chunks]
    per_chunk: Dict[int, Dict[Handle, Level]] = {}
    for handle, level in updates.items():
        idx = bisect_right(los, handle) - 1
        if idx < 0:
            idx = 0
        per_chunk.setdefault(idx, {})[handle] = level

    new_chunks: List[Chunk] = []
    for idx, chunk in enumerate(label.chunks):
        todo = per_chunk.get(idx)
        if todo is None:
            new_chunks.append(chunk)
            if stats is not None:
                stats.chunks_shared += 1
            continue
        merged: List[Tuple[Handle, Level]] = []
        existing = {h: lvl for h, lvl in chunk.entries}
        if stats is not None:
            stats.entries_scanned += len(chunk.entries)
        existing.update(todo)
        for handle in sorted(existing):
            level = existing[handle]
            if level != label.default:
                merged.append((handle, level))
        # Re-chunk this run.  Overflowing runs split *evenly* — a [64, 1]
        # split would leave a near-empty chunk owning half the handle
        # range, and repeated inserts then fragment the label (B-tree
        # median splits, same reason).
        for run in _balanced_runs(merged):
            if run == chunk.entries:
                new_chunks.append(chunk)
                if stats is not None:
                    stats.chunks_shared += 1
            else:
                new_chunks.append(Chunk(run))
                if stats is not None:
                    stats.chunks_allocated += 1
    if stats is not None:
        stats.labels_allocated += 1
    kept = [c for c in new_chunks if len(c)]
    total = sum(len(c) for c in kept)
    if len(kept) > 3 and total < len(kept) * (CHUNK_CAPACITY // 3):
        # Deletions (capability releases) have fragmented the label;
        # rebalance it wholesale.
        entries = []
        for chunk in kept:
            entries.extend(chunk.entries)
        kept = [Chunk(run) for run in _balanced_runs(entries)]
        if stats is not None:
            stats.chunks_allocated += len(kept)
            stats.entries_scanned += total
    return ChunkedLabel(kept, label.default)


def _from_entries(
    entries: Dict[Handle, Level],
    default: Level,
    stats: Optional[OpStats],
    reuse: Tuple[ChunkedLabel, ...] = (),
) -> ChunkedLabel:
    """Build a chunked label from an entries dict, sharing any chunk from
    *reuse* whose run is reproduced verbatim."""
    pool: Dict[Tuple[Tuple[Handle, Level], ...], Chunk] = {}
    for source in reuse:
        for chunk in source.chunks:
            pool.setdefault(chunk.entries, chunk)
    normalised = tuple(
        (h, entries[h]) for h in sorted(entries) if entries[h] != default
    )
    chunks: List[Chunk] = []
    for i in range(0, len(normalised), CHUNK_CAPACITY):
        run = normalised[i : i + CHUNK_CAPACITY]
        shared = pool.get(run)
        if shared is not None:
            chunks.append(shared)
            if stats is not None:
                stats.chunks_shared += 1
        else:
            chunks.append(Chunk(run))
            if stats is not None:
                stats.chunks_allocated += 1
    if stats is not None:
        stats.labels_allocated += 1
    return ChunkedLabel(chunks, default)


# -- reference implementations (used by tests and the ablation bench) ----------------------


def check_send_reference(
    es: Label, qr: Label, dr: Label, v: Label, pr: Label
) -> bool:
    """Naive Figure 4 requirement (1), via the plain Label operators."""
    return es <= ((qr | dr) & v & pr)


# -- the paper's cost model ------------------------------------------------------
#
# The prototype's label operations are linear in the size of their inputs,
# with exactly one family of short-circuits: the per-label min/max level
# hints ("if L2's maximum level is no larger than L1's minimum level, then
# L1 ⊔ L2 = L1 by definition", Section 5.6).  The fused operations above
# are *our* optimisation — the kind the paper lists as future work ("for
# example when most of a label's handle levels are ⋆").  To reproduce
# Figure 9 faithfully, the kernel charges cycles for the work the paper's
# algorithms would do; the functions below compute those entry counts from
# operand sizes in O(1).  The fused ops still execute (the semantics are
# identical and the Python simulation stays fast); only the *bill* models
# the 2005 implementation.  ``KernelConfig(label_cost_mode="fused")`` bills
# the fused counts instead — the ablation ``repro bench --only labelops``
# measures.


class _Approx:
    """(size, min, max) abstraction of a label flowing through the
    modelled operator chain.  Result sizes use max() — the operand handle
    sets overlap almost entirely in practice — and the min/max bounds are
    sound in the direction that matters (they may only *enable* extra
    short-circuits, modelling a competent implementation)."""

    __slots__ = ("size", "lo", "hi")

    def __init__(self, size: int, lo: Level, hi: Level):
        self.size = size
        self.lo = lo
        self.hi = hi

    @classmethod
    def of(cls, label: ChunkedLabel) -> "_Approx":
        return cls(len(label), label.min_level, label.max_level)


def _lub_cost(a: _Approx, b: _Approx) -> Tuple[int, _Approx]:
    """(entries scanned, result) for the paper's a ⊔ b; the min/max hint
    skips the merge when one operand dominates the other."""
    if b.hi <= a.lo:
        return 0, a
    if a.hi <= b.lo:
        return 0, b
    merged = _Approx(max(a.size, b.size), max(a.lo, b.lo), max(a.hi, b.hi))
    return a.size + b.size, merged


def _glb_cost(a: _Approx, b: _Approx) -> Tuple[int, _Approx]:
    if b.lo >= a.hi:
        return 0, a
    if a.lo >= b.hi:
        return 0, b
    merged = _Approx(max(a.size, b.size), min(a.lo, b.lo), min(a.hi, b.hi))
    return a.size + b.size, merged


def paper_cost_check_send(
    es: ChunkedLabel,
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    v: ChunkedLabel,
    pr: ChunkedLabel,
) -> int:
    """Entries the 2005 implementation scans for requirements (1) and (4):
    materialise (QR ⊔ DR) ⊓ V ⊓ pR, then compare ES against it.

    ⊑ of a label against a bound whose minimum dominates the label's
    default only inspects the label's own entries (the same min/max hint
    family as ⊔/⊓)."""
    scanned, rhs = _lub_cost(_Approx.of(qr), _Approx.of(dr))
    cost, rhs = _glb_cost(rhs, _Approx.of(v))
    scanned += cost
    cost, rhs = _glb_cost(rhs, _Approx.of(pr))
    scanned += cost
    # Requirement (4): DR ⊑ pR.
    scanned += len(dr)
    if dr.default > pr.min_level:
        scanned += len(pr)
    # ES ⊑ rhs: always scans ES; scans the rhs only when ES's default is
    # not already bounded by the rhs's minimum.
    scanned += len(es)
    if es.default > rhs.lo:
        scanned += rhs.size
    return scanned


def paper_cost_apply_effects(
    qs: ChunkedLabel,
    es: ChunkedLabel,
    ds: ChunkedLabel,
) -> int:
    """Entries scanned for QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*).

    The stars-only projection has no short-circuit when stars are present
    (the optimisation the paper explicitly defers), so a receiver like
    netd with one ⋆ per user pays O(users) on every delivery."""
    scanned = 0
    if qs.min_level == STAR:
        scanned += len(qs)                       # compute QS* by scanning
        stars = _Approx(len(qs), STAR, L3)
        cost, rhs = _glb_cost(_Approx.of(es), stars)
        scanned += cost
    else:
        rhs = _Approx.of(es)                     # QS* = {3}; ES ⊓ {3} = ES
    cost, t1 = _glb_cost(_Approx.of(qs), _Approx.of(ds))
    scanned += cost
    cost, _ = _lub_cost(t1, rhs)
    scanned += cost
    return scanned


def paper_cost_raise_receive(qr: ChunkedLabel, dr: ChunkedLabel) -> int:
    cost, _ = _lub_cost(_Approx.of(qr), _Approx.of(dr))
    return cost


def apply_send_effects_reference(qs: Label, es: Label, ds: Label) -> Label:
    """Naive Figure 4 send-label effect."""
    return (qs & ds) | (es & qs.stars())


def raise_receive_reference(qr: Label, dr: Label) -> Label:
    return qr | dr
