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
  the sharing design the paper describes.  :func:`sparse_update` *splices*
  the chunk directory — ``chunks[:i] + fresh + chunks[i + 1:]``, the
  untouched runs copied as slices, with the label's size, level mask and
  lookup index carried forward — so an update to a 6,000-entry label
  costs the touched chunks plus a C-level copy of the directory, not
  three interpreted passes over all ≈ 100 chunks.

Chunks are packed buffers (:mod:`repro.core.chunks`): everything here is
``bisect``, slices and set/bytes operations on ``chunk.handles`` /
``chunk.levels``.  The :class:`~repro.core.chunks.OpStats` a call leaves
behind are *computed* from chunk sizes, not counted by loop iteration;
the cycle model bills from them, so they are part of the contract (the
golden-count test in ``tests/test_labelops.py`` pins them).

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

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.chunks import (
    CHUNK_CAPACITY,
    Chunk,
    ChunkedLabel,
    OpStats,
    level_bit,
    unpack_chunks,
    _ENCODE,
    _STAR_BIT,
)
from repro.core.handles import Handle
from repro.core.levels import ALL_LEVELS, L3, STAR, Level


def _explicit_handles(*labels: ChunkedLabel) -> Set[Handle]:
    """Union of the labels' explicit handles."""
    handles: Set[Handle] = set()
    for label in labels:
        for chunk in label.chunks:
            handles.update(chunk.handles)
    return handles


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

    # ES entries at * can never violate the check (⋆ is the global
    # minimum), so only its non-star entries need inspection — privileged
    # senders like netd carry one * per user and would otherwise make this
    # loop O(users).
    small = _explicit_handles(dr, v, pr)
    if es.level_mask > _STAR_BIT:
        small.update(h for h, _ in es.nonstar_entries())
    for handle in sorted(small) if small else ():
        scanned += 1
        if es(handle) > min(max(qr(handle), dr(handle)), v(handle), pr(handle)):
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
    sender's ``*`` for every handle it lowers or raises.  Fired by the
    label engine's send half and the model checker's ``LabelStore``; DS
    and DR are almost always the ``{3}`` / ``{⋆}`` defaults (two
    comparisons, two empty walks).

    A default below 3 in DS (or above ⋆ in DR) asks for ``*`` at every
    handle it does not name otherwise, so PS's default must be ``*`` and
    only PS's other entries can fail: each one fails where DS or DR asks."""
    if ds.default < L3 or dr.default > STAR:
        if ps.default != STAR:
            return False
        for handle, _ in ps.nonstar_entries():
            if stats is not None:
                stats.entries_scanned += 1
            if ds(handle) < L3 or dr(handle) > STAR:
                return False
        return True
    for handle, level in ds.iter_entries() if ds._size else ():
        if stats is not None:
            stats.entries_scanned += 1
        if level < L3 and ps(handle) != STAR:
            return False
    for handle, level in dr.iter_entries() if dr._size else ():
        if stats is not None:
            stats.entries_scanned += 1
        if level > STAR and ps(handle) != STAR:
            return False
    return True


# -- contamination / decontamination effects ------------------------------------------

#: Figure 4's send-label effect, pointwise, as a table over the 125
#: ``(q, e, d)`` triples: ``max(min(q, d), min(e, * if q == * else 3))`` —
#: contaminate with ES and grant DS, but a receiver's ``*`` entries are
#: immune to contamination.
_EFFECT: Dict[Tuple[Level, Level, Level], Level] = {
    (q, e, d): max(min(q, d), min(e, STAR if q == STAR else L3))
    for q in ALL_LEVELS
    for e in ALL_LEVELS
    for d in ALL_LEVELS
}


@lru_cache(maxsize=None)
def _effect_is_identity(mask: int, q0: Level, e0: Level, d0: Level) -> bool:
    """Whether the effect leaves alone every handle neither ES nor DS
    names non-trivially: the pointwise function must be the identity on
    every level present in QS (explicit *mask* and default *q0*) both for
    ES's default and for an explicit ES ``*`` (a skipped entry — that
    matters when DS's default grants below 3).  4,000 possible keys."""
    present = mask | level_bit(q0)
    return all(
        _EFFECT[lvl, e0, d0] == lvl and _EFFECT[lvl, STAR, d0] == lvl
        for lvl in ALL_LEVELS
        if present & level_bit(lvl)
    )


def apply_send_effects(
    qs: ChunkedLabel,
    es: ChunkedLabel,
    ds: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Compute ``(QS ⊓ DS) ⊔ (ES ⊓ QS*)`` — Figure 4's send-label effect.

    Pointwise this is ``_EFFECT[qs(h), es(h), ds(h)]``.  The fast path
    applies when that function is the identity on every level actually
    present in QS (checked exactly via the level mask) for the *default*
    levels of ES and DS — then only the handles explicit in ES or DS can
    change, and QS's chunks are rewritten copy-on-write at exactly those
    handles.
    """
    fast = _effect_is_identity(qs.level_mask, qs.default, es.default, ds.default)
    if stats is not None:
        stats.operations += 1
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
        touched = _explicit_handles(ds)
        if es.level_mask > _STAR_BIT:
            touched.update(h for h, _ in es.nonstar_entries())
        updates: Dict[Handle, Level] = {}
        changed = False
        for handle in touched:
            old = qs(handle)
            new = updates[handle] = _EFFECT[old, es(handle), ds(handle)]
            if new != old:
                changed = True
        if stats is not None:
            stats.entries_scanned += len(touched)
        if not changed:
            if stats is not None:
                stats.chunks_shared += len(qs.chunks)
            return qs
        return sparse_update(qs, updates, stats)

    # Slow path: full pointwise merge (star entries of ES included — with
    # a changed default they can matter).
    handles = _explicit_handles(qs, es, ds)
    if stats is not None:
        stats.entries_scanned += len(handles)
    entries = {h: _EFFECT[qs(h), es(h), ds(h)] for h in handles}
    new_default = _EFFECT[qs.default, es.default, ds.default]
    return _from_entries(entries, new_default, stats, reuse=(qs,))


def raise_receive(
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Compute ``QR ⊔ DR``, sparsely when DR is small (the common case: one
    decontaminate-receive entry per message)."""
    new_default = max(qr.default, dr.default)
    fast = new_default == qr.default and (
        not qr.chunks or dr.default <= qr.explicit_min
    )
    if stats is not None:
        stats.operations += 1
        if fast:
            stats.fast_path += 1
        else:
            stats.full_merges += 1
    if fast:
        updates: Dict[Handle, Level] = {}
        changed = False
        for handle, level in dr.iter_entries() if dr._size else ():
            old = qr(handle)
            new = updates[handle] = max(old, level)
            if new != old:
                changed = True
        if stats is not None:
            stats.entries_scanned += len(updates)
        if not changed:
            if stats is not None:
                stats.chunks_shared += len(qr.chunks)
            return qr
        return sparse_update(qr, updates, stats)

    handles = _explicit_handles(qr, dr)
    if stats is not None:
        stats.entries_scanned += len(handles)
    entries = {h: max(qr(h), dr(h)) for h in handles}
    return _from_entries(entries, new_default, stats, reuse=(qr,))


# -- chunk-granular copy-on-write update ------------------------------------------------


def _balanced_runs(entries: Sequence) -> List[Sequence]:
    """Split *entries* (any sliceable run: handles, level bytes, pairs)
    into the minimum number of chunk runs, sized evenly."""
    if len(entries) <= CHUNK_CAPACITY:
        return [entries] if entries else []
    n_chunks = -(-len(entries) // CHUNK_CAPACITY)
    base, extra = divmod(len(entries), n_chunks)
    runs: List[Sequence] = []
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
    chunks, default = label.chunks, label.default
    if not chunks:
        return _from_entries(updates, default, stats, reuse=())

    # Route by one walk over the sorted handles: the lowest pending one
    # picks its chunk (the one whose range contains it, else the nearest
    # to its insertion point) and takes every pending handle below the
    # next chunk's ``lo`` with it — two bisects per touched chunk.
    # Splice: the runs of untouched chunks between the routed ones are
    # copied as slices of the directory (and of its index), never visited.
    los = label._los
    pending = sorted(updates)
    todo = len(pending)
    default_code = default + 1
    spliced: List[Chunk] = []
    spliced_los: List[Handle] = []
    size = len(label)
    scanned = allocated = reshared = gone = new = done = start = routed = 0
    while start < todo:
        idx = max(bisect_right(los, pending[start]) - 1, 0)
        stop = todo
        if idx + 1 < len(los):
            stop = bisect_left(pending, los[idx + 1], start)
        routed += 1
        spliced += chunks[done:idx]
        spliced_los += los[done:idx]
        done = idx + 1
        chunk = chunks[idx]
        scanned += chunk.size
        gone |= chunk.level_mask
        handles, levels = list(chunk.handles), bytearray(chunk.levels)
        for handle in pending[start:stop]:
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
        start = stop
        size += len(handles) - chunk.size
        # Re-chunk this run.  Overflowing runs split *evenly* — a [64, 1]
        # split would leave a near-empty chunk owning half the handle
        # range, and repeated inserts then fragment the label (B-tree
        # median splits, same reason).  A run that comes out as it went
        # in shares the old chunk.
        for run in zip(_balanced_runs(tuple(handles)), _balanced_runs(bytes(levels))):
            if run[0] == chunk.handles and run[1] == chunk.levels:
                reshared += 1
            else:
                chunk = Chunk.packed(*run)
                allocated += 1
            spliced.append(chunk)
            spliced_los.append(chunk.lo)
            new |= chunk.level_mask
    spliced += chunks[done:]
    spliced_los += los[done:]
    if stats is not None:
        stats.chunks_shared += len(chunks) - routed + reshared
        stats.entries_scanned += scanned
        stats.chunks_allocated += allocated
        stats.labels_allocated += 1

    if len(spliced) > 3 and size < len(spliced) * (CHUNK_CAPACITY // 3):
        # Deletions (capability releases) have fragmented the label;
        # rebalance it wholesale.
        handles, levels = unpack_chunks(spliced)
        rebalanced = [
            Chunk.packed(*run)
            for run in zip(_balanced_runs(handles), _balanced_runs(levels))
        ]
        if stats is not None:
            stats.chunks_allocated += len(rebalanced)
            stats.entries_scanned += size
        return ChunkedLabel(rebalanced, default)

    # Carry the mask forward.  It is exact: a level some rewritten chunk
    # held and no chunk replacing it holds may have left the label
    # altogether, so only then is it recomputed from the directory.
    if gone & ~new:
        mask = 0
        for chunk in spliced:
            mask |= chunk.level_mask
    else:
        mask = label.level_mask | new
    return ChunkedLabel.carried(tuple(spliced), default, tuple(spliced_los), size, mask)


def _from_entries(
    entries: Dict[Handle, Level],
    default: Level,
    stats: Optional[OpStats],
    reuse: Tuple[ChunkedLabel, ...] = (),
) -> ChunkedLabel:
    """Build a chunked label from an entries dict, sharing any chunk from
    *reuse* whose run is reproduced verbatim."""
    pool: Dict[Tuple[Tuple[Handle, ...], bytes], Chunk] = {}
    for source in reuse:
        for chunk in source.chunks:
            pool.setdefault((chunk.handles, chunk.levels), chunk)
    if default in entries.values():
        entries = {h: lvl for h, lvl in entries.items() if lvl != default}
    handles = tuple(sorted(entries))
    levels = bytes(map(_ENCODE, map(entries.__getitem__, handles)))
    chunks: List[Chunk] = []
    for i in range(0, len(handles), CHUNK_CAPACITY):
        run = handles[i : i + CHUNK_CAPACITY], levels[i : i + CHUNK_CAPACITY]
        shared = pool.get(run)
        if shared is not None:
            chunks.append(shared)
            if stats is not None:
                stats.chunks_shared += 1
        else:
            chunks.append(Chunk.packed(*run))
            if stats is not None:
                stats.chunks_allocated += 1
    if stats is not None:
        stats.labels_allocated += 1
    return ChunkedLabel(chunks, default)


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


# An operand enters the modelled operator chain as its ``(size, min level,
# max level)`` (cached on it: ``ChunkedLabel.summary``), and the chain is
# integer arithmetic on those triples.  ``a ⊔ b`` scans nothing when the
# min/max hint says one operand dominates (``b_hi <= a_lo`` gives ``a``,
# ``a_hi <= b_lo`` gives ``b``) and ``a_size + b_size`` entries otherwise;
# ``⊓`` is its dual.  Result sizes use max() — the operand handle sets
# overlap almost entirely in practice — and the min/max bounds are sound in
# the direction that matters (they may only *enable* extra short-circuits,
# modelling a competent implementation).  ``tests/test_labelops.py`` holds
# each function equal to the composition of one-operator reference costs.


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
    size, lo, hi = qr.summary
    d_size, d_lo, d_hi = dr.summary
    pr_summary = pr.summary
    # Requirement (4), DR ⊑ pR, and ES ⊑ rhs always scan their left side.
    scanned = d_size + es._size
    if dr.default > pr_summary[1]:
        scanned += pr_summary[0]
    if d_hi > lo:                                # QR ⊔ DR
        if hi <= d_lo:
            size, lo, hi = d_size, d_lo, d_hi
        else:
            scanned += size + d_size
            size, lo, hi = max(size, d_size), max(lo, d_lo), max(hi, d_hi)
    for b_size, b_lo, b_hi in (v.summary, pr_summary):    # ⊓ V, then ⊓ pR
        if b_lo < hi:
            if lo >= b_hi:
                size, lo, hi = b_size, b_lo, b_hi
            else:
                scanned += size + b_size
                size, lo, hi = max(size, b_size), min(lo, b_lo), min(hi, b_hi)
    # The rhs is scanned only when ES's default is not already bounded by
    # its minimum.
    if es.default > lo:
        scanned += size
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
    q_size, q_lo, q_hi = qs.summary
    r_size, r_lo, r_hi = es.summary              # QS* = {3}; ES ⊓ {3} = ES
    scanned = 0
    if q_lo == STAR:
        scanned = q_size                         # compute QS* by scanning
        if r_lo == L3:                           # ES ⊓ QS*, QS* = (|QS|, ⋆, 3)
            r_size, r_lo = q_size, STAR
        elif r_hi > STAR:
            scanned += r_size + q_size
            r_size, r_lo = max(r_size, q_size), STAR
    d_size, d_lo, d_hi = ds.summary
    if d_lo < q_hi:                              # QS ⊓ DS
        if q_lo >= d_hi:
            q_size, q_lo, q_hi = d_size, d_lo, d_hi
        else:
            scanned += q_size + d_size
            q_size, q_lo, q_hi = max(q_size, d_size), min(q_lo, d_lo), min(q_hi, d_hi)
    if r_hi > q_lo and q_hi > r_lo:              # … ⊔ …
        scanned += q_size + r_size
    return scanned


def paper_cost_raise_receive(qr: ChunkedLabel, dr: ChunkedLabel) -> int:
    q_size, q_lo, q_hi = qr.summary
    d_size, d_lo, d_hi = dr.summary
    return q_size + d_size if d_hi > q_lo and q_hi > d_lo else 0
