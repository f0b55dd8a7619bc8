"""Hash-consed labels and the kernel's label-operation cache.

A series of label operations accompanies every IPC, and the asbcheck
model checker (``repro.analysis.check``) already demonstrated offline
that interning labels and memoizing the Figure 4 firings turns minutes
of label algebra into sub-second runs.  This module brings the same two
ideas to the *live* kernel:

- :class:`InternTable` hash-conses :class:`~repro.core.chunks.ChunkedLabel`
  instances: labels equal as values (same default, handles and levels,
  however each came to be chunked) share one canonical instance carrying a
  process-unique integer ``intern_id``.  Labels are immutable, so a canonical instance is safe
  to key caches on forever: a given id can never come to mean a
  different label.
- :class:`LabelOpCache` is a bounded LRU over interned ids for the three
  Figure 4 operations on the IPC hot path — the :func:`~repro.core.
  labelops.check_send` delivery verdict, the :func:`~repro.core.labelops.
  apply_send_effects` contamination result, and the :func:`~repro.core.
  labelops.raise_receive` result.  Interned ids make the cache key a
  tuple of small ints, and immutability makes the cache *invalidation
  free*: entries are only ever evicted for space, never for correctness.

Exact keys alone are not enough on a loaded OKWS site: every accepted
connection grants a fresh port capability, so the labels of netd, the
demux and the workers each carry a churning set of per-connection ``*``
entries on top of a per-user core that does reach a fixed point.  An
exact-key cache therefore misses on precisely the operations that scan
the big labels.  The fix is **⋆-factored keys**, justified by three
little theorems about Figure 4 (each checked against the reference
operators by ``tests/test_conformance.py``):

T1 (receiver ``*`` immunity).  ``apply_send_effects`` maps every handle
    the receiver holds at ``*`` to ``*`` (``min(*, ·) = *`` in both the
    grant and the contamination term), independent of ES and DS there.
    So ``effects(QS, ES, DS) = overlay(effects(QS°, ES, DS), stars(QS))``
    unconditionally, where ``QS°`` drops QS's explicit ``*`` entries and
    ``overlay`` writes them back into the result.

T2 (``*`` passes checks).  An ES entry at ``*`` can never fail
    ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``.  Stripping it reverts the handle to
    ES's default, which also passes whenever every level on the
    right-hand side's lowering components (QR, V, pR — DR only ever
    *raises* the bound) is ≥ ES's default: one O(1) test on their
    minima.  Under that side condition the verdict is a pure function of
    the ⋆-free ES, so the check may key on it.  Sends that rely on a
    ``*`` capability against a pinned-low port label (``pR(uC) = 0``)
    fail the side condition and are left to T4 or their exact key.

T3 (``⊔`` absorbs ``*``).  ``max(q, *) = q``, so QR's ``*`` entries
    survive ``QR ⊔ DR`` verbatim and can be overlaid back onto a result
    computed on QR's core — provided DR's default is ``*``.  A DR
    explicit entry landing *on* a QR star is admissible when it is
    ≥ QR's default: the full join gives DR(h) there and the core join
    ``max(QR.default, DR(h))`` reproduces it, so the overlay simply
    skips that handle (a taint raise punching through a held ``*``).
    DR itself always stays exact in the key: dropping one of *its*
    ``*`` entries would revert that handle to DR's default, a different
    join wherever the default exceeds QR.  This factoring is what
    serves ``ES = PS ⊔ CS`` at send time, where PS is the privileged
    sender's star-heavy label and CS a tiny contamination with a ``*``
    default.

T4 (fresh-pin abstraction).  The one send T2 rightly refuses — a
    capability send against a pinned-low port label — churns its key
    anyway, because the *port label* is a fresh intern per connection.
    But every label operation is equivariant under handle renaming, and
    when QR and V cannot dip below ES's default anywhere, a pR explicit
    entry below ES's default that is covered by a held ES star is exempt
    from the check while its handle appears nowhere else the verdict can
    see.  The verdict is then a pure function of (ES's core, QR, DR, V,
    pR with those pins abstracted to their bare levels), so the cache
    keys on that — and the per-connection conn-port handle drops out of
    the key entirely.  The miss still computes on the exact full
    operands; only the *key* abstracts.

In the steady state of a loaded server the ⋆-free cores on the hot path
reach a per-user fixed point, so nearly every delivery becomes three LRU
probes plus an O(live connections) star overlay instead of three
O(users) label merges.  The overlay itself is an artifact of the
simulation: a kernel that adopted this design would *store* labels in
factored form and never materialise the union (DESIGN.md §11).

A table belongs to one kernel (a shard runtime, a proof compilation):
"canonical" is a fact about a *(label, table)* pair, recorded in the
label's ``intern_table`` slot, and labels cross between tables only by
value.  The table holds its canonical labels through weak references, so
inside a kernel a label lives exactly as long as something references it
and everything dies with the kernel.  Ids are issued from a module-wide
counter all the same: should two tables ever be mixed up, their labels'
ids differ and id-keyed lookups miss instead of answering wrongly.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import weakref
from collections import OrderedDict
from typing import Any, Dict, Iterable, NamedTuple, Optional, Set, Tuple

from repro.core import labelops
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.labels import Label
from repro.core.levels import STAR

__all__ = [
    "CheckPlan",
    "EffectsPlan",
    "InternTable",
    "LabelOpCache",
    "RaisePlan",
    "apply_effects_tail",
    "apply_raise_tail",
    "check_plan",
    "effects_plan",
    "label_fingerprint",
    "overlay_stars",
    "raise_plan",
    "DEFAULT_CACHE_SIZE",
]

#: Default bound on the number of memoized operation results.
DEFAULT_CACHE_SIZE = 4096

#: Process-wide id source: ids stay unique even across distinct tables,
#: so a cache can never be confused by labels interned elsewhere.
_ids = itertools.count()

def label_fingerprint(default: int, entries: Iterable[Tuple[int, int]]) -> int:
    """Stable 64-bit content id for a label value.

    ``intern_id`` is process-local (issued from an in-process counter), so
    it cannot name a label to another shard.  The fingerprint is derived
    from the canonical ``(default, sorted entries)`` value instead —
    identical on every shard regardless of intern order — and is what the
    ``wire/v1`` codec ships when a label has already been sent to a peer.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<q", default))
    for handle, level in entries:
        h.update(struct.pack("<Qq", handle, level))
    return int.from_bytes(h.digest(), "little")


#: Largest small-side operand the ⋆-factoring side conditions will walk
#: when testing star-set disjointness; beyond this the op falls back to
#: exact keys (both operands huge never happens on the OKWS hot path).
_DISJOINT_LIMIT = 128


class InternTable:
    """Hash-conses chunked labels to canonical, id-carrying instances.

    ``intern`` is idempotent and cheap for labels already canonical here
    (one attribute test); a first-time intern builds the value key from
    the label's packed buffers (a one-chunk label's key is the chunk's own
    two objects; a larger one costs one concatenation).  Canonical instances are
    held weakly: a label nothing references is collectable, and a later
    intern of the same value simply issues a fresh id.

    The table also memoizes each interned label's ⋆-free core (its
    :meth:`~repro.core.chunks.ChunkedLabel.without_stars` projection,
    interned) in a small LRU — cores are what the operation cache keys
    on, and privileged labels are re-split on every message.
    """

    #: Bound on the star-core memo (value = 4 × the default op cache).
    CORE_MEMO_SIZE = 4 * DEFAULT_CACHE_SIZE

    def __init__(self) -> None:
        self._canonical: "weakref.WeakValueDictionary[Tuple[Any, ...], ChunkedLabel]" = (
            weakref.WeakValueDictionary()
        )
        self._cores: "OrderedDict[int, ChunkedLabel]" = OrderedDict()
        #: fingerprint → canonical label, weak like ``_canonical`` so a
        #: shard that stops talking about a label lets it die.
        self._by_fingerprint: "weakref.WeakValueDictionary[int, ChunkedLabel]" = (
            weakref.WeakValueDictionary()
        )
        #: Labels given a fresh id by this table (intern misses).
        self.interned = 0
        #: Calls that had to build a key (label not already canonical).
        self.lookups = 0

    def intern(self, label: ChunkedLabel) -> ChunkedLabel:
        """Return this table's canonical instance for *label*'s value."""
        if label.intern_table is self:
            return label
        self.lookups += 1
        key = label.value_key()
        canonical = self._canonical.get(key)
        if canonical is not None:
            return canonical
        if label.intern_table is not None:
            # Canonical in another table, which owns that object and its
            # id: ours is a copy sharing the (immutable) chunks.
            label = ChunkedLabel(label.chunks, label.default)
        label.intern_id = next(_ids)
        label.intern_table = self
        self._canonical[key] = label
        self.interned += 1
        return label

    def intern_label(self, label: Label) -> ChunkedLabel:
        """Intern a plain :class:`~repro.core.labels.Label`."""
        return self.intern(ChunkedLabel.from_label(label))

    # -- cross-process identity (wire/v1) -----------------------------------

    def fingerprint(self, label: ChunkedLabel) -> int:
        """The stable cross-process id of *label* (interning it first).

        Memoized on the canonical label (so it dies with it); the first
        call walks the entries once.  Fingerprinted labels become
        resolvable via :meth:`from_wire`, so a shard can name a label to a
        peer by id alone once the full body has been shipped.
        """
        label = self.intern(label)
        fp = label.fingerprint
        if fp is None:
            fp = label.fingerprint = label_fingerprint(
                label.default, label.iter_entries()
            )
            self._by_fingerprint[fp] = label
        return fp

    def from_wire(
        self,
        fingerprint: int,
        default: Optional[int] = None,
        entries: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> ChunkedLabel:
        """Re-intern a label received over the wire.

        With only a *fingerprint*, resolves a label this table has seen
        before (raises ``KeyError`` otherwise — the peer must re-send the
        body).  With a body, builds + interns the label, verifies the
        fingerprint actually matches the content (a corrupt or forged id
        must not poison the table), and registers it for future id-only
        sends.
        """
        got = self._by_fingerprint.get(fingerprint)
        if got is not None:
            return got
        if default is None or entries is None:
            raise KeyError(f"unknown label fingerprint: {fingerprint:#x}")
        label = self.intern(
            ChunkedLabel.from_label(Label(dict(entries), default))
        )
        actual = self.fingerprint(label)
        if actual != fingerprint:
            raise ValueError(
                f"label fingerprint mismatch: wire said {fingerprint:#x}, "
                f"content hashes to {actual:#x}"
            )
        return label

    def star_core(self, label: ChunkedLabel) -> ChunkedLabel:
        """The interned ⋆-free core of an interned *label* (memoized).

        Returns *label* itself when it has no explicit ``*`` entries (or
        a ``*`` default, where explicit stars cannot canonically occur).
        """
        core = label.without_stars()
        if core is label:
            return label
        memo = self._cores.get(label.intern_id)
        if memo is not None:
            self._cores.move_to_end(label.intern_id)
            return memo
        core = self.intern(core)
        self._cores[label.intern_id] = core
        if len(self._cores) > self.CORE_MEMO_SIZE:
            self._cores.popitem(last=False)
        return core

    def __len__(self) -> int:
        return len(self._canonical)


#: Distinguishes "not cached" from a cached ``False`` verdict.
_MISSING: Any = object()

# Operation tags (first element of every cache key).
_CHECK = 0
_EFFECTS = 1
_RAISE = 2


class CheckPlan(NamedTuple):
    """The ⋆-factored key and exec operands for one ``check_send``.

    ``key`` is what a memo keys the verdict on; ``exec_ops`` is the exact
    operand tuple :func:`repro.core.labelops.check_send` must run on when
    the memo misses (⋆-stripped wherever a factoring applied, full
    otherwise).  ``abstracted`` marks a T4 pin-abstracted key — such keys
    are per-cache artifacts (they name fresh per-connection handles only
    through their levels) and are never compiled into proofs.
    """

    key: Tuple[Any, ...]
    exec_ops: Tuple[ChunkedLabel, ...]
    abstracted: bool


class EffectsPlan(NamedTuple):
    """Key, exec operands, and overlay recipe for ``apply_send_effects``."""

    key: Tuple[Any, ...]
    exec_ops: Tuple[ChunkedLabel, ...]
    qs: ChunkedLabel
    qs_core: ChunkedLabel
    grants: Optional[Set[int]]


class RaisePlan(NamedTuple):
    """Key, exec operands, and overlay recipe for ``raise_receive``."""

    key: Tuple[Any, ...]
    exec_ops: Tuple[ChunkedLabel, ...]
    qr: ChunkedLabel
    qr_core: ChunkedLabel
    masked: Optional[Set[int]]


def overlay_stars(
    table: "InternTable",
    core_result: ChunkedLabel,
    source: ChunkedLabel,
    skip: Optional[Set[int]] = None,
    extra: Optional[Set[int]] = None,
) -> ChunkedLabel:
    """Write *source*'s explicit ``*`` entries back into a result that
    was computed on its ⋆-free core (minus the handles in *skip*, where
    the other operand legitimately overrode the star; plus the handles in
    *extra* — capability grants the stripped operands could not express).

    Deliberately billed to nobody (no OpStats): a kernel that adopted
    the factored representation would *store* ``(core, star set)`` pairs
    and maintain the star set in O(1) at grant/drop time — the
    materialised union only exists so the simulation's labels stay
    bit-comparable with the uncached kernel's (DESIGN.md §11).
    """
    stars = dict.fromkeys(source.star_handles(), STAR)
    for h in skip or ():
        stars.pop(h, None)
    if extra:
        stars.update(dict.fromkeys(extra, STAR))
    return table.intern(labelops.sparse_update(core_result, stars, None))


def check_plan(
    table: "InternTable",
    es: ChunkedLabel,
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    v: ChunkedLabel,
    pr: ChunkedLabel,
) -> CheckPlan:
    """Plan one memoized ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` verdict.

    Interns the operands and applies the T2 star-strip and T4 pin
    abstraction from the module docstring.  Shared by the
    :class:`LabelOpCache`, the proof compiler, and the kernel's
    :class:`~repro.kernel.elide.VerifiedFlowTable`, so a key computed
    offline names exactly the same verdict the live cache would.
    """
    intern = table.intern
    es, qr, dr = intern(es), intern(qr), intern(dr)
    v, pr = intern(v), intern(pr)
    # T2: an ES entry at ⋆ always passes; stripping it reverts the
    # handle to ES's default, which passes too iff the bound
    # min(max(QR, DR), V, pR) stays ≥ that default at the handle.  So
    # the verdict is a pure function of the ⋆-free ES whenever nothing
    # on the right-hand side dips below ES's default anywhere — one O(1)
    # test on the operands' minima.  A capability send against a
    # pinned-low port label (pR(uC) = 0) genuinely depends on the ⋆ and
    # fails it: T4 below keys it, or it is checked on its exact key.
    es_key = es          # key component for the ES position
    exec_es = es         # what labelops runs on if we miss
    pr_key: Any = pr.intern_id
    abstracted = False
    if es.level_mask & 1 and es.default != STAR:  # bit 0 == STAR present
        e0 = es.default
        qr_ok = min(qr.default, qr.explicit_min) >= e0
        v_ok = min(v.default, v.explicit_min) >= e0
        # Interned whether or not it ends up in the key: the core memo keeps
        # it alive, and which labels stay alive decides later intern ids,
        # cache hits and so billed cycles (BENCH_fig8).
        core = table.star_core(es)
        if qr_ok and v_ok and min(pr.default, pr.explicit_min) >= e0:
            es_key = exec_es = core
        elif qr_ok and v_ok and pr.default >= e0 and len(pr) <= 8:
            # T4: the capability send that T2 refuses.  When only pR's
            # explicit entries can push the bound below ES's default, a
            # low entry covered by a held ES star (the pinned-port pin,
            # pR(uC) = 0 against ⋆(uC)) is exempt from the check and its
            # fresh handle appears nowhere else the verdict can see — so
            # the verdict is invariant under renaming it.  Key on pR with
            # those pins abstracted to their bare levels (plus ES's
            # core); the miss still computes on the exact full operands.
            high = []
            lows = []
            for h, lvl in pr.iter_entries():
                if lvl < e0 and es(h) == STAR:
                    lows.append(lvl)
                else:
                    high.append((h, lvl))
            if lows:
                es_key = core
                pr_key = (pr.default, tuple(high), tuple(sorted(lows)))
                abstracted = True
    key = (
        _CHECK,
        es_key.intern_id,
        qr.intern_id,
        dr.intern_id,
        v.intern_id,
        pr_key,
    )
    return CheckPlan(key, (exec_es, qr, dr, v, pr), abstracted)


def effects_plan(
    table: "InternTable",
    qs: ChunkedLabel,
    es: ChunkedLabel,
    ds: ChunkedLabel,
) -> EffectsPlan:
    """Plan one memoized ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)`` application."""
    intern = table.intern
    qs, es, ds = intern(qs), intern(es), intern(ds)
    # T1: the receiver's ⋆ entries come back out as ⋆ no matter what
    # ES and DS say there, so compute on the core and overlay.
    qs_core = table.star_core(qs)
    # ES's ⋆ entries are inert too, provided reverting each ⋆ handle
    # to ES's default changes nothing pointwise: at a handle h with
    # ES(h) = *, stripped-vs-full agree iff QS(h) = * (immunity) or
    # ES's default would contaminate past min(QS(h), DS(h)) anyway.
    # The one other case — DS(h) = * too, the capability *grant*,
    # where the full op yields * but the stripped one would
    # contaminate — is factored out instead: the handle joins the
    # star overlay, and the stripped computation runs on what is
    # usually an empty core.  Tested at the defaults for the
    # implicit handles and pointwise at every explicit entry of QS°
    # and DS.
    es_key = es
    grants: Optional[Set[int]] = None
    if es.level_mask & 1 and es.default != STAR:  # bit 0 == STAR present
        e0 = es.default
        safe = qs.default == STAR or e0 <= min(qs.default, ds.default)
        if safe and len(qs_core) + len(ds) <= _DISJOINT_LIMIT:
            ok = True
            for label in (qs_core, ds):
                for h, _ in label.iter_entries():
                    if es(h) != STAR or qs(h) == STAR:
                        continue
                    if ds(h) == STAR:
                        if grants is None:
                            grants = set()
                        grants.add(h)
                    elif e0 > min(qs(h), ds(h)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                es_key = table.star_core(es)
            else:
                grants = None
    key = (_EFFECTS, qs_core.intern_id, es_key.intern_id, ds.intern_id)
    return EffectsPlan(key, (qs_core, es_key, ds), qs, qs_core, grants)


def raise_plan(
    table: "InternTable",
    qr: ChunkedLabel,
    dr: ChunkedLabel,
) -> RaisePlan:
    """Plan one memoized ``QR ⊔ DR`` application."""
    intern = table.intern
    qr, dr = intern(qr), intern(dr)
    # T3: QR's ⋆ entries survive the ⊔ verbatim (max(*, DR(h)) = * when
    # DR is * there) and can be overlaid back, provided DR's default is
    # *.  A DR explicit entry *on* a QR star is still fine when it is
    # ≥ QR's default: there the full join yields DR(h), and the core
    # join max(QR.default, DR(h)) reproduces exactly that — the overlay
    # just has to skip the handle instead of forcing it back to ⋆ (this
    # is how a contamination raise punches through a held capability,
    # e.g. netd's ES picking up a taint it holds the ⋆ for).  DR stays
    # exact in the key: dropping one of *its* ⋆ entries would revert
    # that handle to DR's default, which is a different join whenever
    # the default exceeds QR at the handle.
    qr_core = qr
    masked: Optional[Set[int]] = None
    if (
        qr.level_mask & 1
        and qr.default != STAR
        and dr.default == STAR
        and len(dr) <= _DISJOINT_LIMIT
    ):
        q0 = qr.default
        ok = True
        for h, lvl in dr.iter_entries():
            if qr(h) == STAR:
                if lvl >= q0:
                    if masked is None:
                        masked = set()
                    masked.add(h)
                else:
                    ok = False
                    break
        if ok:
            qr_core = table.star_core(qr)
        else:
            masked = None
    key = (_RAISE, qr_core.intern_id, dr.intern_id)
    return RaisePlan(key, (qr_core, dr), qr, qr_core, masked)


def apply_effects_tail(
    table: "InternTable", plan: EffectsPlan, core_result: ChunkedLabel
) -> ChunkedLabel:
    """Rebuild the full ``apply_send_effects`` result from its core."""
    if plan.grants is None:
        if plan.qs_core is plan.qs:
            return core_result
        if core_result is plan.qs_core:
            # Identity effect on the core ⇒ identity on the full label.
            return plan.qs
    return overlay_stars(table, core_result, plan.qs, None, plan.grants)


def apply_raise_tail(
    table: "InternTable", plan: RaisePlan, core_result: ChunkedLabel
) -> ChunkedLabel:
    """Rebuild the full ``raise_receive`` result from its core."""
    if plan.qr_core is plan.qr:
        return core_result
    if plan.masked is None and core_result is plan.qr_core:
        return plan.qr
    return overlay_stars(table, core_result, plan.qr, plan.masked)


class LabelOpCache:
    """Bounded LRU memo for the three Figure 4 hot operations.

    Keys are tuples of interned label ids — with star-heavy operands
    replaced by their ⋆-free cores wherever the factoring theorems in the
    module docstring apply, so per-connection capability churn does not
    defeat the memo.  Values are either a verdict (``check_send``) or a
    canonical interned result label; results computed on cores are
    rebuilt by overlaying the receiver's star set back (a sparse update
    over the live-connection handles, not an O(users) merge).  Because
    interned labels are immutable, a hit is always exact — there is no
    invalidation protocol, only LRU eviction for space.

    Every public method returns ``(result, hit)`` so the kernel can bill
    a flat probe cost for hits and the full operation cost for misses.
    On a miss the underlying :mod:`repro.core.labelops` operation runs
    with the caller's :class:`~repro.core.chunks.OpStats`, so executed
    work stays visible to the cycle model and the metrics — the
    reconciliation invariant is ``hits + misses == lookups`` and
    "operations recorded by OpStats through this cache == misses".  A
    miss also writes the operand tuple it actually ran on (⋆-stripped
    wherever a factoring applied) into the caller's *work* record
    (:class:`repro.kernel.engine.Work`), because the paper cost model
    bills the executed operation, not the full operands.
    """

    def __init__(self, table: InternTable, size: int = DEFAULT_CACHE_SIZE) -> None:
        if size <= 0:
            raise ValueError(f"cache size must be positive, got {size}")
        self.size = size
        self.table = table
        self._memo: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Strong reference to the operands of the newest entry.  The intern
        #: table is weak: operands that were temporaries would otherwise be
        #: collected and re-interned under new ids before the very next
        #: probe of the same values — a guaranteed re-miss.
        self._pin: Optional[Tuple[ChunkedLabel, ...]] = None

    # -- bookkeeping -----------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def __len__(self) -> int:
        return len(self._memo)

    def counters(self) -> Dict[str, int]:
        """Plain-data snapshot for kernel_snapshot / tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._memo),
            "size": self.size,
        }

    def _probe(self, key: Tuple[Any, ...]) -> Any:
        got = self._memo.get(key, _MISSING)
        if got is not _MISSING:
            self._memo.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return got

    def _store(self, key: Tuple[Any, ...], value: Any, ops: Tuple[Any, ...]) -> None:
        self._memo[key] = value
        self._pin = ops
        if len(self._memo) > self.size:
            self._memo.popitem(last=False)
            self.evictions += 1

    # -- the three Figure 4 hot operations ------------------------------------
    #
    # Each method delegates its ⋆-factored key construction to the
    # module-level plan helpers (shared with the proof compiler and the
    # kernel's VerifiedFlowTable), probes the LRU, and on a miss runs the
    # reference operation on the plan's exec operands.

    def check_send(
        self,
        es: ChunkedLabel,
        qr: ChunkedLabel,
        dr: ChunkedLabel,
        v: ChunkedLabel,
        pr: ChunkedLabel,
        stats: Optional[OpStats] = None,
        work: Any = None,
    ) -> Tuple[bool, bool]:
        """Memoized ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` verdict."""
        plan = check_plan(self.table, es, qr, dr, v, pr)
        got = self._probe(plan.key)
        if got is not _MISSING:
            return got, True
        verdict = labelops.check_send(*plan.exec_ops, stats)
        self._store(plan.key, verdict, plan.exec_ops)
        if work is not None:
            work.check = plan.exec_ops
        return verdict, False

    def apply_send_effects(
        self,
        qs: ChunkedLabel,
        es: ChunkedLabel,
        ds: ChunkedLabel,
        stats: Optional[OpStats] = None,
        work: Any = None,
    ) -> Tuple[ChunkedLabel, bool]:
        """Memoized ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)`` result (canonical)."""
        plan = effects_plan(self.table, qs, es, ds)
        got = self._probe(plan.key)
        if got is not _MISSING:
            core_result, hit = got, True
        else:
            core_result = self.table.intern(
                labelops.apply_send_effects(*plan.exec_ops, stats)
            )
            self._store(plan.key, core_result, plan.exec_ops)
            if work is not None:
                work.effects = plan.exec_ops
            hit = False
        return apply_effects_tail(self.table, plan, core_result), hit

    def raise_receive(
        self,
        qr: ChunkedLabel,
        dr: ChunkedLabel,
        stats: Optional[OpStats] = None,
        work: Any = None,
    ) -> Tuple[ChunkedLabel, bool]:
        """Memoized ``QR ⊔ DR`` result (canonical interned label).

        Also serves ``ES = PS ⊔ CS`` at send time — the same ⊔, with PS
        in the QR position carrying the sender's ``*`` capabilities.
        """
        plan = raise_plan(self.table, qr, dr)
        got = self._probe(plan.key)
        if got is not _MISSING:
            core_result, hit = got, True
        else:
            core_result = self.table.intern(
                labelops.raise_receive(*plan.exec_ops, stats)
            )
            self._store(plan.key, core_result, plan.exec_ops)
            if work is not None:
                work.raised = plan.exec_ops
            hit = False
        return apply_raise_tail(self.table, plan, core_result), hit
