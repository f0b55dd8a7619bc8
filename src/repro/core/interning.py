"""Label identity by value: wire fingerprints, and the bill of a label-op cache.

Two things in this module name labels by their *value*, never by object:

- :class:`InternTable` hash-conses :class:`~repro.core.chunks.ChunkedLabel`
  instances for the ``wire/v1`` codecs and the ``proofs/v1`` label pool:
  one canonical instance per value, carrying its 64-bit content
  fingerprint (:func:`label_fingerprint`), so a shard can name a label
  to a peer by id once the body has crossed.  Shards share no store;
  labels cross by value.
- :class:`LabelOpCache` prices the three Figure 4 hot operations — the
  :func:`~repro.core.labelops.check_send` verdict,
  :func:`~repro.core.labelops.apply_send_effects` and
  :func:`~repro.core.labelops.raise_receive` — as a kernel with
  hash-consed labels would: it remembers a bounded LRU of *operand
  digests* and reports a hit when it has seen the same (⋆-factored)
  operand values before.  It never answers: every call runs the fused
  operation on the full operands, so the labels of an interning kernel
  are the plain kernel's, and the cache decides only what gets billed.

Exact keys alone would rarely hit on a loaded OKWS site: every accepted
connection grants a fresh port capability, so the labels of netd, the
demux and the workers each carry a churning set of per-connection ``*``
entries on top of a per-user core that does reach a fixed point.  The
keys therefore factor the ``*`` entries out wherever Figure 4 provably
ignores them or carries them through verbatim — the rules for what
counts as a hit, one small theorem each:

T1 (receiver ``*`` immunity).  ``apply_send_effects`` maps every handle
    the receiver holds at ``*`` to ``*`` (``min(*, ·) = *`` in both the
    grant and the contamination term), independent of ES and DS there.
    So the effect is a function of ``QS°`` (QS without its ``*``
    entries) plus the star set, which a factored kernel keeps in O(1):
    the key reads ``QS°``.  ES's own ``*`` entries are inert too when
    reverting each to ES's default changes nothing pointwise, except
    where DS grants ``*`` — a capability *grant*, which joins the star
    set instead; then the key reads ES's core as well.

T2 (``*`` passes checks).  An ES entry at ``*`` can never fail
    ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``.  Stripping it reverts the handle to
    ES's default, which also passes whenever every level of QR, V and pR
    (DR only ever *raises* the bound) is ≥ ES's default: one O(1) test
    on their minima.  Under that side condition the verdict is a pure
    function of the ⋆-free ES.

T3 (``⊔`` absorbs ``*``).  ``max(q, *) = q``, so QR's ``*`` entries
    survive ``QR ⊔ DR`` verbatim when DR's default is ``*``; a DR entry
    *on* a QR star is admissible when it is ≥ QR's default (a taint raise
    punching through a held capability).  The key reads QR's core; DR
    always stays exact.  The same ⊔ serves ``ES = PS ⊔ CS`` at send time.

T4 (fresh-pin abstraction).  The one send T2 rightly refuses — a
    capability send against a pinned-low port label ``pR(u) = 0`` —
    differs per connection only by the fresh handle ``u``.  Label
    operations are equivariant under handle renaming, so when QR and V
    cannot dip below ES's default anywhere and the pin is covered by a
    held ES star, the verdict is a pure function of ES's core, QR, DR, V
    and pR with those pins abstracted to their bare levels.

A key is one integer: the hash of the operation tag and the operands'
value digests (:meth:`~repro.core.chunks.ChunkedLabel.digest`,
``core_digest``, read from their slots once filled), which hash only
ints and tuples, so the hit/miss
sequence is a pure function of the operand stream — the same in every
process, whatever ``PYTHONHASHSEED`` or the cycle collector do.  A
digest collision can only mis-bill, never mis-decide: the decision
always comes from :mod:`repro.core.labelops`.
"""

from __future__ import annotations

import hashlib
import struct
import weakref
from collections import OrderedDict
from itertools import chain
from operator import lt
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core import labelops
from repro.core.chunks import (
    ChunkedLabel, OpStats, _DECODE, _MASK_MIN, _STAR_BIT, pack_chunks, pack_columns, unpack_chunks,
)
from repro.core.handles import HANDLE_SPACE
from repro.core.labels import Label
from repro.core.levels import L3, STAR

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "InternTable",
    "LabelOpCache",
    "check_key",
    "delivery_keys",
    "effects_key",
    "label_body",
    "label_fingerprint",
    "raise_key",
]

#: Default bound on the number of remembered operand keys.
DEFAULT_CACHE_SIZE = 4096


def label_body(label: ChunkedLabel) -> bytes:
    """The bytes :func:`label_fingerprint` hashes, and a full label's
    ``wire/v1`` body: ``<q`` default, then ``<Qq`` (handle, level) per
    entry in chunk order — interleaved from the chunk buffers at C speed."""
    handles, codes = unpack_chunks(label.chunks)
    words = [label.default] * (1 + 2 * len(handles))
    words[1::2] = handles
    words[2::2] = map(_DECODE, codes)
    return struct.pack(f"<{len(words)}q", *words)


def _hash_body(body: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(body, digest_size=8).digest(), "little")


#: A body level's low byte (``*`` is 0xff) → its chunk ``levels`` code.
_CODES = bytes.maketrans(b"\xff\x00\x01\x02\x03", b"\x00\x01\x02\x03\x04")


def _label_from_body(body: bytes) -> ChunkedLabel:
    """The label a canonical :func:`label_body` spells, checked at C speed:
    levels in ⋆..3 and none at the default, handles in the 61-bit range
    and strictly ascending."""
    if len(body) % 16 != 8:
        raise ValueError(f"not a canonical label body: {len(body)} bytes")
    words = struct.unpack(f"<{len(body) // 8}q", body)
    default, handles, levels = words[0], words[1::2], words[2::2]
    if not (
        STAR <= default <= L3
        and default not in levels
        and (not handles or 0 <= handles[0] and handles[-1] < HANDLE_SPACE
             and STAR <= min(levels) and max(levels) <= L3)
        and all(map(lt, handles, handles[1:]))
    ):
        raise ValueError("not a canonical label body")
    return ChunkedLabel(pack_columns(handles, body[16::16].translate(_CODES)), default)


def label_fingerprint(default: int, entries: Iterable[Tuple[int, int]]) -> int:
    """Stable 64-bit content id for a label value: blake2b-64 of its
    :func:`label_body`.

    Derived from the canonical ``(default, sorted entries)`` value —
    identical on every shard regardless of intern order — and what the
    ``wire/v1`` codec ships when a label has already been sent to a peer.
    """
    return _hash_body(label_body(ChunkedLabel(pack_chunks(tuple(entries)), default)))


class InternTable:
    """Hash-conses chunked labels to canonical instances, for the wire.

    ``intern`` is idempotent and one attribute test for a label already
    canonical here.  A label canonical in *another* table is answered by
    value with this table's instance.  Canonical instances, and the
    fingerprint index, are held weakly: a label nothing references dies,
    and takes its fingerprint with it.
    """

    def __init__(self) -> None:
        self._canonical: "weakref.WeakValueDictionary[Tuple[Any, ...], ChunkedLabel]" = (
            weakref.WeakValueDictionary()
        )
        self._by_fingerprint: "weakref.WeakValueDictionary[int, ChunkedLabel]" = (
            weakref.WeakValueDictionary()
        )

    def intern(self, label: ChunkedLabel) -> ChunkedLabel:
        """Return this table's canonical instance for *label*'s value."""
        if label.intern_table is self:
            return label
        key = label.value_key()
        canonical = self._canonical.get(key)
        if canonical is not None:
            return canonical
        if label.intern_table is not None:
            # Canonical in another table, which owns that object: ours is
            # a copy sharing the (immutable) chunks.
            label = ChunkedLabel(label.chunks, label.default)
        label.intern_table = self
        self._canonical[key] = label
        return label

    def intern_label(self, label: Label) -> ChunkedLabel:
        """Intern a plain :class:`~repro.core.labels.Label`."""
        return self.intern(ChunkedLabel.from_label(label))

    def fingerprint(self, label: ChunkedLabel) -> int:
        """The stable cross-process id of *label* (interning it first).

        Memoized on the canonical label; fingerprinted labels become
        resolvable via :meth:`from_wire`.
        """
        label = self.intern(label)
        fp = label.fingerprint
        if fp is None:
            fp = label.fingerprint = _hash_body(label_body(label))
            self._by_fingerprint[fp] = label
        return fp

    def from_wire(self, fingerprint: int, body: Optional[bytes] = None) -> ChunkedLabel:
        """Re-intern a label received over the wire.

        With only a *fingerprint*, resolves a label this table has seen
        (``KeyError`` otherwise — the peer must re-send the body).  A
        *body* (:func:`label_body`) is verified whether or not the
        fingerprint is known: it must hash to *fingerprint* — so under a
        known one it is that label's body — and an unknown one must be
        canonical.  A corrupt or forged body must not poison the table.
        """
        if body is not None:
            if type(body) is not bytes:
                raise ValueError(f"a label body is bytes, not {type(body).__name__}")
            if _hash_body(body) != fingerprint:
                raise ValueError(f"label body does not hash to its fingerprint {fingerprint!r}")
        got = self._by_fingerprint.get(fingerprint)
        if got is not None:
            return got
        if body is None:
            raise KeyError(f"unknown label fingerprint: {fingerprint:#x}")
        label = self.intern(_label_from_body(body))
        if label.fingerprint is None:
            label.fingerprint = fingerprint
            self._by_fingerprint[fingerprint] = label
        return label

    def __len__(self) -> int:
        return len(self._canonical)


# -- the ⋆-factored operand keys ---------------------------------------------------

# Operation tags (first element of every hashed key).
_CHECK = 0
_EFFECTS = 1
_RAISE = 2
_PINNED = 3  # a T4-abstracted pR

#: Largest small-side operand the T1/T3 side conditions will walk; beyond
#: this the key stays exact (both operands huge never happens on the OKWS
#: hot path).
_DISJOINT_LIMIT = 128


def check_key(
    es: ChunkedLabel, qr: ChunkedLabel, dr: ChunkedLabel, v: ChunkedLabel, pr: ChunkedLabel
) -> Tuple[int, bool]:
    """The key of ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` (T2, T4), and whether T4
    abstracted it — such keys name fresh per-connection handles only
    through their levels and are never compiled into proofs."""
    es_key = pr_key = None
    if es.level_mask & _STAR_BIT and es.default != STAR:
        e0 = es.default
        if qr.summary[1] >= e0 and v.summary[1] >= e0:
            if pr.summary[1] >= e0:
                es_key = es.core_digest()
            elif pr.default >= e0 and pr._size <= 8:
                high = []
                lows = []
                for h, lvl in pr.iter_entries():
                    if lvl < e0 and es(h) == STAR:
                        lows.append(lvl)
                    else:
                        high.append((h, lvl))
                if lows:
                    es_key = es.core_digest()
                    pr_key = hash((_PINNED, pr.default, tuple(high), tuple(sorted(lows))))
    key = hash((
        _CHECK,
        es_key or es._digest or es.digest(),
        qr._digest or qr.digest(),
        dr._digest or dr.digest(),
        v._digest or v.digest(),
        pr_key or pr._digest or pr.digest(),
    ))
    return key, pr_key is not None


def effects_key(qs: ChunkedLabel, es: ChunkedLabel, ds: ChunkedLabel) -> int:
    """The key of ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)`` (T1)."""
    es_key = None
    if es.level_mask & _STAR_BIT and es.default != STAR:
        e0 = es.default
        if qs.default == STAR or e0 <= min(qs.default, ds.default):
            # At a handle where ES holds ⋆, stripped and full agree iff QS
            # holds ⋆ there (immunity), DS grants ⋆ there (the grant joins
            # the star set), or ES's default contaminates no further than
            # min(QS, DS) anyway — always, when no non-⋆ level QS or DS
            # holds, explicitly or by default, is below ES's default.  Off
            # QS°'s and DS's explicit handles the defaults decide, which
            # the test above covered.
            if e0 <= min(ds.default, _MASK_MIN[(qs.level_mask | ds.level_mask) & ~_STAR_BIT]):
                es_key = es.core_digest()
            else:
                core = qs.nonstar_entries()
                if len(core) + ds._size <= _DISJOINT_LIMIT:
                    for h, _ in chain(core, ds.iter_entries()):
                        if es(h) == STAR:
                            q, d = qs(h), ds(h)
                            if q != STAR and d != STAR and e0 > min(q, d):
                                break
                    else:
                        es_key = es.core_digest()
    return hash((
        _EFFECTS,
        qs._core_digest or qs.core_digest(),
        es_key or es._digest or es.digest(),
        ds._digest or ds.digest(),
    ))


def raise_key(qr: ChunkedLabel, dr: ChunkedLabel) -> int:
    """The key of ``QR ⊔ DR`` (T3) — also ``ES = PS ⊔ CS`` at send."""
    qr_key = None
    if (
        qr.level_mask & _STAR_BIT
        and qr.default != STAR
        and dr.default == STAR
        and dr._size <= _DISJOINT_LIMIT
    ):
        q0 = qr.default
        for h, lvl in dr.iter_entries() if dr._size else ():
            if lvl < q0 and qr(h) == STAR:
                break
        else:
            qr_key = qr._core_digest or qr.core_digest()
    return hash((_RAISE, qr_key or qr._digest or qr.digest(), dr._digest or dr.digest()))


def delivery_keys(
    es: ChunkedLabel, pl: ChunkedLabel, qr: ChunkedLabel, v: ChunkedLabel,
    dr: ChunkedLabel, qs: ChunkedLabel, ds: ChunkedLabel,
) -> Tuple[int, int, int]:
    """The check, effects and raise keys of one delivery."""
    return check_key(es, qr, dr, v, pl)[0], effects_key(qs, es, ds), raise_key(qr, dr)


class LabelOpCache:
    """The hit/miss bill of the three Figure 4 hot operations.

    A bounded LRU of operand keys (:func:`check_key`, :func:`effects_key`,
    :func:`raise_key`).  Every method runs the fused
    :mod:`repro.core.labelops` operation on the full operands and returns
    ``(result, hit)``.  A hit — a key seen before — runs it with no
    :class:`~repro.core.chunks.OpStats`, and the kernel bills one flat
    ``labelop_cache_hit`` probe.  A miss runs it with the caller's stats
    and writes the operands into the caller's *work* record
    (:class:`repro.kernel.engine.Work`), which the paper cost model bills.
    So ``hits + misses == lookups``, and the operations OpStats recorded
    through this cache equal its misses.  A caller that already keyed the
    operands (an engine probing proof stubs first) passes the *key*.
    """

    def __init__(self, size: int = DEFAULT_CACHE_SIZE) -> None:
        if size <= 0:
            raise ValueError(f"cache size must be positive, got {size}")
        self.size = size
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def __len__(self) -> int:
        return len(self._seen)

    def counters(self) -> Dict[str, int]:
        """Plain-data snapshot for kernel_snapshot / tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._seen),
            "size": self.size,
        }

    def _hit(self, key: int) -> bool:
        """Probe *key*, remembering it on a miss."""
        seen = self._seen
        if key in seen:
            seen.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        seen[key] = None
        if len(seen) > self.size:
            seen.popitem(last=False)
            self.evictions += 1
        return False

    def check_send(
        self,
        es: ChunkedLabel,
        qr: ChunkedLabel,
        dr: ChunkedLabel,
        v: ChunkedLabel,
        pr: ChunkedLabel,
        stats: Optional[OpStats] = None,
        work: Any = None,
        key: Optional[int] = None,
    ) -> Tuple[bool, bool]:
        """``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``, and whether its key was a hit."""
        if self._hit(check_key(es, qr, dr, v, pr)[0] if key is None else key):
            return labelops.check_send(es, qr, dr, v, pr), True
        if work is not None:
            work.check = (es, qr, dr, v, pr)
        return labelops.check_send(es, qr, dr, v, pr, stats), False

    def apply_send_effects(
        self,
        qs: ChunkedLabel,
        es: ChunkedLabel,
        ds: ChunkedLabel,
        stats: Optional[OpStats] = None,
        work: Any = None,
        key: Optional[int] = None,
    ) -> Tuple[ChunkedLabel, bool]:
        """``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)``, and whether its key was a hit."""
        if self._hit(effects_key(qs, es, ds) if key is None else key):
            return labelops.apply_send_effects(qs, es, ds), True
        if work is not None:
            work.effects = (qs, es, ds)
        return labelops.apply_send_effects(qs, es, ds, stats), False

    def raise_receive(
        self,
        qr: ChunkedLabel,
        dr: ChunkedLabel,
        stats: Optional[OpStats] = None,
        work: Any = None,
        key: Optional[int] = None,
    ) -> Tuple[ChunkedLabel, bool]:
        """``QR ⊔ DR``, and whether its key was a hit.  Also serves
        ``ES = PS ⊔ CS`` at send time, PS in the QR position."""
        if self._hit(raise_key(qr, dr) if key is None else key):
            return labelops.raise_receive(qr, dr), True
        if work is not None:
            work.raised = (qr, dr)
        return labelops.raise_receive(qr, dr, stats), False
