"""The label-engine seam: one executable Figure 4, features composed around it.

Everything the kernel decides about a message goes through two calls::

    send_join(ps, cs, stats)                        → (es, work)
    deliver(port, es, ds, v, dr, pl, qs, qr, stats) → Verdict

``send_join`` is ``ES = PS ⊔ CS``; ``deliver`` is requirements (4) and (1)
followed by the two effects, computed from the pre-effect labels and
*returned*, never applied — labels are immutable, so an engine touches no
kernel state, and ``Kernel._sys_send`` / ``Kernel._try_deliver`` own the
drop log, rights landing and observability once, for every engine.

:class:`Figure4Engine` is the flow itself, over either the fused
:mod:`repro.core.labelops` operations or the ⋆-factored
:class:`~repro.core.interning.LabelOpCache` (DESIGN.md §11).
:class:`ElidedEngine` puts the proof-compiled
:class:`~repro.kernel.elide.VerifiedFlowTable` in front of it (§15) and
:class:`SanitizingEngine` wraps a differential check around whichever is
underneath (§7); ``Kernel.__init__`` stacks them once from ``KernelConfig``.

No engine charges the clock.  Each call returns a :class:`Work` record —
which of the three hot operations actually executed and on which operands
(``None`` = a cache or stub hit answered instead) — and :func:`bill` turns
``(work, stats)`` into cycles as a pure function.

The hot operations are always reached through their owner at call time
(``labelops.check_send``, ``self.ops.check_send``,
``self.flows.plan_deliver``), never through a name bound at import or
construction, so profilers and tests that patch those boundaries see every
call.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

from repro.core import labelops
from repro.core.chunks import ChunkedLabel, OpStats
from repro.kernel.clock import CostModel
from repro.kernel.errors import DROP_LABEL_CHECK, DROP_PORT_LABEL

__all__ = [
    "ElidedEngine", "Figure4Engine", "LOCAL", "SanitizingEngine", "Verdict", "Work", "bill",
]


class Work:
    """What one send or one delivery actually executed.

    ``check`` / ``effects`` / ``raised`` hold the operand tuple the
    corresponding Figure 4 operation is billed on (``raised`` is the ``⊔``:
    ``ES = PS ⊔ CS`` at send, ``QR ⊔ DR`` at delivery), or ``None`` when a
    cache or stub hit answered instead or the flow never got that far.
    ``hits`` counts label-op cache hits, ``stub`` marks a verified-flow
    stub hit (``first_use``: the first for its key), and ``scan`` is the
    requirement (2)/(3) privilege walk the kernel adds at send.
    """

    __slots__ = (
        "delivery", "stub", "first_use", "hits", "scan", "check", "effects", "raised"
    )

    def __init__(
        self, delivery: bool = False, stub: bool = False, first_use: bool = False
    ) -> None:
        self.delivery = delivery
        self.stub = stub
        self.first_use = first_use
        self.hits = self.scan = 0
        self.check = self.effects = self.raised = None  # Tuple[ChunkedLabel, ...]


#: Label work outside send/deliver (handle and port creation,
#: change_label): no Figure 4 operation, only what OpStats recorded.
LOCAL = Work()


class Verdict(NamedTuple):
    """A delivery decision: ``drop`` is a ``DROP_*`` reason, or ``None``
    for delivered — then with the receiver's post-effect labels."""

    drop: Optional[str]
    new_qs: Optional[ChunkedLabel]
    new_qr: Optional[ChunkedLabel]
    work: Work


def bill(work: Work, stats: OpStats, cost: CostModel, mode: str) -> int:
    """KERNEL_IPC cycles for one send's or delivery's label work.

    Structural costs (op dispatch, chunk skips, label/chunk allocation,
    chunk sharing) are billed from the executed
    operations in both modes, and so are the flat probes:
    ``labelop_cache_hit`` per cache hit, ``elide_stub_hit`` per stub hit.
    A delivery also pays its base here, because the base depends on the
    outcome: a stub hit takes the verified fastpath
    (``elide_deliver_base``) instead of ``recv_base``.

    Entry scans differ by *mode*.  ``"paper"`` bills the 2005 algorithms'
    linear scans over the operands each executed operation ran on (plus
    ``work.scan``); ``"fused"`` bills the (much smaller) counts the fused
    implementation recorded in *stats*.
    """
    probes = cost.labelop_cache_hit * work.hits
    if work.stub:
        probes += cost.elide_stub_hit
    if work.delivery:
        probes += cost.elide_deliver_base if work.stub else cost.recv_base
    cycles = (
        probes
        + cost.label_op_base * stats.operations
        + cost.chunk_skip * stats.chunks_skipped
        + cost.label_alloc * stats.labels_allocated
        + cost.chunk_alloc * stats.chunks_allocated
        + cost.chunk_share * stats.chunks_shared
    )
    if mode != "paper":
        return cycles + cost.label_entry * stats.entries_scanned
    modeled = work.scan
    if work.check is not None:
        modeled += labelops.paper_cost_check_send(*work.check)
    if work.effects is not None:
        modeled += labelops.paper_cost_apply_effects(*work.effects)
    if work.raised is not None:
        modeled += labelops.paper_cost_raise_receive(*work.raised)
    return cycles + int(cost.label_entry_scan * modeled)


class _Uncached:
    """:mod:`labelops` in :class:`LabelOpCache`'s calling convention:
    every call executes, on the full operands, and is never a hit."""

    def check_send(self, es, qr, dr, v, pl, stats, work):
        work.check = (es, qr, dr, v, pl)
        return labelops.check_send(es, qr, dr, v, pl, stats), False

    def apply_send_effects(self, qs, es, ds, stats, work):
        work.effects = (qs, es, ds)
        return labelops.apply_send_effects(qs, es, ds, stats), False

    def raise_receive(self, qr, dr, stats, work):
        work.raised = (qr, dr)
        return labelops.raise_receive(qr, dr, stats), False


class Figure4Engine:
    """Figure 4, once.  Without a *cache* the operations are the fused
    :mod:`labelops`; with one they are id-keyed LRU probes — the cache
    interns its operands and returns canonical results, a miss records
    the (⋆-stripped) operands it executed on, a hit records nothing and
    is billed as a flat probe."""

    def __init__(self, cache: Any = None) -> None:
        self.ops = cache if cache is not None else _Uncached()
        self.table = cache.table if cache is not None else None

    def canon(self, label: ChunkedLabel) -> ChunkedLabel:
        """The form kernel-resident labels are stored in: interned when
        the operations are keyed on intern ids, as is otherwise."""
        return label if self.table is None else self.table.intern(label)

    def send_join(
        self, ps: ChunkedLabel, cs: ChunkedLabel, stats: OpStats,
        sender: str = "", port: int = 0,
    ) -> Tuple[ChunkedLabel, Work]:
        # ES = PS ⊔ CS.  Contamination needs no privilege (Section 5.2).
        work = Work()
        es, hit = self.ops.raise_receive(ps, cs, stats, work)
        if hit:
            work.hits = 1
        return es, work

    def deliver(
        self, port: int, es: ChunkedLabel, ds: ChunkedLabel, v: ChunkedLabel,
        dr: ChunkedLabel, pl: ChunkedLabel, qs: ChunkedLabel, qr: ChunkedLabel,
        stats: OpStats, elidable: bool = True, sender: str = "", receiver: str = "",
    ) -> Verdict:
        ops = self.ops
        work = Work(True)
        # Requirement (4): DR ⊑ pR (never cached: not a Figure 4 hot op,
        # and almost always the trivial ⊥ ⊑ pR fast path).  The paper's
        # check materialises its right-hand side before it can reject
        # anything, so this drop bills the whole check, full operands.
        if not dr.leq(pl, stats):
            work.check = (es, qr, dr, v, pl)
            return Verdict(DROP_PORT_LABEL, None, None, work)
        # Requirement (1): ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR.
        ok, hit = ops.check_send(es, qr, dr, v, pl, stats, work)
        if hit:
            work.hits += 1
        if not ok:
            return Verdict(DROP_LABEL_CHECK, None, None, work)
        # Effects, both from the pre-effect labels.
        new_qs, hit = ops.apply_send_effects(qs, es, ds, stats, work)
        if hit:
            work.hits += 1
        new_qr, hit = ops.raise_receive(qr, dr, stats, work)
        if hit:
            work.hits += 1
        return Verdict(None, new_qs, new_qr, work)


class ElidedEngine:
    """Verified-flow stubs in front of *inner* (the interned engine).

    A stub hit means asbcheck proved this exact (port, label-values)
    instance always-allowed: both requirements and both effects are
    already decided, so the verdict is the precomputed post-labels and
    the work record is just "one stub probe".  Any miss — or a
    quarantined table — is the inner engine's call, unchanged.
    """

    def __init__(self, flows: Any, inner: Figure4Engine) -> None:
        self.flows = flows
        self.inner = inner
        self.canon = inner.canon

    def send_join(
        self, ps: ChunkedLabel, cs: ChunkedLabel, stats: OpStats,
        sender: str = "", port: int = 0,
    ) -> Tuple[ChunkedLabel, Work]:
        # Only the join is proven; the requirement (2)/(3) walk still
        # runs live in the kernel — it guards the decontamination
        # privilege, not ES.
        es = self.flows.plan_send(ps, cs)
        if es is not None:
            return es, Work(stub=True)
        return self.inner.send_join(ps, cs, stats)

    def deliver(
        self, port: int, es: ChunkedLabel, ds: ChunkedLabel, v: ChunkedLabel,
        dr: ChunkedLabel, pl: ChunkedLabel, qs: ChunkedLabel, qr: ChunkedLabel,
        stats: OpStats, elidable: bool = True, sender: str = "", receiver: str = "",
    ) -> Verdict:
        # Not *elidable*: transfer-bearing messages (receive-right passage
        # is a topology change the proofs cannot speak to) and cross-shard
        # ingress (proofs are per-shard; a peer's labels are re-checked).
        if elidable:
            hit = self.flows.plan_deliver(port, es, pl, qr, v, dr, qs, ds)
            if hit is not None:
                work = Work(True, True, hit.first_use)
                return Verdict(None, hit.new_qs, hit.new_qr, work)
        return self.inner.deliver(port, es, ds, v, dr, pl, qs, qr, stats)


class SanitizingEngine:
    """Differential decorator: replays *inner*'s answers through the
    naive ``Label`` operators (:mod:`repro.analysis.sanitizer`).

    With ``period`` = N only every Nth opportunity — counted across sends
    and deliveries, so the sampled subset is a pure function of the IPC
    sequence — is replayed; N = 1 replays every IPC.  The first use of
    every verified-flow stub is replayed regardless, so a corrupted
    effect delta is flagged before it can repeat, and a violation on a
    stub-decided answer quarantines the whole table: fail closed to the
    full Figure 4 path for the rest of the run.
    """

    def __init__(self, inner: Any, sanitizer: Any, period: int, flows: Any) -> None:
        self.inner = inner
        self.sanitizer = sanitizer
        self.period = period
        self.flows = flows
        self.canon = inner.canon
        self._tick = 0

    def _due(self) -> bool:
        self._tick = (self._tick + 1) % self.period
        return self._tick == 0

    def _fail_closed(self, work: Work, seen: int, what: str, port: int) -> None:
        if work.stub and self.sanitizer.total > seen:
            self.flows.quarantine(f"elided {what} diverged on {port:#x}")

    def send_join(
        self, ps: ChunkedLabel, cs: ChunkedLabel, stats: OpStats,
        sender: str = "", port: int = 0,
    ) -> Tuple[ChunkedLabel, Work]:
        es, work = self.inner.send_join(ps, cs, stats)
        if self._due():
            seen = self.sanitizer.total
            try:
                self.sanitizer.check_effective_send(sender, port, ps, cs, es)
            finally:
                self._fail_closed(work, seen, "send", port)
        return es, work

    def deliver(
        self, port: int, es: ChunkedLabel, ds: ChunkedLabel, v: ChunkedLabel,
        dr: ChunkedLabel, pl: ChunkedLabel, qs: ChunkedLabel, qr: ChunkedLabel,
        stats: OpStats, elidable: bool = True, sender: str = "", receiver: str = "",
    ) -> Verdict:
        verdict = self.inner.deliver(port, es, ds, v, dr, pl, qs, qr, stats, elidable)
        drop, new_qs, new_qr, work = verdict
        if self._due() or work.first_use:
            seen = self.sanitizer.total
            try:
                snapshot = self.sanitizer.before_deliver(es, ds, v, dr, pl, qs, qr)
                self.sanitizer.after_deliver(
                    sender, receiver, port, drop, new_qs, new_qr, snapshot
                )
            finally:
                self._fail_closed(work, seen, "delivery", port)
        return verdict
