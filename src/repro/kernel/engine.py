"""The label-engine seam: one executable Figure 4, features composed around it.

Everything the kernel decides about a message goes through two calls::

    send_join(ps, cs, ds, dr, stats)                → (drop, es, work)
    deliver(port, es, ds, v, dr, pl, qs, qr, stats) → Verdict

``send_join`` is Figure 4's send half: ``ES = PS ⊔ CS`` and requirements
(2) and (3), the decontamination privilege; ``deliver`` is requirements
(4) and (1) followed by the two effects, computed from the pre-effect
labels and *returned*, never applied — labels are immutable, so an engine
touches no kernel state, and ``Kernel._sys_send`` / ``Kernel._try_deliver``
own the drop log, rights transfer and landing, and observability once, for
every engine.  A drop is a ``DROP_*`` reason, ``None`` to go on.

:class:`Figure4Engine` is the flow itself, and computes every label
with the fused :mod:`repro.core.labelops` operations on the full
operands whatever the config; the optional layers change only the bill:
the ⋆-factored :class:`~repro.core.interning.LabelOpCache` prices its
operations (DESIGN.md §11), and the proof-compiled
:class:`~repro.kernel.elide.VerifiedFlowTable` is probed before them
(§15) — only for the joins and the delivery; the privilege walk always
runs live.  :class:`SanitizingEngine` wraps a differential check around
both halves (§7); ``Kernel.__init__`` builds the stack once from
``KernelConfig``.

No engine charges the clock.  Each call returns a :class:`Work` record —
which of the three hot operations is billed as executed and on which
operands (``None`` = billed as a cache or stub hit) — and :func:`bill`
turns ``(work, stats)`` into cycles as a pure function.

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
from repro.core.interning import delivery_keys
from repro.kernel.clock import CostModel
from repro.kernel.errors import DROP_DECONT_PRIVILEGE, DROP_LABEL_CHECK, DROP_PORT_LABEL

__all__ = ["Figure4Engine", "LOCAL", "SanitizingEngine", "Verdict", "Work", "bill"]


class Work:
    """What one send's or one delivery's label work is billed as.

    ``check`` / ``effects`` / ``raised`` hold the operand tuple the
    corresponding Figure 4 operation is billed on (``raised`` is the ``⊔``:
    ``ES = PS ⊔ CS`` at send, ``QR ⊔ DR`` at delivery), or ``None`` when it
    is billed as a cache or stub hit or the flow never got that far.
    ``hits`` counts label-op cache hits, ``stub`` marks a verified-flow
    stub hit, and ``scan`` is the requirement (2)/(3) privilege walk over
    DS and DR at send.
    """

    __slots__ = ("delivery", "stub", "hits", "scan", "check", "effects", "raised")

    def __init__(self, delivery: bool = False, stub: bool = False) -> None:
        self.delivery = delivery
        self.stub = stub
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

    def check_send(self, es, qr, dr, v, pl, stats, work, key=None):
        work.check = (es, qr, dr, v, pl)
        return labelops.check_send(es, qr, dr, v, pl, stats), False

    def apply_send_effects(self, qs, es, ds, stats, work, key=None):
        work.effects = (qs, es, ds)
        return labelops.apply_send_effects(qs, es, ds, stats), False

    def raise_receive(self, qr, dr, stats, work, key=None):
        work.raised = (qr, dr)
        return labelops.raise_receive(qr, dr, stats), False


#: What an unkeyed delivery passes for its three operand keys.
_NO_KEYS = (None, None, None)


class Figure4Engine:
    """Figure 4, once, over the fused :mod:`labelops`.

    With a *cache* each operation also probes its operand key: a miss
    records its operands for the bill, a hit records nothing and is
    billed as a flat probe.  With *flows* (a verified-flow table, which
    needs the cache) a send or delivery is first probed against the
    proofs: a stub hit comes back with Figure 4's post-labels, computed
    unbilled, and its work record is just "one stub probe"; a miss —
    or a quarantined table — takes the flow below, its operand keys
    computed once for both probes.
    """

    def __init__(self, cache: Any = None, flows: Any = None) -> None:
        self.ops = cache if cache is not None else _Uncached()
        self.flows = flows

    def send_join(
        self, ps: ChunkedLabel, cs: ChunkedLabel, ds: ChunkedLabel, dr: ChunkedLabel,
        stats: OpStats, sender: str = "", port: int = 0,
    ) -> Tuple[Optional[str], ChunkedLabel, Work]:
        # ES = PS ⊔ CS.  Contamination needs no privilege (Section 5.2).
        # Only the join is ever proven or cached.
        es = self.flows.plan_send(ps, cs) if self.flows is not None else None
        if es is not None:
            work = Work(stub=True)
        else:
            work = Work()
            es, hit = self.ops.raise_receive(ps, cs, stats, work)
            if hit:
                work.hits = 1
        # Requirements (2) and (3) run live on every send — no cache or
        # proof ever stands in for the decontamination privilege — so
        # their walk over DS and DR is always modelled.
        work.scan = ds._size + dr._size
        if labelops.decontamination_privileged(ps, ds, dr, stats):
            return None, es, work
        return DROP_DECONT_PRIVILEGE, es, work

    def deliver(
        self, port: int, es: ChunkedLabel, ds: ChunkedLabel, v: ChunkedLabel,
        dr: ChunkedLabel, pl: ChunkedLabel, qs: ChunkedLabel, qr: ChunkedLabel,
        stats: OpStats, elidable: bool = True, sender: str = "", receiver: str = "",
    ) -> Verdict:
        ops = self.ops
        keys = _NO_KEYS
        # Not *elidable*: cross-shard ingress (proofs are per shard; a
        # peer's labels are re-checked).
        if self.flows is not None and elidable:
            keys = delivery_keys(es, pl, qr, v, dr, qs, ds)
            hit = self.flows.plan_deliver(port, es, pl, qr, v, dr, qs, ds, keys)
            if hit is not None:
                return Verdict(None, hit[0], hit[1], Work(True, True))
        work = Work(True)
        # Requirement (4): DR ⊑ pR (never cached: not a Figure 4 hot op,
        # and almost always the trivial ⊥ ⊑ pR fast path).  The paper's
        # check materialises its right-hand side before it can reject
        # anything, so this drop bills the whole check, full operands.
        if not dr.leq(pl, stats):
            work.check = (es, qr, dr, v, pl)
            return Verdict(DROP_PORT_LABEL, None, None, work)
        # Requirement (1): ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR.
        ok, hit = ops.check_send(es, qr, dr, v, pl, stats, work, keys[0])
        if hit:
            work.hits += 1
        if not ok:
            return Verdict(DROP_LABEL_CHECK, None, None, work)
        # Effects, both from the pre-effect labels.
        new_qs, hit = ops.apply_send_effects(qs, es, ds, stats, work, keys[1])
        if hit:
            work.hits += 1
        new_qr, hit = ops.raise_receive(qr, dr, stats, work, keys[2])
        if hit:
            work.hits += 1
        return Verdict(None, new_qs, new_qr, work)


class SanitizingEngine:
    """Differential decorator: replays *inner*'s answers through the
    naive ``Label`` operators (:mod:`repro.analysis.sanitizer`).

    With ``period`` = N only every Nth opportunity — counted across sends
    and deliveries, so the sampled subset is a pure function of the IPC
    sequence — is replayed; N = 1 replays every IPC.
    """

    def __init__(self, inner: Any, sanitizer: Any, period: int) -> None:
        self.inner = inner
        self.sanitizer = sanitizer
        self.period = period
        self._tick = 0

    def _due(self) -> bool:
        self._tick = (self._tick + 1) % self.period
        return self._tick == 0

    def send_join(
        self, ps: ChunkedLabel, cs: ChunkedLabel, ds: ChunkedLabel, dr: ChunkedLabel,
        stats: OpStats, sender: str = "", port: int = 0,
    ) -> Tuple[Optional[str], ChunkedLabel, Work]:
        drop, es, work = self.inner.send_join(ps, cs, ds, dr, stats)
        if self._due():
            self.sanitizer.check_effective_send(sender, port, ps, cs, ds, dr, drop, es)
        return drop, es, work

    def deliver(
        self, port: int, es: ChunkedLabel, ds: ChunkedLabel, v: ChunkedLabel,
        dr: ChunkedLabel, pl: ChunkedLabel, qs: ChunkedLabel, qr: ChunkedLabel,
        stats: OpStats, elidable: bool = True, sender: str = "", receiver: str = "",
    ) -> Verdict:
        verdict = self.inner.deliver(port, es, ds, v, dr, pl, qs, qr, stats, elidable)
        if self._due():
            snapshot = self.sanitizer.before_deliver(es, ds, v, dr, pl, qs, qr)
            drop, new_qs, new_qr, _ = verdict
            self.sanitizer.after_deliver(sender, receiver, port, drop, new_qs, new_qr, snapshot)
        return verdict
