"""Runtime IFC sanitizer: differential checking of the fused label paths.

The kernel's hot paths (:mod:`repro.core.labelops`) are fused,
sparsity-aware implementations of the Figure 4 operations; the naive
:class:`~repro.core.labels.Label` operators are the executable
specification.  With the sanitizer enabled
(``KernelConfig(sanitize=True)``, ``python -m repro run --sanitize``, or
the ``REPRO_SANITIZE=1`` environment variable) every IPC is re-evaluated
through the naive operators and the two answers are compared:

- the delivery verdict of ``check_send`` must equal
  ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` (and requirement (4) ``DR ⊑ pR``)
  computed on plain Labels, and a drop must name the requirement that
  failed first;
- the send-label effect must equal ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆)``
  (:func:`expected_send_label`: the same function, evaluated only at
  the handles where it can move);
- the receive-label effect must equal ``QR ← QR ⊔ DR`` exactly;
- monotonicity invariants must hold independently of the reference:
  absent a decontaminating ``DS`` the send label only ever rises, and
  the receive label only ever rises.

Disagreements are recorded as structured :class:`Violation` records
(surfaced through :class:`repro.sim.trace.FlowTracer` transcripts) and,
in strict mode (the default), raised as :class:`SanitizerViolation` —
any violation means a label-engine bug, never a program bug, so failing
loudly is the point.

The hooks below take labels, not kernel objects: they are driven by the
:class:`repro.kernel.engine.SanitizingEngine` decorator at the label-engine
seam, which owns the sampling period.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, List, Optional

from repro.core.chunks import ChunkedLabel
from repro.core.labels import DEFAULT_DECONTAMINATE_SEND, Label
from repro.core.levels import ALL_LEVELS, L3, STAR, Level
from repro.kernel.errors import DROP_LABEL_CHECK, DROP_PORT_LABEL, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


class SanitizerViolation(SimulationError):
    """Raised in strict mode when fused and naive label math disagree."""


#: Violation kinds.
EFFECTIVE_SEND_MISMATCH = "effective-send-mismatch"
CHECK_MISMATCH = "check-mismatch"
DROP_REASON_MISMATCH = "drop-reason-mismatch"
SEND_EFFECT_MISMATCH = "send-effect-mismatch"
RECEIVE_EFFECT_MISMATCH = "receive-effect-mismatch"
SEND_LABEL_LOWERED = "send-label-lowered"
RECEIVE_LABEL_LOWERED = "receive-label-lowered"


# -- the send effect, where it can move -------------------------------------------


def send_effect(q: Level, e: Level, d: Level) -> Level:
    """``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆)`` at one handle, from its three levels."""
    return max(min(q, d), min(e, STAR if q == STAR else L3))


#: ``(e, d)`` → the levels ``q`` that ``send_effect(q, e, d)`` leaves as
#: they are.
_FIXED = {
    (e, d): frozenset(q for q in ALL_LEVELS if send_effect(q, e, d) == q)
    for e in ALL_LEVELS
    for d in ALL_LEVELS
}


def composed_send_effect(qs: Label, es: Label, ds: Label) -> Label:
    """The send effect as Figure 4 writes it, whole labels through the
    naive operators."""
    return (qs & ds) | (es & qs.stars())


def expected_send_label(qs: Label, es: Label, ds: Label) -> Label:
    """The send effect, visiting only the handles where it can move.

    The effect is :func:`send_effect` at every handle, and QS holds only
    the *levels* it names explicitly plus its default.  A handle neither
    ES nor DS names sees ``send_effect(q, ES.default, DS.default)``: when
    that fixes every level QS holds, such a handle keeps its level, and so
    does the default.  A handle ES names at a level ``x`` (and DS does not)
    sees ``send_effect(q, x, DS.default)``: when that fixes every level QS
    holds too, ``x`` is inert (``⋆`` always is under ``DS = {3}``).  What
    is left to visit is DS's handles and ES's handles at levels that are
    not inert.  Should the defaults move QS, the effect is computed whole.
    """
    levels = qs.explicit_levels()
    levels.add(qs.default)
    d = ds.default
    if not levels <= _FIXED[es.default, d]:
        return composed_send_effect(qs, es, ds)
    moving = {x for x in es.explicit_levels() if not levels <= _FIXED[x, d]}
    f = send_effect
    return qs.with_entries(
        {
            h: f(qs(h), es(h), ds(h))
            for h in chain(ds.handles(), es.handles_at(moving) if moving else ())
        }
    )


@dataclass(frozen=True)
class Violation:
    """One disagreement between the fused path and the specification."""

    seq: int
    kind: str
    sender: str
    receiver: str
    port: int
    detail: str

    def format(self) -> str:
        return (
            f"SANITIZER[{self.kind}] #{self.seq} "
            f"{self.sender} => {self.receiver} port={self.port:#x}: {self.detail}"
        )


@dataclass
class DeliverySnapshot:
    """Pre-delivery state + the naive prediction of what must happen:
    ``expected_drop`` is the ``DROP_*`` reason, ``None`` to deliver."""

    qs_before: Label
    qr_before: Label
    es: Label
    ds: Label
    expected_drop: Optional[str]
    expected_qs: Optional[Label]
    expected_qr: Optional[Label]


class LabelSanitizer:
    """Cross-checks every IPC against the naive Label operators.

    ``total`` counts every violation exactly (and numbers them);
    ``violations`` keeps the newest: past :data:`LIMIT` records the oldest
    half goes, as in :class:`~repro.kernel.errors.DropLog`.  Only a
    non-strict run (chaos campaigns, asbsched) can get that far.
    """

    LIMIT = 10_000

    def __init__(self, kernel: "Kernel", strict: bool = True):
        self.kernel = kernel
        self.strict = strict
        self.violations: List[Violation] = []
        self.total = 0
        self.checked_sends = 0
        self.checked_deliveries = 0

    # -- recording ----------------------------------------------------------------

    def _record(
        self, kind: str, sender: str, receiver: str, port: int, detail: str
    ) -> None:
        self.total += 1
        violation = Violation(self.total, kind, sender, receiver, port, detail)
        self.violations.append(violation)
        if len(self.violations) > self.LIMIT:
            del self.violations[: self.LIMIT // 2]
        self.kernel.debug_log("sanitizer", violation.format())
        if self.strict:
            raise SanitizerViolation(violation.format())

    # -- send-time hook (ES = PS ⊔ CS) ---------------------------------------------

    def check_effective_send(
        self,
        sender: str,
        port: int,
        ps: ChunkedLabel,
        cs: ChunkedLabel,
        es: ChunkedLabel,
    ) -> None:
        self.checked_sends += 1
        expected = ps.to_label() | cs.to_label()
        actual = es.to_label()
        if actual != expected:
            self._record(
                EFFECTIVE_SEND_MISMATCH,
                sender,
                "<send>",
                port,
                f"fused ES = PS ⊔ CS produced {actual!r}, naive gives {expected!r}",
            )

    # -- delivery hooks ------------------------------------------------------------

    def before_deliver(
        self,
        es: ChunkedLabel,
        ds: ChunkedLabel,
        v: ChunkedLabel,
        dr: ChunkedLabel,
        pl: ChunkedLabel,
        qs: ChunkedLabel,
        qr: ChunkedLabel,
    ) -> DeliverySnapshot:
        """The naive prediction for one delivery.  Labels are immutable, so
        "before" is a property of the arguments, not of when this runs."""
        qs, qr = qs.to_label(), qr.to_label()
        es, ds, v = es.to_label(), ds.to_label(), v.to_label()
        dr, pr = dr.to_label(), pl.to_label()
        # Figure 4 requirements (4), then (1), on plain labels; QR ⊔ DR is
        # also the receive-label effect, so it is computed once.
        raised = qr | dr
        if not dr <= pr:
            drop: Optional[str] = DROP_PORT_LABEL
        elif not es <= (raised & v & pr):
            drop = DROP_LABEL_CHECK
        else:
            drop = None
        return DeliverySnapshot(
            qs_before=qs,
            qr_before=qr,
            es=es,
            ds=ds,
            expected_drop=drop,
            expected_qs=expected_send_label(qs, es, ds) if drop is None else None,
            expected_qr=raised if drop is None else None,
        )

    def after_deliver(
        self,
        sender: str,
        receiver: str,
        port: int,
        drop: Optional[str],
        new_qs: Optional[ChunkedLabel],
        new_qr: Optional[ChunkedLabel],
        snapshot: DeliverySnapshot,
    ) -> None:
        """Compare the engine's verdict (its ``DROP_*`` reason, ``None`` to
        deliver) and post-effect labels (``None`` for a drop) against
        *snapshot*."""
        self.checked_deliveries += 1
        expected = snapshot.expected_drop
        if (drop is None) != (expected is None):
            self._record(
                CHECK_MISMATCH,
                sender,
                receiver,
                port,
                f"fused delivery verdict {drop is None}, naive Figure 4 check "
                f"says {expected is None} "
                f"(ES={snapshot.es!r}, QR={snapshot.qr_before!r})",
            )
            return
        if drop is not None:
            if drop != expected:
                self._record(
                    DROP_REASON_MISMATCH,
                    sender,
                    receiver,
                    port,
                    f"fused path dropped for {drop!r}, naive Figure 4 drops for "
                    f"{expected!r} (ES={snapshot.es!r}, QR={snapshot.qr_before!r})",
                )
            return
        qs_after = new_qs.to_label()
        qr_after = new_qr.to_label()
        if snapshot.expected_qs is not None and qs_after != snapshot.expected_qs:
            self._record(
                SEND_EFFECT_MISMATCH,
                sender,
                receiver,
                port,
                f"QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆): fused {qs_after!r}, "
                f"naive {snapshot.expected_qs!r}",
            )
        if snapshot.expected_qr is not None and qr_after != snapshot.expected_qr:
            self._record(
                RECEIVE_EFFECT_MISMATCH,
                sender,
                receiver,
                port,
                f"QR ← QR ⊔ DR: fused {qr_after!r}, naive {snapshot.expected_qr!r}",
            )
        # Monotonicity invariants, independent of the reference computation.
        if snapshot.ds == DEFAULT_DECONTAMINATE_SEND and not snapshot.qs_before <= qs_after:
            self._record(
                SEND_LABEL_LOWERED,
                sender,
                receiver,
                port,
                f"send label fell without a decontaminating DS: "
                f"{snapshot.qs_before!r} → {qs_after!r}",
            )
        if not snapshot.qr_before <= qr_after:
            self._record(
                RECEIVE_LABEL_LOWERED,
                sender,
                receiver,
                port,
                f"receive label fell on delivery: "
                f"{snapshot.qr_before!r} → {qr_after!r}",
            )

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> str:
        return (
            f"sanitizer: {self.checked_sends} sends and "
            f"{self.checked_deliveries} deliveries cross-checked, "
            f"{self.total} violations"
        )
