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
  computed on plain Labels;
- the send-label effect must equal ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆)``;
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
seam, which owns the sampling period, the forced first-use replay of
verified-flow stubs and the fail-closed quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.chunks import ChunkedLabel
from repro.core.labels import DEFAULT_DECONTAMINATE_SEND, Label
from repro.kernel.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


class SanitizerViolation(SimulationError):
    """Raised in strict mode when fused and naive label math disagree."""


#: Violation kinds.
EFFECTIVE_SEND_MISMATCH = "effective-send-mismatch"
CHECK_MISMATCH = "check-mismatch"
SEND_EFFECT_MISMATCH = "send-effect-mismatch"
RECEIVE_EFFECT_MISMATCH = "receive-effect-mismatch"
SEND_LABEL_LOWERED = "send-label-lowered"
RECEIVE_LABEL_LOWERED = "receive-label-lowered"


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
    """Pre-delivery state + the naive prediction of what must happen."""

    qs_before: Label
    qr_before: Label
    es: Label
    ds: Label
    expected_delivered: bool
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
        # Figure 4 requirements (4) and (1) on plain labels; QR ⊔ DR is also
        # the receive-label effect, so it is computed once.
        raised = qr | dr
        req4 = dr <= pr
        req1 = es <= (raised & v & pr)
        expected = req4 and req1
        return DeliverySnapshot(
            qs_before=qs,
            qr_before=qr,
            es=es,
            ds=ds,
            expected_delivered=expected,
            expected_qs=((qs & ds) | (es & qs.stars())) if expected else None,
            expected_qr=raised if expected else None,
        )

    def after_deliver(
        self,
        sender: str,
        receiver: str,
        port: int,
        delivered: bool,
        new_qs: Optional[ChunkedLabel],
        new_qr: Optional[ChunkedLabel],
        snapshot: DeliverySnapshot,
    ) -> None:
        """Compare the engine's verdict and post-effect labels (``None``
        for a drop) against *snapshot*."""
        self.checked_deliveries += 1
        if delivered != snapshot.expected_delivered:
            self._record(
                CHECK_MISMATCH,
                sender,
                receiver,
                port,
                f"fused delivery verdict {delivered}, naive Figure 4 check "
                f"says {snapshot.expected_delivered} "
                f"(ES={snapshot.es!r}, QR={snapshot.qr_before!r})",
            )
            return
        if not delivered:
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
