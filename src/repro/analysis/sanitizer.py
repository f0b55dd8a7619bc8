"""Runtime IFC sanitizer: differential checking of the fused label paths.

The kernel's hot paths (:mod:`repro.core.labelops`) are fused,
sparsity-aware implementations of the Figure 4 operations; the naive
:class:`~repro.core.labels.Label` operators are the executable
specification, written here once as two pointwise functions — one per
half of an IPC:

- :func:`spec_send` — ``ES = PS ⊔ CS`` and requirements (2)
  ``DS(h) < 3 ⇒ PS(h) = ⋆`` and (3) ``DR(h) > ⋆ ⇒ PS(h) = ⋆``;
- :func:`spec_deliver` — requirement (4) ``DR ⊑ pR``, then (1)
  ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``, then the effects
  ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆)`` (:func:`expected_send_label`: the same
  function, evaluated only at the handles where it can move) and
  ``QR ← QR ⊔ DR``.

With the sanitizer enabled (``KernelConfig(sanitize=True)``,
``python -m repro run --sanitize``, or the ``REPRO_SANITIZE=1``
environment variable) every IPC is re-evaluated through them and the two
answers are compared: ES, the privilege verdict, the delivery verdict —
a drop must name the requirement that failed first — and both
post-effect labels.  Monotonicity invariants must hold independently of
the reference: absent a decontaminating ``DS`` the send label only ever
rises, and the receive label only ever rises.

Disagreements are recorded as structured :class:`Violation` records
(surfaced through :class:`repro.sim.trace.FlowTracer` transcripts) and,
in strict mode (the default), raised as :class:`SanitizerViolation` —
any violation means a label-engine bug, never a program bug, so failing
loudly is the point.

The hooks below take labels, not kernel objects: they are driven by the
:class:`repro.kernel.engine.SanitizingEngine` decorator at the label-engine
seam, which owns the sampling period.  The spec lives in this layer, not
in :mod:`repro.core`, because it names the kernel's ``DROP_*`` reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from repro.core.chunks import ChunkedLabel
from repro.core.labels import DEFAULT_DECONTAMINATE_SEND, Label
from repro.core.levels import ALL_LEVELS, L3, STAR, Level
from repro.kernel.errors import (
    DROP_DECONT_PRIVILEGE,
    DROP_LABEL_CHECK,
    DROP_PORT_LABEL,
    SimulationError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel


class SanitizerViolation(SimulationError):
    """Raised in strict mode when fused and naive label math disagree."""


#: Violation kinds.
EFFECTIVE_SEND_MISMATCH = "effective-send-mismatch"
PRIVILEGE_MISMATCH = "privilege-mismatch"
CHECK_MISMATCH = "check-mismatch"
DROP_REASON_MISMATCH = "drop-reason-mismatch"
SEND_EFFECT_MISMATCH = "send-effect-mismatch"
RECEIVE_EFFECT_MISMATCH = "receive-effect-mismatch"
SEND_LABEL_LOWERED = "send-label-lowered"
RECEIVE_LABEL_LOWERED = "receive-label-lowered"


# -- the spec: one IPC, in two halves ---------------------------------------------


def spec_send(ps: Label, cs: Label, ds: Label, dr: Label) -> Tuple[Optional[str], Label]:
    """Figure 4 at send time: ``(drop, ES)``, the drop ``None`` or
    ``DROP_DECONT_PRIVILEGE``.

    Requirements (2) and (3) hold at a handle where PS is ``⋆`` or where
    DS and DR ask for nothing (``DS(h) = 3``, ``DR(h) = ⋆``), and must hold
    at every handle: each one DS or DR names and — when a default of
    theirs asks — each one PS names and all the others, at PS's default."""
    everywhere = ds.default < L3 or dr.default > STAR
    named = chain(ds.handles(), dr.handles(), ps.handles() if everywhere else ())
    privileged = (ps.default == STAR or not everywhere) and all(
        ps(h) == STAR or (ds(h) == L3 and dr(h) == STAR) for h in named
    )
    return None if privileged else DROP_DECONT_PRIVILEGE, ps | cs


def spec_deliver(
    es: Label, ds: Label, v: Label, dr: Label, pl: Label, qs: Label, qr: Label
) -> Tuple[Optional[str], Optional[Label], Optional[Label]]:
    """Figure 4 at delivery: ``(drop, new QS, new QR)`` — the ``DROP_*``
    reason of the first requirement that fails, (4) then (1), or ``None``
    and the post-effect labels, both computed from the pre-effect ones.
    ``QR ⊔ DR`` is requirement (1)'s and the receive effect, computed
    once."""
    raised = qr | dr
    if not dr <= pl:
        return DROP_PORT_LABEL, None, None
    if not es <= (raised & v & pl):
        return DROP_LABEL_CHECK, None, None
    return None, expected_send_label(qs, es, ds), raised


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
    not inert.  Should the defaults move QS, the effect is computed whole,
    as Figure 4 writes it.
    """
    levels = qs.explicit_levels()
    levels.add(qs.default)
    d = ds.default
    if not levels <= _FIXED[es.default, d]:
        return (qs & ds) | (es & qs.stars())
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


class DeliverySnapshot(NamedTuple):
    """The pre-effect labels one delivery reads, and :func:`spec_deliver`'s
    answer for it: ``(drop, new QS, new QR)``."""

    qs: Label
    qr: Label
    es: Label
    ds: Label
    expected: Tuple[Optional[str], Optional[Label], Optional[Label]]


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

    def _record(self, kind: str, sender: str, receiver: str, port: int, detail: str) -> None:
        self.total += 1
        violation = Violation(self.total, kind, sender, receiver, port, detail)
        self.violations.append(violation)
        if len(self.violations) > self.LIMIT:
            del self.violations[: self.LIMIT // 2]
        self.kernel.debug_log("sanitizer", violation.format())
        if self.strict:
            raise SanitizerViolation(violation.format())

    # -- the send half ----------------------------------------------------------------

    def check_effective_send(
        self, sender: str, port: int, ps: ChunkedLabel, cs: ChunkedLabel, ds: ChunkedLabel,
        dr: ChunkedLabel, drop: Optional[str], es: ChunkedLabel,
    ) -> None:
        """Compare the engine's send half — its privilege *drop* and *es*
        — against :func:`spec_send`."""
        self.checked_sends += 1
        ps, ds, dr = ps.to_label(), ds.to_label(), dr.to_label()
        want_drop, want_es = spec_send(ps, cs.to_label(), ds, dr)
        if es.to_label() != want_es:
            self._record(
                EFFECTIVE_SEND_MISMATCH, sender, "<send>", port,
                f"fused ES = PS ⊔ CS produced {es.to_label()!r}, naive gives {want_es!r}",
            )
        if drop != want_drop:
            self._record(
                PRIVILEGE_MISMATCH, sender, "<send>", port,
                f"fused requirements (2)/(3) drop for {drop!r}, naive Figure 4 for "
                f"{want_drop!r} (PS={ps!r}, DS={ds!r}, DR={dr!r})",
            )

    # -- the delivery half ------------------------------------------------------------

    def before_deliver(
        self, es: ChunkedLabel, ds: ChunkedLabel, v: ChunkedLabel, dr: ChunkedLabel,
        pl: ChunkedLabel, qs: ChunkedLabel, qr: ChunkedLabel,
    ) -> DeliverySnapshot:
        """The naive prediction for one delivery.  Labels are immutable, so
        "before" is a property of the arguments, not of when this runs."""
        qs, qr, es, ds = qs.to_label(), qr.to_label(), es.to_label(), ds.to_label()
        expected = spec_deliver(es, ds, v.to_label(), dr.to_label(), pl.to_label(), qs, qr)
        return DeliverySnapshot(qs, qr, es, ds, expected)

    def after_deliver(
        self, sender: str, receiver: str, port: int, drop: Optional[str],
        new_qs: Optional[ChunkedLabel], new_qr: Optional[ChunkedLabel],
        snapshot: DeliverySnapshot,
    ) -> None:
        """Compare the engine's verdict (its ``DROP_*`` reason, ``None`` to
        deliver) and post-effect labels (``None`` for a drop) against
        *snapshot*."""
        self.checked_deliveries += 1

        def flag(kind: str, detail: str) -> None:
            self._record(kind, sender, receiver, port, detail)

        qs, qr = snapshot.qs, snapshot.qr
        want_drop, want_qs, want_qr = snapshot.expected
        if (drop is None) != (want_drop is None):
            flag(
                CHECK_MISMATCH,
                f"fused delivery verdict {drop is None}, naive Figure 4 check says "
                f"{want_drop is None} (ES={snapshot.es!r}, QR={qr!r})",
            )
            return
        if drop is not None:
            if drop != want_drop:
                flag(
                    DROP_REASON_MISMATCH,
                    f"fused path dropped for {drop!r}, naive Figure 4 drops for "
                    f"{want_drop!r} (ES={snapshot.es!r}, QR={qr!r})",
                )
            return
        qs_after, qr_after = new_qs.to_label(), new_qr.to_label()
        if qs_after != want_qs:
            flag(
                SEND_EFFECT_MISMATCH,
                f"QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆): fused {qs_after!r}, naive {want_qs!r}",
            )
        if qr_after != want_qr:
            flag(RECEIVE_EFFECT_MISMATCH, f"QR ← QR ⊔ DR: fused {qr_after!r}, naive {want_qr!r}")
        # Monotonicity invariants, independent of the reference computation.
        if snapshot.ds == DEFAULT_DECONTAMINATE_SEND and not qs <= qs_after:
            flag(
                SEND_LABEL_LOWERED,
                f"send label fell without a decontaminating DS: {qs!r} → {qs_after!r}",
            )
        if not qr <= qr_after:
            flag(RECEIVE_LABEL_LOWERED, f"receive label fell on delivery: {qr!r} → {qr_after!r}")

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> str:
        return (
            f"sanitizer: {self.checked_sends} sends and "
            f"{self.checked_deliveries} deliveries cross-checked, "
            f"{self.total} violations"
        )
