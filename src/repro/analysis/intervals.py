"""Abstract label intervals — the static analyzer's value domain.

``asblint`` reasons about programs *before* they run, so it never knows a
label exactly: the process send label depends on which messages arrived,
a ``v=`` argument may be computed, handle values are allocated at
runtime.  What it can know is *bounds*.  The domain here abstracts each
label as a function from **symbolic handles** (tokens naming source-level
values: "the port bound to ``session_port``", "the expression
``self._taint``") to **level intervals** ``[lo, hi] ⊆ [⋆, 3]``, plus a
default interval for every handle not named.

The Figure 4 delivery check ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` then evaluates
three-valued: comparing the *lower* bound of the left side against the
*upper* bound of the right side proves a send can **never** pass; the
converse bounds prove it **always** passes; anything else is *maybe* and
stays silent (a static analyzer for a dynamic-label system must not cry
wolf).  Soundness direction: widening an interval can only move a verdict
toward *maybe*, never manufacture a must-fire.

Labels whose explicit entries cannot be resolved statically (dict
comprehensions, computed labels) are *blurry*: their entry map is partial
and the default interval is hulled over every level the unresolved
entries might take, so evaluation at an unnamed handle stays sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from repro.core.levels import L1, L2, L3, STAR, Level


@dataclass(frozen=True)
class Interval:
    """A closed range of levels ``[lo, hi]`` with ``⋆ = -1 ≤ lo ≤ hi ≤ 3``."""

    lo: Level
    hi: Level

    def __post_init__(self) -> None:
        if not (STAR <= self.lo <= self.hi <= L3):
            raise ValueError(f"bad level interval [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both — the state-merge operator."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def join(self, other: "Interval") -> "Interval":
        """Interval of ``max(x, y)`` for x ∈ self, y ∈ other (label ⊔)."""
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        """Interval of ``min(x, y)`` (label ⊓)."""
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def __repr__(self) -> str:
        def name(lvl: Level) -> str:
            return "*" if lvl == STAR else str(lvl)

        if self.exact:
            return f"[{name(self.lo)}]"
        return f"[{name(self.lo)}..{name(self.hi)}]"


#: The whole level set — the interval of a value we know nothing about.
TOP = Interval(STAR, L3)
#: Exactly ⋆ — a held declassification privilege.
IV_STAR = Interval(STAR, STAR)
IV_L0 = Interval(0, 0)
IV_L1 = Interval(L1, L1)
IV_L2 = Interval(L2, L2)
IV_L3 = Interval(L3, L3)
#: Any level a contaminated entry may have risen to (⊒ nothing certain).
RISEN = Interval(STAR, L3)


def exact(level: Level) -> Interval:
    return Interval(level, level)


class AbstractLabel:
    """A label abstracted to symbolic-handle → :class:`Interval`.

    Immutable.  ``blurry`` records that the label may hold further
    explicit entries we could not resolve; their possible levels are
    already folded into ``default``, so :meth:`at` remains sound.
    """

    __slots__ = ("entries", "default", "blurry")

    def __init__(
        self,
        entries: Optional[Mapping[str, Interval]] = None,
        default: Interval = TOP,
        blurry: bool = False,
    ):
        self.entries: Dict[str, Interval] = dict(entries or {})
        self.default = default
        self.blurry = blurry

    # -- constructors mirroring the concrete Label defaults ----------------------

    @classmethod
    def top(cls) -> "AbstractLabel":
        """The exact constant label {3}."""
        return cls({}, IV_L3)

    @classmethod
    def bottom(cls) -> "AbstractLabel":
        """The exact constant label {⋆}."""
        return cls({}, IV_STAR)

    @classmethod
    def uniform(cls, level: Level) -> "AbstractLabel":
        return cls({}, exact(level))

    @classmethod
    def unknown(cls) -> "AbstractLabel":
        """A label about which nothing is known (every handle in [⋆, 3])."""
        return cls({}, TOP, blurry=True)

    # -- evaluation ------------------------------------------------------------

    def at(self, token: str) -> Interval:
        return self.entries.get(token, self.default)

    def tokens(self) -> Iterable[str]:
        return self.entries.keys()

    # -- pointwise lattice lifts --------------------------------------------------

    def _pointwise(self, other: "AbstractLabel", op) -> "AbstractLabel":
        combined: Dict[str, Interval] = {}
        for token in set(self.entries) | set(other.entries):
            combined[token] = op(self.at(token), other.at(token))
        return AbstractLabel(
            combined, op(self.default, other.default), self.blurry or other.blurry
        )

    def join(self, other: "AbstractLabel") -> "AbstractLabel":
        """Abstraction of the concrete ⊔ (pointwise max)."""
        return self._pointwise(other, Interval.join)

    def meet(self, other: "AbstractLabel") -> "AbstractLabel":
        """Abstraction of the concrete ⊓ (pointwise min)."""
        return self._pointwise(other, Interval.meet)

    def hull(self, other: "AbstractLabel") -> "AbstractLabel":
        """Merge of two control-flow paths (interval union)."""
        return self._pointwise(other, Interval.hull)

    def widened(self) -> "AbstractLabel":
        """The label after effects we cannot track (a receive's
        contamination and decontamination): every entry not certainly ⋆
        may now be anything.  ⋆ entries are fixed points of the Figure 4
        send effect — ``f(⋆, e, d) = ⋆`` — so held privileges survive."""
        entries = {
            token: iv if iv == IV_STAR else iv.hull(RISEN)
            for token, iv in self.entries.items()
        }
        return AbstractLabel(entries, self.default.hull(RISEN), blurry=True)

    def with_entry(self, token: str, interval: Interval) -> "AbstractLabel":
        entries = dict(self.entries)
        entries[token] = interval
        return AbstractLabel(entries, self.default, self.blurry)

    def without(self, token: str) -> "AbstractLabel":
        """Entry dropped back to the default interval."""
        entries = dict(self.entries)
        entries.pop(token, None)
        return AbstractLabel(entries, self.default, self.blurry)

    # -- three-valued queries -------------------------------------------------------

    def definitely_star(self, token: str) -> bool:
        return self.at(token) == IV_STAR

    def definitely_not_star(self, token: str) -> bool:
        return self.at(token).lo > STAR

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractLabel):
            return NotImplemented
        return (
            self.default == other.default
            and self.blurry == other.blurry
            and self._normal() == other._normal()
        )

    def __hash__(self) -> int:  # pragma: no cover - not used in sets today
        return hash((self.default, self.blurry, tuple(sorted(self._normal().items()))))

    def _normal(self) -> Dict[str, Interval]:
        return {t: iv for t, iv in self.entries.items() if iv != self.default}

    def __repr__(self) -> str:
        parts = [f"{token} {iv!r}" for token, iv in sorted(self.entries.items())]
        parts.append(repr(self.default) + ("?" if self.blurry else ""))
        return "{" + ", ".join(parts) + "}"


# -- the abstract Figure 4 delivery check -----------------------------------------


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of abstractly evaluating ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``."""

    #: True when the check *cannot* pass on any execution consistent with
    #: the abstraction — the send is dead code plus a silent drop.
    never_passes: bool
    #: The token (or ``"<default>"``) that proves it, for the diagnostic.
    witness: str = ""
    #: lhs.lo > rhs.hi at the witness, for the message.
    lhs_lo: Level = STAR
    rhs_hi: Level = L3


def check_send_interval(
    es: AbstractLabel,
    qr: AbstractLabel,
    dr: AbstractLabel,
    v: AbstractLabel,
    pr: AbstractLabel,
) -> CheckVerdict:
    """Abstract Figure 4 requirement (1).

    The receiver's label QR is usually :meth:`AbstractLabel.unknown`, so
    its upper bound 3 makes ``QR ⊔ DR`` unconstraining and the verdict is
    driven by ``V`` and ``pR`` — exactly the components the *sender*
    writes down and the analyzer can read off the source.
    """
    tokens = set(es.tokens()) | set(dr.tokens()) | set(v.tokens()) | set(pr.tokens())

    def rhs_hi(token: str) -> Level:
        return min(
            max(qr.at(token).hi, dr.at(token).hi), v.at(token).hi, pr.at(token).hi
        )

    for token in sorted(tokens):
        lo = es.at(token).lo
        hi = rhs_hi(token)
        if lo > hi:
            return CheckVerdict(True, token, lo, hi)
    default_hi = min(max(qr.default.hi, dr.default.hi), v.default.hi, pr.default.hi)
    if es.default.lo > default_hi:
        return CheckVerdict(True, "<default>", es.default.lo, default_hi)
    return CheckVerdict(False)


@dataclass
class AbstractState:
    """The per-program-point state the flow analysis propagates.

    - ``ps``/``pr``: interval abstractions of the process send/receive
      labels (fresh-process defaults {1}/{2} unless the program is an
      event body or helper entered with unknown history);
    - ``received``: True once a message may have been received — from
      then on unseen handles may be held at ⋆ (a decontaminating sender
      may have granted them), so "definitely no ⋆" claims are limited to
      tokens the analysis tracks explicitly.
    """

    ps: AbstractLabel = field(default_factory=lambda: AbstractLabel({}, IV_L1))
    pr: AbstractLabel = field(default_factory=lambda: AbstractLabel({}, IV_L2))
    received: bool = False

    @classmethod
    def fresh_process(cls) -> "AbstractState":
        return cls()

    @classmethod
    def unknown_history(cls) -> "AbstractState":
        """Entry state for event bodies, helpers and methods: labels
        unknown, messages may already have been received."""
        return cls(AbstractLabel.unknown(), AbstractLabel.unknown(), received=True)

    def copy(self) -> "AbstractState":
        return AbstractState(self.ps, self.pr, self.received)

    def hull(self, other: "AbstractState") -> "AbstractState":
        return AbstractState(
            self.ps.hull(other.ps), self.pr.hull(other.pr),
            self.received or other.received,
        )

    def after_receive(self) -> "AbstractState":
        """State after a Recv/EpYield: contamination raises PS by an
        unknown ES, DS may lower any non-⋆ entry, DR raises PR."""
        return AbstractState(self.ps.widened(), self.pr.widened(), received=True)

    def may_hold_star(self, token: str) -> bool:
        """Could PS(token) be ⋆ here?  False only when the interval bound
        excludes ⋆ — e.g. a fresh process that never created the handle
        and has not yet received any (potentially granting) message."""
        return not self.ps.definitely_not_star(token)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractState):
            return NotImplemented
        return (
            self.ps == other.ps
            and self.pr == other.pr
            and self.received == other.received
        )


LEVEL_INTERVALS: Dict[Level, Interval] = {
    STAR: IV_STAR,
    0: IV_L0,
    L1: IV_L1,
    L2: IV_L2,
    L3: IV_L3,
}


def interval_for_level(level: Level) -> Interval:
    return LEVEL_INTERVALS[level]
