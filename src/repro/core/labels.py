"""Asbestos labels.

A label is a total function from handles to levels, represented as an
explicit map for finitely many handles plus a *default* level for all
others (paper Section 5.1).  We write labels the way the paper does:
``{h1 0, h2 1, 2}`` maps ``h1`` to 0, ``h2`` to 1 and everything else to 2.

Labels form a lattice under the pointwise order:

- ``L1 <= L2``  iff  ``L1(h) <= L2(h)`` for all handles ``h``  (⊑)
- ``L1 | L2``   is the least upper bound: pointwise max  (⊔)
- ``L1 & L2``   is the greatest lower bound: pointwise min  (⊓)
- ``L.stars()`` is the stars-only projection ``L*``: ``*`` where ``L`` is
  ``*``, ``3`` everywhere else.

Instances are immutable; no operator modifies an operand (one may *return*
an operand, where a lattice law says the result equals it).  Entries equal
to the default level are normalised away so that structurally different
spellings of the same function compare (and hash) equal.
"""

from __future__ import annotations

from itertools import compress
from typing import (
    Container,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.handles import HANDLE_SPACE, Handle
from repro.core.levels import (
    ALL_LEVELS,
    L1,
    L2,
    L3,
    STAR,
    Level,
    check_level,
    level_name,
)


class Label:
    """An immutable Asbestos label: finitely many explicit (handle, level)
    entries over a default level.

    >>> u = 42
    >>> lab = Label({u: 3}, default=1)
    >>> lab(u), lab(7)
    (3, 1)
    """

    __slots__ = ("_entries", "_default", "_hash")

    def __init__(self, entries: Optional[Mapping[Handle, Level]] = None, default: Level = L1):
        check_level(default)
        normalised: Dict[Handle, Level] = {}
        if entries:
            for handle, level in entries.items():
                check_level(level)
                if type(handle) is not int or not 0 <= handle < HANDLE_SPACE:
                    raise ValueError(f"handle is not an int in the 61-bit range: {handle!r}")
                if level != default:
                    normalised[handle] = level
        self._entries: Dict[Handle, Level] = normalised
        self._default: Level = default
        self._hash: Optional[int] = None

    @staticmethod
    def _closed(entries: Dict[Handle, Level], default: Level) -> "Label":
        """The result of a lattice operator, built without ``__init__``.

        Private to this module: *entries* must hold only (handle, level)
        pairs taken from valid labels, none at *default*.  ``max``/``min``
        of two valid levels at a handle one operand already holds is valid
        by closure, so re-validating every entry of a result would check
        nothing.  The other callers check what they add first
        (:meth:`with_entries` each update, :meth:`from_columns` each
        column); every label built from anything else goes through
        ``__init__``.
        """
        label = Label.__new__(Label)
        label._entries = entries
        label._default = default
        label._hash = None
        return label

    @classmethod
    def from_columns(
        cls, columns: Iterable[Tuple[Sequence[Handle], bytes]], default: Level
    ) -> "Label":
        """The label of a packed layout (:mod:`repro.core.chunks`): runs of
        parallel ``(handles, codes)`` columns, a level stored as the byte
        ``level + 1``, over *default*.

        Every check of ``__init__`` runs, a column at a time at C speed: a
        code outside 0–4 fails in the decode table, and a run's handles
        must all be ``int`` and lie between 0 and ``HANDLE_SPACE``.  No
        order is assumed.  Entries at *default* are dropped.
        """
        check_level(default)
        decode = ALL_LEVELS.__getitem__
        entries: Dict[Handle, Level] = {}
        for handles, codes in columns:
            if len(handles) != len(codes):
                raise ValueError(f"{len(handles)} handles against {len(codes)} level codes")
            if not handles:
                continue
            if set(map(type, handles)) != {int} or min(handles) < 0 or max(handles) >= HANDLE_SPACE:
                raise ValueError(f"not a column of handles in the 61-bit range: {handles!r}")
            try:
                entries.update(zip(handles, map(decode, codes)))
            except IndexError:
                raise ValueError(f"a level code is not in 0..4: {codes!r}") from None
        if default in entries.values():
            entries = {h: level for h, level in entries.items() if level != default}
        return Label._closed(entries, default)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def uniform(cls, default: Level) -> "Label":
        """The constant label ``{default}``."""
        return cls({}, default)

    @classmethod
    def send_default(cls) -> "Label":
        """A fresh process's send label, ``{1}``."""
        return cls({}, L1)

    @classmethod
    def receive_default(cls) -> "Label":
        """A fresh process's receive label, ``{2}``."""
        return cls({}, L2)

    @classmethod
    def bottom(cls) -> "Label":
        """The lowest label ``{*}`` — the identity for contamination (⊔)."""
        return cls({}, STAR)

    @classmethod
    def top(cls) -> "Label":
        """The highest label ``{3}`` — the identity for restriction (⊓)."""
        return cls({}, L3)

    # -- the label-as-function view -------------------------------------------

    def __call__(self, handle: Handle) -> Level:
        """Evaluate the label at *handle* (the paper's ``L(h)``)."""
        return self._entries.get(handle, self._default)

    @property
    def default(self) -> Level:
        """The level assigned to every handle not explicitly listed."""
        return self._default

    def entries(self) -> Iterator[Tuple[Handle, Level]]:
        """Iterate over the explicit (handle, level) entries, sorted by handle."""
        return iter(sorted(self._entries.items()))

    def handles(self) -> Iterator[Handle]:
        """Iterate over explicitly mentioned handles, sorted."""
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        """Number of explicit entries (the label's *size*, which drives the
        linear costs measured in Figure 9)."""
        return len(self._entries)

    def __contains__(self, handle: Handle) -> bool:
        return handle in self._entries

    # -- lattice structure -----------------------------------------------------

    def __le__(self, other: "Label") -> bool:
        """The partial order ⊑: pointwise level comparison.

        Only handles explicit in either label need inspection; all other
        handles compare default-to-default.
        """
        if not isinstance(other, Label):
            return NotImplemented
        if self is other:  # reflexive, and labels are immutable
            return True
        if self._default > other._default:
            return False
        theirs, get = other._default, other._entries.get
        for handle, level in self._entries.items():
            if level > get(handle, theirs):
                return False
        # Handles explicit only in `other` take self's default on the left.
        for handle, level in other._entries.items():
            if handle not in self._entries and self._default > level:
                return False
        return True

    def __ge__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return other.__le__(self)

    # NB: ⊑ is a partial order; L1 < L2 is "dominated and not equal".
    def __lt__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self != other and self <= other

    def __gt__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self != other and self >= other

    def _pointwise(self, other: "Label", pick) -> "Label":
        """``h ↦ pick(self(h), other(h))`` for *pick* ``max`` (⊔) or ``min``
        (⊓): one pass over the explicit handles, and less where a law of
        the lattice already gives the answer.

        A result may *be* an operand, and is built by :meth:`_closed` —
        safe only because nothing mutates ``_entries`` after construction
        (``with_entry`` copies).
        """
        identity = STAR if pick is max else L3
        # pick is commutative: let a be an operand whose default is the identity.
        a, b = (other, self) if other._default == identity else (self, other)
        a_default, b_default = a._default, b._default
        if a_default == identity:
            # Identity element: L ⊔ {⋆} = L and L ⊓ {3} = L.
            if not a._entries:
                return b
            # Identity default: a handle only b names keeps b's level and
            # the result default is b's, so a copy of b's entries is already
            # normalised and only a's explicit handles need a visit.
            merged = dict(b._entries)
            for handle, level in a._entries.items():
                level = pick(level, merged.get(handle, b_default))
                if level != b_default:
                    merged[handle] = level
                else:  # landed on the default: remove it, do not skip it
                    merged.pop(handle, None)
            return Label._closed(merged, b_default)
        default = pick(a_default, b_default)
        a_get, b_get = a._entries.get, b._entries.get
        return Label._closed(
            {
                handle: level
                for handle in a._entries.keys() | b._entries.keys()
                if (level := pick(a_get(handle, a_default), b_get(handle, b_default)))
                != default
            },
            default,
        )

    def __or__(self, other: "Label") -> "Label":
        """Least upper bound ⊔ (pointwise max) — used to contaminate."""
        if not isinstance(other, Label):
            return NotImplemented
        return self._pointwise(other, max)

    def __and__(self, other: "Label") -> "Label":
        """Greatest lower bound ⊓ (pointwise min) — used to declassify."""
        if not isinstance(other, Label):
            return NotImplemented
        return self._pointwise(other, min)

    def stars(self) -> "Label":
        """The stars-only projection ``L*`` of Figure 3.

        ``L*(h)`` is ``*`` where ``L(h) = *`` and ``3`` otherwise.  In the
        contamination rule (Equation 5), ``ES ⊓ QS*`` protects a receiver's
        ``*`` entries from being overwritten by incoming taint.
        """
        # Every explicit entry maps to * or 3; keep those off the default.
        if self._default == STAR:
            return Label._closed(
                {h: L3 for h, lvl in self._entries.items() if lvl != STAR}, STAR
            )
        return Label._closed(
            {h: STAR for h, lvl in self._entries.items() if lvl == STAR}, L3
        )

    def explicit_levels(self) -> Set[Level]:
        """The levels the explicit entries hold (the default not included)."""
        return set(self._entries.values())

    def handles_at(self, levels: Container[Level]) -> Iterator[Handle]:
        """The explicit handles whose level is in *levels*, in no order."""
        entries = self._entries
        return compress(entries, map(levels.__contains__, entries.values()))

    # -- functional updates ----------------------------------------------------

    def with_entries(self, updates: Mapping[Handle, Level]) -> "Label":
        """A copy of this label with ``L(handle) = level`` for every
        ``handle: level`` in *updates*.

        Only the updates are validated: the other entries come from this
        label, which already passed, and are copied at C speed.
        """
        if not updates:
            return self
        default = self._default
        merged = dict(self._entries)
        for handle, level in updates.items():
            check_level(level)
            if type(handle) is not int or not 0 <= handle < HANDLE_SPACE:
                raise ValueError(f"handle is not an int in the 61-bit range: {handle!r}")
            if level != default:
                merged[handle] = level
            else:
                merged.pop(handle, None)
        return Label._closed(merged, default)

    def with_entry(self, handle: Handle, level: Level) -> "Label":
        """A copy of this label with ``L(handle) = level``."""
        return self.with_entries({handle: level})

    def without(self, handle: Handle) -> "Label":
        """A copy with *handle* back at the default level."""
        return self.with_entry(handle, self._default)

    def controls(self, handle: Handle) -> bool:
        """True if this (send) label holds ``*`` for *handle*, i.e. the
        process controls — may declassify within — that compartment."""
        return self(handle) == STAR

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:  # reflexive, and labels are immutable
            return True
        if not isinstance(other, Label):
            return NotImplemented
        return self._default == other._default and self._entries == other._entries

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._default, frozenset(self._entries.items())))
        return self._hash

    def __repr__(self) -> str:
        parts = [f"h{handle:x} {level_name(level)}" for handle, level in self.entries()]
        parts.append(level_name(self._default))
        return "{" + ", ".join(parts) + "}"

    def format(self, names: Mapping[Handle, str]) -> str:
        """Pretty-print using symbolic handle names (for examples/docs)."""
        parts = [
            f"{names.get(handle, f'h{handle:x}')} {level_name(level)}"
            for handle, level in self.entries()
        ]
        parts.append(level_name(self._default))
        return "{" + ", ".join(parts) + "}"


#: The default contamination label ``{*}``: adds no contamination (§5.2).
DEFAULT_CONTAMINATION = Label.bottom()
#: The default decontaminate-send label ``{3}``: lowers nothing.
DEFAULT_DECONTAMINATE_SEND = Label.top()
#: The default decontaminate-receive label ``{*}``: raises nothing.
DEFAULT_DECONTAMINATE_RECEIVE = Label.bottom()
#: The default verification label ``{3}``: restricts nothing.
DEFAULT_VERIFY = Label.top()
#: The default port label ``{3}``: no restriction beyond the receive label.
DEFAULT_PORT_LABEL = Label.top()
