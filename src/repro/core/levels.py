"""The Asbestos level set.

Handle privileges are represented by *levels*, members of the ordered set
``[*, 0, 1, 2, 3]`` (paper Section 5.1).  ``*`` (star) is the lowest, most
privileged level: a process whose send label maps handle ``h`` to ``*``
*controls* compartment ``h`` and may declassify data in it.  ``3`` is the
highest, least privileged level.

Levels are plain integers internally.  ``*`` is represented by ``-1`` so
that Python's built-in integer comparison realises the paper's order
``* < 0 < 1 < 2 < 3`` directly; ``min``/``max`` then implement the
greatest-lower-bound and least-upper-bound on levels.
"""

from __future__ import annotations

# Type alias: levels are small ints.  (An IntEnum would be prettier but
# levels appear on the hottest label-operation paths and raw ints keep
# those paths cheap; the kernel performs millions of comparisons per
# simulated benchmark run.)
Level = int

#: Declassification privilege for a compartment; the lowest level.
STAR: Level = -1
#: Integrity / capability level (below the send default).
L0: Level = 0
#: Default send-label level.
L1: Level = 1
#: Default receive-label level.
L2: Level = 2
#: Full taint; the highest level.
L3: Level = 3

#: Default level of a freshly created process's send label (Section 5.1).
DEFAULT_SEND: Level = L1
#: Default level of a freshly created process's receive label.
DEFAULT_RECEIVE: Level = L2

ALL_LEVELS = (STAR, L0, L1, L2, L3)

_NAMES = {STAR: "*", L0: "0", L1: "1", L2: "2", L3: "3"}


def parse_level(value) -> Level:
    """``"*"``/``"0"``…``"3"`` (or an int, ``-1`` for ⋆) → level.

    The one level spelling shared by every declarative surface — topology
    and policy JSON, CLI arguments — so it lives here with the level set
    itself rather than in any one consumer.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a level: {value!r}")
    if isinstance(value, int):
        if value not in ALL_LEVELS:
            raise ValueError(f"not a level: {value!r}")
        return value
    text = str(value).strip()
    if text == "*":
        return STAR
    if text in ("0", "1", "2", "3"):
        return int(text)
    if text == "-1":
        return STAR
    raise ValueError(f"not a level: {value!r}")


def is_level(value: object) -> bool:
    """Return True if *value* is a valid Asbestos level."""
    return isinstance(value, int) and not isinstance(value, bool) and STAR <= value <= L3


def check_level(value: object) -> Level:
    """Validate *value* as a level, returning it; raise ValueError otherwise."""
    if not is_level(value):
        raise ValueError(f"not an Asbestos level: {value!r} (expected one of *, 0, 1, 2, 3)")
    return value  # type: ignore[return-value]


def level_name(level: Level) -> str:
    """Human-readable name for a level: ``*`` or the digit."""
    try:
        return _NAMES[level]
    except KeyError:
        raise ValueError(f"not an Asbestos level: {level!r}") from None
