"""Unit tests for the level set (paper Section 5.1)."""

import pytest

from repro.core.levels import (
    ALL_LEVELS,
    DEFAULT_RECEIVE,
    DEFAULT_SEND,
    L0,
    L1,
    L2,
    L3,
    STAR,
    check_level,
    is_level,
    level_name,
)


def test_star_is_lowest():
    assert STAR < L0 < L1 < L2 < L3


def test_total_order_matches_paper():
    # "[*, 0, 1, 2, 3] ... * is the lowest or most privileged level, and 3
    # is the highest or least privileged level."
    assert sorted(ALL_LEVELS) == [STAR, L0, L1, L2, L3]


def test_defaults():
    # "The default levels ... are 1 for send labels and 2 for receive labels."
    assert DEFAULT_SEND == L1
    assert DEFAULT_RECEIVE == L2


def test_min_max_realize_lattice_ops():
    assert max(STAR, L3) == L3
    assert min(STAR, L3) == STAR
    assert max(L1, L2) == L2


def test_is_level():
    for level in ALL_LEVELS:
        assert is_level(level)
    assert not is_level(4)
    assert not is_level(-2)
    assert not is_level(True)   # bools are not levels
    assert not is_level("1")


def test_check_level_raises():
    with pytest.raises(ValueError):
        check_level(7)
    assert check_level(L2) == L2


def test_level_names():
    assert level_name(STAR) == "*"
    assert level_name(L3) == "3"
    with pytest.raises(ValueError):
        level_name(9)
