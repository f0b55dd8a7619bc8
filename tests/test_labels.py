"""Unit and property tests for the Label lattice (paper Sections 5.1–5.3,
Figure 3)."""


import pytest
from hypothesis import given, strategies as st

from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L0, L1, L2, L3, STAR
from tests.test_conformance import send_effect_spec


levels = st.sampled_from(ALL_LEVELS)
handles = st.integers(min_value=0, max_value=60)
labels = st.builds(
    Label,
    st.dictionaries(handles, levels, max_size=12),
    default=levels,
)


# -- basics ---------------------------------------------------------------------


def test_label_as_function():
    lab = Label({5: L3, 7: STAR}, default=L1)
    assert lab(5) == L3
    assert lab(7) == STAR
    assert lab(12345) == L1


def test_normalisation_drops_default_entries():
    assert Label({5: L1}, default=L1) == Label({}, default=L1)
    assert len(Label({5: L1, 6: L2}, default=L1)) == 1


def test_equality_and_hash_are_semantic():
    a = Label({5: L3, 9: L1}, default=L1)
    b = Label({5: L3}, default=L1)
    assert a == b
    assert hash(a) == hash(b)


def test_paper_figure_2_labels():
    # US = {uT 3, 1}; UTR = {uT 3, 2}; VS = {vT 3, 1}.
    uT, vT = 1, 2
    US = Label({uT: L3}, L1)
    VS = Label({vT: L3}, L1)
    UTR = Label({uT: L3}, L2)
    assert US <= UTR            # U can send to the terminal
    assert not VS <= UTR        # V cannot


def test_rejects_bad_levels_and_handles():
    with pytest.raises(ValueError):
        Label({1: 9}, default=L1)
    with pytest.raises(ValueError):
        Label({}, default=7)
    with pytest.raises(ValueError):
        Label({-1: L1}, default=L1)
    with pytest.raises(ValueError):
        Label({1 << 61: L1}, default=L1)
    # Handles are ints, as strictly as levels are: a float would be packed
    # into a chunk's handle tuple, and True == 1 would alias a real handle.
    with pytest.raises(ValueError, match="1.5"):
        Label({1.5: L3}, default=L1)
    with pytest.raises(ValueError, match="True"):
        Label({True: L0}, default=L1)


def test_constructors():
    assert Label.send_default().default == L1
    assert Label.receive_default().default == L2
    assert Label.bottom().default == STAR
    assert Label.top().default == L3


def test_with_entry_and_without():
    lab = Label({}, L1).with_entry(9, STAR)
    assert lab(9) == STAR
    assert lab.controls(9)
    assert not lab.without(9).controls(9)
    assert lab.without(9) == Label({}, L1)


@given(labels, st.dictionaries(handles, levels, max_size=12))
def test_with_entries_is_a_chain_of_with_entry(lab, updates):
    chained = lab
    for handle, level in updates.items():
        chained = chained.with_entry(handle, level)
    got = lab.with_entries(updates)
    assert got == chained == Label({**dict(lab.entries()), **updates}, lab.default)
    assert list(got.entries()) == list(chained.entries())
    assert all(level != got.default for _, level in got.entries())


def test_with_entries_checks_each_update():
    lab = Label({5: L3}, L1)
    for bad in ({6: 9}, {6: True}, {-1: L0}, {1 << 61: L0}, {1.5: L0}, {True: L0}):
        with pytest.raises(ValueError):
            lab.with_entries(bad)
    assert lab.with_entries({}) is lab


def test_explicit_levels_and_handles_at():
    lab = Label({1: STAR, 2: L3, 3: STAR, 4: L0}, L1)
    assert lab.explicit_levels() == {STAR, L0, L3}
    assert sorted(lab.handles_at({STAR})) == [1, 3]
    assert sorted(lab.handles_at({L0, L3, L1})) == [2, 4]


def test_format_with_names():
    uT = 42
    lab = Label({uT: L3}, L1)
    assert lab.format({uT: "uT"}) == "{uT 3, 1}"


# -- lattice laws (property-based) ----------------------------------------------------


@given(labels, labels)
def test_lub_is_least_upper_bound(a, b):
    join = a | b
    assert a <= join and b <= join


@given(labels, labels, labels)
def test_lub_minimality(a, b, c):
    if a <= c and b <= c:
        assert (a | b) <= c


@given(labels, labels)
def test_glb_is_greatest_lower_bound(a, b):
    meet = a & b
    assert meet <= a and meet <= b


@given(labels, labels, labels)
def test_glb_maximality(a, b, c):
    if c <= a and c <= b:
        assert c <= (a & b)


@given(labels, labels)
def test_partial_order_antisymmetry(a, b):
    if a <= b and b <= a:
        assert a == b


@given(labels, labels, labels)
def test_partial_order_transitivity(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(labels)
def test_partial_order_reflexive(a):
    assert a <= a


@given(labels, labels)
def test_lub_glb_commutative(a, b):
    assert a | b == b | a
    assert a & b == b & a


@given(labels, labels, labels)
def test_lub_glb_associative(a, b, c):
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)


@given(labels, labels)
def test_absorption(a, b):
    assert a | (a & b) == a
    assert a & (a | b) == a


@given(labels)
def test_bottom_and_top_are_identities(a):
    assert a | Label.bottom() == a
    assert a & Label.top() == a
    # The identity-element law returns the operand itself.
    assert (a | Label.bottom()) is a
    assert (a & Label.top()) is a


@given(labels)
def test_stars_definition(a):
    # L*(h) = * if L(h) = *, else 3 — checked pointwise over a window that
    # includes both explicit handles and unmentioned ones.
    s = a.stars()
    for h in list(dict(a.entries())) + [59, 60]:
        if a(h) == STAR:
            assert s(h) == STAR
        else:
            assert s(h) == L3


@given(labels)
def test_stars_idempotent(a):
    assert a.stars().stars() == a.stars()


@given(labels, labels)
def test_contamination_preserves_stars(qs, es):
    # Equation 5's purpose: QS's * entries survive contamination.
    result = send_effect_spec(qs, es, Label.top())
    for h in list(dict(qs.entries())):
        if qs(h) == STAR:
            assert result(h) == STAR


# -- the operators against their definition, spelled out ------------------------------


def _rebuilt(a, b, pick):
    """§5.1 literally, through the validating constructor: *pick* at every
    handle either label names, and of the two defaults."""
    handles = set(dict(a.entries())) | set(dict(b.entries()))
    return Label({h: pick(a(h), b(h)) for h in handles}, pick(a.default, b.default))


def _assert_same_normalised(result, reference):
    assert result == reference
    assert hash(result) == hash(reference)
    assert list(result.entries()) == list(reference.entries())
    assert all(level != result.default for _, level in result.entries())


@given(labels, labels)
def test_operators_equal_the_pointwise_definition(a, b):
    _assert_same_normalised(a | b, _rebuilt(a, b, max))
    _assert_same_normalised(a & b, _rebuilt(a, b, min))
    stars = Label(
        {h: STAR if lvl == STAR else L3 for h, lvl in a.entries()},
        STAR if a.default == STAR else L3,
    )
    _assert_same_normalised(a.stars(), stars)


def test_identity_default_operand_with_entries():
    # One operand's *default* is the identity of the operation and it has
    # entries: the other's entries are copied, only these are visited.
    taint = Label({1: L3, 2: L0, 9: L2}, STAR)           # default ⋆: identity of ⊔
    qs = Label({1: L2, 2: STAR, 3: L0, 4: L3}, L1)
    assert taint | qs == qs | taint == Label({1: L3, 2: L0, 3: L0, 4: L3, 9: L2}, L1)
    grant = Label({1: STAR, 2: L2, 9: L0}, L3)           # default 3: identity of ⊓
    assert grant & qs == qs & grant == Label({1: STAR, 2: STAR, 3: L0, 4: L3, 9: L0}, L1)
    # Both defaults are the identity: either may go first.
    assert taint | Label({2: L1, 5: L0}, STAR) == Label({1: L3, 2: L1, 5: L0, 9: L2}, STAR)


def test_touched_handle_landing_on_the_default_is_removed():
    # max(0, 1) at h1 lands on the result default 1, where the copied entry
    # {h1 0} must go rather than stay (a skipped visit would keep it).
    qs = Label({1: L0, 2: L3}, L1)
    for result in (Label({1: L1}, STAR) | qs, qs | Label({1: L1}, STAR)):
        assert result == Label({2: L3}, L1)
        assert 1 not in result and len(result) == 1
    # The same for ⊓: min(3, 2) at h1 lands on the default 2.
    qr = Label({1: L3, 2: STAR}, L2)
    for result in (Label({1: L2}, L3) & qr, qr & Label({1: L2}, L3)):
        assert result == Label({2: STAR}, L2)
        assert 1 not in result and len(result) == 1


def test_comparison_with_non_label():
    lab = Label({}, L1)
    assert lab.__le__(42) is NotImplemented
    assert lab != 42
