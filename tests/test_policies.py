"""Policy recipes: MLS emulation (Section 5.2), capabilities (Section 5.5),
integrity idioms (Section 5.4)."""

import pytest

from repro.core.handles import HandleAllocator
from repro.core.labels import Label
from repro.core.levels import L0, L1, L2, L3, STAR
from repro.policies import (
    MlsPolicy,
    grant_send_right,
    open_port_label,
    sealed_port_label,
    speaks_for,
    write_verify_label,
)
from repro.policies.integrity import (
    grant_speaks_for,
    network_daemon_send,
    network_exclusion_verify,
)
from tests.test_conformance import send_effect_spec


# -- MLS ----------------------------------------------------------------------------


@pytest.fixture
def mls():
    return MlsPolicy.create(["unclassified", "secret", "top-secret"])


def test_mls_labels_match_paper(mls):
    # "{2} for unclassified, {s3, 2} for secret, {s3, t3, 2} for top-secret"
    s = mls.compartments["secret"]
    t = mls.compartments["top-secret"]
    assert mls.clearance("unclassified") == Label({}, L2)
    assert mls.clearance("secret") == Label({s: L3}, L2)
    assert mls.clearance("top-secret") == Label({s: L3, t: L3}, L2)
    assert mls.classification("secret") == Label({s: L3}, L1)


def test_mls_flow_matrix(mls):
    levels = ["unclassified", "secret", "top-secret"]
    for i, frm in enumerate(levels):
        for j, to in enumerate(levels):
            expected = i <= j   # information flows up only
            assert mls.can_flow(frm, to) == expected, (frm, to)


def test_mls_odd_label_still_safe(mls):
    # A send label of {t3, 1} maps to no level but can only reach
    # top-secret clearance (paper Section 5.2).
    t = mls.compartments["top-secret"]
    odd = Label({t: L3}, L1)
    assert not odd <= mls.clearance("secret")
    assert odd <= mls.clearance("top-secret")


def test_mls_downgrader_absorbs_everything(mls):
    # The downgrader holds ⋆ everywhere, so contamination cannot stick:
    # (QS ⊔ (ES ⊓ QS*)) leaves its stars alone.
    qs = mls.downgrader()
    es = mls.classification("top-secret")
    result = send_effect_spec(qs, es, Label.top())
    assert result == qs


def test_mls_many_levels():
    policy = MlsPolicy.create([f"L{i}" for i in range(10)])
    assert policy.can_flow("L3", "L7")
    assert not policy.can_flow("L7", "L3")


def test_mls_unknown_level(mls):
    with pytest.raises(ValueError):
        mls.clearance("cosmic")


def test_mls_from_handles():
    alloc = HandleAllocator()
    handles = [alloc.fresh()]
    policy = MlsPolicy.from_handles(["low", "high"], handles)
    assert policy.compartments["high"] == handles[0]
    with pytest.raises(ValueError):
        MlsPolicy.from_handles(["low", "high"], [])


# -- capabilities ------------------------------------------------------------------------


def test_capability_labels():
    port = 42
    assert grant_send_right(port) == Label({port: STAR}, L3)
    assert sealed_port_label(port) == Label({port: L0}, L2)
    assert open_port_label() == Label.top()


# -- integrity ------------------------------------------------------------------------------


def test_speaks_for():
    uG = 7
    assert speaks_for(Label({uG: L0}, L1), uG)
    assert speaks_for(Label({uG: STAR}, L1), uG)
    assert not speaks_for(Label({}, L1), uG)


def test_write_verify_label_shapes():
    uG, uT = 7, 8
    assert write_verify_label(uG) == Label({uG: L0}, L3)
    assert write_verify_label(uG, uT) == Label({uG: L0, uT: L3}, L2)


def test_mandatory_grant_destroyed_by_low_integrity_message():
    # Section 5.4: a level-0 grant is lost the moment its holder receives
    # from a non-speaker (contamination raises 0 -> 1).
    uG = 7
    holder = Label({uG: L0}, L1)
    non_speaker_es = Label({}, L1)
    after = send_effect_spec(holder, non_speaker_es, Label.top())
    assert after(uG) == L1
    assert not speaks_for(after, uG)


def test_durable_grant_survives():
    uG = 7
    holder = grant_speaks_for(uG, mandatory=False)  # the DS label, ⋆
    receiver = Label({uG: STAR}, L1)
    after = send_effect_spec(receiver, Label({}, L1), Label.top())
    assert after(uG) == STAR


def test_network_exclusion_policy():
    # Section 5.4's system-file example: the network daemon's send label
    # {s 2, 1} cannot satisfy the file server's V(s) <= 1 requirement.
    s = 9
    netd_label = network_daemon_send(s)
    required_v = network_exclusion_verify(s)
    # Delivery requires ES ⊑ V: netd's s-2 exceeds V's s-1.
    assert not netd_label <= required_v
    # An unexposed process passes.
    assert Label({}, L1) <= required_v
