"""The runtime IFC sanitizer: differential fused-vs-naive checking.

Drives random label/DS/V/DR combinations through live kernel IPC with the
sanitizer enabled in strict mode (any fused/naive disagreement raises),
then deliberately corrupts each fused fast path — requirements (2)/(3)
included — and asserts the sanitizer flags exactly that corruption.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitizer as sanitizer_module
from repro.analysis.sanitizer import (
    CHECK_MISMATCH,
    DROP_REASON_MISMATCH,
    PRIVILEGE_MISMATCH,
    RECEIVE_EFFECT_MISMATCH,
    SEND_EFFECT_MISMATCH,
    SanitizerViolation,
    spec_send,
)
from repro.core import labelops
from repro.core.chunks import ChunkedLabel, OpStats
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L0, L1, L2, L3, STAR
from repro.kernel.config import KernelConfig
from repro.kernel.errors import DROP_DECONT_PRIVILEGE, DROP_LABEL_CHECK, DROP_PORT_LABEL
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import NewHandle, NewPort, Recv, Send, SetPortLabel
from tests.test_conformance import requirement_1

levels = st.sampled_from(ALL_LEVELS)
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=1, max_value=12), levels, max_size=5),
    default=levels,
)


# -- the property: random IPC label combinations never trip the sanitizer -----------


@given(cs=labels, ds=labels, v=labels, dr=labels, port_label=labels)
@settings(max_examples=60, deadline=None)
def test_random_labels_fused_agrees_with_naive(cs, ds, v, dr, port_label):
    # Strict mode: any fused/naive disagreement raises out of kernel.run().
    kernel = Kernel(config=KernelConfig(sanitize=True))

    def body(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, port_label)
        yield Send(
            port,
            {"x": 1},
            cs=cs,
            ds=ds,
            v=v,
            dr=dr,
        )
        yield Recv(port=port, block=False)

    kernel.spawn(body, "self-talker")
    kernel.run()
    assert kernel.sanitizer is not None
    assert kernel.sanitizer.violations == []
    # The send half (ES and requirements (2)/(3)) was always cross-checked;
    # the delivery only unless requirements (2)/(3) dropped the message.
    assert kernel.sanitizer.checked_sends == 1


@given(es=labels, qr=labels, dr=labels, v=labels, pr=labels)
@settings(max_examples=200)
def test_fused_check_matches_the_sanitizer_reference(es, qr, dr, v, pr):
    fused = labelops.check_send(
        ChunkedLabel.from_label(es),
        ChunkedLabel.from_label(qr),
        ChunkedLabel.from_label(dr),
        ChunkedLabel.from_label(v),
        ChunkedLabel.from_label(pr),
        OpStats(),
    )
    assert fused == requirement_1(es, qr, dr, v, pr)


def _leaning(default):
    """Labels over eight handles whose default leans to *default*."""
    others = [level for level in ALL_LEVELS if level != default]
    return st.builds(
        Label,
        st.dictionaries(st.integers(min_value=1, max_value=8), levels, max_size=4),
        default=st.sampled_from([default] * len(others) + others),
    )


# PS's default leans to ⋆, where only PS's other entries can fail the
# requirements; DS and DR lean to the {3} / {⋆} whose entries are walked.
@given(ps=_leaning(STAR), ds=_leaning(L3), dr=_leaning(STAR))
@settings(max_examples=400)
def test_fused_privilege_check_matches_spec_send(ps, ds, dr):
    fused = labelops.decontamination_privileged(
        ChunkedLabel.from_label(ps), ChunkedLabel.from_label(ds), ChunkedLabel.from_label(dr),
        OpStats(),
    )
    assert fused == (spec_send(ps, Label.bottom(), ds, dr)[0] is None)


def test_a_handle_named_at_the_neutral_level_needs_no_privilege():
    # PS = {h 0, ⋆}: DR = {h ⋆, 2} raises every handle but h, and DS =
    # {h 3, 1} lowers every handle but h; PS holds ⋆ at all of those.
    h = 7
    ps = Label({h: L0}, STAR)
    for ds, dr in ((Label.top(), Label({h: STAR}, L2)), (Label({h: L3}, L1), Label.bottom())):
        assert spec_send(ps, Label.bottom(), ds, dr)[0] is None
        assert labelops.decontamination_privileged(
            ChunkedLabel.from_label(ps), ChunkedLabel.from_label(ds), ChunkedLabel.from_label(dr)
        )


@st.composite
def star_biased(draw):
    """⋆-heavy labels of every default and of 0–200 entries, as a
    privileged server's are, over one window of handles so that operands
    overlap."""
    size = draw(st.integers(min_value=0, max_value=200))
    rng = draw(st.randoms(use_true_random=False))
    entries = {
        h: rng.choice((STAR, STAR, STAR, L0, L1, L2, L3))
        for h in rng.sample(range(300), size)
    }
    return Label(entries, draw(levels))


# DS leans to the {3} that nearly every send carries.
decontaminations = st.one_of(
    st.just(Label.top()),
    st.builds(Label, st.dictionaries(st.integers(0, 250), levels, max_size=4), default=levels),
)


def test_send_effect_where_it_can_move_equals_the_composed_operators(monkeypatch):
    # The composed operators are expected_send_label's own fallback, taken
    # where its table of fixed levels says the defaults move QS, and with
    # an empty table everywhere.  Only that fallback calls Label.stars.
    visit = sanitizer_module.expected_send_label
    stars = Label.stars
    whole = []
    monkeypatch.setattr(Label, "stars", lambda self: whole.append(1) or stars(self))
    calls = []

    @given(qs=star_biased(), es=star_biased(), ds=decontaminations)
    @settings(max_examples=200, deadline=None)
    def agrees(qs, es, ds):
        calls.append(1)
        visited = visit(qs, es, ds)
        with monkeypatch.context() as patch:
            patch.setattr(sanitizer_module, "_FIXED", defaultdict(frozenset))
            assert visited == visit(qs, es, ds)

    agrees()
    # Both branches ran: the visit where the defaults leave QS alone, the
    # whole-label operators where they do not.  (Each forced call adds one.)
    assert len(calls) < len(whole) < 2 * len(calls)


# -- deliberate corruption must be flagged -------------------------------------------


def _run_pair(kernel: Kernel, sender_body) -> None:
    """A receiver blocked on an open port, then *sender_body* fires at it."""
    box = {}

    def receiver(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["box"]["port"] = port
        ctx.env["box"]["msg"] = yield Recv(port=port)

    kernel.spawn(receiver, "rx", env={"box": box})
    kernel.run()
    kernel.spawn(sender_body, "tx", env={"box": box})
    kernel.run()


def _violation_kinds(kernel: Kernel):
    return [v.kind for v in kernel.sanitizer.violations]


def test_corrupted_check_send_false_is_flagged(monkeypatch):
    monkeypatch.setattr(labelops, "check_send", lambda *args: False)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))

    def sender(ctx):
        yield Send(ctx.env["box"]["port"], {"x": 1})

    _run_pair(kernel, sender)
    assert CHECK_MISMATCH in _violation_kinds(kernel)


def test_corrupted_check_send_true_is_flagged(monkeypatch):
    # The fused path waves through a send the Figure 4 check must drop
    # (contamination at 3 exceeds the default receive clearance 2).
    monkeypatch.setattr(labelops, "check_send", lambda *args: True)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))

    def sender(ctx):
        h = yield NewHandle()
        yield Send(ctx.env["box"]["port"], {"x": 1}, cs=Label({h: L3}, STAR))

    _run_pair(kernel, sender)
    assert CHECK_MISMATCH in _violation_kinds(kernel)


def test_corrupted_send_effects_is_flagged(monkeypatch):
    # Contamination silently not applied: QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆)
    # replaced by the identity.
    monkeypatch.setattr(
        labelops, "apply_send_effects", lambda qs, es, ds, stats=None: qs
    )
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))

    def sender(ctx):
        h = yield NewHandle()
        yield Send(ctx.env["box"]["port"], {"x": 1}, cs=Label({h: L2}, STAR))

    _run_pair(kernel, sender)
    assert SEND_EFFECT_MISMATCH in _violation_kinds(kernel)


def test_corrupted_raise_receive_is_flagged(monkeypatch):
    # QR ← QR ⊔ DR replaced by the identity: a granted receive-clearance
    # raise is silently lost.
    monkeypatch.setattr(labelops, "raise_receive", lambda qr, dr, stats=None: qr)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))

    def sender(ctx):
        h = yield NewHandle()
        yield Send(
            ctx.env["box"]["port"], {"x": 1}, dr=Label({h: L3}, STAR)
        )

    _run_pair(kernel, sender)
    assert RECEIVE_EFFECT_MISMATCH in _violation_kinds(kernel)


def test_a_privilege_granted_without_the_star_is_flagged(monkeypatch):
    # Requirement (2): granting ⋆ at the receiver's port handle takes the
    # sender's own ⋆ there, and the sender holds it at its default 1.
    monkeypatch.setattr(labelops, "decontamination_privileged", lambda *args: True)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))

    def sender(ctx):
        port = ctx.env["box"]["port"]
        yield Send(port, {"x": 1}, ds=Label({port: STAR}, L3))

    _run_pair(kernel, sender)
    assert kernel.drop_log.by_reason == {}
    assert _violation_kinds(kernel) == [PRIVILEGE_MISMATCH]


def test_a_privilege_denied_to_a_default_send_is_flagged(monkeypatch):
    monkeypatch.setattr(labelops, "decontamination_privileged", lambda *args: False)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))

    def sender(ctx):
        yield Send(ctx.env["box"]["port"], {"x": 1})

    _run_pair(kernel, sender)
    assert kernel.drop_log.by_reason == {DROP_DECONT_PRIVILEGE: 1}
    assert _violation_kinds(kernel) == [PRIVILEGE_MISMATCH]
    assert f"drop for {DROP_DECONT_PRIVILEGE!r}" in kernel.sanitizer.violations[0].detail


def test_a_drop_for_the_wrong_requirement_is_flagged(monkeypatch):
    # Requirement (4), DR ⊑ pR, wrongly fails in the fused path; the send
    # also fails requirement (1) (contamination 3 over clearance 2), so
    # the verdict "dropped" is right and only the reason is wrong.
    monkeypatch.setattr(ChunkedLabel, "leq", lambda self, other, stats=None: False)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))

    def sender(ctx):
        h = yield NewHandle()
        yield Send(ctx.env["box"]["port"], {"x": 1}, cs=Label({h: L3}, STAR))

    _run_pair(kernel, sender)
    assert kernel.drop_log.by_reason == {DROP_PORT_LABEL: 1}
    assert kernel.sanitizer.checked_deliveries == 1
    assert _violation_kinds(kernel) == [DROP_REASON_MISMATCH]
    assert f"dropped for {DROP_PORT_LABEL!r}" in kernel.sanitizer.violations[0].detail
    assert f"drops for {DROP_LABEL_CHECK!r}" in kernel.sanitizer.violations[0].detail


def test_strict_mode_raises_on_corruption(monkeypatch):
    monkeypatch.setattr(labelops, "check_send", lambda *args: False)
    kernel = Kernel(config=KernelConfig(sanitize=True))  # strict by default

    def sender(ctx):
        yield Send(ctx.env["box"]["port"], {"x": 1})

    with pytest.raises(SanitizerViolation):
        _run_pair(kernel, sender)


# -- plumbing ------------------------------------------------------------------------


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Kernel().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Kernel().sanitizer is None
    monkeypatch.delenv("REPRO_SANITIZE")
    assert Kernel().sanitizer is None


def test_flow_tracer_carries_violations(monkeypatch):
    from repro.sim.trace import FlowTracer

    monkeypatch.setattr(labelops, "check_send", lambda *args: False)
    kernel = Kernel(config=KernelConfig(sanitize=True, sanitize_strict=False))
    tracer = FlowTracer(kernel)

    def sender(ctx):
        yield Send(ctx.env["box"]["port"], {"x": 1})

    _run_pair(kernel, sender)
    assert [v.kind for v in tracer.violations()] == [CHECK_MISMATCH]
    assert "SANITIZER[check-mismatch]" in tracer.format()


# -- the replay is cheap because of the algebra, not because it checks less -----------


class _IpcCount:
    """A `Kernel.hooks` observer: every send and every attempted delivery."""

    sends = deliveries = 0

    def on_send(self, task, request):
        self.sends += 1

    def on_deliver(self, *args):
        self.deliveries += 1


def _sanitized_echo_rounds(users=8, rounds=2):
    """A fixed small echo site, fully sanitized and watched from boot: one
    round that creates every session and one that resumes it."""
    from repro.okws.launcher import ServiceConfig, launch
    from repro.okws.services import echo_handler
    from repro.sim.runner import echo_requests
    from repro.sim.workload import HttpClient

    kernel = Kernel(config=KernelConfig(sanitize=True))
    seen = _IpcCount()
    kernel.hooks.append(seen)
    site = launch(
        kernel=kernel,
        services=[ServiceConfig("echo", echo_handler)],
        users=[(f"u{i}", f"pw{i}") for i in range(users)],
    )
    client = HttpClient(site)
    for _ in range(rounds):
        assert len(client.run_batch(echo_requests(users), concurrency=4)) == users
    return kernel.sanitizer, seen


def test_every_ipc_is_replayed_with_few_full_merges(monkeypatch):
    # A full pass is a ⊔/⊓ that neither law shortens: neither operand's
    # default is the identity of the operation.  Before the laws every
    # operator call was one, 4.4 per checked IPC on the echo workload.
    full_passes = []
    pointwise = Label._pointwise

    def counting(self, other, pick):
        if (STAR if pick is max else L3) not in (self.default, other.default):
            full_passes.append(pick)
        return pointwise(self, other, pick)

    monkeypatch.setattr(Label, "_pointwise", counting)
    sanitizer, seen = _sanitized_echo_rounds()
    assert sanitizer.total == 0
    assert sanitizer.checked_sends == seen.sends > 0
    assert sanitizer.checked_deliveries == seen.deliveries > 0
    checks = sanitizer.checked_sends + sanitizer.checked_deliveries
    # 0.69 per checked IPC while the send effect was composed whole; the
    # visit where it can move leaves ES ⊑ … ⊓ V ⊓ pR and the like (0.125).
    assert 0 < len(full_passes) <= 0.25 * checks


def test_a_wrong_reference_is_flagged_on_a_clean_kernel(monkeypatch):
    # The differential is symmetric: corrupt the *spec* (⊔ picks min) and
    # the unmodified fused path is what disagrees, within one connection.
    pointwise = Label._pointwise
    monkeypatch.setattr(
        Label,
        "_pointwise",
        lambda self, other, pick: pointwise(self, other, min if pick is max else pick),
    )
    with pytest.raises(SanitizerViolation):
        _sanitized_echo_rounds(users=1, rounds=1)


def test_a_wrong_per_handle_effect_is_flagged_on_a_clean_kernel(monkeypatch):
    # The per-handle send effect without the QS⋆ protection: incoming taint
    # overwrites the receiver's ⋆ entries wherever the visit goes.
    monkeypatch.setattr(
        sanitizer_module, "send_effect", lambda q, e, d: max(min(q, d), e)
    )
    with pytest.raises(SanitizerViolation, match="send-effect-mismatch"):
        _sanitized_echo_rounds(users=1, rounds=1)
