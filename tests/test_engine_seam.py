"""The label-engine seam (``repro.kernel.engine``): every engine against the
naive ``Label`` spec on the same operands, and ``bill()`` against the cycles
each path has always been charged.

1. One Hypothesis harness feeds an operand tuple to the plain, interned and
   elided engines — bare and under the sanitizing decorator — twice each, so
   cache misses, cache hits, stub first-use and stub reuse of both halves of
   an IPC are all compared with the spec, Figure 4 evaluated on plain
   :class:`~repro.core.labels.Label` s (:func:`spec_send`,
   :func:`spec_deliver`).
2. A table pins ``bill(work, stats, cost, mode)`` to the KERNEL_IPC cycles
   the pre-seam kernel (PR 11, ``d8015cf``) charged for the same operations,
   recorded by driving that kernel's ``_deliver`` / ``_sys_send`` directly
   — except an interned *miss*, which now runs and bills the plain
   operation on the full operands.
3. The ``Mirror`` metrics read through to the engine's own counters, also
   when a run ends on a stub miss (the hit-only delta sync they replace
   left the registry behind there).
"""

import copy
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.proofs import DeliverStub, LoadedProofs, SendStub, stub_key
from repro.analysis.sanitizer import LabelSanitizer, spec_deliver, spec_send
from repro.core import labelops as lo
from repro.core.chunks import OpStats
from repro.core.interning import LabelOpCache, check_key, delivery_keys, raise_key
from repro.core.labels import Label
from repro.core.levels import L0, L1, L2, L3, STAR
from repro.kernel.clock import CostModel
from repro.kernel.config import KernelConfig
from repro.kernel.elide import VerifiedFlowTable
from repro.kernel.engine import LOCAL, Figure4Engine, SanitizingEngine, Work, bill
from repro.kernel.kernel import Kernel
from repro.kernel.message import QueuedMessage
from repro.kernel.ports import Port
from repro.kernel.syscalls import Recv
from repro.obs.metrics import kernel_snapshot
from tests.test_conformance import _c, labels

PORT = 0x77


# -- 1. every engine == the naive Label spec ----------------------------------------


def _proven(ps, cs, es, ds, v, dr, pl, qs, qr):
    """A flow table holding the stubs asbcheck's proof compiler would emit
    for exactly this send and (when the spec allows it) this delivery."""
    proofs = LoadedProofs()
    proofs.send[raise_key(_c(ps), _c(cs))] = SendStub(
        lo.raise_receive(_c(ps), _c(cs)).without_stars()
    )
    ops = [_c(x) for x in (es, pl, qr, v, dr, qs, ds)]
    if spec_deliver(es, ds, v, dr, pl, qs, qr)[0] is None:
        if not check_key(_c(es), _c(qr), _c(dr), _c(v), _c(pl))[1]:  # T4: never compiled
            proofs.deliver[stub_key(PORT, delivery_keys(*ops))] = DeliverStub(
                lo.apply_send_effects(_c(qs), _c(es), _c(ds)).without_stars(),
                lo.raise_receive(_c(qr), _c(dr)).without_stars(),
            )
    return VerifiedFlowTable(proofs)


def _engines(flows):
    bare = {
        "plain": (Figure4Engine(), None),
        "interned": (Figure4Engine(LabelOpCache(size=8)), None),
        "elided": (Figure4Engine(LabelOpCache(size=8), flows), flows),
    }
    # A strict sanitizer raises on any divergence, so the decorated
    # engines double as a check that the decorator feeds it faithfully.
    kernel = types.SimpleNamespace(debug_log=lambda who, line: None)
    for name, (engine, table) in list(bare.items()):
        bare[f"sanitized-{name}"] = (
            SanitizingEngine(copy.copy(engine), LabelSanitizer(kernel), 1),
            table,
        )
    return bare


# Real traffic mostly leaves DS/V at {3} and DR at {⋆}; bias towards that so
# a good share of examples deliver (and so exercise effects and stub hits).
_mostly_top = st.one_of(st.just(Label({}, L3)), labels)
_mostly_bottom = st.one_of(st.just(Label({}, STAR)), labels)


@given(
    labels, labels, labels, _mostly_top, _mostly_top, _mostly_bottom, _mostly_top,
    labels, labels,
)
@settings(max_examples=120, deadline=None)
def test_every_engine_matches_the_label_spec(ps, cs, es, ds, v, dr, pl, qs, qr):
    want_privilege, want_es = spec_send(ps, cs, ds, dr)
    want_drop, want_qs, want_qr = spec_deliver(es, ds, v, dr, pl, qs, qr)
    flows = _proven(ps, cs, es, ds, v, dr, pl, qs, qr)
    for name, (engine, _) in _engines(flows).items():
        for attempt in ("first", "again"):  # miss/first-use, then hit/reuse
            drop, got_es, work = engine.send_join(
                _c(ps), _c(cs), _c(ds), _c(dr), OpStats(), "tx", PORT
            )
            assert drop == want_privilege, (name, attempt)
            assert got_es.to_label() == want_es, (name, attempt)
            assert isinstance(work, Work) and not work.delivery
            assert work.scan == len(ds) + len(dr)
            verdict = engine.deliver(
                PORT, _c(es), _c(ds), _c(v), _c(dr), _c(pl), _c(qs), _c(qr),
                OpStats(), True, "tx", "rx",
            )
            assert verdict.drop == want_drop, (name, attempt)
            assert verdict.work.delivery
            if want_drop is None:
                assert verdict.new_qs.to_label() == want_qs, (name, attempt)
                assert verdict.new_qr.to_label() == want_qr, (name, attempt)
            else:
                assert verdict.new_qs is None and verdict.new_qr is None
    assert flows.quarantines == 0


def test_elided_engine_hits_its_stubs_and_honours_elidable():
    ps, cs = Label({5: STAR}, L1), Label({6: L3}, STAR)
    es, qs, qr = Label({6: L3}, L1), Label({}, L1), Label({6: L3}, L2)
    top, bottom = Label({}, L3), Label({}, STAR)
    flows = _proven(ps, cs, es, top, top, bottom, top, qs, qr)
    engine = Figure4Engine(LabelOpCache(), flows)
    args = [_c(x) for x in (es, top, top, bottom, top, qs, qr)]
    first = engine.deliver(PORT, *args, OpStats()).work
    again = engine.deliver(PORT, *args, OpStats()).work
    assert first.stub and again.stub
    assert flows.first_use_checks == 1  # the claim is checked once per key
    assert first.check is first.effects is first.raised is None
    # Cross-shard ingress takes the checked path.
    checked = engine.deliver(PORT, *args, OpStats(), False).work
    assert not checked.stub and checked.check is not None
    send = (_c(ps), _c(cs), _c(top), _c(bottom), OpStats())
    assert engine.send_join(*send)[2].stub
    flows.quarantine("test")  # a quarantined table answers nothing
    assert not engine.deliver(PORT, *args, OpStats()).work.stub
    assert not engine.send_join(*send)[2].stub


def test_a_bad_stub_is_quarantined_even_when_the_violation_list_is_at_its_cap():
    ps, cs = Label({5: STAR}, L1), Label({6: L3}, STAR)
    es, qs, qr = Label({6: L3}, L1), Label({}, L1), Label({6: L3}, L2)
    top, bottom = Label({}, L3), Label({}, STAR)
    flows = _proven(ps, cs, es, top, top, bottom, top, qs, qr)
    (stub,) = flows.proofs.deliver.values()
    stub.new_qr_core = _c(Label({9: L3}, L2))  # a forged delta
    kernel = types.SimpleNamespace(debug_log=lambda who, line: None)
    sanitizer = LabelSanitizer(kernel, strict=False)  # observe mode, as in chaos runs
    for _ in range(LabelSanitizer.LIMIT):  # a wrong ES, privilege right
        sanitizer.check_effective_send(
            "tx", PORT, _c(ps), _c(cs), _c(top), _c(bottom), None, _c(ps)
        )
    assert len(sanitizer.violations) == sanitizer.total == LabelSanitizer.LIMIT
    engine = SanitizingEngine(Figure4Engine(LabelOpCache(), flows), sanitizer, 1)
    args = [_c(x) for x in (es, top, top, bottom, top, qs, qr)]
    verdict = engine.deliver(PORT, *args, OpStats(), True, "tx", "rx")
    # The table caught the forged claim on its first use, whatever the
    # sanitizer's list holds: the delivery is billed as a plain one, and
    # its labels are Figure 4's, so the sanitizer saw nothing new.
    assert not verdict.work.stub
    assert verdict.new_qr.to_label() == qr | bottom
    assert sanitizer.total == LabelSanitizer.LIMIT
    assert flows.quarantines == 1 and not flows.valid
    assert not engine.deliver(PORT, *args, OpStats(), True, "tx", "rx").work.stub


# -- 2. bill() == the cycles the pre-seam kernel charged ----------------------------


def _cl(entries, default):
    return _c(Label(entries, default))


_STARS = {200 + i: STAR for i in range(30)}
_BASE = dict(
    qs=_cl({10: STAR, 11: STAR, 20: L1, **_STARS}, L1),
    qr=_cl({20: L3, **{100 + i: L3 for i in range(40)}}, L2),
    es=_cl({20: L3, 30: STAR, 101: L3}, L1),
    ds=_cl({}, L3), v=_cl({}, L3), dr=_cl({}, STAR), pl=_cl({40: L3}, L3),
)
_SCENARIOS = {
    "deliver": {},
    "drop1": dict(v=_cl({20: L2}, L3)),
    "drop4": dict(dr=_cl({50: L3}, STAR), pl=_cl({50: L0}, L3)),
}
_PS = _cl({20: STAR, 101: STAR, **_STARS}, L1)
_CS = _cl({20: L3}, STAR)
_DECONT = dict(ds=_cl({20: STAR}, L3), dr=_cl({101: L3}, STAR))

#: (scenario, engine path) -> (paper cycles, fused cycles), as charged by
#: PR 11's Kernel._deliver (recv_base included) for these exact operands.
#: An interned miss bills what the plain path bills: it runs the plain
#: operation on the full operands (the pre-seam kernel billed it on
#: ⋆-stripped ones).
_PARENT_DELIVERY = {
    ("deliver", "plain"): (7296, 8735),
    ("deliver", "interned-miss"): (7296, 8735),
    ("deliver", "interned-hit"): (6110, 6110),
    ("drop1", "plain"): (6024, 6042),
    ("drop1", "interned-miss"): (6024, 6042),
    ("drop1", "interned-hit"): (5870, 5870),
    ("drop4", "plain"): (5820, 5792),
    ("drop4", "interned-miss"): (5820, 5792),
    ("drop4", "interned-hit"): (5820, 5792),
}
#: The same for Kernel._sys_send's label work (send_base excluded): the
#: ES join plus the requirement (2)/(3) walk over DS and DR, both in
#: send_join now.
_PARENT_SEND = {
    ("default", "plain"): (948, 2316),
    ("default", "interned-miss"): (948, 2316),
    ("default", "interned-hit"): (120, 120),
    ("decont", "plain"): (949, 2400),
}


def _paths():
    interned = Figure4Engine(LabelOpCache(size=64))
    return (("plain", Figure4Engine()), ("interned-miss", interned), ("interned-hit", interned))


def _billed(work, stats):
    """bill() in both modes, asserting it neither mutates nor remembers."""
    cost = CostModel()
    seen_work = {slot: getattr(work, slot) for slot in Work.__slots__}
    seen_stats = copy.copy(stats)
    cycles = tuple(bill(work, stats, cost, mode) for mode in ("paper", "fused"))
    assert cycles == tuple(bill(work, stats, cost, mode) for mode in ("paper", "fused"))
    assert {slot: getattr(work, slot) for slot in Work.__slots__} == seen_work
    assert stats == seen_stats and cost == CostModel()
    return cycles


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_bill_reproduces_parent_delivery_cycles(scenario):
    ops = {**_BASE, **_SCENARIOS[scenario]}
    for path, engine in _paths():
        stats = OpStats()
        verdict = engine.deliver(
            PORT, ops["es"], ops["ds"], ops["v"], ops["dr"], ops["pl"],
            ops["qs"], ops["qr"], stats,
        )
        assert (verdict.drop is None) == (scenario == "deliver")
        assert _billed(verdict.work, stats) == _PARENT_DELIVERY[scenario, path], path


@pytest.mark.parametrize("scenario", ["default", "decont"])
def test_bill_reproduces_parent_send_cycles(scenario):
    ds, dr = (_DECONT["ds"], _DECONT["dr"]) if scenario == "decont" else (
        _BASE["ds"], _BASE["dr"])
    for path, engine in _paths():
        if (scenario, path) not in _PARENT_SEND:
            continue
        stats = OpStats()
        drop, _, work = engine.send_join(_PS, _CS, ds, dr, stats)
        assert drop is None
        assert _billed(work, stats) == _PARENT_SEND[scenario, path], path


def test_bill_stub_hits_are_flat_probes():
    # PR 11's _deliver_elided charged elide_deliver_base + elide_stub_hit
    # and recorded no OpStats; an elided send charged elide_stub_hit on
    # top of the live requirement (2)/(3) walk.
    assert _billed(Work(True, True), OpStats()) == (2750 + 120, 2750 + 120)
    proofs = LoadedProofs()
    proofs.send[raise_key(_PS, _CS)] = SendStub(lo.raise_receive(_PS, _CS).without_stars())
    engine, stats = Figure4Engine(LabelOpCache(), VerifiedFlowTable(proofs)), OpStats()
    drop, _, work = engine.send_join(_PS, _CS, _DECONT["ds"], _DECONT["dr"], stats)
    assert drop is None and work.stub
    assert _billed(work, stats) == (120 + int(0.55 * 2), 120 + 42 * 2)


def test_bill_inlines_exactly_the_cost_model_structure_term():
    # bill() is the one spelling of the structure term; every OpStats
    # field distinct, so a term dropped or mis-priced shows.
    cost = CostModel()
    stats = OpStats(
        entries_scanned=3, chunks_skipped=5, labels_allocated=7, chunks_allocated=11,
        chunks_shared=13, operations=17, fast_path=19, full_merges=23,
    )
    structure = (
        17 * cost.label_op_base + 5 * cost.chunk_skip + 7 * cost.label_alloc
        + 11 * cost.chunk_alloc + 13 * cost.chunk_share
    )
    assert bill(LOCAL, stats, cost, "paper") == structure
    assert bill(LOCAL, stats, cost, "fused") == structure + 3 * cost.label_entry


# -- 3. mirrored metrics cannot fall behind the engine's counters -------------------


def _idle(ctx):
    yield Recv()


def test_mirrored_metrics_track_counters_when_a_run_ends_on_a_miss():
    ps, cs = Label({5: STAR}, L1), Label({6: L3}, STAR)
    es, qs, qr = Label({6: L3}, L1), Label({}, L1), Label({6: L3}, L2)
    top, bottom = Label({}, L3), Label({}, STAR)
    kernel = Kernel(
        config=KernelConfig(metrics=True, intern_labels=True, labelop_cache_size=2)
    )
    # Graft the proven world onto the kernel.
    kernel.flow_table = flows = _proven(ps, cs, es, top, top, bottom, top, qs, qr)
    kernel.engine = Figure4Engine(kernel.labelop_cache, flows)
    kernel._mirror_counters()
    task = kernel.spawn(_idle, "rx")
    entry = Port(handle=PORT, label=_c(top), owner=task.key)

    def deliver(send_label):
        task.send_label, task.receive_label = _c(send_label), _c(qr)
        message = QueuedMessage(
            seq=1, port=PORT, payload=None, effective_send=_c(es),
            decontaminate_send=_c(top), verify=_c(top),
            decontaminate_receive=_c(bottom), sender_name="tx",
        )
        assert kernel._try_deliver(task, entry, message)

    for _ in range(3):  # one batch of three stub hits...
        deliver(qs)
    # ...and the run ends on unproven receivers: stub misses whose label
    # ops churn the two-entry cache.
    deliver(Label({}, L2))
    deliver(Label({7: L2}, L1))

    metrics = kernel_snapshot(kernel)["metrics"]
    counters, cache = flows.counters(), kernel.labelop_cache.counters()
    assert counters["batch_drains"] == 1 and counters["batched_messages"] == 3
    assert counters["misses"] == 2 and cache["evictions"] > 0
    assert metrics["kernel.elide.deliver_stub_hits"] == counters["deliver_hits"] == 3
    assert metrics["kernel.elide.send_stub_hits"] == counters["send_hits"]
    for name in ("batch_drains", "batched_messages"):
        assert metrics[f"kernel.elide.{name}"] == counters[name], name
    for name in ("hits", "misses", "evictions"):
        assert metrics[f"kernel.labels.cache_{name}"] == cache[name], name
    assert metrics["kernel.ipc.delivered"] == 5
