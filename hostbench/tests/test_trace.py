"""The tracer computes self time from nesting, and puts back every
attribute it wrapped."""

import importlib
import time

from hostbench import trace


def _owners():
    seen = {}
    for targets in trace.TARGETS.values():
        for module_name, class_name, attribute, _ in targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            seen[(module_name, class_name, attribute)] = (owner, attribute)
    return seen


def test_install_wraps_and_remove_restores_every_boundary():
    owners = _owners()
    before = {key: owner.__dict__[attr] for key, (owner, attr) in owners.items()}
    tracer = trace.Tracer(tuple(trace.TARGETS))
    tracer.install()
    try:
        assert tracer.missing == []
        for key, (owner, attr) in owners.items():
            assert owner.__dict__[attr] is not before[key], key
            assert owner.__dict__[attr].__hostbench_original__ is before[key]
    finally:
        tracer.remove()
    for key, (owner, attr) in owners.items():
        assert owner.__dict__[attr] is before[key], key


def test_remove_runs_when_the_traced_block_raises():
    from repro.core import labelops

    original = labelops.check_send
    try:
        with trace.Tracer(("site",)):
            assert labelops.check_send is not original
            raise KeyError("boom")
    except KeyError:
        pass
    assert labelops.check_send is original


def test_missing_boundary_is_listed_not_fatal(monkeypatch):
    monkeypatch.setitem(trace.TARGETS, "gone", (("repro.core.labelops", None, "nope", "x"),))
    tracer = trace.Tracer(("gone",))
    with tracer:
        pass
    assert tracer.missing == ["repro.core.labelops:labelops.nope"]


def test_self_time_is_span_minus_children():
    tracer = trace.Tracer(())

    def inner():
        time.sleep(0.02)

    inner = tracer._wrap(inner, "inner")
    tracer.layer_of.update(inner="low", outer="high")

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer._wrap(outer, "outer")
    tracer.mark("resume-1")
    outer()
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    assert 0.035 < tracer.self_seconds("low") < 0.2
    assert 0.008 < tracer.self_seconds("high") < tracer.total_seconds("outer") - 0.035
    parent_index = [s[0] for s in tracer.spans].index("outer")
    assert [s[3] for s in tracer.spans if s[0] == "inner"] == [parent_index] * 2
    assert all(s[4] == "resume-1" for s in tracer.spans)
    assert len(tracer.durations("inner", ("resume", "read"))) == 2
    assert tracer.durations("inner", ("create",)) == []


def test_span_cap_drops_nested_spans_only_and_keeps_aggregates():
    tracer = trace.Tracer((), span_cap=3)
    tick = tracer._wrap(lambda: None, "tick")
    wave = tracer._wrap(lambda: [tick() for _ in range(5)], "wave")
    wave()
    wave()
    # wave, tick, tick fill the cap; the second wave is outermost, so kept.
    assert [s[0] for s in tracer.spans] == ["wave", "tick", "tick", "wave"]
    assert tracer.dropped == 8 and tracer.calls("tick") == 10
    assert len(tracer.durations("wave", ("",))) == 2
