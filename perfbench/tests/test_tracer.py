"""Self-time accounting and wrap/unwrap behaviour of the tracer."""

import types

import pytest

from perfbench.tracer import Tracer, self_times, summarize


def span(name, start, end, parent=-1, attest=-1, note=None):
    return (name, start, end, parent, attest, note)


def test_leaf_self_time_is_its_duration():
    assert self_times([span("a", 1.0, 3.5)]) == [2.5]


def test_nested_spans_subtract_only_direct_children():
    spans = [span("root", 0.0, 10.0),
             span("child", 2.0, 8.0, parent=0),
             span("grandchild", 3.0, 5.0, parent=1)]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_siblings_with_gaps():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 2.0, parent=0),
             span("b", 4.0, 7.0, parent=0)]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 3.0])


def test_back_to_back_siblings_cover_their_union_once():
    spans = [span("root", 0.0, 6.0),
             span("a", 1.0, 3.0, parent=0),
             span("b", 3.0, 5.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_overlapping_and_overhanging_children_are_clipped():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 6.0, parent=0),
             span("b", 4.0, 8.0, parent=0),
             span("late", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_summarize_counts_calls_and_skips_folded_spans():
    spans = [span("x", 0.0, 1.0), span("x", 2.0, 4.0), span("y", 5.0, 6.0)]
    table = summarize(spans, [1.0, 2.0, None])
    assert table == {"x": {"calls": 2, "self_s": 3.0}}


class Base:
    def inherited(self, value):
        return ("inherited", value)


class Target(Base):
    def own(self, value):
        return self.inner(value) * 2

    def inner(self, value):
        return value + 1

    def boom(self):
        raise ValueError("boom")


def test_wrappers_record_nesting_and_restore_the_originals():
    module = types.ModuleType("fake")
    module.helper = lambda value: value * 3
    originals = {"own": vars(Target)["own"], "inner": vars(Target)["inner"],
                 "boom": vars(Target)["boom"], "helper": module.helper}
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.add(Target, "own", "t.own", root=True)
    tracer.add(Target, "inner", "t.inner", note=lambda args, r: args[1])
    tracer.add(Target, "inherited", "t.inherited")
    tracer.add(Target, "boom", "t.boom")
    tracer.add(module, "helper", "m.helper")
    target = Target()
    with tracer:
        assert target.own(4) == 10
        assert target.inherited(1) == ("inherited", 1)
        assert module.helper(2) == 6
        with pytest.raises(ValueError):
            target.boom()
    assert vars(Target)["own"] is originals["own"]
    assert vars(Target)["inner"] is originals["inner"]
    assert vars(Target)["boom"] is originals["boom"]
    assert "inherited" not in vars(Target)
    assert module.helper is originals["helper"]
    names = [s[0] for s in tracer.spans]
    assert names == ["t.own", "t.inner", "t.inherited", "m.helper", "t.boom"]
    own, inner = tracer.spans[0], tracer.spans[1]
    assert inner[3] == 0 and inner[5] == 4
    assert own[4] == inner[4] == 0
    assert tracer.spans[2][4] == -1
    boom = tracer.spans[4]
    assert boom[2] > boom[1]
    # Calls made after uninstall leave no spans.
    target.own(1)
    assert len(tracer.spans) == 5


def test_add_rejects_missing_attribute_and_double_install():
    original = vars(Target)["inner"]
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.add(Target, "missing", "x")
    tracer.add(Target, "inner", "t.inner")
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
    assert vars(Target)["inner"] is original
