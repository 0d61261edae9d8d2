"""Self-time arithmetic, span nesting, and wrapper removal."""

import pytest

from perfbench.spans import SpanRecorder, Wrapping, covered, self_times


def _self_times(spans):
    return self_times(spans.starts, spans.ends, spans.parents)


def test_self_time_subtracts_nested_children():
    spans = SpanRecorder()
    root = spans.add("root", 0.0, 10.0)
    left = spans.add("left", 1.0, 4.0, root)
    spans.add("grandchild", 2.0, 3.0, left)
    spans.add("right", 5.0, 6.0, root)
    assert _self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_child_outliving_its_siblings_is_counted_once():
    # ``long`` starts before and ends after ``short``: their union, not
    # their sum, is what the parent did not do itself
    spans = SpanRecorder()
    parent = spans.add("parent", 0.0, 10.0)
    spans.add("long", 1.0, 8.0, parent)
    spans.add("short", 2.0, 3.0, parent)
    assert _self_times(spans)[0] == pytest.approx(3.0)


def test_child_past_the_parent_end_is_clipped():
    starts, ends, parents = [0.0, 9.0], [10.0, 12.0], [-1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([9.0, 3.0])


def test_covered_merges_and_clips():
    assert covered([(3.0, 5.0), (1.0, 2.0), (4.0, 7.0)], 0.0, 6.0) == pytest.approx(4.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_wrapped_calls_nest_and_close_on_error():
    ticks = iter(range(100))
    spans = SpanRecorder(clock=lambda: float(next(ticks)))

    def inner(fail):
        if fail:
            raise KeyError("boom")
        return "ok"

    inner_traced = spans.wrap("layer.inner", inner)
    outer = spans.wrap("layer.outer", lambda: inner_traced(False))
    assert outer() == "ok"
    with pytest.raises(KeyError):
        inner_traced(True)
    assert spans.names == ["layer.outer", "layer.inner", "layer.inner"]
    assert spans.parents == [-1, 0, -1]
    assert all(end > start for start, end in zip(spans.starts, spans.ends))


class Base:
    def inherited(self):
        return "base"


class Leaf(Base):
    def own(self, value):
        return value * 2


def test_wrapping_restores_own_and_inherited_attributes():
    own_before = vars(Leaf)["own"]
    seen = []
    spans = SpanRecorder()
    targets = [
        (Leaf, "own", "leaf.own", lambda args, kwargs, result: seen.append(result)),
        (Leaf, "inherited", "leaf.inherited", None),
    ]
    with Wrapping(spans, targets):
        assert Leaf().own(3) == 6
        assert Leaf().inherited() == "base"
        assert "inherited" in vars(Leaf)
    assert vars(Leaf)["own"] is own_before
    assert "inherited" not in vars(Leaf)
    assert seen == [6]
    assert spans.names == ["leaf.own", "leaf.inherited"]


def test_wrapping_restores_after_an_exception():
    own_before = vars(Leaf)["own"]
    with pytest.raises(RuntimeError):
        with Wrapping(SpanRecorder(), [(Leaf, "own", "leaf.own", None)]):
            raise RuntimeError("traced code failed")
    assert vars(Leaf)["own"] is own_before
