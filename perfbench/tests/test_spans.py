"""Span arithmetic, the tail-percentile rule and the call-site patcher."""

import sys
import types

import pytest

from spans import (Patches, Tracer, nearest_rank, self_times, summarize,
                   tail_percentile, union_length)


def _self_of(spans):
    starts = [s for s, _, _ in spans]
    ends = [e for _, e, _ in spans]
    parents = [p for _, _, p in spans]
    return self_times(starts, ends, parents)


def test_self_time_nested_children():
    # parent [0, 10] > child [2, 5] > grandchild [3, 4]
    got = _self_of([(0.0, 10.0, -1), (2.0, 5.0, 0), (3.0, 4.0, 1)])
    assert got == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_sibling_children():
    got = _self_of([(0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 8.0, 0)])
    assert got == pytest.approx([4.0, 2.0, 4.0])


def test_self_time_overlapping_children_count_once():
    # [1, 5] and [3, 7] cover 6 s together, not 8
    got = _self_of([(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0)])
    assert got[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_parent():
    got = _self_of([(0.0, 10.0, -1), (8.0, 12.0, 0), (-3.0, 1.0, 0)])
    assert got[0] == pytest.approx(7.0)


def test_union_length_cases():
    assert union_length([], 0.0, 1.0) == 0.0
    assert union_length([(1.0, 2.0), (2.0, 3.0)], 0.0, 5.0) == pytest.approx(2.0)
    assert union_length([(1.0, 4.0), (2.0, 3.0)], 0.0, 5.0) == pytest.approx(3.0)
    assert union_length([(6.0, 7.0)], 0.0, 5.0) == 0.0


def test_nearest_rank_and_count_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 50.0) == (50, 50)
    assert nearest_rank(values, 90.0) == (90, 10)
    assert nearest_rank(values, 99.0) == (99, 1)
    assert nearest_rank([7.0], 99.9) == (7.0, 0)


@pytest.mark.parametrize("n, pct, beyond", [
    (20, 50.0, 10),
    (100, 90.0, 10),
    (999, 90.0, 99),    # p99 would leave only 9 beyond
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_percentile_needs_ten_beyond(n, pct, beyond):
    values = [float(v) for v in range(1, n + 1)]
    p, value, count = tail_percentile(values)
    assert (p, count) == (pct, beyond)
    assert value == values[n - beyond - 1]


def test_tail_percentile_falls_back_to_median_when_too_few():
    p, value, count = tail_percentile([1.0, 2.0, 3.0])
    assert (p, value, count) == (50.0, 2.0, 1)


def test_wrap_records_parents_errors_and_counters():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    inner_t = tracer.wrap(inner, "inner", tag_of=lambda a: a[0],
                          after=lambda a, r: tracer.count("items", len(r)))

    def outer(x):
        return inner_t(x) + inner_t(x + 1)

    outer_t = tracer.wrap(outer, "outer",
                          name_of=lambda a: f"outer.{a[0]}")
    assert outer_t(2) == [2, 2, 3, 3, 3]
    with pytest.raises(ValueError):
        inner_t(-1)
    assert tracer.names == ["outer.2", "inner", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0, -1]
    assert tracer.tags == [None, 2, 3, -1]
    assert tracer.errors == [False, False, False, True]
    assert tracer.counters == {"items": 5}
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    table = summarize(tracer)
    assert table["inner"]["calls"] == 3
    assert table["inner"]["errors"] == 1
    assert table["outer.2"]["self_s"] <= table["outer.2"]["busy_s"]
    by_tag = summarize(tracer, by_tag=True)
    assert by_tag[("inner", 3)]["calls"] == 1


def test_summarize_busy_self_and_median():
    tracer = Tracer()
    root = tracer.add("a", 0.0, 4.0)
    tracer.add("b", 1.0, 2.0, parent=root)
    tracer.add("b", 2.5, 3.5, parent=root)
    tracer.add("a", 10.0, 12.0)
    table = summarize(tracer)
    assert table["a"]["calls"] == 2
    assert table["a"]["busy_s"] == pytest.approx(6.0)
    assert table["a"]["self_s"] == pytest.approx(4.0)
    assert table["b"]["p50_us"] == pytest.approx(1e6)


def test_patches_replace_every_reference_and_restore(monkeypatch):
    def target():
        return "original"

    pkg = types.ModuleType("fakepkg")
    user = types.ModuleType("fakepkg.user")
    pkg.target = target
    user.target = target
    user.alias = target
    other = types.ModuleType("elsewhere")
    other.target = target
    for mod in (pkg, user, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    class Thing:
        def method(self):
            return "method"

    with Patches("fakepkg") as patches:
        patches.function(target, lambda f: lambda: "wrapped " + f())
        patches.method(Thing, "method", lambda f: lambda self: f(self).upper())
        assert pkg.target() == user.target() == user.alias() == "wrapped original"
        assert other.target is target
        assert Thing().method() == "METHOD"
    assert pkg.target is user.target is user.alias is target
    assert Thing().method() == "method"


def test_patches_refuse_unreferenced_function():
    with pytest.raises(LookupError):
        Patches("fakepkg_absent").function(len, lambda f: f)
