import threading

import pytest

from garlbench.tracing import (Patcher, Span, SpanRecorder, read_chrome_trace,
                               rollup, self_time, timed, union_length,
                               write_chrome_trace)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert union_length([(4, 5)], 0, 3) == 0.0
    assert union_length([], 0, 1) == 0.0


def test_self_time_of_nested_spans():
    parent = Span(0, "p", 0.0, 10.0)
    a = Span(1, "a", 1.0, 3.0, parent=0)
    b = Span(2, "b", 5.0, 6.0, parent=0)
    assert self_time(parent, [a, b]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    parent = Span(0, "p", 0.0, 10.0)
    kids = [Span(1, "a", 1.0, 4.0, parent=0), Span(2, "b", 3.0, 6.0, parent=0),
            Span(3, "c", 9.0, 12.0, parent=0)]  # runs past the parent's end
    assert self_time(parent, kids) == pytest.approx(10.0 - 5.0 - 1.0)


def test_rollup_counts_outermost_calls_and_sums_self_time():
    spans = [Span(0, "root", 0.0, 10.0),
             Span(1, "fwd", 1.0, 5.0, parent=0),
             Span(2, "fwd", 2.0, 4.0, parent=1),  # recursion: same layer
             Span(3, "leaf", 2.5, 3.0, parent=2)]
    r = rollup(spans)
    assert (r["fwd"].count, r["fwd"].total) == (1, pytest.approx(4.0))
    # outer self 4 - 2, inner self 2 - 0.5
    assert r["fwd"].self_total == pytest.approx(3.5)
    assert r["root"].self_total == pytest.approx(6.0)
    assert r["leaf"].self_total == pytest.approx(0.5)


def test_recorder_parents_follow_the_call_stack_per_thread():
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            rec.count(5)
        def other():
            with rec.span("other"):
                pass
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["other"].parent is None  # another thread, another stack
    assert rec.counts() == {"outer": (1, 5)}


def test_timed_records_attrs_and_survives_exceptions():
    rec = SpanRecorder()

    def ok(x):
        return [x] * x

    def boom():
        raise KeyError("x")

    assert timed(rec, "ok", ok, lambda a, k, r: {"n": len(r)})(3) == [3, 3, 3]
    with pytest.raises(KeyError):
        timed(rec, "boom", boom)()
    assert [(s.name, s.attrs) for s in rec.spans] == [("ok", {"n": 3}),
                                                      ("boom", None)]


def test_patcher_restores_originals():
    class Thing:
        def f(self):
            return 1

    rec = SpanRecorder()
    with Patcher() as p:
        p.wrap(Thing, "f", lambda fn: timed(rec, "thing.f", fn))
        assert Thing().f() == 1
        assert len(rec.spans) == 1
    assert Thing().f() == 1 and len(rec.spans) == 1


def test_chrome_trace_round_trip(tmp_path):
    spans = [Span(0, "a", 1.0, 2.0), Span(1, "b", 1.25, 1.5, parent=0,
                                           rid="7:0", attrs={"rows": 2})]
    path = write_chrome_trace(tmp_path / "t.json", spans, other={"k": 1})
    back, other = read_chrome_trace(path)
    assert other["k"] == 1
    assert [(s.id, s.name, s.parent, s.rid, s.attrs) for s in back] == [
        (0, "a", None, None, None), (1, "b", 0, "7:0", {"rows": 2})]
    assert back[1].duration == pytest.approx(0.25)
