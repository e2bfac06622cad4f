"""Self-time arithmetic of the benchmark's span recorder."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Span, Tracer, busy, covered, self_times, summarize  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert covered([], 0, 1) == 0


def test_nested_spans():
    # request [0, 10] > fuzz [1, 9] > check [2, 5] > sample [3, 4]
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tr.request = 0
    root = tr.begin("request")
    fuzz = tr.begin("diagnostics.fuzz")
    check = tr.begin("diagnostics.equivalence_check")
    sample = tr.begin("planes.sample_planes")
    for idx in (sample, check, fuzz, root):
        tr.end(idx)
    assert self_times(tr.spans) == [2, 5, 2, 1]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 2]
    summ = summarize(tr)
    assert summ.traced_s == 10 and summ.worst_gap_s == 0


def test_back_to_back_spans():
    # request [0, 10] with children [1, 4] and [4, 6], then a gap to 10
    tr = Tracer(clock=FakeClock([0, 1, 4, 4, 6, 10]))
    tr.request = 0
    root = tr.begin("request")
    tr.end(tr.begin("tensors.ricci"))
    tr.end(tr.begin("tensors.ricci"))
    tr.end(root)
    assert self_times(tr.spans) == [5, 3, 2]
    summ = summarize(tr)
    assert summ.calls["tensors.ricci"] == 2
    assert summ.self_s["tensors.ricci"] == 5
    assert summ.busy_s["tensors.ricci"] == 5
    assert summ.module_self("tensors") + summ.module_self("request") == summ.traced_s


def test_busy_counts_recursion_once():
    spans = [Span("canonical.pi1", 0, 4, -1, 0), Span("canonical.pi1", 1, 2, 0, 0)]
    assert busy(spans) == 4
    assert self_times(spans) == [3, 1]


def test_theorem_tags_get_their_own_busy_time():
    tr = Tracer(clock=FakeClock([0, 1, 3, 3, 7, 8]))
    tr.request = 0
    root = tr.begin("request")
    tr.end(tr.begin("diagnostics.equivalence_check", "Thm5_weakIsoAntihol_constAntihol"))
    tr.end(tr.begin("diagnostics.equivalence_check", "ThmA_weakIso_constK"))
    tr.end(root)
    summ = summarize(tr)
    assert summ.busy_s["diagnostics.equivalence_check.Thm5"] == 2
    assert summ.busy_s["diagnostics.equivalence_check.ThmA"] == 4
    assert summ.busy_s["diagnostics.equivalence_check"] == 6


def test_loop_brackets_each_request_with_reference_timings():
    from run import Loop

    class Work:
        def round(self):
            return ["a", "b"]

        def call(self, req):
            return req

        def check(self, req, out):
            return None

    timings = iter([1.0, 3.0, 5.0, 7.0])
    loop = Loop().run(Work(), 0.0, reference=lambda: next(timings))
    assert loop.kinds == [0, 1] and loop.refs == [2.0, 6.0]


def test_kind_median_weights_every_kind_once():
    from run import kind_median

    # kind 0 is cheap and common, kind 1 dear: each kind's median counts once
    assert kind_median([1, 2, 3, 10, 30], [0, 0, 0, 1, 1]) == (2 + 20) / 2
