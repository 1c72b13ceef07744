"""In-memory span recorder for the traced benchmark run, plus the self-time
arithmetic the per-layer metrics are derived from.

Spans are recorded from the benchmark's side only: the recorder wraps calls
into the public functions of the `slice_radon` modules by swapping module
attributes for the length of the traced phase. Nothing under `src/` knows
about it.

Run this file directly to self-test the self-time arithmetic:

    python3 benchmark/spans.py
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # sid of the enclosing (or, for replays, the replayed) span
    kind: str  # "measured" | "replay"

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Single-threaded recorder: open spans nest through an explicit stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, kind: str = "measured", parent: int | None = None):
        sid = len(self.spans)
        if parent is None and self._open:
            parent = self._open[-1]
        rec = Span(sid, name, time.perf_counter_ns(), 0, parent, kind)
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()
            self._open.pop()

    def count(self, key: str, value: float = 1.0):
        self.counters[key] += value

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` wrapped in a span; `on_result(args, result)` may add counts."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        return traced

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, parent: Span, kind: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.parent == parent.sid and (kind is None or s.kind == kind)]

    def write_csv(self, path):
        lines = ["sid,parent,kind,name,start_ns,end_ns"]
        lines.extend(f"{s.sid},{'' if s.parent is None else s.parent},{s.kind},{s.name},"
                     f"{s.start_ns},{s.end_ns}" for s in self.spans)
        path.write_text("\n".join(lines) + "\n")


@contextmanager
def patched(replacements):
    """Swap (module, attribute, new_value) triples in and restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, new in replacements:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of [lo, hi] covered by the union of the given (start, end) intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_ns(parent: Span, nested: list[Span]) -> int:
    """Measured self time: the parent's duration minus what its nested children cover."""
    return parent.ns - covered_ns(parent.start_ns, parent.end_ns,
                                  [(c.start_ns, c.end_ns) for c in nested])


def derived_self_ns(parent: Span, replayed: list[Span]) -> int:
    """Derived self time: the parent's duration minus replayed child durations.

    Replays run after the parent on the same inputs, so they do not overlap
    it; their durations stand in for the child work done inside it. The
    result can come out slightly negative when the replay ran slower.
    """
    return parent.ns - sum(c.ns for c in replayed)


def self_test():
    def sp(sid, a, b, parent=None, kind="measured"):
        return Span(sid, f"s{sid}", a, b, parent, kind)

    parent = sp(0, 100, 200)
    assert self_ns(parent, []) == 100
    # disjoint children
    assert self_ns(parent, [sp(1, 110, 120, 0), sp(2, 150, 170, 0)]) == 70
    # overlapping children count once
    assert self_ns(parent, [sp(1, 110, 140, 0), sp(2, 130, 150, 0)]) == 60
    # children reaching outside the parent are clipped to it
    assert self_ns(parent, [sp(1, 90, 120, 0), sp(2, 190, 260, 0)]) == 70
    # a child covering the parent leaves no self time
    assert self_ns(parent, [sp(1, 50, 250, 0)]) == 0
    # nested grandchildren inside a child change nothing
    assert self_ns(parent, [sp(1, 110, 160, 0), sp(2, 120, 130, 1)]) == 50
    assert covered_ns(0, 10, []) == 0
    # derived self time subtracts replay durations, wherever they ran
    replays = [sp(1, 300, 330, 0, "replay"), sp(2, 330, 350, 0, "replay")]
    assert derived_self_ns(parent, replays) == 50
    assert derived_self_ns(parent, [sp(1, 300, 420, 0, "replay")]) == -20

    rec = SpanRecorder()
    with rec.span("outer") as outer:
        with rec.span("inner"):
            pass
    with rec.span("replayed", kind="replay", parent=outer.sid):
        pass
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert [s.name for s in rec.children(outer, "replay")] == ["replayed"]
    assert rec.spans[1].start_ns >= outer.start_ns and rec.spans[1].end_ns <= outer.end_ns


if __name__ == "__main__":
    self_test()
    print("spans self-test passed")
