"""In-memory spans and counters around isocurv's public functions.

A traced run wraps each public function listed in ``SPANNED`` wherever it
is bound: modules import names from each other, so ``sample_planes`` is
reached both as ``isocurv.planes.sample_planes`` and as
``isocurv.diagnostics.sample_planes``.  Every binding of the same function
object is replaced by one wrapper and restored afterwards.  Private helpers
are never wrapped, so their time lands in the self time of their public
caller.  ``COUNTED`` functions are called thousands of times per request
and only count calls.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# module -> public functions that get a span
SPANNED = {
    "cli": ["main"],
    "docio": ["save_document", "load_document"],
    "diagnostics": ["fuzz", "equivalence_check", "vanishing_report", "einstein_check",
                    "flatness_norms", "uniqueness_check", "random_curvature_like"],
    "planes": ["sample_planes", "sectional_curvature", "classify_plane",
               "classify_holomorphy", "gram_schmidt_indefinite"],
    "canonical": ["bochner", "conformal", "antiholomorphic_form_residual",
                  "theorem6_identities", "pi1", "pi2", "phi", "psi", "hybrid_residual",
                  "build_space_form", "build_constant_curvature",
                  "build_conformally_flat"],
    "tensors": ["ricci", "ricci_star", "conjugate", "scalar_curv", "scalar_star",
                "validate_curvature_like"],
    "model": ["hermitian_model", "validate_complex_structure"],
}
# module -> public functions that only count calls
COUNTED = {"model": ["inner"], "tensors": ["quad_eval"]}

ROOT = "request"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 for a request root
    request: int
    tag: str = ""


class Tracer:
    """Collects spans and counters for one traced phase of a run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.request = -1
        self.paused = False  # set while the benchmark checks answers
        self._stack: list[int] = []
        self._seen_planes: dict[int, object] = {}  # id -> object, kept alive

    def begin(self, name: str, tag: str = "") -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request, tag))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def clear(self) -> None:
        """Drop spans and counters but keep the record of returned plane lists."""
        self.spans.clear()
        self.counters.clear()

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn):
        tag_of = _theorem_tag if name == "diagnostics.equivalence_check" else None

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if name == "docio.load_document":
                self._count_bytes(name, args, kwargs)
            idx = self.begin(name, tag_of(args, kwargs) if tag_of else "")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if name == "docio.save_document":
                self._count_bytes(name, args, kwargs)
            elif name == "planes.sample_planes":
                self._note_planes(out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            if not self.paused:
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_bytes(self, name, args, kwargs) -> None:
        path = kwargs["path"] if "path" in kwargs else args[-1]
        self.counters[name + ".bytes"] += os.path.getsize(path)

    def _note_planes(self, out) -> None:
        """Count planes returned, and calls returning a list seen before in
        this phase (the plane cache's hit rate as seen from outside)."""
        self.counters["planes.sample_planes.planes"] += len(out)
        if id(out) in self._seen_planes:
            self.counters["planes.sample_planes.reused"] += 1
        else:
            self._seen_planes[id(out)] = out


def _theorem_tag(args, kwargs) -> str:
    tid = kwargs["theorem_id"] if "theorem_id" in kwargs else args[2]
    return tid.value


class Instrumented:
    """Context manager that installs a tracer's wrappers into isocurv."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name in SPANNED:
            importlib.import_module(f"isocurv.{name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "isocurv" or n.startswith("isocurv.")]
        for table, make in ((SPANNED, self.tracer.spanned), (COUNTED, self.tracer.counted)):
            for mod_name, names in table.items():
                mod = sys.modules[f"isocurv.{mod_name}"]
                for fn_name in names:
                    original = getattr(mod, fn_name)
                    wrapper = make(f"{mod_name}.{fn_name}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._undo.append((m, attr, value))
                                setattr(m, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for m, attr, value in reversed(self._undo):
            setattr(m, attr, value)
        self._undo.clear()
        return False


# -- span arithmetic -----------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def busy(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals (recursion counted once)."""
    return covered([(s.start, s.end) for s in spans], float("-inf"), float("inf"))


@dataclass
class Summary:
    """Totals over a traced phase.  ``busy_s`` is keyed by span name and,
    for ``diagnostics.equivalence_check``, also by ``name.<theorem key>``,
    the theorem id up to its first underscore."""

    calls: Counter
    self_s: defaultdict
    busy_s: defaultdict
    counters: Counter
    traced_s: float      # summed duration of the request root spans
    worst_gap_s: float   # max over requests of |sum of self times - root duration|

    def module_self(self, module: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".")[0] == module)


def summarize(tracer: Tracer) -> Summary:
    spans = tracer.spans
    calls, self_s = Counter(), defaultdict(float)
    groups = defaultdict(list)
    per_request, roots = defaultdict(float), {}
    for s, t in zip(spans, self_times(spans)):
        calls[s.name] += 1
        self_s[s.name] += t
        groups[s.name].append(s)
        if s.tag:
            groups[f"{s.name}.{s.tag.split('_')[0]}"].append(s)
        per_request[s.request] += t
        if s.name == ROOT:
            roots[s.request] = s.end - s.start
    busy_s = defaultdict(float, {k: busy(v) for k, v in groups.items()})
    gap = max((abs(per_request[r] - d) for r, d in roots.items()), default=0.0)
    return Summary(calls, self_s, busy_s, tracer.counters, sum(roots.values()), gap)
