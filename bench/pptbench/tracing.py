"""Spans around the calls into each `ppt` layer, recorded from outside.

A layer is a module of `ppt`.  The calls between layers go through the
names a module imports from another one, so the tracer replaces each
public function (one listed in its module's `__all__`) that the
`ppt.cli`, `ppt.verify` and `ppt.transform` namespaces import by a
wrapper that records a span, and puts the originals back afterwards.
Calls inside one layer are not traced, with one exception:
`ppt.transform.external_support`, the share of compilation spent on
loop formulas.  The layer of a span is the module that defines the
function (`tht`, `ltlf`, `depgraph`, ...).  The harness adds one `cli`
root span per job around `ppt.cli.main`.

Counts are taken at the same boundaries from arguments and results.
Counting runs outside the measured call, inside a span of the `trace`
layer, so it is not charged to any `ppt` layer; it shows up in the
tracing overhead instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

NAMESPACES = ("ppt.cli", "ppt.verify", "ppt.transform")
INTRA_LAYER = {"ppt.transform": ("external_support",)}

_perf = time.perf_counter


class Span:
    __slots__ = ("name", "layer", "parent", "job", "start", "end", "counts")

    def __init__(self, name: str, layer: str, parent: int | None, job: int,
                 start: float = 0.0, end: float = 0.0):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.start = start
        self.end = end
        self.counts: dict | None = None

    def to_json(self) -> list:
        return [self.job, self.parent, self.layer, self.name, self.start,
                self.end, self.counts]


def _child_slots(tp) -> tuple[str, ...]:
    return tuple(slot for slot in ("arg", "lhs", "rhs") if hasattr(tp, slot))


def tree_size(formulas) -> int:
    """Total node count of formula trees, shared subtrees counted at
    every occurrence (the size of the printed output)."""
    slots: dict[type, tuple[str, ...]] = {}
    stack = list(formulas)
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        tp = type(node)
        names = slots.get(tp)
        if names is None:
            names = slots[tp] = _child_slots(tp)
        for name in names:
            stack.append(getattr(node, name))
    return count


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _search_counts(args, kwargs, models, alphabet_index: int) -> dict:
    # Brute force tries every trace: 2^(|alphabet| * length) candidates.
    alphabet = _arg(args, kwargs, alphabet_index, "alphabet")
    if alphabet is None:
        alphabet = args[0].alphabet
    length = _arg(args, kwargs, 1, "lam")
    return {"candidates": 2 ** (len(frozenset(alphabet)) * length),
            "models": len(models)}


def _ltlf_counts(args, kwargs, models) -> dict:
    counts = _search_counts(args, kwargs, models, 2)
    counts["input_nodes"] = tree_size(_arg(args, kwargs, 0, "fs"))
    return counts


def _emitted(formulas) -> dict:
    formulas = list(formulas)
    return {"formulas": len(formulas), "nodes": tree_size(formulas)}


# Counters by function name: (args, kwargs, result) -> counts.
COUNTERS = {
    "enumerate_ts_models": lambda a, k, r: _search_counts(a, k, r, 2),
    "enumerate_ltlf_models": _ltlf_counts,
    "parse_program": lambda a, k, r: {
        "bytes": len(_arg(a, k, 0, "src").encode("utf-8"))},
    "enumerate_loops": lambda a, k, r: {"loops": len(r)},
    "compile_unit": lambda a, k, r: _emitted(
        r.completion + r.loop_formulas + r.program_formulas),
    "completion": lambda a, k, r: _emitted(r),
    "loop_formulas": lambda a, k, r: _emitted(r),
    "program_as_ltlf": lambda a, k, r: _emitted(r),
    "verify_correspondence": lambda a, k, r: {"cases": 1},
    "run_correspondence_suite": lambda a, k, r: {"cases": r["cases"]},
    "run_lemma_suite": lambda a, k, r: {"cases": r["cases"]},
    "run_semantics_suite": lambda a, k, r: {"cases": r["cases"]},
}


class Tracer:
    """Collects spans in memory; `job` numbers the current job's spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack
        span = Span(name, layer, stack[-1] if stack else None, self.job)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = _perf()
        return span

    def _close(self, span: Span) -> None:
        span.end = _perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def _count(self, span: Span, counter, args, kwargs, result) -> None:
        start = _perf()
        span.counts = counter(args, kwargs, result)
        self.spans.append(Span("count", "trace", span.parent, self.job,
                               start, _perf()))

    def wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                self._count(span, counter, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array per span and line: job, parent index, layer,
        name, start, end, counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def _traced_names(module):
    """The cross-layer functions `module` imports, plus INTRA_LAYER."""
    extra = INTRA_LAYER.get(module.__name__, ())
    for name, value in vars(module).items():
        if not inspect.isfunction(value) or value.__name__ != name:
            continue
        home = value.__module__
        public = name in getattr(sys.modules.get(home), "__all__", ())
        if public and home.startswith("ppt.") and (
                home != module.__name__ or name in extra):
            yield name, value


@contextmanager
def installed(tracer: Tracer):
    """Wrap the traced functions of NAMESPACES; restore them on exit."""
    saved = []
    try:
        for module_name in NAMESPACES:
            module = importlib.import_module(module_name)
            for name, fn in list(_traced_names(module)):
                saved.append((module, name, fn))
                setattr(module, name, tracer.wrap(fn))
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


# ---------------------------------------------------------------------------
# Derived times
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (calls are sequential), so this
    is the part of the span that no child covers; the self times of a
    job's spans sum to its root span's duration.
    """
    selfs = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            selfs[s.parent] -= s.end - s.start
    return selfs
