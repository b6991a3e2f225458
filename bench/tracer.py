"""Spans and counts at the library's layer boundaries, taken from outside.

The tracer wraps functions of the ``bipcayley`` modules after they are
imported and rebinds every module global that refers to the original, so a
caller that looks a function up in its own module (``survey.build_cayley``,
``stabilizer.build_cayley``, ``_search.refine_partition`` inside
``_individualize``) calls the wrapper too.  The library itself is unchanged.

A span is opened around each wrapped call and named after its layer.  Self
time is a span's duration minus the time its child spans cover.  A call made
while the innermost open span already has the same name (the recursion of
``StabChain.add_generator``, a survey routine calling another) is counted but
opens no span, so its time stays in the outer span and is never counted
twice.  Spans are kept in memory and written out after the pass.

Functions too hot for a span get a call count only (``Automorphism.fixes_set``,
``StabChain.sift``); a few element-level helpers are not wrapped at all, and
their time stays in the calling span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

MAX_SPANS = 1 << 20
PACKAGE = "bipcayley"

# Span name for every wrapped function of a module, unless named below.
MODULE_SPAN = {
    "groups": "groups",
    "cayley": "cayley",
    "_search": "search.tree",
    "stabilizer": "stabilizer",
    "autos": "autos",
    "bounds": "bounds",
    "survey": "survey",
    "classify": "classify",
}

# Module functions with a span of their own; private ones listed here are
# wrapped too.
FUNCTION_SPAN = {
    "cayley.build_cayley": "cayley.build",
    "_search.refine_partition": "search.refine",
    "_search.is_digraph_automorphism": "search.leaf",
    "autos.enumerate_automorphisms": "autos.enumerate",
    "survey._orbit_generators": "survey.orbit_gens",
    "survey.orbit_representatives": "survey.orbit_reps",
    "survey._argmin_for": "survey.argmin",
    "survey._argmin_c26": "survey.argmin",
    "classify.verify_witness": "classify.verify",
}

# Element-level helpers called per vertex or per element: not wrapped.
UNWRAPPED = {
    "groups.bits_of",
    "groups.popcount",
    "_search.perm_compose",
    "_search.perm_invert",
    "_search.perm_on_set",
}

METHOD_SPAN = {
    "_search.StabChain.add_generator": "search.stabchain",
    "_search.AutomorphismSearch.run": "search.tree",
    "_search.AutomorphismSearch.order": "search.order",
    "_search.CanonicalSearch.run": "search.tree",
    "classify.ClassifyContext.__init__": "classify.context",
}

# Count-only methods; True keys the count by the innermost span's name.
METHOD_COUNT = {
    "_search.StabChain.sift": False,
    "autos.Automorphism.fixes_set": True,
    "autos.Automorphism.stabilizes": False,
}

# (span, innermost open span) -> name: chain work inside the strict rebuild
# of AutomorphismSearch.order() is charged to search.order.
INHERIT = {("search.stabchain", "search.order"): "search.order"}

# Layers whose share of the traced wall time is reported.
SHARE_LAYERS = ("groups", "cayley", "search.refine", "search.tree",
                "search.stabchain", "stabilizer", "autos", "bounds",
                "survey", "classify")


def layer_of(span: str) -> str:
    if span.startswith("search."):
        return {"search.leaf": "search.tree",
                "search.order": "search.stabchain"}.get(span, span)
    return span.split(".")[0]


class Tracer:
    def __init__(self):
        self.active = False
        self.counts: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []     # [name, start, child_s, span_id]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.patched: list[str] = []
        self.started = self.stopped = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str):
        stack = self.stack
        parent = -1
        if stack:
            top = stack[-1]
            name = INHERIT.get((name, top[0]), name)
            if top[0] == name:
                return None
            parent = top[3]
        span_id = len(self.span_start)
        if span_id < MAX_SPANS:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            span_id = -1
            self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        stack.append(frame)
        return frame

    def _close(self, frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] >= 0:
            self.span_start[frame[3]] = frame[1]
            self.span_end[frame[3]] = end

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, key: str):
        tracer = self
        hook = HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[key] += 1
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer._close(frame)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result
        return wrapper

    def _generator_wrapper(self, fn, name: str, key: str):
        """Each resumption of the generator is a span of its own, so the
        consumer's work between items is not charged to it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                yield from it
                return
            tracer.counts[key] += 1
            try:
                while True:
                    frame = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            tracer._close(frame)
                    tracer.counts[key + ".yielded"] += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def _count_wrapper(self, fn, key: str, by_span: bool):
        tracer = self
        counts = self.counts

        if by_span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.active:
                    stack = tracer.stack
                    counts[key + "@" + (stack[-1][0] if stack else "-")] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.active:
                    counts[key] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, fn, name: str, key: str):
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(fn, name, key)
        return self._span_wrapper(fn, name, key)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's layer functions and rebind every reference."""
        modules = {short: sys.modules[f"{PACKAGE}.{short}"]
                   for short in MODULE_SPAN}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                key = f"{short}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if key in UNWRAPPED or (attr.startswith("_")
                                        and key not in FUNCTION_SPAN):
                    continue
                name = FUNCTION_SPAN.get(key, MODULE_SPAN[short])
                self._rebind(fn, self._wrap(fn, name, key))
        for key, name in METHOD_SPAN.items():
            cls, meth = self._method(modules, key)
            setattr(cls, meth, self._wrap(getattr(cls, meth), name, key))
            self.patched.append(key)
        for key, by_span in METHOD_COUNT.items():
            cls, meth = self._method(modules, key)
            setattr(cls, meth,
                    self._count_wrapper(getattr(cls, meth), key, by_span))
            self.patched.append(key)
        cls, meth = self._method(modules, "_search.AutomorphismSearch._leaf")
        setattr(cls, meth, self._leaf_wrapper(getattr(cls, meth)))
        self.patched.append("_search.AutomorphismSearch._leaf")

    @staticmethod
    def _method(modules, key):
        short, cls_name, meth = key.split(".")
        return getattr(modules[short], cls_name), meth

    def _rebind(self, old, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    where = modname.partition(".")[2] or PACKAGE
                    self.patched.append(f"{where}.{attr}")

    def _leaf_wrapper(self, fn):
        """Counts the automorphisms a leaf adds to the search's group."""
        tracer = self

        @functools.wraps(fn)
        def _leaf(search, cells):
            if not tracer.active:
                return fn(search, cells)
            before = len(search.gens)
            try:
                return fn(search, cells)
            finally:
                tracer.counts["search.auts_registered"] += \
                    len(search.gens) - before
        return _leaf

    # -- control and output --------------------------------------------------

    def start(self) -> None:
        self.active = True
        self.started = time.perf_counter()

    def stop(self) -> None:
        self.stopped = time.perf_counter()
        self.active = False

    @property
    def wall_s(self) -> float:
        return self.stopped - self.started

    def summary(self) -> dict:
        return {"wall_s": self.wall_s,
                "counts": dict(sorted(self.counts.items())),
                "self_s": dict(sorted(self.self_s.items())),
                "spans": len(self.span_start) + self.dropped,
                "spans_dropped": self.dropped}

    def write_spans(self, path: str) -> None:
        """Spans as parallel arrays: name index, parent span (-1 at the
        root), start and end in nanoseconds from the start of tracing."""
        t0 = self.started
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "patched": self.patched,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start_ns": [round((t - t0) * 1e9)
                                    for t in self.span_start],
                       "end_ns": [round((t - t0) * 1e9)
                                  for t in self.span_end],
                       "dropped": self.dropped}, fh)


def _run_hook(counts, args, result) -> None:
    counts["search.aborts"] += bool(args[0].aborted)


def _orbit_reps_hook(counts, args, result) -> None:
    counts["survey.sets_examined"] += len(args[0])
    counts["survey.reps_searched"] += len(result)


HOOKS = {
    "_search.AutomorphismSearch.run": _run_hook,
    "survey.orbit_representatives": _orbit_reps_hook,
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".share", "_ratio", ".per_run", "_per_call", "_yield",
                        ".overhead")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    c = summary["counts"]
    s = summary["self_s"]
    wall = summary["wall_s"]

    def calls(key):
        return c.get(key, 0)

    def self_of(*names):
        return sum(s.get(n, 0.0) for n in names)

    runs = calls("_search.AutomorphismSearch.run")
    leaf_checks = calls("_search.is_digraph_automorphism")
    refines = calls("_search.refine_partition")
    classify_calls = (calls("classify.classify_directed")
                      + calls("classify.classify_undirected"))
    a2_tests = calls("autos.Automorphism.fixes_set@classify")
    layer_self = defaultdict(float)
    for name, value in s.items():
        layer_self[layer_of(name)] += value
    m = {
        "groups.self_s": self_of("groups"),
        "cayley.build.calls": calls("cayley.build_cayley"),
        "cayley.build.self_s": self_of("cayley.build"),
        "search.refine.calls": refines,
        "search.refine.self_s": self_of("search.refine"),
        "search.refine.per_run": _ratio(refines, runs),
        "search.runs": runs,
        "search.aborts": calls("search.aborts"),
        "search.abort_ratio": _ratio(calls("search.aborts"), runs),
        "search.leaf_checks": leaf_checks,
        "search.leaf.self_s": self_of("search.leaf"),
        "search.auts_registered": calls("search.auts_registered"),
        "search.leaf_yield": _ratio(calls("search.auts_registered"),
                                    leaf_checks),
        "search.tree.self_s": self_of("search.tree"),
        "search.stabchain.add.calls": calls("_search.StabChain.add_generator"),
        "search.stabchain.sift.calls": calls("_search.StabChain.sift"),
        "search.stabchain.self_s": self_of("search.stabchain"),
        "search.order.self_s": self_of("search.order"),
        "stabilizer.exact.calls": calls("stabilizer.vertex_stabilizer"),
        "stabilizer.bounded.calls": calls("stabilizer.stabilizer_order_bounded"),
        "stabilizer.self_s": self_of("stabilizer"),
        "autos.enumerate.calls": calls("autos.enumerate_automorphisms"),
        "autos.enumerate.yielded": calls(
            "autos.enumerate_automorphisms.yielded"),
        "autos.enumerate.self_s": self_of("autos.enumerate"),
        "survey.orbit_gens.self_s": self_of("survey.orbit_gens"),
        "survey.orbit_reps.self_s": self_of("survey.orbit_reps"),
        "survey.reps_ratio": _ratio(calls("survey.reps_searched"),
                                    calls("survey.sets_examined")),
        "survey.argmin.self_s": self_of("survey.argmin"),
        "classify.context.calls": calls("classify.ClassifyContext.__init__"),
        "classify.context.self_s": self_of("classify.context"),
        "classify.calls": classify_calls,
        "classify.self_s": self_of("classify"),
        "classify.a2_tests": a2_tests,
        "classify.a2_tests_per_call": _ratio(a2_tests, classify_calls),
        "classify.verify.self_s": self_of("classify.verify"),
    }
    for layer in SHARE_LAYERS:
        m[f"{layer}.share"] = _ratio(layer_self[layer], wall)
    m["bench.share"] = _ratio(wall - sum(layer_self.values()), wall)
    return m
