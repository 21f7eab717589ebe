"""In-memory span tracer that wraps qgd's public functions from outside.

install() replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent span, op id) and
rebinds every module-level alias of it, because `from .x import y` copies
the binding (compiler.verify_schedule, pulses.kron, equivalence.kron, ...).
It also wraps numpy.linalg.eigh as a counter, keyed by the innermost open
span, to count KAK eigensolver attempts without taking self time from it.
uninstall() restores every binding it changed.

Spans stay in flat arrays until the run ends; self time is a span's duration
minus the durations of its direct children (spans nest strictly, since one
thread makes every call).
"""
from __future__ import annotations

import array
import collections
import inspect
import sys
import time

import numpy as np

ROOT = "bench.op"


class Tracer:
    def __init__(self, module_names, taggers=None, counters=None):
        """taggers: {span name: f(args, kwargs, result) -> str}, stored per
        span. counters: {span name: f(args, kwargs) -> number}, summed per
        span name."""
        self.module_names = list(module_names)
        self.taggers = taggers or {}
        self.counter_fns = counters or {}
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        # Typed arrays: ~40 bytes a span, where rwa_scan makes ~2.6e5 an op.
        self.span_name = array.array("q")
        self.span_parent = array.array("q")
        self.span_op = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.tags = {}
        self.counts = collections.Counter()
        self.eigh_by_span = collections.Counter()
        self.stack = [-1]
        self.op = -1
        self._restore = []

    # -- spans -----------------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def wrap(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tagger = self.taggers.get(name)
        counter = self.counter_fns.get(name)
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            if counter is not None:
                self.counts[name] += counter(args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = t0
                stack.pop()
            if tagger is not None:
                self.tags[idx] = tagger(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def op_span(self, op_id: int):
        """Context manager: the root span around one workload op."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op = op_id
                self.idx = tracer._open(0)
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                tracer.span_end[self.idx] = time.perf_counter()
                tracer.span_start[self.idx] = self.t0
                tracer.stack.pop()
                tracer.op = -1
                return False

        return _Op()

    def wrap_attr(self, owner, attr: str, name: str):
        """Span every call through owner.attr, for a layer entry point that
        is not a plain function (the click group); undone by uninstall."""
        fn = getattr(owner, attr)
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name))

    # -- install / uninstall ----------------------------------------------
    def install(self):
        mods = [sys.modules[m] for m in self.module_names]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and id(fn) not in wrappers):
                    wrappers[id(fn)] = self.wrap(fn, f"{short}.{attr}")
        # Rebind every alias, in the traced modules and the package root.
        for mod in mods + [sys.modules[self.module_names[0].split(".")[0]]]:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, w)

        orig_eigh = np.linalg.eigh
        names, span_name, stack, counts = (self.names, self.span_name,
                                           self.stack, self.eigh_by_span)

        def eigh(*args, **kwargs):
            top = stack[-1]
            counts[names[span_name[top]] if top >= 0 else None] += 1
            return orig_eigh(*args, **kwargs)

        self._restore.append((np.linalg, "eigh", orig_eigh))
        np.linalg.eigh = eigh
        return self

    def uninstall(self):
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------
    def arrays(self) -> dict:
        start = np.array(self.span_start, dtype=float)
        end = np.array(self.span_end, dtype=float)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.array(self.span_name, dtype=np.int64),
                "parent": parent,
                "op": np.array(self.span_op, dtype=np.int64),
                "start": start, "end": end, "dur": dur,
                "self": dur - child}

    def save(self, path: str):
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **{
            k: a[k] for k in ("name", "parent", "op", "start", "end")})
