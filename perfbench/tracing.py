"""Span tracing of the library's layers, installed from outside.

``Tracer.install`` replaces every public function of each layer module (the
names in its ``__all__``, and the public methods of the classes there) by a
recording wrapper, in every loaded ``omfisher`` module and every given
benchmark module that holds it by name; ``uninstall`` puts the originals
back.  Spans are kept in memory as (id, parent, thread, name, start, end,
ok) and written out at the end.

A span opened on a thread with no open span of its own (a sweep worker
thread) takes as parent the innermost open span of the thread that started
the operation, which is the ``run_sweep`` call waiting on that worker.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("params", "kernels", "dynamics", "output", "fisher", "pipeline",
          "sweep", "oracle", "validate", "config")

# A point whose evaluation raised this span's error ended unstable; the
# calls made for it count in ``calls`` but not in ``calls_per_point``.
POINT_SPAN = "pipeline.fisher_report"


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        """Push a new span id; returns (stack, parent id, span id)."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    @contextmanager
    def span(self, name):
        """A span around benchmark code (an operation, a validate suite)."""
        if self._root_stack is None:
            self._root_stack = self._stack()
        stack, parent, sid = self._open()
        ok = False
        t0 = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, threading.get_ident(), name, t0, t1, ok))

    def wrap(self, name, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent, sid = self._open()
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name, t0, t1, ok))
        return traced

    def install(self, extra_modules=()):
        wrappers = {}    # id(original) -> wrapper
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"omfisher.{layer}"]
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{public}", obj)
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(obj, meth, fn,
                                        self.wrap(f"{layer}.{public}.{meth}", fn))
        modules = [mod for name, mod in sys.modules.items()
                   if name == "omfisher" or name.startswith("omfisher.")]
        for mod in modules + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._patch(mod, attr, obj, wrappers[id(obj)])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, parent, tid, name, t0, t1, ok in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "thread": tid,
                                     "name": name, "start": t0, "end": t1,
                                     "ok": ok}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_stats(spans, points: int) -> dict:
    """name -> {calls, calls_per_point, self_ms, total_ms, p90_total_ms,
    ms_per_point}.

    ``self_ms`` is the median over calls of the span's duration minus the
    part of it that child spans cover (children on other threads too);
    ``total_ms`` and ``p90_total_ms`` are the median and 90th percentile of
    the duration, and ``ms_per_point`` is the summed duration per point.
    ``points`` counts the points that completed; calls made for points that
    ended unstable are left out of ``calls_per_point`` and ``ms_per_point``.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))

    unstable_memo = {0: False}

    def under_unstable_point(sid):
        path = []
        while sid not in unstable_memo:
            s = by_id.get(sid)
            if s is None:
                unstable_memo[sid] = False
                break
            if s[3] == POINT_SPAN and not s[6]:
                unstable_memo[sid] = True
                break
            path.append(sid)
            sid = s[1]
        for p in path:
            unstable_memo[p] = unstable_memo[sid]
        return unstable_memo[sid]

    per_name = {}
    for sid, parent, _, name, t0, t1, _ in spans:
        rec = per_name.setdefault(name, {"self": [], "total": [], "counted": 0,
                                         "counted_s": 0.0})
        dur = t1 - t0
        rec["total"].append(dur)
        rec["self"].append(dur - _covered(children.get(sid, ()), t0, t1))
        if not under_unstable_point(sid):
            rec["counted"] += 1
            rec["counted_s"] += dur
    per_point = 1.0 / points if points else 0.0
    return {name: {"calls": len(rec["total"]),
                   "calls_per_point": rec["counted"] * per_point,
                   "self_ms": 1e3 * statistics.median(rec["self"]),
                   "total_ms": 1e3 * statistics.median(rec["total"]),
                   "p90_total_ms": 1e3 * _p90(rec["total"]),
                   "ms_per_point": 1e3 * rec["counted_s"] * per_point}
            for name, rec in per_name.items()}


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
