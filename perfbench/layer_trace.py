"""Span tracing of opsplit's layers, installed from outside the package.

Each traced target is named by module and attribute path (``"Metric.apply"``)
and is looked up when tracing is installed, never at import time, so a target
that a later version of opsplit removes or renames is reported as absent
instead of failing the run.  A module-level function is replaced in every
``opsplit.*`` module that holds it (``from .x import f`` copies the name); a
method is replaced on its class and on every subclass that overrides it.

A span records its name, start, end, parent span and solve id.  Spans are kept
in memory and written out by ``write_spans`` when the run ends.  Self time is
accumulated per span name as it happens: a span's duration minus the time its
direct child spans cover.  Count-only targets are counted but open no span,
so their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    name: str          # span or counter name, shared by several targets
    module: str        # e.g. "opsplit.linops"
    attr: str          # "func" or "Class.method"
    count_only: bool = False
    on_return: Optional[Callable] = None


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    """Holds the spans, self times and call counts of one traced run."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, solve id)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.solve_id = -1
        self._stack = []         # [span id, child time]
        self._next_id = 0
        self._patches = []       # (owner, attr, original)
        self.absent = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((span_id, name, t0, t1, parent, self.solve_id))
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span of a new solve."""
        self.solve_id += 1
        return self._span(name, fn)(*args, **kwargs)

    def take_totals(self):
        """Return and reset (self times, call counts) since the last call."""
        totals = (dict(self.self_s), dict(self.calls))
        self.self_s.clear()
        self.calls.clear()
        return totals

    # -- installing ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        if target.count_only:
            return self._counter(target.name, fn)
        return self._span(target.name, fn, target.on_return)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, targets):
        """Wrap every target that exists; record the others in ``absent``.

        A function of a module outside opsplit (such as ``numpy.linalg.svd``)
        is replaced on that module only.
        """
        self.absent = []
        for t in targets:
            try:
                mod = importlib.import_module(t.module)
            except ImportError:
                mod = None
            head, _, method = t.attr.partition(".")
            obj = getattr(mod, head, None)
            if method:
                owners = _subclasses(obj) if isinstance(obj, type) else []
                found = [(c, method, c.__dict__[method]) for c in owners
                         if callable(c.__dict__.get(method))]
            elif callable(obj):
                holders = [mod] if not t.module.startswith("opsplit") else [
                    m for name, m in list(sys.modules.items())
                    if name.split(".")[0] == "opsplit" and m is not None]
                found = [(m, attr, obj) for m in holders
                         for attr, val in vars(m).items() if val is obj]
            else:
                found = []
            if not found:
                self.absent.append("%s:%s" % (t.module, t.attr))
            for owner, attr, fn in found:
                self._patch(owner, attr, self._wrap(t, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        """Write all spans, in the order they ended, as gzip-compressed CSV.

        Times are seconds since the first span started.
        """
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,solve\n")
            fh.writelines("%d,%s,%.7f,%.7f,%d,%d\n"
                          % (sid, name, t0 - origin, t1 - origin, parent, solve)
                          for sid, name, t0, t1, parent, solve in self.spans)
