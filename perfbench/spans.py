"""Span recording around the engine's public functions, from outside.

A :class:`Tracer` replaces a function or method by a wrapper that records
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory until :meth:`Tracer.dump`.  A span's self time is its
duration minus the time its direct children cover; the engine is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = Counter()
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a string or a function of the call's positional
        arguments.  ``count(counters, args, result)`` runs inside the span,
        so its cost lands in the span's own self time, not its parent's.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters = self._stack, self.counters
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fixed or name(args))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, result)
                return result
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, package, fn, name, count=None):
        """Rebind every module-level name in ``package`` bound to ``fn``.

        Modules import functions by name from each other, so wrapping
        only the defining module would miss most callers.
        """
        wrapped = self.wrap(name, fn, count)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
        return wrapped

    def patch_method(self, cls, fn, name, count=None):
        """Rebind every attribute of ``cls`` bound to ``fn``, aliases too."""
        wrapped = self.wrap(name, fn, count)
        for attr, value in list(vars(cls).items()):
            if value is fn:
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, wrapped)
        return wrapped

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        return span_totals(self.names, self.starts, self.ends, self.parents)

    def dump(self, path):
        """Write every span as parallel arrays with a name table."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            json.dump({
                "names": table,
                "name": [index[n] for n in self.names],
                "start": [round(s - t0, 7) for s in self.starts],
                "end": [round(e - t0, 7) for e in self.ends],
                "parent": self.parents,
                "counters": dict(self.counters),
            }, f, separators=(",", ":"))


def span_totals(names, starts, ends, parents):
    """Aggregate spans by name into (calls, inclusive, self) seconds.

    Inclusive time counts a span once even when a span of the same name
    encloses it, so recursion is not double counted.
    """
    durs = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(durs)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += durs[i]
    calls = Counter(names)
    incl = defaultdict(float)
    self_t = defaultdict(float)
    for i, name in enumerate(names):
        self_t[name] += durs[i] - child[i]
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            incl[name] += durs[i]
    return {n: (calls[n], incl[n], self_t[n]) for n in calls}
