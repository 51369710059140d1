"""Span tracer that times ehinfer's layers from outside the package.

The benchmark swaps public functions and methods (`ehinfer.<module>.<name>`)
for timing wrappers and puts the originals back afterwards. The package
looks these names up at call time (module globals and class attributes),
so nothing inside `src/` has to know about tracing.

A span has a name, start, end and parent. Its self time is its duration
minus the time its child spans cover. Spans stay in memory and are written
out when the run ends; per name, only the first SPAN_CAP spans are kept
individually, while calls, total and self time and every duration are
always aggregated. Counter-only hooks record counts without a span, for
calls too frequent or too cheap to time without distorting their parent.
"""

import contextlib
import functools
from array import array
from time import perf_counter

SPAN_CAP = 200                  # spans kept per name and traced iteration


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.spans = []
        self._stack = []            # open frames: [name, start, child_s, id]
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def exit(self):
        end = perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        if st.calls < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else 0, name, start, end))
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s
        st.durations.append(dur)

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def records(self, **extra):
        """Kept spans as dicts: id, parent (0 for a root), name, start, end."""
        return [dict(extra, id=i, parent=p, name=n, start=s, end=e)
                for i, p, n, s, e in self.spans]


def timed(tracer, name, fn, after=None, name_of=None):
    """Wrap fn in a span; `after(tracer, args, kwargs, result)` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name_of(args) if name_of else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def counted(tracer, name, fn, after=None):
    """Wrap fn with a call counter (`<name>.calls`) and no span."""
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.add(key, 1)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Context manager that installs wrappers and restores the originals.

    `restored` is set on exit: True when every patched attribute is the
    original object again.
    """

    def __init__(self):
        self._saved = []
        self.restored = None

    def set(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self.restored = all(owner.__dict__[attr] is original
                            for owner, attr, original in self._saved)
        return False
