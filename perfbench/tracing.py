"""Spans and counters recorded from outside the package.

A span is recorded around a call into a layer's public function: the
benchmark either opens it itself or installs a wrapper on the module
attribute through which the package makes the call.  Spans and counts stay
in memory until the run ends.  Untraced runs use `NullTracer` and install
no wrappers, so the package runs unwrapped.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict


class NullTracer:
    op = None

    def span(self, name, layer):
        return contextlib.nullcontext()


class Tracer:
    """Spans (name, layer, start, end, parent, op) and named counters."""

    def __init__(self):
        self.spans = []          # [id, name, layer, start, end, parent, op]
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, layer):
        rec = [len(self.spans), name, layer, time.perf_counter(), None,
               self._stack[-1][0] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def current(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    def count(self, key, value=1):
        self.counts[key] += value

    def wrap(self, fn, name, layer, on_result=None):
        """`fn` with a span around every call; `name` may be a callable of
        (args, kwargs) when one function serves several spans."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label, layer):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, label, out)
            return out
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attribute, name, layer, on_result)
        targets, or (owner, attribute, factory) where factory(tracer, fn)
        builds the replacement; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, *spec in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                if len(spec) == 1:
                    setattr(owner, attr, spec[0](self, fn))
                else:
                    setattr(owner, attr, self.wrap(fn, *spec))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # --- read-out ------------------------------------------------------

    def mean_ms(self, name):
        d = [s[4] - s[3] for s in self.spans if s[1] == name]
        return 1e3 * sum(d) / len(d) if d else 0.0

    def self_time_by_layer(self):
        """Seconds per layer: each span's duration minus its children's."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[5] is not None:
                child_time[s[5]] += s[4] - s[3]
        out = defaultdict(float)
        for s in self.spans:
            out[s[2]] += (s[4] - s[3]) - child_time[s[0]]
        return out

    def write(self, path):
        keys = ("id", "name", "layer", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)
