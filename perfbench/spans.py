"""In-memory spans recorded from outside cubicsym.

A span is [name, start_ns, end_ns, parent, op]: parent is the index of the
enclosing span (-1 at the root) and op the id of the operation it belongs
to.  Spans come from two places: `span(name)` blocks in the benchmark's own
code, and `wrap`, which replaces a module-level function or class attribute
of cubicsym by a recording wrapper until `restore` puts the original back.
Nothing is written until the run ends.
"""

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._originals = []

    def begin(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
                           self.op])
        self.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, owner, attr, name):
        """Record a span around every call of owner.attr (through the attribute)."""
        original = owner.__dict__[attr]
        target = getattr(owner, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return target(*args, **kwargs)
            finally:
                end(index)

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def durations(self):
        """(name, duration_ns, self_ns, root_name, op) for every span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        roots = []
        for name, _, _, parent, _ in self.spans:
            roots.append(name if parent < 0 else roots[parent])
        return [(name, end - start, end - start - child_ns[i], roots[i], op)
                for i, (name, start, end, _, op) in enumerate(self.spans)]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
