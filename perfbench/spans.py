"""In-memory span recorder for the traced benchmark run.

A span is named "<layer>.<operation>[.<form>]"; the layer is the text
before the first dot. Coarse spans (pipeline stages and calls into a
module's public functions) are kept one record each. Hot calls that are
made hundreds of thousands of times per run (actor rates/ready/invoke,
kernel read/write/population/writable, graph adjacency queries) are folded
into one aggregate record per (parent span, name) holding the call count,
the summed duration, the first start and the last end. Aggregated calls
never contain traced children, so their self time is their duration.

Wrappers are installed only in the traced run: per-method wrappers on the
live actor and kernel objects of an execution instance, and, for objects
that the library creates internally on every step (graphs, PAFG tables),
on their classes and on module globals for the duration of one traced
iteration, restored afterwards. Nothing under the package's source tree is
edited.
"""

import time
from contextlib import contextmanager

perf_counter = time.perf_counter


def layer_of(name):
    return name.split(".", 1)[0]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "iteration", "child_s")

    def __init__(self, sid, name, start, parent, iteration):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.iteration = iteration
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "iteration": self.iteration,
        }


class Aggregate:
    """Calls of one hot method under one parent span."""

    __slots__ = ("name", "parent", "iteration", "count", "total", "first_start", "last_end")

    def __init__(self, name, parent, iteration, start):
        self.name = name
        self.parent = parent
        self.iteration = iteration
        self.count = 0
        self.total = 0.0
        self.first_start = start
        self.last_end = start

    def as_dict(self):
        return {
            "name": self.name, "parent": self.parent, "iteration": self.iteration,
            "count": self.count, "total": self.total,
            "first_start": self.first_start, "last_end": self.last_end,
        }


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class NullTracer:
    """Stand-in for the untraced run: spans cost one method call."""

    def span(self, name):
        return _NULL

    @contextmanager
    def iteration(self, number):
        yield

    def instrument_instance(self, instance):
        pass


class Tracer:
    def __init__(self, patches=()):
        self.spans = []
        self.aggregates = {}
        self._stack = []
        self._iteration = None
        self._in_leaf = False
        self._patches = patches

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), parent, self._iteration)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def span(self, name):
        return _SpanContext(self, name)

    @contextmanager
    def iteration(self, number):
        """Tag spans with the iteration id and install the class-level and
        module-level wrappers for the duration of one traced iteration."""
        self._iteration = number
        undo = []
        try:
            for owner, attr, name, aggregate in self._patches:
                original = getattr(owner, attr)
                wrapped = self.leaf(name, original) if aggregate else self.wrap(name, original)
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._iteration = None

    def wrap(self, name, fn):
        """Coarse span around every call of fn."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def leaf(self, name, fn):
        """Aggregated span around every call of fn. A wrapped call made
        while another one is running is not recorded separately."""
        stack = self._stack
        last = [None, None]  # parent span and its aggregate for this name

        def wrapper(*args):
            if self._in_leaf:
                return fn(*args)
            self._in_leaf = True
            t0 = perf_counter()
            try:
                result = fn(*args)
            except BaseException:
                self._in_leaf = False
                raise
            t1 = perf_counter()
            self._in_leaf = False
            parent = stack[-1]
            if last[0] is parent:
                agg = last[1]
            else:
                key = (parent.id, name)
                agg = self.aggregates.get(key)
                if agg is None:
                    agg = self.aggregates[key] = Aggregate(name, parent.id, self._iteration, t0)
                last[0], last[1] = parent, agg
            agg.count += 1
            agg.total += t1 - t0
            agg.last_end = t1
            return result
        return wrapper

    def instrument_instance(self, instance):
        """Per-method wrappers on the live actors and kernels of one
        execution instance; they shadow the class methods on each object."""
        for actor in instance.actors.values():
            for method in ("rates", "ready", "invoke"):
                setattr(actor, method, self.leaf(f"actors.{method}", getattr(actor, method)))
        for kernel in instance.kernels.values():
            for method in ("read", "write", "population", "writable"):
                setattr(kernel, method, self.leaf(f"kernels.{method}", getattr(kernel, method)))

    def export(self):
        return {
            "spans": [s.as_dict() for s in self.spans],
            "aggregates": [a.as_dict() for a in self.aggregates.values()],
        }


def analyze_iteration(tracer, number, root_name):
    """Self times and sanity checks for one traced iteration.

    Returns (root span, {span id: span}, aggregates, self time per layer,
    problems). The checks: every self time is >= 0, every child lies inside
    its parent, and the layer self times sum to the root span."""
    spans = {s.id: s for s in tracer.spans if s.iteration == number}
    aggs = [a for a in tracer.aggregates.values() if a.iteration == number]
    roots = [s for s in spans.values() if s.name == root_name]
    if len(roots) != 1:
        return None, spans, aggs, {}, [f"expected one {root_name!r} span, found {len(roots)}"]
    root = roots[0]
    problems = []
    for s in spans.values():
        s.child_s = 0.0
    for s in spans.values():
        if s.end is None:
            problems.append(f"span {s.name!r} never closed")
            continue
        if s.parent is None:
            continue
        parent = spans.get(s.parent)
        if parent is None:
            problems.append(f"span {s.name!r} has a parent outside its iteration")
            continue
        if s.start < parent.start or s.end > parent.end:
            problems.append(f"span {s.name!r} lies outside its parent {parent.name!r}")
        parent.child_s += s.duration
    for a in aggs:
        parent = spans.get(a.parent)
        if parent is None:
            problems.append(f"aggregate {a.name!r} has a parent outside its iteration")
            continue
        if a.first_start < parent.start or a.last_end > parent.end:
            problems.append(f"aggregate {a.name!r} lies outside its parent {parent.name!r}")
        parent.child_s += a.total
    if problems:
        return root, spans, aggs, {}, problems
    per_layer = {}
    for s in spans.values():
        self_s = s.duration - s.child_s
        if self_s < -1e-9:
            problems.append(f"span {s.name!r} has negative self time {self_s!r}")
        layer = layer_of(s.name)
        per_layer[layer] = per_layer.get(layer, 0.0) + self_s
    for a in aggs:
        layer = layer_of(a.name)
        per_layer[layer] = per_layer.get(layer, 0.0) + a.total
    total = sum(per_layer.values())
    if abs(total - root.duration) > 1e-6 * max(1.0, root.duration):
        problems.append(
            f"layer self times sum to {total!r} s, the iteration span is {root.duration!r} s"
        )
    return root, spans, aggs, per_layer, problems
