"""Per-layer self-time tracing, done from outside the program.

:func:`instrument` patches the public methods in :data:`METHOD_SPANS` on
their classes (and on every subclass that overrides them), and wraps every
callback handed to ``EventQueue.push``/``push_bare`` in a span named after
the module that owns the callback.  Patching happens before the cluster is
built, so bound methods captured at construction go through the wrappers.

A span belongs to a layer, the package under ``repro`` (``sim``,
``storage``, ``replication``, ``core``, ``workloads``).  Its self time is
its duration minus the child spans in *other* layers; same-layer children
stay inside it, so per-span self times may overlap within a layer.  A
layer's self time counts every moment once: it sums the self times of the
layer's outermost spans, those whose parent is in another layer.  The
layer totals therefore add up exactly to the root spans' duration.

Spans are aggregated in memory (calls and self seconds per span name and
per layer) and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class, method, span name, item counter).  The item counter,
#: when given, extracts a size from the call's arguments (self excluded)
#: and is summed into ``items[span name]``.
METHOD_SPANS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.sim.simulator", "Simulator", "run_until", "sim.run_until", None),
    ("repro.storage.engine", "DatabaseEngine", "execute", "storage.execute", None),
    ("repro.storage.engine", "DatabaseEngine", "apply_writesets_fast",
     "storage.apply", lambda args: len(args[0])),
    ("repro.storage.buffer_pool", "BufferPool", "access", "storage.buffer", None),
    ("repro.storage.buffer_pool", "BufferPool", "scan", "storage.buffer", None),
    ("repro.storage.buffer_pool", "BufferPool", "warm", "storage.buffer", None),
    ("repro.storage.buffer_pool", "BufferPool", "invalidate", "storage.buffer", None),
    ("repro.replication.certifier", "Certifier", "certify_batch",
     "replication.certify", lambda args: len(args[0])),
    ("repro.replication.certifier", "Certifier", "truncate",
     "replication.truncate", None),
    ("repro.replication.certifier", "Certifier", "writesets_since",
     "replication.log", None),
    ("repro.replication.replica", "Replica", "submit", "replication.submit", None),
    ("repro.replication.replica", "Replica", "pull_updates", "replication.pull", None),
    ("repro.replication.replica", "Replica", "apply_remote_writesets",
     "replication.apply", lambda args: len(args[0])),
    ("repro.core.balancer", "LoadBalancer", "dispatch", "core.dispatch", None),
    ("repro.core.balancer", "LoadBalancer", "periodic", "core.periodic", None),
    ("repro.core.balancer", "LoadBalancer", "ingest_mix_counts", "core.ingest", None),
    ("repro.core.routing", "RoutingTable", "least_loaded", "core.least_loaded", None),
    ("repro.workloads.generator", "WorkloadGenerator", "next_type",
     "workloads.next_type", None),
)

LAYERS = ("sim", "storage", "replication", "core", "workloads")


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


class SpanRecorder:
    """A span stack that folds closed spans into per-name and per-layer sums.

    A frame is ``[span name, layer, other-layer time below it]``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.layer_self_s: Dict[str, float] = {}
        self.root_s = 0.0
        #: Longest event queue seen at any push.
        self.queue_peak = 0

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span."""
        frame = [name, layer_of(name), 0.0]
        self.stack.append(frame)
        clock = self.clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame, clock() - start)

    def close(self, frame: list, elapsed: float) -> None:
        stack = self.stack
        stack.pop()
        name, layer, below = frame
        own = elapsed - below
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if stack:
            parent = stack[-1]
            if parent[1] == layer:
                parent[2] += below
                return
            parent[2] += elapsed
        else:
            self.root_s += elapsed
        self.layer_self_s[layer] = self.layer_self_s.get(layer, 0.0) + own


def owner_module(callback: Callable) -> str:
    """The module whose code a scheduled callback runs.

    Bound methods belong to the module defining the function; lambdas and
    closures to the module they were written in; callable objects to their
    class's module.  A simulator-side wrapper holding the real callback in
    its closure (``Simulator.schedule_periodic``'s tick) is attributed to
    the callback it wraps.
    """
    func = getattr(callback, "__func__", None)
    if func is not None:
        return func.__module__
    code = getattr(callback, "__code__", None)
    if code is None:
        return type(callback).__module__
    module = callback.__module__
    if module.startswith("repro.sim.") and callback.__closure__:
        cells = dict(zip(code.co_freevars, callback.__closure__))
        if "callback" in cells:
            return owner_module(cells["callback"].cell_contents)
    return module


def callback_span(callback: Callable) -> str:
    """Span name of a scheduled callback: ``<layer>.<module>``."""
    parts = owner_module(callback).split(".")
    if len(parts) >= 3 and parts[0] == "repro":
        return "%s.%s" % (parts[1], parts[-1])
    return "harness." + parts[-1]


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Patch the layer boundaries for the duration of the block."""
    originals: List[Tuple[type, str, Callable]] = []

    def patch(cls: type, attr: str, replacement: Callable) -> None:
        originals.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    for module, cls_name, method, name, count in METHOD_SPANS:
        base = getattr(importlib.import_module(module), cls_name)
        for cls in _subclasses(base):
            if method in cls.__dict__:
                patch(cls, method, _method_wrapper(recorder, name, count,
                                                   cls.__dict__[method]))

    from repro.sim.events import EventQueue

    spans: Dict[object, str] = {}

    def wrap(callback: Callable) -> Callable:
        # Resolving the owner walks attributes, so cache it by the function
        # (bound methods), code object (plain functions) or class (callable
        # objects).  A wrapper holding a ``callback`` is resolved per call:
        # its owner is whatever it holds.
        key = getattr(callback, "__func__", None) or \
            getattr(callback, "__code__", None) or type(callback)
        name = spans.get(key)
        if name is None:
            name = callback_span(callback)
            if "callback" not in getattr(key, "co_freevars", ()):
                spans[key] = name
        return functools.partial(recorder.span, name, callback)

    push = EventQueue.__dict__["push"]
    push_bare = EventQueue.__dict__["push_bare"]

    def traced_push(self, time_, callback):
        event = push(self, time_, wrap(callback))
        if len(self._heap) > recorder.queue_peak:
            recorder.queue_peak = len(self._heap)
        return event

    def traced_push_bare(self, time_, callback):
        push_bare(self, time_, wrap(callback))
        if len(self._heap) > recorder.queue_peak:
            recorder.queue_peak = len(self._heap)

    patch(EventQueue, "push", traced_push)
    patch(EventQueue, "push_bare", traced_push_bare)
    try:
        yield
    finally:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)


def _method_wrapper(recorder: SpanRecorder, name: str,
                    count: Optional[Callable], fn: Callable) -> Callable:
    span = recorder.span
    if count is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = recorder.items
            items[name] = items.get(name, 0) + count(args[1:])
            return span(name, fn, *args, **kwargs)
    return wrapper
