"""Wall-clock spans around the public callables of each layer.

The program itself carries no tracing.  :class:`Tracer` wraps the
callables at run time, records one span per call in memory (name,
start, end, parent), and restores the originals on exit.  A layer's
self time is its spans' duration minus the part covered by their
child spans; a run is single-threaded, so children nest strictly.

Each wrapper is installed on the name its callers resolve at call
time: module globals for functions imported by name, class attributes
for methods, instance attributes on the registered kernel backend,
and the ``ALGORITHMS`` dispatch dict for Afforest.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Name of the span every cache ``get`` records; its note is hit/miss.
CACHE_GET = "service.cache.get"


def _targets():
    """(owner, attribute, span name, note) for every traced callable."""
    import repro.core.dolp as dolp
    import repro.core.thrifty as thrifty
    import repro.instrument.costmodel as costmodel
    import repro.service.executor as executor
    import repro.service.registry as registry
    import repro.storage as storage
    from repro.api import ALGORITHMS
    from repro.core.backends import KernelBackend, get_backend
    from repro.graph.datasets import DatasetSpec
    from repro.parallel.scheduler import WorkStealingScheduler
    from repro.service.cache import ResultCache
    from repro.storage.cache import BlockCache

    def found(out) -> bool:
        return out is not None

    targets = [
        (DatasetSpec, "build", "graph.build", None),
        (registry, "insert_edges", "graph.mutate.insert", None),
        (registry, "graph_fingerprint", "service.fingerprint", None),
        (registry, "probe_graph", "service.registry.probe", None),
        (executor, "plan", "service.planner", None),
        (executor, "replan", "service.planner", None),
        (ResultCache, "get", CACHE_GET, found),
        (ResultCache, "peek", "service.cache", None),
        (ResultCache, "touch", "service.cache", None),
        (ResultCache, "put", "service.cache", None),
        (executor, "delta_update", "incremental.delta", None),
        (thrifty, "label_propagation_cc", "core.engine", None),
        (dolp, "label_propagation_cc", "core.engine", None),
        (WorkStealingScheduler, "schedule", "parallel.scheduler", None),
        (costmodel, "simulate_run_time", "instrument.costmodel", None),
        (executor, "simulate_run_time", "instrument.costmodel", None),
        (storage, "write_blocked", "storage.spool", None),
        (BlockCache, "fetch", "storage.fetch", None),
        (ALGORITHMS, "afforest", "baselines.afforest", None),
    ]
    backend = get_backend()
    for name, member in vars(KernelBackend).items():
        if callable(member) and not name.startswith("_"):
            targets.append((backend, name, "core.backends", None))
    return targets


class Tracer:
    """Install span wrappers; collect spans; aggregate per layer.

    Use as a context manager around traced work.  ``spans`` holds
    ``[name, start_ns, end_ns, parent_index, note]`` records in call
    order; :meth:`take` hands them over and starts a fresh list.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installing -----------------------------------------------------

    def wrap(self, fn, name: str, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """Context manager recording one span from the caller's code."""
        return _Span(self, name)

    def __enter__(self) -> "Tracer":
        for owner, attr, name, note in _targets():
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self.wrap(original, name, note)
                self._undo.append((owner, attr, True, original))
                continue
            own = vars(owner)
            had = attr in own
            self._undo.append((owner, attr, had, own.get(attr)))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, note))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, had, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            elif had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, 0, 0, t._stack[-1] if t._stack else -1, None]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.rec[2] = time.perf_counter_ns()
        self.tracer._stack.pop()


class LayerTimes:
    """Per-name calls, total and self nanoseconds of one span list.

    ``by_root`` splits self time by the name of the outermost span
    (the benchmark's own operation span), so a layer's share of one
    method's wall time can be read off.
    """

    def __init__(self, spans: list[list]) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.notes: dict[str, int] = defaultdict(int)
        self.by_root: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        root = [0] * len(spans)
        for i, (name, start, end, parent, note) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            dur = end - start
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns[i]
            if note:
                self.notes[name] += 1
            self.by_root[spans[root[i]][0]][name] += dur - child_ns[i]

    def ms(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def per_call_us(self, name: str, *, self_time: bool = False) -> float:
        calls = self.calls.get(name, 0)
        ns = (self.self_ns if self_time else self.total_ns).get(name, 0)
        return ns / calls / 1e3 if calls else 0.0

    def share_of_root(self, layer: str, root: str) -> float:
        """``layer``'s self time inside ``root`` spans / their wall."""
        total = self.total_ns.get(root, 0)
        return self.by_root[root].get(layer, 0) / total if total else 0.0
