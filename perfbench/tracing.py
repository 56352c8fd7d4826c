"""Time-and-count wrappers around each layer's public entry points.

The traced run measures where a workload's time goes without changing
a line under ``src/``: :class:`Tracer` patches the public functions,
methods and column properties listed in :func:`entry_points` for the
duration of a ``with tracer.installed():`` block and restores the
originals on exit.

Two kinds of boundary are recorded:

* **spans** — coarse calls (trace generation, ``run_cells``,
  ``replay`` ...) are kept one record each, in memory, with a link to
  the span that caused them;
* **tallies** — hot calls (``Cache.reference``, heap and Fenwick
  operations, column reads, ``ServedCache.request``) run millions of
  times, so each thread folds them into per-``(span, name)`` counters:
  calls, inclusive seconds and self seconds.  Thread-private tallies
  keep the counts exact while the replay's shard threads run.

Self time is a call's duration minus the time spent in the traced
calls it made.  A method reached from another traced method of the
same class (``FenwickTree.range_sum`` -> ``prefix_sum``) is internal to
that class and is not counted as a second boundary crossing.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional

#: ``ColumnarTrace`` column properties and string-table accessors.
COLUMN_PROPERTIES = ("timestamps", "sizes", "transfers", "doc_ids",
                     "type_codes", "epochs", "statuses", "ctype_ids")
COLUMN_METHODS = ("urls", "content_types")
HEAP_OPS = ("push", "pop", "remove", "update_key")
FENWICK_OPS = ("add", "range_sum", "prefix_sum")


@dataclass
class Span:
    """One recorded call of a coarse entry point."""

    id: int
    parent: Optional[int]
    name: str
    layer: str
    thread: int
    start: float
    end: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "thread": self.thread,
                "start": self.start, "end": self.end,
                "duration_s": self.duration, "self_s": self.self_s,
                "attrs": self.attrs}


@dataclass(frozen=True)
class EntryPoint:
    """One public function, method or property to wrap.

    ``kind`` is ``"span"`` (one record per call) or ``"call"``
    (folded into the caller's tally).  ``before``/``after`` observe a
    call: ``before(args)`` runs first, ``after(args, result, before,
    acc)`` updates the tally slots 3 and 4 (or, for a span,
    ``after(span, result)`` sets its attributes).
    """

    owner: object
    attr: str
    layer: str
    name: str
    kind: str = "call"
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _reference_before(args):
    return args[0].evictions


def _heap_after(args, result, before, acc):
    size = len(args[0])
    if size > acc[4]:
        acc[4] = size


def _replay_after(span, report):
    span.attrs["requests"] = report.requests
    span.attrs["drive_rps"] = report.requests_per_second


def entry_points() -> List[EntryPoint]:
    """The layer boundaries the traced run wraps, in layer order."""
    from repro.core.cache import Cache
    from repro.core.policy import AccessOutcome
    from repro.serving.cache import ServedCache
    from repro.simulation import engine
    from repro.structures.addressable_heap import AddressableHeap
    from repro.structures.fenwick import FenwickTree
    from repro.trace import columnar
    from repro.workload import generator

    # ``repro.serving`` re-exports the ``replay`` function under the
    # submodule's name, so fetch the module itself.
    replay_module = importlib.import_module("repro.serving.replay")
    hit = AccessOutcome.HIT

    def reference_after(args, result, before, acc):
        if result is hit:
            acc[3] += 1
        acc[4] += args[0].evictions - before

    trace_cls = columnar.ColumnarTrace
    points = [
        EntryPoint(generator, "generate_trace", "workload",
                   "generate_trace", "span"),
        EntryPoint(columnar, "write_columnar", "trace",
                   "write_columnar", "span"),
        EntryPoint(columnar, "open_columnar", "trace",
                   "open_columnar", "span"),
    ]
    points += [EntryPoint(trace_cls, attr, "trace",
                          f"ColumnarTrace.{attr}")
               for attr in COLUMN_PROPERTIES + COLUMN_METHODS]
    points += [
        EntryPoint(engine, "run_cells", "simulation", "run_cells",
                   "span"),
        EntryPoint(engine.CacheCell, "finalize", "simulation",
                   "CacheCell.finalize"),
        EntryPoint(Cache, "reference", "core", "Cache.reference",
                   before=_reference_before, after=reference_after),
    ]
    points += [EntryPoint(AddressableHeap, op, "structures",
                          f"AddressableHeap.{op}",
                          after=_heap_after if op == "push" else None)
               for op in HEAP_OPS]
    points += [EntryPoint(FenwickTree, op, "structures",
                          f"FenwickTree.{op}") for op in FENWICK_OPS]
    points += [
        EntryPoint(replay_module, "replay", "serving", "replay", "span",
                   after=_replay_after),
        EntryPoint(replay_module, "partition_trace", "serving",
                   "partition_trace", "span"),
        EntryPoint(ServedCache, "request", "serving",
                   "ServedCache.request"),
    ]
    return points


def _fold(into: list, acc, name: str) -> None:
    """Add one tally ``[calls, inclusive_s, self_s, hits, extra]`` into
    another; ``extra`` is a peak for ``AddressableHeap.push`` and a sum
    (evictions) otherwise."""
    for slot in range(4):
        into[slot] += acc[slot]
    if name == "AddressableHeap.push":
        into[4] = max(into[4], acc[4])
    else:
        into[4] += acc[4]


class Tracer:
    """Installs the wrappers and keeps spans and tallies in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[Dict[tuple, list]] = []
        self._main_stack: Optional[list] = None
        self._patches: List[tuple] = []

    # -- per-thread state ----------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            stack: list = []
            tally: Dict[tuple, list] = {}
            state = self._local.state = (stack, tally)
            with self._lock:
                self._tallies.append(tally)
                if threading.current_thread() is threading.main_thread():
                    self._main_stack = stack
        return state

    def _adopt(self) -> Optional[int]:
        """Parent for the first call on a thread with no open span:
        the innermost span open on the main thread (a replay's shard
        threads run inside the main thread's ``replay`` span)."""
        stack = self._main_stack
        return stack[-1][2] if stack else None

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """Record one span; traced calls inside it become children."""
        stack, _ = self._state()
        parent = stack[-1][2] if stack else self._adopt()
        with self._lock:
            record = Span(len(self.spans), parent, name, layer,
                          threading.get_ident(), 0.0)
            self.spans.append(record)
        frame = [None, 0.0, record.id]
        stack.append(frame)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            elapsed = record.end - record.start
            record.self_s = elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def _span_wrapper(self, fn, point: EntryPoint):
        after = point.after

        def wrapper(*args, **kwargs):
            with self.span(point.name, point.layer) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record, result)
                return result
        return wrapper

    def _call_wrapper(self, fn, point: EntryPoint):
        owner = point.owner
        internal = isinstance(owner, type)
        name = point.name
        before_hook, after_hook = point.before, point.after
        state_of = self._state
        adopt = self._adopt
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack, tally = state_of()
            if stack:
                top = stack[-1]
                if internal and top[0] is owner:
                    return fn(*args, **kwargs)
                anchor = top[2]
            else:
                anchor = adopt()
            frame = [owner, 0.0, anchor]
            stack.append(frame)
            before = before_hook(args) if before_hook is not None else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (anchor, name)
                acc = tally.get(key)
                if acc is None:
                    acc = tally[key] = [0, 0.0, 0.0, 0, 0]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame[1]
            if after_hook is not None:
                after_hook(args, result, before, acc)
            return result
        return wrapper

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for point in entry_points():
            original = point.owner.__dict__[point.attr]
            if isinstance(original, property):
                wrapped = property(self._call_wrapper(original.fget,
                                                      point))
            elif point.kind == "span":
                wrapped = self._span_wrapper(original, point)
            else:
                wrapped = self._call_wrapper(original, point)
            self._patches.append((point.owner, point.attr, original))
            setattr(point.owner, point.attr, wrapped)

    def remove(self) -> None:
        """Restore every original, in reverse order of installation."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- reading the record --------------------------------------------

    def tallies(self) -> Dict[tuple, list]:
        """Every thread's tallies merged, keyed ``(span id, name)``:
        ``[calls, inclusive_s, self_s, hits, extra]`` where ``extra``
        is evictions for ``Cache.reference`` and the peak heap length
        for ``AddressableHeap.push``."""
        merged: Dict[tuple, list] = {}
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for key, acc in tally.items():
                _fold(merged.setdefault(key, [0, 0.0, 0.0, 0, 0]), acc,
                      key[1])
        return merged

    def totals_under(self, root: Span) -> Dict[str, dict]:
        """Per-name totals of every traced call inside ``root``."""
        children: Dict[int, List[int]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record.id)
        inside = set()
        todo = [root.id]
        while todo:
            span_id = todo.pop()
            inside.add(span_id)
            todo.extend(children.get(span_id, ()))
        sums: Dict[str, list] = {}
        attrs: Dict[str, list] = {}
        for record in self.spans:
            if record.id in inside and record.id != root.id:
                _fold(sums.setdefault(record.name, [0, 0.0, 0.0, 0, 0]),
                      (1, record.duration, record.self_s, 0, 0),
                      record.name)
                attrs.setdefault(record.name, []).append(record.attrs)
        for (anchor, name), acc in self.tallies().items():
            if anchor in inside:
                _fold(sums.setdefault(name, [0, 0.0, 0.0, 0, 0]), acc,
                      name)
        return {name: {"calls": acc[0], "inclusive_s": acc[1],
                       "self_s": acc[2], "hits": acc[3], "extra": acc[4],
                       "attrs": attrs.get(name, [])}
                for name, acc in sums.items()}

    def roots(self, name: str) -> List[Span]:
        return [record for record in self.spans
                if record.parent is None and record.name == name]

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "spans": [record.as_dict() for record in self.spans],
            "tallies": [
                {"span": anchor, "name": name, "calls": acc[0],
                 "inclusive_s": acc[1], "self_s": acc[2],
                 "hits": acc[3], "extra": acc[4]}
                for (anchor, name), acc in sorted(
                    self.tallies().items(),
                    key=lambda item: (item[0][0] is None,
                                      item[0][0] or 0, item[0][1]))],
        }


# ----- per-layer metrics ------------------------------------------------------

_ALL = ("paper-grid", "lru-ladder", "replay-lru")


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and what it is expected to move.

    ``scope`` says which benchmark span it is read from: ``"setup"``
    (per set-up) or ``"pass"`` (per timed pass); values are medians
    over those spans.
    """

    name: str
    unit: str
    better: str
    layer: str
    moves: str
    workloads: tuple
    scope: str
    read: Callable[[Dict[str, dict]], float]


def _inclusive(*names):
    return lambda totals: sum(totals[n]["inclusive_s"]
                              for n in names if n in totals)


def _self(name):
    return lambda totals: totals[name]["self_s"] if name in totals else 0.0


def _calls(*names):
    return lambda totals: sum(totals[n]["calls"]
                              for n in names if n in totals)


def _extra(name):
    return lambda totals: totals[name]["extra"] if name in totals else 0


def _hit_ratio(totals):
    entry = totals.get("Cache.reference")
    if not entry or not entry["calls"]:
        return 0.0
    return entry["hits"] / entry["calls"]


def _drive_rps(totals):
    entry = totals.get("replay")
    if not entry:
        return 0.0
    return median(attrs["drive_rps"] for attrs in entry["attrs"])


_COLUMNS = tuple(f"ColumnarTrace.{attr}"
                 for attr in COLUMN_PROPERTIES + COLUMN_METHODS)
_HEAP = tuple(f"AddressableHeap.{op}" for op in HEAP_OPS)
_FENWICK = tuple(f"FenwickTree.{op}" for op in FENWICK_OPS)

#: The layer -> metric -> end-to-end metric -> workload map.  Each
#: entry names the end-to-end metric it should move and the workloads
#: on which it should move it; elsewhere the prediction is no change.
LAYER_METRICS = (
    LayerMetric("workload.generate_s", "s", "lower", "workload",
                "setup_s", _ALL, "setup",
                _inclusive("generate_trace")),
    LayerMetric("trace.write_s", "s", "lower", "trace", "setup_s",
                ("lru-ladder", "paper-grid"), "setup",
                _inclusive("write_columnar")),
    LayerMetric("trace.open_s", "s", "lower", "trace", "setup_s",
                ("lru-ladder", "paper-grid"), "setup",
                _inclusive("open_columnar")),
    LayerMetric("trace.columns_s", "s", "lower", "trace",
                "cell_req_per_s", ("lru-ladder",), "pass",
                _inclusive(*_COLUMNS)),
    LayerMetric("simulation.run_cells_s", "s", "lower", "simulation",
                "cell_req_per_s", ("paper-grid", "lru-ladder"), "pass",
                _inclusive("run_cells")),
    LayerMetric("simulation.self_s", "s", "lower", "simulation",
                "cell_req_per_s", ("lru-ladder", "paper-grid"), "pass",
                _self("run_cells")),
    LayerMetric("simulation.finalize_s", "s", "lower", "simulation",
                "cell_req_per_s", ("paper-grid",), "pass",
                _inclusive("CacheCell.finalize")),
    LayerMetric("core.reference_s", "s", "lower", "core",
                "cell_req_per_s", ("paper-grid", "replay-lru"), "pass",
                _inclusive("Cache.reference")),
    LayerMetric("core.reference_calls", "count", "lower", "core",
                "guard", _ALL, "pass", _calls("Cache.reference")),
    LayerMetric("core.evictions", "count", "lower", "core", "guard",
                _ALL, "pass", _extra("Cache.reference")),
    LayerMetric("core.hit_ratio", "ratio", "higher", "core", "guard",
                _ALL, "pass", _hit_ratio),
    LayerMetric("structures.heap_ops", "count", "lower", "structures",
                "cell_req_per_s", ("paper-grid",), "pass",
                _calls(*_HEAP)),
    LayerMetric("structures.heap_s", "s", "lower", "structures",
                "cell_req_per_s", ("paper-grid",), "pass",
                _inclusive(*_HEAP)),
    LayerMetric("structures.heap_peak_len", "count", "lower",
                "structures", "peak_rss_mb", ("paper-grid",), "pass",
                _extra("AddressableHeap.push")),
    LayerMetric("structures.fenwick_ops", "count", "lower",
                "structures", "cell_req_per_s", ("lru-ladder",), "pass",
                _calls(*_FENWICK)),
    LayerMetric("structures.fenwick_s", "s", "lower", "structures",
                "cell_req_per_s", ("lru-ladder",), "pass",
                _inclusive(*_FENWICK)),
    LayerMetric("serving.partition_s", "s", "lower", "serving",
                "req_per_s", ("replay-lru",), "pass",
                _inclusive("partition_trace")),
    LayerMetric("serving.request_s", "s", "lower", "serving",
                "req_per_s", ("replay-lru",), "pass",
                _inclusive("ServedCache.request")),
    LayerMetric("serving.lock_wait_s", "s", "lower", "serving",
                "latency_p99_us", ("replay-lru",), "pass",
                _self("ServedCache.request")),
    LayerMetric("serving.drive_rps", "1/s", "higher", "serving",
                "req_per_s", ("replay-lru",), "pass", _drive_rps),
)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value: the median over the traced
    run's ``setup`` or ``pass`` spans."""
    per_scope = {scope: [tracer.totals_under(root)
                         for root in tracer.roots(scope)]
                 for scope in ("setup", "pass")}
    values = {}
    for metric in LAYER_METRICS:
        readings = [metric.read(totals)
                    for totals in per_scope[metric.scope]]
        values[metric.name] = median(readings) if readings else 0.0
    return values
