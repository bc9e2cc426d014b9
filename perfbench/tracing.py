"""Outside-in layer tracing for the traced benchmark run.

The program under test has no tracing of its own.  :class:`Tracer` wraps the
public entry point of each layer *where the caller looks the name up* (a
module global such as ``repro.core.session.plan_queries``, or a class
attribute such as ``AuditSession.run_many``) and restores every original on
:meth:`Tracer.uninstall`, so no line of ``src/`` changes.

* A span records its name, layer, start, end, parent span and trace id (the
  request id).  Each thread keeps its own span stack.
* Dispatcher threads of the audit service learn their request's id from the
  query batch the request carries: ``AuditService.submit`` registers the batch
  under the submitting request's id, and ``AuditSession.run_many`` looks its
  batch up.  Spans opened on that thread before the lookup (the session-pool
  lease) are stamped with the id then.
* Hot calls are not spanned.  Counting-engine block evaluations add their time
  to the enclosing span's children (so its self time stays right) and to a
  per-layer total; ``row_satisfies`` and ``bound.lower`` are only counted.
* Garbage-collection pauses (``gc.callbacks``) are handled like hot calls, in
  their own ``python`` layer.
* Wrappers record nothing in a forked worker process: process-backend spans
  are coordinator-side only.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter
_getpid = os.getpid

#: (module or class path, attribute, layer) of every spanned entry point.
SPANNED = (
    ("repro.core.session.AuditSession", "run_many", "session"),
    ("repro.core.session", "plan_queries", "planner"),
    ("repro.core.result_store.InMemoryResultStore", "lookup", "store"),
    ("repro.core.result_store.InMemoryResultStore", "extendable", "store"),
    ("repro.core.result_store.InMemoryResultStore", "refinable", "store"),
    ("repro.core.result_store.InMemoryResultStore", "insert", "store"),
    ("repro.core.result_store.InMemoryResultStore", "coverage", "store"),
    ("repro.core.iter_td.IterTDDetector", "_sweep", "search"),
    ("repro.core.iter_td.IterTDDetector", "_resume", "search"),
    ("repro.core.global_bounds.GlobalBoundsDetector", "_sweep", "search"),
    ("repro.core.global_bounds.GlobalBoundsDetector", "_resume", "search"),
    ("repro.core.prop_bounds.PropBoundsDetector", "_sweep", "search"),
    ("repro.core.prop_bounds.PropBoundsDetector", "_resume", "search"),
    ("repro.core.session", "top_down_search", "search"),
    ("repro.core.session", "refine_sweep", "refine"),
    ("repro.core.top_down", "minimal_patterns", "minimality"),
    ("repro.service.service.AuditService", "submit", "service"),
    ("repro.service.pool.SessionPool", "lease", "service"),
    ("repro.core.session", "create_search_executor", "executor.setup"),
    ("repro.core.engine.parallel.ParallelSearchExecutor", "search", "executor"),
    ("repro.core.top_down.SearchState", "merge", "executor.merge"),
)

#: Hot calls timed without a span: (path, attribute, layer).
ACCUMULATED = (("repro.core.engine.counting.CountingEngine", "child_block", "engine"),)

#: Hot calls only counted: (path, attribute, counter name).
COUNTED = (
    ("repro.core.pattern_graph.PatternCounter", "row_satisfies", "row_satisfies"),
    ("repro.core.bounds.GlobalBoundSpec", "lower", "bound_lower"),
    ("repro.core.bounds.ProportionalBoundSpec", "lower", "bound_lower"),
)


def _resolve(path: str):
    """The module or class named by a dotted ``path``."""
    import importlib

    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            owner = getattr(owner, name)
        return owner
    raise ImportError(path)


class _ThreadState:
    __slots__ = ("stack", "spans", "totals", "counts", "trace_id", "orphans")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.trace_id = None
        self.orphans: list[int] = []


class _SleepProxy:
    """Stands in for the ``time`` module inside the parallel executor, so the
    coordinator's poll sleeps become ``executor.wait`` spans."""

    def __init__(self, real, tracer: "Tracer") -> None:
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def sleep(self, seconds: float) -> None:
        tracer = self._tracer
        if _getpid() != tracer.pid:
            return self._real.sleep(seconds)
        state = tracer._state()
        frame = tracer._push(state, "executor.wait", "time.sleep")
        try:
            self._real.sleep(seconds)
        finally:
            tracer._pop(state, frame)


class Tracer:
    """Installs the layer wrappers and collects spans, totals and counts."""

    def __init__(self) -> None:
        self.pid = _getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._batches: dict[int, tuple] = {}
        self._patches: list[tuple] = []
        self._gc_started: dict[int, float] = {}

    # -- per-thread state ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _push(self, state: _ThreadState, layer: str, name: str) -> list:
        parent = state.stack[-1][0] if state.stack else 0
        frame = [next(self._ids), layer, name, _perf(), 0.0, state.trace_id, parent]
        state.stack.append(frame)
        return frame

    def _pop(self, state: _ThreadState, frame: list) -> None:
        end = _perf()
        state.stack.pop()
        if state.stack:
            state.stack[-1][4] += end - frame[3]
        if frame[5] is None:
            state.orphans.append(len(state.spans))
        state.spans.append((frame[0], frame[6], frame[5], frame[1], frame[2], frame[3], end, frame[4]))

    def _accumulate(self, state: _ThreadState, layer: str, duration: float) -> None:
        if state.stack:
            state.stack[-1][4] += duration
        state.totals[layer] += duration

    # -- requests -----------------------------------------------------------------
    def request(self, trace_id, kind: str):
        """Context manager: a root ``request`` span carrying ``trace_id``."""
        return _RequestSpan(self, trace_id, kind)

    def _adopt(self, state: _ThreadState, trace_id) -> None:
        """Give this thread's unattributed spans, and its next ones, ``trace_id``."""
        state.trace_id = trace_id
        for index in state.orphans:
            span = state.spans[index]
            state.spans[index] = span[:2] + (trace_id,) + span[3:]
        state.orphans.clear()

    # -- wrappers -----------------------------------------------------------------
    def _span_wrapper(self, layer: str, name: str, original):
        tracer = self
        before = {"submit": self._on_submit, "run_many": self._on_run_many}.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if _getpid() != tracer.pid:
                return original(*args, **kwargs)
            state = tracer._state()
            adopted = before(state, args) if before is not None else False
            evictions = args[0].evictions if name == "insert" else 0
            frame = tracer._push(state, layer, name)
            try:
                result = original(*args, **kwargs)
                tracer._after(state, name, args, result, evictions)
                return result
            finally:
                tracer._pop(state, frame)
                if adopted:
                    state.trace_id = None

        return wrapper

    def _on_submit(self, state: _ThreadState, args) -> bool:
        queries = args[3] if len(args) > 3 else None
        if isinstance(queries, tuple):
            with self._lock:
                self._batches[id(queries)] = (queries, state.trace_id)
        return False

    def _on_run_many(self, state: _ThreadState, args) -> bool:
        if state.trace_id is not None:
            return False
        with self._lock:
            entry = self._batches.pop(id(args[1]), None)
        if entry is None or entry[0] is not args[1]:
            return False
        self._adopt(state, entry[1])
        return True

    def _after(self, state: _ThreadState, name: str, args, result, evictions: int) -> None:
        """Counts taken where the work happens, from results and the store's counters."""
        counts = state.counts
        if name == "lookup":
            counts["store.lookups"] += 1
            counts["store.hits"] += result is not None
        elif name in ("extendable", "refinable"):
            counts["store.hits"] += result is not None
        elif name == "insert":
            counts["store.evictions"] += args[0].evictions - evictions
        elif name == "plan_queries":
            counts["planner.queries"] += result.n_queries
            counts["planner.steps"] += result.n_steps
            counts["planner.refine_steps"] += result.refine_steps
            counts["planner.extend_steps"] += result.extension_steps
        elif name == "minimal_patterns":
            counts["minimality.calls"] += 1
            counts["minimality.input_patterns"] += len(args[0])
        elif name == "refine_sweep":
            counts["refine.calls"] += 1

    def _accumulating_wrapper(self, layer: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if _getpid() != tracer.pid:
                return original(*args, **kwargs)
            started = _perf()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._accumulate(tracer._state(), layer, _perf() - started)

        return wrapper

    def _counting_wrapper(self, counter: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if _getpid() == tracer.pid:
                tracer._state().counts[counter] += 1
            return original(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _on_gc(self, phase: str, info) -> None:
        if _getpid() != self.pid:
            return
        ident = threading.get_ident()
        if phase == "start":
            self._gc_started[ident] = _perf()
        else:
            started = self._gc_started.pop(ident, None)
            if started is not None:
                self._accumulate(self._state(), "python.gc", _perf() - started)

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for path, attribute, layer in SPANNED:
            owner = _resolve(path)
            self._patch(owner, attribute, self._span_wrapper(layer, attribute, getattr(owner, attribute)))
        for path, attribute, layer in ACCUMULATED:
            owner = _resolve(path)
            self._patch(owner, attribute, self._accumulating_wrapper(layer, getattr(owner, attribute)))
        for path, attribute, counter in COUNTED:
            owner = _resolve(path)
            self._patch(owner, attribute, self._counting_wrapper(counter, vars(owner)[attribute]))
        parallel = _resolve("repro.core.engine.parallel")
        self._patch(parallel, "time", _SleepProxy(parallel.time, self))
        gc.callbacks.append(self._on_gc)

    def reset_counters(self) -> None:
        """Zero the hot-call totals and counts (spans are kept: they carry trace ids)."""
        for state in self._states:
            state.totals.clear()
            state.counts.clear()

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------
    def spans(self) -> list[tuple]:
        """Every finished span: (id, parent, trace, layer, name, start, end, child_s)."""
        with self._lock:
            states = list(self._states)
        return [span for state in states for span in state.spans]

    def totals(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        for state in self._states:
            for layer, value in state.totals.items():
                merged[layer] += value
        return merged

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        for state in self._states:
            for name, value in state.counts.items():
                merged[name] += value
        return merged

    def self_times(self, traces) -> dict[str, float]:
        """Self seconds per layer over spans whose trace id is in ``traces``."""
        result: dict[str, float] = defaultdict(float)
        for _, _, trace, layer, _, start, end, child in self.spans():
            if trace in traces:
                result[layer] += end - start - child
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, trace, layer, name, start, end, child in self.spans():
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace, "layer": layer,
                    "name": name, "start": start, "end": end, "self": end - start - child,
                }) + "\n")


class _RequestSpan:
    __slots__ = ("tracer", "trace_id", "kind", "state", "frame")

    def __init__(self, tracer: Tracer, trace_id, kind: str) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.kind = kind

    def __enter__(self):
        self.state = self.tracer._state()
        self.state.trace_id = self.trace_id
        self.frame = self.tracer._push(self.state, "request", self.kind)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._pop(self.state, self.frame)
        self.state.trace_id = None
