"""Traced-run tooling: wall-clock spans around the simulator's layers.

A :class:`Tracer` patches the public functions listed in ``TARGETS``
(one layer per ``src/repro/<package>``) with wrappers that time every
call on the wall clock.  It is imported only by a traced run; an
untraced run never loads this module, and :meth:`Tracer.uninstall`
puts every original function back.

Rules the wrappers follow:

* One span stack per thread.  The ``mix-si`` sessions run on threads
  that pass a baton, so a span's children are the wrapped calls made
  on its own thread.
* A layer's self time is a span's wall time minus the time of the
  wrapped calls nested in it on the same thread.
* A generator (``BTreeIndex.range_scan``), a context manager
  (``ObjectManager.borrow``) and a cursor (``execute_iter``) are timed
  while they are consumed, not only when they are created: every
  resume is an interval of the same span.
* ``wait`` targets (the scheduler's parking points) add their self
  time to the layer's wait time and never to any self time.  A
  ``join`` target (the main thread parked while sessions run) is
  subtracted from its parent and counted nowhere.
* A ``rows`` target is not timed: the length of the batch it returns
  is added to the layer's row count (``dist.rows_shipped`` counts the
  rows the exchange pulls from the shards).
* Functions are patched where callers look them up: class attributes
  for methods, every loaded ``repro`` module for module functions, and
  the entries of ``exec.ALGORITHMS``.

Aggregates are kept per thread, keyed by (phase, layer); spans of the
measured phase are kept in memory, up to a cap, and written out as a
Chrome trace-event file (``chrome://tracing``, Perfetto) on request.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

CALL, GEN, CURSOR, WAIT, JOIN, ROWS = "call", "gen", "cursor", "wait", "join", "rows"

#: (module, attribute path, layer, kind).  ``kind`` None means "call",
#: or "gen" for generator functions and context managers built on them.
TARGETS = (
    ("repro.derby.generator", "generate", "derby", None),
    ("repro.cluster.loader", "load_derby", "cluster", None),
    *(("repro.objects.manager", f"ObjectManager.{m}", "objects", None)
      for m in ("load", "unref", "borrow", "get_attr", "get_attr_at",
                "update_scalar", "update_set")),
    *(("repro.simtime.clock", f"SimClock.{m}", "simtime", None)
      for m in ("charge_us", "charge_ms", "charge_s")),
    *(("repro.buffer.client_server", f"ClientServerSystem.{m}", "buffer", None)
      for m in ("get_page", "mark_dirty", "flush", "restart_cold")),
    *(("repro.storage.disk", f"DiskManager.{m}", "storage", None)
      for m in ("read_page", "write_page", "allocate_page")),
    *(("repro.index.btree", f"BTreeIndex.{m}", "index", None)
      for m in ("range_scan", "lookup", "insert", "remove", "bulk_build")),
    ("repro.exec.joins", "ALGORITHMS[*]", "exec", None),
    ("repro.exec.scans", "select_scan", "exec", None),
    ("repro.exec.scans", "select_indexed", "exec", None),
    ("repro.exec.hash_table", "QueryHashTable.insert", "exec", None),
    ("repro.exec.hash_table", "QueryHashTable.probe_all", "exec", None),
    ("repro.oql.parser", "parse", "oql", None),
    ("repro.oql.engine", "OQLEngine.plan", "oql", None),
    ("repro.oql.engine", "OQLEngine.compile", "oql", None),
    ("repro.oql.engine", "OQLEngine.execute", "oql", None),
    ("repro.oql.engine", "OQLEngine.execute_iter", "oql", CURSOR),
    ("repro.txn.manager", "TransactionManager.begin", "txn", None),
    ("repro.txn.manager", "TransactionManager.vacuum", "txn", None),
    ("repro.txn.manager", "Transaction.commit", "txn", None),
    ("repro.txn.manager", "Transaction.abort", "txn", None),
    ("repro.txn.locks", "LockManager.acquire", "txn", None),
    ("repro.txn.locks", "LockManager.release_all", "txn", None),
    ("repro.txn.log", "WriteAheadLog.append", "txn", None),
    ("repro.txn.log", "WriteAheadLog.flush", "txn", None),
    ("repro.service.service", "Session.execute", "service", None),
    ("repro.service.service", "Session.execute_iter", "service", CURSOR),
    ("repro.service.service", "Session.update_scalar", "service", None),
    ("repro.service.service", "QueryService.run", "service", None),
    *(("repro.service.scheduler", f"CooperativeScheduler.{m}", "service", WAIT)
      for m in ("yield_point", "batch_point", "wait_for_lock",
                "wait_for_admission")),
    ("repro.service.scheduler", "CooperativeScheduler.run", "service", JOIN),
    ("repro.dist.coordinator", "Coordinator.plan", "dist", None),
    ("repro.dist.coordinator", "Coordinator.execute", "dist", None),
    ("repro.dist.cluster", "ShardedCluster.call", "dist", None),
    ("repro.dist.cluster", "ShardedCluster.fanout", "dist", None),
    ("repro.dist.twopc", "DistTransaction.commit", "dist", None),
    ("repro.dist.replication", "ReplicaLink.ship", "dist", None),
    ("repro.dist.exchange", "ExchangeOperator._pull", "dist", ROWS),
)

class Agg:
    """One (phase, layer) aggregate on one thread."""

    __slots__ = ("calls", "self_s", "wall_s", "wait_s", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        #: Wall time of spans not nested in a span of the same layer.
        self.wall_s = 0.0
        self.wait_s = 0.0
        self.rows = 0


class _ThreadState:
    __slots__ = ("stack", "agg", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: list = []
        self.agg: dict[tuple[str, str], Agg] = {}
        self.tid = tid


class _Resumable:
    """A generator proxy whose every resume is an interval of one span."""

    __slots__ = ("_gen", "_tracer", "_name", "_layer", "_span_id")

    def __init__(self, gen, tracer: "Tracer", name: str, layer: str, span_id: int):
        self._gen = gen
        self._tracer = tracer
        self._name = name
        self._layer = layer
        self._span_id = span_id

    def __iter__(self):
        return self

    def _resume(self, method, *args):
        tracer = self._tracer
        frame = tracer._open(self._name, self._layer, GEN, self._span_id)
        try:
            return method(*args)
        finally:
            tracer._close(frame, perf_counter())

    def __next__(self):
        return self._resume(self._gen.__next__)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._resume(self._gen.close)


class Tracer:
    """Patches ``TARGETS``, keeps spans and aggregates, restores."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        #: The benchmark's phase: "setup", "run" or "check".
        self.phase = "setup"
        #: The benchmark op being measured (a label), recorded per span.
        self.op: str | None = None
        self.spans: list[tuple] = []
        self.dropped = 0
        self.gc_s: dict[str, float] = {}
        self.gc_collections: dict[str, int] = {}
        self._gc_started = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, object, object]] = []

    # -- spans ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _open(self, name: str, layer: str, kind: str, span_id: int | None = None):
        state = self._state()
        stack = state.stack
        parent = stack[-1][4] if stack else 0
        if span_id is None:
            span_id = next(self._ids)
        # name, layer, kind, start, id, parent, child time, thread state
        frame = [name, layer, kind, 0.0, span_id, parent, 0.0, state]
        stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _close(self, frame, end: float) -> None:
        name, layer, kind, start, span_id, parent_id, child, state = frame
        stack = state.stack
        stack.pop()
        dur = end - start
        outer = True
        if stack:
            parent = stack[-1]
            parent[6] += dur
            outer = parent[1] != layer
        agg = self._agg(state, layer)
        if kind is WAIT:
            agg.wait_s += dur - child
        elif kind is not JOIN:
            agg.self_s += dur - child
            if outer:
                agg.wall_s += dur
            if kind is not GEN:
                agg.calls += 1
        if self.phase == "run" or layer in ("derby", "cluster"):
            if len(self.spans) < self.max_spans:
                self.spans.append((name, layer, start, end, span_id, parent_id,
                                   self.op, state.tid))
            else:
                self.dropped += 1

    def _agg(self, state: _ThreadState, layer: str) -> Agg:
        key = (self.phase, layer)
        agg = state.agg.get(key)
        if agg is None:
            agg = state.agg[key] = Agg()
        return agg

    def _count_call(self, layer: str) -> None:
        """Count a resumable span's call once, at its creation."""
        self._agg(self._state(), layer).calls += 1

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, fn, name: str, layer: str, kind: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name, layer, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter())

        return wrapper

    def _wrap_gen(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count_call(layer)
            return _Resumable(fn(*args, **kwargs), tracer, name, layer,
                              next(tracer._ids))

        return wrapper

    def _wrap_rows(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            batch = fn(*args, **kwargs)
            tracer._agg(tracer._state(), layer).rows += len(batch)
            return batch

        return wrapper

    def _wrap_cursor(self, fn, name: str, layer: str):
        """Time creation as a call, then every batch pulled from the
        returned cursor as a resume of a span of the same name."""
        call = self._wrap_call(fn, name, layer, CALL)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cursor = call(*args, **kwargs)
            batches = cursor.batches
            span_id = next(tracer._ids)

            def timed_batches(*a, **kw):
                return _Resumable(batches(*a, **kw), tracer, name, layer, span_id)

            cursor.batches = timed_batches
            return cursor

        return wrapper

    def _wrapper_for(self, fn, name: str, layer: str, kind: str | None):
        if kind in (WAIT, JOIN):
            return self._wrap_call(fn, name, layer, kind)
        if kind == CURSOR:
            return self._wrap_cursor(fn, name, layer)
        if kind == ROWS:
            return self._wrap_rows(fn, layer)
        raw = getattr(fn, "__wrapped__", None)
        if raw is not None and inspect.isgeneratorfunction(raw):
            # A @contextmanager: time the generator it drives.
            return contextmanager(self._wrap_gen(raw, name, layer))
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(fn, name, layer)
        return self._wrap_call(fn, name, layer, CALL)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every target where its callers look it up."""
        for module_name, path, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            layer_name = f"{layer}.{path.split('.')[-1]}"
            if path.endswith("[*]"):
                table = getattr(module, path[:-3])
                for key, fn in list(table.items()):
                    self._set(table, key, self._wrapper_for(
                        fn, f"{layer}.{key}", layer, kind))
            elif "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[attr]
                self._set(cls, attr, self._wrapper_for(fn, layer_name, layer, kind))
            else:
                fn = getattr(module, path)
                wrapped = self._wrapper_for(fn, layer_name, layer, kind)
                holders = [m for n, m in list(sys.modules.items())
                           if n == "repro" or n.startswith("repro.")]
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, attr, wrapped)
        gc.callbacks.append(self._on_gc)
        return self

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        key = self.phase
        self.gc_s[key] = self.gc_s.get(key, 0.0) + perf_counter() - self._gc_started
        self.gc_collections[key] = self.gc_collections.get(key, 0) + 1

    # -- results -------------------------------------------------------------

    def take(self) -> dict[tuple[str, str], Agg]:
        """Sum the per-thread aggregates and reset them (one round)."""
        total: dict[tuple[str, str], Agg] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, agg in state.agg.items():
                into = total.setdefault(key, Agg())
                into.calls += agg.calls
                into.self_s += agg.self_s
                into.wall_s += agg.wall_s
                into.wait_s += agg.wait_s
                into.rows += agg.rows
            state.agg = {}
        return total

    def take_gc(self, phase: str) -> tuple[float, int]:
        """GC seconds and collections of ``phase``, then reset them."""
        return self.gc_s.pop(phase, 0.0), self.gc_collections.pop(phase, 0)

    def write(self, path, meta: dict) -> None:
        """Write the kept spans as Chrome trace events (times in us)."""
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
             "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3),
             "args": {"id": span_id, "parent": parent, "op": op}}
            for name, layer, start, end, span_id, parent, op, tid in self.spans
        ]
        meta = dict(meta, spans=len(events), dropped=self.dropped)
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "otherData": meta}, f)
