"""Span tracing for the benchmark, installed from outside the engine.

The engine has no timing of its own, so the traced run wraps the public
functions of each layer (class attributes and module globals) with a
recorder.  Every operation the workload issues is a root span; a call
into a wrapped function inside it becomes a child span of whatever
wrapped call is running on that thread.  Calls outside an operation
(set-up, verification) pass straight through.

Spans live in per-thread ``array('q')`` buffers (layer, parent, start,
end) and are only processed, and written out, after the measured phase.
A layer's self time is its spans' durations minus their child spans'
durations, so per operation the self times of all layers plus the root
span's own self time (the *unattributed* remainder: client code and
unwrapped engine code) add up exactly to the traced operation time.

Execution-context counters are attributed too: every
``ExecutablePlan.new_context`` made inside an operation is remembered
with the layer that created it, and the rows each plan run produced
are counted, so rows scanned per row returned can be reported per
owning layer.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns

#: Pseudo-layer of the root span of one workload operation.
OP = "op"
#: Name under which a root span's own self time is reported.
UNATTRIBUTED = "unattributed"


def layer_points():
    """``(owner, attribute, layer)`` for every function the traced run
    wraps.  Imported lazily: the engine must be importable first."""
    import repro.api.prepared as prepared_module
    import repro.api.session as session_module
    import repro.compiler.pipeline as pipeline_module
    import repro.executor.dml as dml_module
    import repro.sql.parser as parser_module
    from repro.api.engine import Engine
    from repro.cache.manager import XNFCache
    from repro.cache.matview import MaterializedViewRegistry
    from repro.cache.workspace import CachedObject
    from repro.compiler.pipeline import CompilationPipeline
    from repro.executor.dml import DMLExecutor
    from repro.executor.runtime import QueryStream
    from repro.optimizer.optimizer import ExecutablePlan, Planner
    from repro.qgm.builder import QGMBuilder
    from repro.storage.catalog import Catalog
    from repro.storage.transactions import TransactionManager
    from repro.storage.wal import WriteAheadLog
    from repro.viewupdate.executor import ViewUpdateManager
    from repro.xnf.result import XNFExecutable

    return [
        (Engine, "read", "api"),
        (Engine, "write", "api"),
        (Engine, "end_transaction", "api"),
        (Engine, "matview_read", "api"),
        (parser_module, "parse_statement", "sql"),
        (session_module, "parse_statement", "sql"),
        (pipeline_module, "parameterize_select", "plan_cache.lift"),
        (prepared_module, "parameterize_select", "plan_cache.lift"),
        (dml_module, "parameterize_expressions", "plan_cache.lift"),
        (CompilationPipeline, "compile_select_cached", "plan_cache"),
        (CompilationPipeline, "compile_parameterized", "plan_cache"),
        (CompilationPipeline, "cached_compile", "plan_cache"),
        (CompilationPipeline, "compile_qgm", "compiler"),
        (CompilationPipeline, "_front_half", "compiler"),
        (QGMBuilder, "build_select", "qgm"),
        (QGMBuilder, "build_xnf", "qgm"),
        (CompilationPipeline, "rewrite_graph", "rewrite"),
        (Planner, "plan", "optimizer"),
        (ExecutablePlan, "run_node", "executor"),
        (QueryStream, "next_batch", "executor"),
        (Engine, "compile_xnf", "xnf.compile"),
        (XNFExecutable, "run", "xnf.run"),
        (XNFCache, "evaluate", "cache.build"),
        (CachedObject, "children", "cache.nav"),
        (MaterializedViewRegistry, "on_table_delta", "matview"),
        (ViewUpdateManager, "update", "viewupdate"),
        (ViewUpdateManager, "insert", "viewupdate"),
        (ViewUpdateManager, "delete", "viewupdate"),
        (DMLExecutor, "insert", "dml"),
        (DMLExecutor, "update", "dml"),
        (DMLExecutor, "delete", "dml"),
        (DMLExecutor, "_qualify", "dml.qualify"),
        (Catalog, "check_foreign_keys", "catalog.fk"),
        (Catalog, "check_no_referencing_children", "catalog.fk"),
        (TransactionManager, "commit", "txn.commit"),
        (WriteAheadLog, "append", "wal.append"),
        (WriteAheadLog, "commit_barrier", "wal.sync"),
        (WriteAheadLog, "sync_to", "wal.sync"),
    ]


class _Buffer:
    """One thread's spans, parallel int64 arrays indexed by span."""

    def __init__(self):
        self.layer = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        #: root span index -> operation label
        self.labels: dict[int, str] = {}


class Tracer:
    """Records spans around wrapped engine functions; see module doc."""

    def __init__(self):
        self.layers: list[str] = [OP]
        self._ids = {OP: 0}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        #: label -> owner layer -> Counter of execution counters
        self.exec_counters = defaultdict(lambda: defaultdict(
            lambda: defaultdict(int)))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def install(self, listener_lists=()) -> None:
        """Wrap every layer point.  ``listener_lists`` are engine lists
        holding bound methods captured before installation (the
        catalog's delta listeners); their entries are re-bound so the
        wrapped class functions are the ones called."""
        from repro.optimizer.optimizer import ExecutablePlan

        originals = {}
        for owner, attribute, layer in layer_points():
            raw = owner.__dict__[attribute]
            originals[raw] = attribute
            self._restore.append((owner, attribute, raw))
            setattr(owner, attribute, self._wrap(raw, layer))
        raw_new_context = ExecutablePlan.__dict__["new_context"]
        self._restore.append((ExecutablePlan, "new_context",
                              raw_new_context))
        ExecutablePlan.new_context = self._wrap_new_context(
            raw_new_context)
        for listeners in listener_lists:
            for position, listener in enumerate(listeners):
                function = getattr(listener, "__func__", None)
                if function in originals:
                    listeners[position] = getattr(listener.__self__,
                                                  originals[function])

    def uninstall(self, listener_lists=()) -> None:
        wrapped = {}
        for owner, attribute, raw in reversed(self._restore):
            wrapped[owner.__dict__[attribute]] = attribute
            setattr(owner, attribute, raw)
        self._restore.clear()
        for listeners in listener_lists:
            for position, listener in enumerate(listeners):
                function = getattr(listener, "__func__", None)
                if function in wrapped:
                    listeners[position] = getattr(listener.__self__,
                                                  wrapped[function])

    def _wrap(self, raw, layer: str):
        layer_id = self._layer_id(layer)
        local = self._local
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        function = raw.__func__ if kind is not None else raw
        count_rows = layer == "executor"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return function(*args, **kwargs)
            buffer = local.buffer
            index = len(buffer.layer)
            buffer.layer.append(layer_id)
            buffer.parent.append(stack[-1])
            buffer.end.append(0)
            stack.append(index)
            buffer.start.append(perf_counter_ns())
            try:
                result = function(*args, **kwargs)
            finally:
                buffer.end[index] = perf_counter_ns()
                stack.pop()
            if count_rows and result is not None:
                # run_node(node, ctx) -> rows; QueryStream.next_batch()
                # -> batch, with the stream's context on the instance.
                ctx = args[2] if len(args) > 2 else args[0].ctx
                local.rows[id(ctx)] = local.rows.get(id(ctx), 0) \
                    + len(result)
            return result

        return kind(traced) if kind is not None else traced

    def _wrap_new_context(self, raw):
        local = self._local
        layers = self.layers

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            ctx = raw(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack:
                owner = local.buffer.layer[stack[-1]]
                local.contexts.append((ctx, layers[owner]))
            return ctx

        return traced

    # ------------------------------------------------------------------
    # Operations (root spans), driven by the workload
    # ------------------------------------------------------------------
    def begin_op(self, label: str) -> None:
        local = self._local
        buffer = getattr(local, "buffer", None)
        if buffer is None:
            buffer = local.buffer = _Buffer()
            local.stack = []
            local.contexts = []
            local.rows = {}
            with self._lock:
                self._buffers.append(buffer)
        index = len(buffer.layer)
        buffer.labels[index] = label
        buffer.layer.append(0)
        buffer.parent.append(-1)
        buffer.end.append(0)
        local.stack.append(index)
        buffer.start.append(perf_counter_ns())

    def end_op(self) -> None:
        local = self._local
        end = perf_counter_ns()
        index = local.stack.pop()
        buffer = local.buffer
        buffer.end[index] = end
        label = buffer.labels[index]
        with self._lock:  # client threads share the totals
            totals = self.exec_counters[label]
            for ctx, owner in local.contexts:
                counters = totals[owner]
                counters["contexts"] += 1
                counters["rows_scanned"] += ctx.counters.get(
                    "rows_scanned", 0)
                counters["index_lookups"] += ctx.counters.get(
                    "index_lookups", 0)
                counters["rows_out"] += local.rows.get(id(ctx), 0)
        local.contexts = []
        local.rows = {}

    # ------------------------------------------------------------------
    # Processing (after the measured phase)
    # ------------------------------------------------------------------
    def ledger(self) -> "Ledger":
        """Per operation label: op count and time, and per layer the
        self time and call count."""
        ledger = Ledger(self.layers)
        for buffer in self._buffers:
            count = len(buffer.layer)
            child = [0] * count
            root = [0] * count
            layer, parent = buffer.layer, buffer.parent
            start, end = buffer.start, buffer.end
            for i in range(count):
                if end[i] == 0:
                    ledger.open_spans += 1
                    continue
                duration = end[i] - start[i]
                p = parent[i]
                if p >= 0:
                    child[p] += duration
                    root[i] = root[p]
                else:
                    root[i] = i
            for i in range(count):
                if end[i] == 0:
                    continue
                label = buffer.labels[root[i]]
                own = end[i] - start[i] - child[i]
                entry = ledger.by_label[label]
                if layer[i] == 0:
                    entry["ops"] += 1
                    entry["op_ns"] += end[i] - start[i]
                    entry["self"][UNATTRIBUTED] += own
                else:
                    name = self.layers[layer[i]]
                    entry["self"][name] += own
                    entry["calls"][name] += 1
            ledger.spans += count
        return ledger

    def write_spans(self, path_prefix: str) -> list[str]:
        """Write every span buffer to ``<prefix>-t<k>.bin`` (four int64
        arrays: layer, parent, start_ns, end_ns) plus a JSON index."""
        os.makedirs(os.path.dirname(path_prefix) or ".", exist_ok=True)
        written = []
        threads = []
        for number, buffer in enumerate(self._buffers):
            path = f"{path_prefix}-t{number}.bin"
            with open(path, "wb") as handle:
                for column in (buffer.layer, buffer.parent, buffer.start,
                               buffer.end):
                    column.tofile(handle)
            threads.append({"file": os.path.basename(path),
                            "spans": len(buffer.layer),
                            "labels": {str(k): v for k, v in
                                       buffer.labels.items()}})
            written.append(path)
        index_path = f"{path_prefix}.json"
        with open(index_path, "w") as handle:
            json.dump({"layers": self.layers,
                       "columns": ["layer", "parent", "start_ns",
                                   "end_ns"],
                       "dtype": "int64", "threads": threads}, handle)
        written.append(index_path)
        return written


class Ledger:
    """Aggregated spans: ``by_label[label]`` holds ``ops``, ``op_ns``,
    ``self[layer]`` (ns) and ``calls[layer]``."""

    def __init__(self, layers: list[str]):
        self.layers = [name for name in layers if name != OP]
        self.by_label = defaultdict(lambda: {
            "ops": 0, "op_ns": 0, "self": defaultdict(int),
            "calls": defaultdict(int)})
        self.spans = 0
        self.open_spans = 0

    def total(self) -> dict:
        """Every label's entry summed."""
        merged = {"ops": 0, "op_ns": 0, "self": defaultdict(int),
                  "calls": defaultdict(int)}
        for entry in self.by_label.values():
            merged["ops"] += entry["ops"]
            merged["op_ns"] += entry["op_ns"]
            for name, value in entry["self"].items():
                merged["self"][name] += value
            for name, value in entry["calls"].items():
                merged["calls"][name] += value
        return merged
