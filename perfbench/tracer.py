"""In-memory span recorder wrapped around the program's public layer calls.

The program itself is not changed: :func:`install` replaces the layer
functions named in :data:`FUNCTION_HOOKS` and the ``SetmKernel`` protocol
methods of every kernel class with timing wrappers, in every ``repro``
module that holds a reference to them.  A hook whose target no longer
exists (a module renamed, an engine folded into another) is skipped and
its metrics are reported absent, never as a failed op.

Each span records ``(op, id, parent, name, start_ns, end_ns, attrs)``;
spans of one op share the op id, and ``parent`` links each span to the
one that was open on the same thread (or, across the serve scheduler's
thread hand-off, to the request's ``serve.handle`` span).  Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: The Figure-4 kernel protocol steps, timed on every kernel class.
KERNEL_METHODS = {
    "make_sales": "core.make_sales",
    "c1_counts": "core.c1",
    "resort_by_tid": "core.resort",
    "merge_extend": "core.merge_extend",
    "count_and_filter": "core.count_filter",
    "decode": "core.decode",
}
#: Called once per pattern: summed per op instead of one span per call.
HOT = {"core.decode"}


def _ingest_attrs(result, args, kwargs):
    stats = getattr(result, "stats", None)
    if stats is None:
        return {}
    return {"rows": stats.rows, "bytes_decoded": stats.bytes_decoded}


def _loop_attrs(result, args, kwargs):
    """Counters of one Figure-4 run, read from its result."""
    iterations = [s for s in result.iterations if s.k >= 2]
    extra = result.extra or {}
    attrs = {
        "candidate_instances": sum(s.candidate_instances for s in iterations),
        "supported_instances": sum(s.supported_instances for s in iterations),
    }
    if "peak_memory_bytes" in extra:
        attrs["peak_memory_bytes"] = extra["peak_memory_bytes"]
    spill = extra.get("spill")
    if isinstance(spill, dict):
        attrs["spill_bytes_written"] = spill.get("bytes_written", 0)
        attrs["spill_bytes_read"] = spill.get("bytes_read", 0)
        attrs["spill_partitions_max"] = spill.get("max_partitions", 0)
    parallel = extra.get("parallel")
    if isinstance(parallel, dict):
        attrs["pooled_iterations"] = len(parallel.get("parallel_iterations", ()))
    transport = extra.get("transport")
    if isinstance(transport, dict):
        attrs["transport_bytes_copied"] = sum(
            value
            for key, value in transport.items()
            if key.endswith("_bytes_inline")
            or key.endswith("_bytes_shared")
            or key.endswith("_bytes_spooled")
        )
    return attrs


def _plan_attrs(result, args, kwargs):
    return {"engine": getattr(result, "engine", None)}


def _rules_attrs(result, args, kwargs):
    return {"count": len(result)}


def _frequent_attrs(result, args, kwargs):
    info = args[0].cache_info()
    return {"hits": info["hits"], "misses": info["misses"],
            "evictions": info["evictions"]}


def _handle_attrs(result, args, kwargs):
    status, document = result
    return {"op": document.get("op"), "status": status}


#: ``(module, attribute path, span name, attrs-from-result)``.
FUNCTION_HOOKS = [
    ("repro.data.ingest", "load_dataset", "ingest.load", _ingest_attrs),
    ("repro.data.ingest", "EncodedDataset.append_chunks", "ingest.append", None),
    ("repro.query.parser", "parse_query", "query.parse", None),
    ("repro.query.planner", "dataset_stats", "query.stats", None),
    ("repro.query.planner", "plan_query", "query.plan", _plan_attrs),
    ("repro.miner", "Miner.frequent_itemsets", "miner.mine", _frequent_attrs),
    ("repro.miner", "Miner.mine_delta", "incremental.refresh", None),
    ("repro.core.setm", "run_figure4_loop", "core.loop", _loop_attrs),
    ("repro.core.rules", "generate_rules", "rules.generate", _rules_attrs),
    ("repro.serve.protocol", "result_payload", "protocol.document", None),
    ("repro.serve.protocol", "rules_payload", "protocol.document", None),
    ("repro.serve.service", "MiningService.handle", "serve.handle",
     _handle_attrs),
]


class Tracer:
    """Spans of every traced op, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0])
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- context ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple | None:
        """``(op, span id)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][:2] if stack else None

    def adopt(self, context: tuple | None) -> None:
        """Continue ``context`` (from :meth:`current`) on this thread."""
        self._local.stack = [(context[0], context[1], None)] if context else []

    # -- spans --------------------------------------------------------------------

    def begin(self, name: str):
        """Open a span; with no open span on this thread it starts a new op."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        op = parent[0] if parent else next(self._ops)
        span_id = next(self._ids)
        stack.append((op, span_id, name))
        return (op, span_id, parent[1] if parent else None, name,
                time.perf_counter_ns())

    def end(self, token, attrs: dict | None = None) -> None:
        op, span_id, parent, name, start = token
        end = time.perf_counter_ns()
        stack = self._stack()
        while stack and stack.pop()[1] != span_id:
            pass  # a child left open by an exception closes with its parent
        record = {"op": op, "id": span_id, "parent": parent, "name": name,
                  "start_ns": start, "end_ns": end}
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self.spans.append(record)

    def wrap(self, fn, name: str, attrs_of=None):
        tracer = self

        if name in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                started = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter_ns() - started
                    context = tracer.current()
                    with tracer._lock:
                        cell = tracer.hot[(context[0] if context else 0, name)]
                        cell[0] += elapsed
                        cell[1] += 1
            return hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][2] == name:  # an override calling super()
                return fn(*args, **kwargs)
            token = tracer.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    try:
                        attrs = attrs_of(result, args, kwargs)
                    except (AttributeError, KeyError, TypeError):
                        attrs = None
                return result
            finally:
                tracer.end(token, attrs)

        return traced

    # -- output -------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        document = {
            "spans": self.spans,
            "hot": [
                {"op": op, "name": name, "ns": ns, "calls": calls}
                for (op, name), (ns, calls) in sorted(self.hot.items())
            ],
            "installed": sorted(self.installed),
            "missing": self.missing,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(document))
        tmp.replace(path)


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute holding ``original`` at
    ``replacement`` (modules that did ``from x import f`` included)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> Tracer:
    """Wrap the layer calls of the imported program with ``tracer``."""
    import repro

    repro.available_engines()  # engines register (and import) on first use
    for module_name in ("repro.query", "repro.serve.service",
                        "repro.serve.server", "repro.data.ingest"):
        try:
            importlib.import_module(module_name)
        except ImportError:
            tracer.missing.append(module_name)

    for module_name, path, name, attrs_of in FUNCTION_HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(original, name, attrs_of)
        if outer:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)
        tracer.installed.add(name)

    _install_kernel_hooks(tracer)
    _install_scheduler_handoff(tracer)
    return tracer


def _install_kernel_hooks(tracer: Tracer) -> None:
    seen = set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro.core"):
            continue
        for value in list(vars(module).values()):
            if not isinstance(value, type) or value in seen:
                continue
            seen.add(value)
            # Kernels only (ItemCatalog, say, has a ``decode`` of its own).
            if getattr(value, "_is_protocol", False) or not hasattr(value, "merge_extend"):
                continue
            for method, name in KERNEL_METHODS.items():
                original = value.__dict__.get(method)
                if not inspect.isfunction(original):
                    continue
                pooled = any(
                    base.__name__ == "PoolTransportMixin"
                    for base in value.__mro__
                )
                span = "pool.count_filter" if pooled and method == "count_and_filter" else name
                setattr(value, method, tracer.wrap(original, span))
                tracer.installed.add(span)
    for name in KERNEL_METHODS.values():
        if name not in tracer.installed:
            tracer.missing.append(name)


def _install_scheduler_handoff(tracer: Tracer) -> None:
    """Carry the request's span context onto the scheduler's worker thread."""
    try:
        from repro.serve.scheduler import RequestScheduler
    except ImportError:
        return
    original = RequestScheduler.submit

    @functools.wraps(original)
    def submit(self, fn, *args, **kwargs):
        context = tracer.current()

        def run():
            tracer.adopt(context)
            try:
                return fn()
            finally:
                tracer.adopt(None)

        return original(self, run, *args, **kwargs)

    RequestScheduler.submit = submit
