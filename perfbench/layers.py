"""Per-layer metrics from the spans ``tracer.py`` recorded.

Times ending in ``_s`` are seconds per traced op (summed over the op's
spans), unless the catalogue says "per call".  A metric whose hook could
not be installed — its module or function no longer exists — is reported
absent: printed in the ``absent:`` line before the result and emitted as
0, never counted as a failed op.  A hook that exists but was never called
(no spilling on ``serve-mixed``) is a measured zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import common
from tracer import HOT

#: name -> (unit, spans it needs, meaning).
PER_LAYER = {
    "ingest.load_s": ("s", "ingest.load", "load_dataset per call"),
    "ingest.rows": ("count", "ingest.load", "rows decoded per load"),
    "ingest.bytes_decoded": ("bytes", "ingest.load", "bytes decoded per load"),
    "ingest.append_s": ("s", "ingest.append", "append_chunks per call"),
    "query.parse_s": ("s", "query.parse", "parse_query per op"),
    "query.plan_s": ("s", "query.plan", "dataset_stats + plan_query per op"),
    "query.rules_kept_ratio": ("ratio", None, "rules returned / generated"),
    "core.make_sales_s": ("s", "core.make_sales", "kernel make_sales per op"),
    "core.c1_s": ("s", "core.c1", "kernel c1_counts per op"),
    "core.resort_s": ("s", "core.resort", "kernel resort_by_tid per op"),
    "core.merge_extend_s": ("s", "core.merge_extend", "kernel merge_extend per op"),
    "core.count_filter_s": ("s", "core.count_filter", "kernel count_and_filter per op"),
    "core.decode_s": ("s", "core.decode", "kernel decode per op"),
    "core.candidate_instances": ("count", "core.loop", "sum |R'_k| per op"),
    "core.supported_instances": ("count", "core.loop", "sum |R_k| per op"),
    "core.useful_ratio": ("ratio", "core.loop", "sum |R_k| / sum |R'_k|"),
    "core.traced_peak_mb": ("MB", "core.loop", "loop tracemalloc peak, max"),
    "spill.bytes_written": ("bytes", "core.loop", "spill bytes written per op"),
    "spill.bytes_read": ("bytes", "core.loop", "spill bytes read per op"),
    "spill.partitions_max": ("count", "core.loop", "most partitions in one level"),
    "pool.pooled_iterations": ("count", "core.loop", "pooled levels per op"),
    "pool.count_filter_wait_s": ("s", "pool.count_filter",
                                 "count/filter waiting on the pool per op"),
    "transport.bytes_copied": ("bytes", "core.loop", "task + reply bytes per op"),
    "pool.worker_peak_rss_mb": ("MB", None, "largest child process peak RSS"),
    "rules.generate_s": ("s", "rules.generate", "generate_rules per op"),
    "rules.count": ("count", "rules.generate", "rules generated per op"),
    "protocol.document_s": ("s", "protocol.document", "payload builders per op"),
    "protocol.json_s": ("s", "protocol.json", "json.dumps of the document per op"),
    "protocol.bytes": ("bytes", "protocol.json", "serialized document per op"),
    "miner.cache_hit_rate": ("ratio", "miner.mine", "result-cache hits / lookups"),
    "miner.evictions": ("count", "miner.mine", "result-cache evictions"),
    "serve.op_p90_s": ("s", None, "client round trip p90, all ops"),
    "serve.rtt_query_p50_s": ("s", None, "client round trip p50, query ops"),
    "serve.rtt_mine_p50_s": ("s", None, "client round trip p50, mine ops"),
    "serve.rtt_refresh_p50_s": ("s", None, "client round trip p50, refresh ops"),
    "serve.rtt_append_p50_s": ("s", None, "client round trip p50, append ops"),
    "serve.handle_query_s": ("s", "serve.handle", "MiningService.handle p50, query"),
    "serve.handle_mine_s": ("s", "serve.handle", "MiningService.handle p50, mine"),
    "serve.handle_refresh_s": ("s", "serve.handle", "MiningService.handle p50, refresh"),
    "serve.handle_append_s": ("s", "serve.handle", "MiningService.handle p50, append"),
    "serve.rejected": ("count", None, "scheduler admissions rejected"),
    "serve.timed_out": ("count", None, "scheduler deadlines missed"),
    "serve.requeued": ("count", None, "scheduler tasks requeued"),
    "incremental.refresh_s": ("s", "incremental.refresh", "mine_delta per call"),
    "incremental.delta_rows": ("count", None, "delta rows counted per refresh"),
    "op_p50_s": ("s", None, "median op latency, untraced half of the run"),
    "trace_overhead_s": ("s", None, "traced op median - op_p50_s"),
    "host.probe_before_s": ("s", None, "fixed pure-Python loop before the run"),
    "host.probe_after_s": ("s", None, "fixed pure-Python loop after the run"),
}


class Spans:
    """Spans of one or more traced processes, merged."""

    def __init__(self, files) -> None:
        self.spans: list[dict] = []
        self.hot: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        for index, path in enumerate(files):
            document = json.loads(Path(path).read_text())
            for span in document["spans"]:
                span["proc"] = index
                self.spans.append(span)
            for entry in document["hot"]:
                self.hot[entry["name"]] += entry["ns"]
            self.installed.update(document["installed"])
        self._by_id = {(s["proc"], s["id"]): s for s in self.spans}

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def parent_name(self, span: dict) -> str | None:
        parent = self._by_id.get((span["proc"], span["parent"]))
        return parent["name"] if parent else None

    def total_s(self, name: str) -> float:
        if name in HOT:
            return self.hot.get(name, 0) / 1e9
        # An override that delegates to the same step is one call.
        return sum(
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in self.named(name)
            if self.parent_name(s) not in (name, "pool.count_filter")
        )

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.get("attrs", {}).get(key, 0) for s in self.named(name))

    def attr_max(self, name: str, key: str) -> float:
        return max((s.get("attrs", {}).get(key, 0) for s in self.named(name)),
                   default=0)


def core_layers(spans: Spans, ops: int) -> dict:
    """Metrics every workload's traced process yields, per op."""
    per_op = max(1, ops)
    values: dict[str, float] = {}
    for metric, span in (
        ("query.parse_s", "query.parse"),
        ("core.make_sales_s", "core.make_sales"),
        ("core.c1_s", "core.c1"),
        ("core.resort_s", "core.resort"),
        ("core.merge_extend_s", "core.merge_extend"),
        ("core.decode_s", "core.decode"),
        ("pool.count_filter_wait_s", "pool.count_filter"),
        ("rules.generate_s", "rules.generate"),
        ("protocol.document_s", "protocol.document"),
        ("protocol.json_s", "protocol.json"),
    ):
        values[metric] = spans.total_s(span) / per_op
    values["query.plan_s"] = (
        spans.total_s("query.stats") + spans.total_s("query.plan")
    ) / per_op
    values["core.count_filter_s"] = (
        spans.total_s("core.count_filter") + spans.total_s("pool.count_filter")
    ) / per_op
    loads = spans.named("ingest.load")
    values["ingest.load_s"] = spans.total_s("ingest.load") / max(1, len(loads))
    values["ingest.rows"] = spans.attr_sum("ingest.load", "rows") / max(1, len(loads))
    values["ingest.bytes_decoded"] = (
        spans.attr_sum("ingest.load", "bytes_decoded") / max(1, len(loads))
    )
    appends = spans.named("ingest.append")
    values["ingest.append_s"] = spans.total_s("ingest.append") / max(1, len(appends))
    refreshes = spans.named("incremental.refresh")
    values["incremental.refresh_s"] = (
        spans.total_s("incremental.refresh") / max(1, len(refreshes))
    )
    candidates = spans.attr_sum("core.loop", "candidate_instances")
    supported = spans.attr_sum("core.loop", "supported_instances")
    values["core.candidate_instances"] = candidates / per_op
    values["core.supported_instances"] = supported / per_op
    values["core.useful_ratio"] = supported / candidates if candidates else 0.0
    values["core.traced_peak_mb"] = (
        spans.attr_max("core.loop", "peak_memory_bytes") / 2**20
    )
    values["spill.bytes_written"] = spans.attr_sum("core.loop", "spill_bytes_written") / per_op
    values["spill.bytes_read"] = spans.attr_sum("core.loop", "spill_bytes_read") / per_op
    values["spill.partitions_max"] = spans.attr_max("core.loop", "spill_partitions_max")
    values["pool.pooled_iterations"] = (
        spans.attr_sum("core.loop", "pooled_iterations") / per_op
    )
    values["transport.bytes_copied"] = (
        spans.attr_sum("core.loop", "transport_bytes_copied") / per_op
    )
    generated = spans.attr_sum("rules.generate", "count")
    values["rules.count"] = generated / per_op
    values["protocol.bytes"] = spans.attr_sum("protocol.json", "bytes") / per_op
    return values


def absent_names(spans: Spans) -> set[str]:
    """Catalogue metrics whose spans could not be hooked."""
    return {
        name
        for name, (_, span, _) in PER_LAYER.items()
        if span is not None and span not in spans.installed
    }


def mine_layers(files, *, untraced_ops, traced_ops, rules_returned,
                worker_peak_rss_mb) -> dict:
    spans = Spans(files)
    values = core_layers(spans, len(traced_ops))
    lookups = spans.named("miner.mine")
    values["miner.cache_hit_rate"] = (
        spans.attr_sum("miner.mine", "hits") / len(lookups) if lookups else 0.0
    )
    values["miner.evictions"] = spans.attr_sum("miner.mine", "evictions")
    if "rules.generate" in spans.installed:  # else reported absent
        generated = spans.attr_sum("rules.generate", "count")
        values["query.rules_kept_ratio"] = (
            rules_returned / generated if generated else 0.0
        )
    values["pool.worker_peak_rss_mb"] = worker_peak_rss_mb
    base = common.median(untraced_ops)
    values["trace_overhead_s"] = common.median(traced_ops) - base
    values["op_p50_s"] = base
    engines = sorted({
        s.get("attrs", {}).get("engine") or "?" for s in spans.named("query.plan")
    })
    return {
        "values": values,
        "absent": absent_names(spans),
        "notes": {"query.engine": ", ".join(engines)},
    }


def emit(layer_run: dict, probe: tuple[float, float], stream) -> dict:
    """The per-layer ``metrics`` object; prints the readable table."""
    values = dict(layer_run["values"])
    values["host.probe_before_s"], values["host.probe_after_s"] = probe
    absent = set(layer_run["absent"]) | {n for n in PER_LAYER if n not in values}
    metrics = {}
    for name, (unit, _, meaning) in PER_LAYER.items():
        value = 0.0 if name in absent else float(values[name])
        metrics[name] = common.metric(value, unit)
        shown = "absent" if name in absent else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {unit:6s} {meaning}", file=stream)
    for key, text in layer_run.get("notes", {}).items():
        print(f"  {key:28s} {text}", file=stream)
    print("absent: " + json.dumps(sorted(absent)))
    return metrics
