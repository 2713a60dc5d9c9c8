"""The ``serve-mixed`` workload: ``repro serve`` processes under mixed traffic.

Each block of twenty ops gets a fresh server hosting the seed's base CSV
stream-encoded (default cache, two scheduler workers).  One load
generator (this process) sends the block's ops, in one fixed order with
seeded query anchors:

* 1 ``append`` of the seed's pre-written 250-transaction delta (5%),
  first and alone, so the block's caches are invalidated once;
* 9 anchored ``query`` ops, ``MINE RULES ... AND lhs HAS '<item>'`` (45%);
* 7 ``mine`` ops (patterns only) at the one mining support (35%): one
  miss, then hits;
* 3 incremental ``refresh`` ops (patterns and rules) at that support (15%).

The reads then run as a closed loop with two client threads.
Every block is the same work on the same two dataset generations (base,
base + delta), so no metric depends on how many blocks a host manages:
a run starts blocks until ``--seconds`` have passed (at least one), and
reports the median over blocks of the server's set-up time, peak RSS and
block rate.  A warm-up ``refresh`` builds the incremental state before a
block's timing starts.  After the run, each response is matched to its
dataset generation by ``num_transactions`` and checked against a direct
in-process ``Miner`` result (the faithful ``setm`` engine) over the same
transactions: anchored queries against its rules filtered by ``lhs HAS``,
refreshes against the from-scratch patterns and rules.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import common
import layers

SUPPORT = 0.01
#: ``mine`` asks for patterns only; ``refresh`` also for rules.  With rules,
#: a mine hit's answer doubled and its round trip landed between the
#: query hits' and the misses', so the median round trip sat on the edge
#: between two clusters and jumped between them from run to run.
REFRESH_CONFIDENCE = 0.6
QUERY_CONFIDENCE = 0.5
#: The reads after each block's append: 9 anchored queries (45%), 7 mines
#: (35%) and 3 refreshes (15%), spread evenly in one fixed order.  The seed
#: picks the data and the anchors, not the order: a shuffled order changed
#: which hits overlapped a miss in the (single-process) server, and with it
#: the block's latencies, from seed to seed.
READS = {"query": 9, "mine": 7, "refresh": 3}
BLOCK = ["append"] + [
    kind for _, kind in sorted(
        ((j + 0.5) / n, kind) for kind, n in READS.items() for j in range(n)
    )
]
CLIENT_THREADS = 2
REQUEST_TIMEOUT_S = 120.0


def build_block(seed: int, anchors: list[str], block: int) -> list[dict]:
    """Block ``block``'s ops: :data:`BLOCK` with seeded query anchors."""
    rng = random.Random(f"serve-mixed:{seed}:{block}")
    sequence = []
    for kind in BLOCK:
        op = {"kind": kind, "block": block}
        if kind == "query":
            op["item"] = rng.choice(anchors)
        sequence.append(op)
    return sequence


def payload(op: dict, manifest: dict) -> dict:
    kind = op["kind"]
    if kind == "append":
        return {"op": "append", "dataset": "base",
                "path": manifest["deltas"][0]}
    if kind == "query":
        return {"op": "query", "query": (
            f"MINE RULES FROM base WHERE support >= {SUPPORT} AND "
            f"confidence >= {QUERY_CONFIDENCE} AND lhs HAS '{op['item']}'")}
    if kind == "mine":
        return {"op": "mine", "dataset": "base", "config": {"support": SUPPORT}}
    return {"op": kind, "dataset": "base",
            "config": {"support": SUPPORT, "confidence": REFRESH_CONFIDENCE}}


class Server:
    """One ``repro serve`` subprocess hosting the base CSV."""

    def __init__(self, manifest: dict, spans: Path | None = None) -> None:
        args = ["serve", f"base={manifest['base']}", "--port", "0",
                "--input-format", "csv"]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(common.HERE / "traced_serve.py"),
                       str(spans), *args]
        started = time.perf_counter()
        self.process = common.start(command, stdout=subprocess.PIPE, text=True)
        self.client = None
        try:
            from repro.serve import ServeClient

            port = None
            for line in self.process.stdout:
                if line.startswith("listening on "):
                    port = int(line.rsplit(":", 1)[1])
                    break
            if port is None:
                raise RuntimeError("repro serve exited before listening")
            self.client = ServeClient("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
            self.client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        """Drain (the server then exits by itself); never leaves it running."""
        try:
            if self.client is not None:
                self.client.drain()
        finally:
            common.reap(self.process, 60)
            self.process.stdout.close()


def server_children_peak_rss_mb(pid: int) -> float:
    """Largest peak RSS among a live process's descendants (0 if none)."""
    peaks, pending = [0.0], [pid]
    while pending:
        parent = pending.pop()
        try:
            tasks = list(Path(f"/proc/{parent}/task").iterdir())
        except OSError:
            continue  # exited meanwhile
        for task in tasks:
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            for child in map(int, children):
                try:
                    peaks.append(common.peak_rss_mb_of(child))
                except (OSError, RuntimeError):
                    continue  # exited meanwhile
                pending.append(child)
    return max(peaks)


def drive(server: Server, sequence: list[dict], manifest: dict,
          first_index: int) -> dict:
    """Closed loop over one block with :data:`CLIENT_THREADS` callers."""
    lock = threading.Lock()
    pending = list(enumerate(sequence, start=first_index))
    pending.reverse()
    done: list[dict] = []
    started = time.perf_counter()

    def take() -> dict | None:
        with lock:
            if not pending:
                return None
            index, op = pending.pop()
            return dict(op, index=index)

    def call(op: dict) -> None:
        op["start_s"] = time.perf_counter() - started
        try:
            op["response"] = server.client.request(payload(op, manifest))
        except Exception as error:  # counted as a failed op
            op["error"] = f"{type(error).__name__}: {error}"
        op["end_s"] = time.perf_counter() - started
        op["rtt_s"] = op["end_s"] - op["start_s"]
        with lock:
            done.append(op)

    def worker() -> None:
        while (op := take()) is not None:
            call(op)

    # The append runs alone, so every read of the block sees the grown
    # dataset: otherwise a read that overtook it mined the base first and
    # the block paid one miss more, at random.
    call(take())
    threads = [threading.Thread(target=worker) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"ops": sorted(done, key=lambda op: op["index"]),
            "block_s": time.perf_counter() - started}


class References:
    """Direct in-process results per dataset generation, computed lazily."""

    def __init__(self, manifest: dict, corrupt: bool = False) -> None:
        self.corrupt = corrupt
        self.transactions = manifest["transactions"]
        self.base = manifest["base_transactions"]
        self.delta = manifest["delta_transactions"]
        self.results: dict[int, object] = {}

    def result(self, generation: int):
        if generation not in self.results:
            size = self.base + generation * self.delta
            self.results[generation] = common.reference_result(
                self.transactions[:size], SUPPORT
            )
        return self.results[generation]

    def rules(self, generation: int, confidence: float):
        from repro.core.rules import generate_rules

        return generate_rules(self.result(generation), confidence)


def check(ops: list[dict], references: References, manifest: dict) -> dict:
    """Mark each op ok or failed; returns the anchored-query rule counts."""
    kept = generated = 0
    for op in ops:
        op["ok"] = False
        response = op.get("response")
        if response is None:
            continue
        try:
            if op["kind"] == "append":
                info = response["result"]
                op["ok"] = info["transactions"] == references.delta + references.corrupt
                continue
            total = response["result"]["num_transactions"]
            generation, extra = divmod(
                total - references.base, references.delta
            )
            if extra or not 0 <= generation <= len(manifest["deltas"]):
                continue
            result = references.result(generation)
            if op["kind"] == "query":
                rules = references.rules(generation, QUERY_CONFIDENCE)
                anchored = [
                    r for r in rules
                    if any(str(label) == op["item"] for label in r.antecedent)
                ]
                expected = common.canonical(
                    result.iter_patterns(),
                    [(r.antecedent, r.consequent, r.support_count, r.confidence)
                     for r in anchored],
                )
                kept += len(response["rules"])
                generated += len(rules)
            else:
                expected = common.reference_form(
                    result, REFRESH_CONFIDENCE if op["kind"] == "refresh" else None
                )
            if references.corrupt:
                expected = common.corrupted(expected)
            op["ok"] = common.canonical_document(response) == expected
        except (KeyError, TypeError, ValueError):
            traceback.print_exc(file=sys.stderr)
    return {"kept": kept, "generated": generated}


def anchors_for(references: References) -> list[str]:
    """Items that lead some rule at generation 0, so anchored queries
    return rules (the reads see generation 1, one small delta later)."""
    return sorted({
        str(label)
        for rule in references.rules(0, QUERY_CONFIDENCE)
        for label in rule.antecedent
    })


def run_blocks(manifest: dict, seed: int, anchors: list[str], seconds: float,
               spans_stem: Path | None = None) -> dict:
    """Fresh server per block, warm-up, drive; until ``seconds`` pass."""
    blocks, span_files = [], []
    started = time.perf_counter()
    while not blocks or time.perf_counter() - started < seconds:
        index = len(blocks)
        spans = None
        if spans_stem is not None:
            spans = spans_stem.with_name(f"{spans_stem.stem}-block{index}.json")
            spans.unlink(missing_ok=True)
            span_files.append(spans)
        server = Server(manifest, spans)
        try:
            server.client.request(payload({"kind": "refresh"}, manifest))
            block = drive(server, build_block(seed, anchors, index), manifest,
                          index * len(BLOCK))
            block["stats"] = server.client.stats()
            block["peak_rss_mb"] = common.peak_rss_mb_of(server.process.pid)
            block["worker_peak_rss_mb"] = server_children_peak_rss_mb(
                server.process.pid)
        finally:
            server.stop()
        block["setup_s"] = server.setup_s
        blocks.append(block)
    return {
        "ops": [op for block in blocks for op in block["ops"]],
        "blocks": blocks,
        "span_files": span_files,
    }


def run_serve(seed: int, seconds: float, trace: bool, transactions: int,
              corrupt: bool) -> dict:
    common.use_program()
    manifest = common.make_inputs(seed, transactions)
    references = References(manifest, corrupt)
    anchors = anchors_for(references)
    if trace:
        untraced = run_blocks(manifest, seed, anchors, seconds / 2)
        traced = run_blocks(manifest, seed, anchors, seconds / 2,
                            spans_stem=common.WORK / f"serve-mixed-seed{seed}-spans")
        runs = [untraced, traced]
    else:
        untraced = run_blocks(manifest, seed, anchors, seconds)
        runs = [untraced]
    counts = [check(run["ops"], references, manifest) for run in runs]
    all_ops = [op for run in runs for op in run["ops"]]
    failed = sum(1 for op in all_ops if not op["ok"])
    for op in all_ops:
        if not op["ok"]:
            print(f"perfbench: serve op {op['index']} ({op['kind']}) failed: "
                  f"{op.get('error', 'output differs from the reference')}",
                  file=sys.stderr)
    rtts = [op["rtt_s"] for op in untraced["ops"] if op["ok"]]
    blocks = untraced["blocks"]
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "ops": rtts,
        "samples": {"setup_s": [b["setup_s"] for b in blocks],
                    "block_s": [b["block_s"] for b in blocks]},
        "detail": [
            {"index": op["index"], "kind": op["kind"], "rtt_s": op["rtt_s"],
             "ok": op["ok"],
             "server": (op.get("response") or {}).get("server")}
            for op in untraced["ops"]
        ],
        "e2e": {
            "ops_per_s": len(BLOCK) / common.median([b["block_s"] for b in blocks]),
            "peak_rss_mb": common.median([b["peak_rss_mb"] for b in blocks]),
            "setup_s": common.median([b["setup_s"] for b in blocks]),
        },
    }
    if trace:
        result["layers"] = serve_layers(untraced, traced, counts[1])
    return result


def serve_layers(untraced: dict, traced: dict, counts: dict) -> dict:
    spans = layers.Spans(traced["span_files"])
    handled = [s for s in spans.named("serve.handle")
               if s.get("attrs", {}).get("op") in ("append", "query", "mine",
                                                     "refresh")]
    values = layers.core_layers(spans, len(handled))
    caches = [block["stats"]["cache"] for block in traced["blocks"]]
    queues = [block["stats"]["queue"] for block in traced["blocks"]]
    hits = sum(cache["hits"] for cache in caches)
    lookups = hits + sum(cache["misses"] for cache in caches)
    values["miner.cache_hit_rate"] = hits / lookups if lookups else 0.0
    values["miner.evictions"] = sum(cache["evictions"] for cache in caches)
    for name in ("rejected", "timed_out", "requeued"):
        values[f"serve.{name}"] = sum(queue[name] for queue in queues)
    values["query.rules_kept_ratio"] = (
        counts["kept"] / counts["generated"] if counts["generated"] else 0.0
    )
    values["pool.worker_peak_rss_mb"] = max(
        block["worker_peak_rss_mb"] for block in traced["blocks"])
    untraced_rtts = [op["rtt_s"] for op in untraced["ops"]]
    traced_rtts = [op["rtt_s"] for op in traced["ops"]]
    values["serve.op_p90_s"] = common.percentile(untraced_rtts, 0.9)
    for kind in ("query", "mine", "refresh", "append"):
        values[f"serve.rtt_{kind}_p50_s"] = common.median(
            [op["rtt_s"] for op in traced["ops"] if op["kind"] == kind]
        )
        values[f"serve.handle_{kind}_s"] = common.median([
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in handled if s["attrs"]["op"] == kind
        ])
    refreshes = [op["response"].get("incremental") or {}
                 for op in traced["ops"]
                 if op["kind"] == "refresh" and op.get("response")]
    values["incremental.delta_rows"] = common.median(
        [r.get("delta_rows", 0) for r in refreshes]
    )
    base = common.median(untraced_rtts)
    values["trace_overhead_s"] = common.median(traced_rtts) - base
    values["op_p50_s"] = base
    engines = sorted({
        s.get("attrs", {}).get("engine") or "?" for s in spans.named("query.plan")
    })
    return {
        "values": values,
        "absent": layers.absent_names(spans),
        "notes": {
            "query.engine": ", ".join(engines),
            "serve.op_p90_s": f"over {len(untraced_rtts)} untraced ops"
            + (" (fewer than 100: a rough tail)" if len(untraced_rtts) < 100 else ""),
        },
    }
