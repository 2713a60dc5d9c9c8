"""Perf baseline runner: ``setm`` vs ``setm-columnar``, recorded to JSON.

This is the performance trajectory's anchor: it runs the paper's
Table 6.2 workload (the calibrated retail database at 0.5% minimum
support) plus the QUEST synthetic workloads the follow-up literature
standardized on, over both in-memory SETM engines, and writes
``BENCH_setm.json`` — wall-clock per iteration, peak ``|R'_k|``,
rows/second, and loop peak memory — so future PRs have a committed
baseline to beat.

Timing rounds run the unmetered default path (tracemalloc taxes every
allocation, which would poison the wall-clock numbers); each engine
then takes one separate ``measure_memory=True`` run to record
``peak_memory_bytes``.

The Table 6.2 workload (and the ``--tiny`` smoke) additionally runs a
**constrained-memory scenario**: ``setm-columnar`` under a
``memory_budget_bytes`` small enough to force at least two spill
partitions, differentially checked against ``setm`` and recorded with
its measured peak memory and per-iteration partition counts — the
out-of-core acceptance evidence, committed to ``BENCH_setm.json``.

The Table 6.2 workload and the largest QUEST workload also run a
**worker sweep**: ``setm-columnar`` at 1/2/4 ``workers``, each run
differentially checked against ``setm`` and recorded with its pooled
key ranges and its speedup over ``setm-columnar``.  The host CPU count
is recorded alongside, and on a single-CPU host the ≥ 2-worker rows
are tagged ``coordination_overhead_only`` with ``speedup_vs_columnar``
nulled — pure coordination overhead must never be recorded as a
parallel regression.  ``--workers N`` narrows the sweep to ``{1, N}``.

The Table 6.2 workload (and the tiny smoke under ``--workers``)
additionally runs the **spill-parallel sweep**: ``setm-columnar``
under the same constrained memory budget across the worker counts —
the pooled counting of *on-disk* partitions.  Every run is
differentially checked against ``setm``, must actually have spilled
(≥ 2 partitions) and, above one worker, must actually have reached the
pool; speedups are measured against one worker at the same budget
and carry the same single-CPU tagging.  This is how CI
exercises the pool on every push.

The Table 6.2 workload (and the tiny smoke) also runs the **serve
scenario**: an in-process ``MiningService`` hosting the workload's
database, hammered by N concurrent clients with result caching
disabled so every request really mines.  Each run records p50/p95
request latency and throughput, normalized against the direct
single-threaded ``setm-columnar`` time for the same config; every
response's result document is byte-checked against the direct run's
serialization before anything is recorded.  Multi-client rows on a
1-CPU host carry the same ``coordination_overhead_only`` tagging with
``throughput_vs_direct`` nulled — queueing overhead must never be
recorded as a serving regression.

The Table 6.2 workload (and the tiny smoke) also runs the **ingest
scenario**: the workload written as a *wide* SALES CSV (extra columns
beside ``trans_id``/``item``, as a real export would have) and
stream-encoded in bounded chunks through ``repro.data.ingest``.  The
run must decode the file in at least 4 chunks, must reproduce the
whole-file encode byte-for-byte, must mine (``setm-columnar`` straight
over the ``EncodedDataset``) to the exact ``setm`` reference, and must
beat the whole-file path's peak ingest memory — all checked before
anything is recorded.  The recorded ``bytes_decoded_reduction`` (CSV
projects *fields*; the floor is 30%) is deterministic, honest on any
host.  When ``pyarrow`` is installed the same rows also run through a
Parquet file, where projection pushdown skips whole column chunks and
``bytes_read_reduction`` carries the same 30% floor; without pyarrow
the ``parquet`` leg records ``null`` with an explicit
``pyarrow_available: false`` tag — the same honesty discipline as
``coordination_overhead_only``.

The Table 6.2 workload (and the tiny smoke) also runs the
**incremental scenario**: the workload split into a base prefix plus
append batches, the base stream-encoded and mined once through
``setm-incremental`` with a state directory, then each batch appended
(``EncodedDataset.append_chunks``) and re-mined three ways — delta-only
against the saved state, a full rebuild through the same engine into a
fresh state directory (the ``delta_speedup`` denominator: both paths
end with the result *and* a state covering the grown dataset, so the
ratio is a like-for-like materialized-view refresh comparison), and
from scratch through plain ``setm-columnar`` (recorded transparently
as ``columnar_seconds``).  Every batch's delta result must be
byte-identical (patterns *and* iteration statistics) to both re-mines
before anything is recorded, and the scenario's ``aggregate_speedup``
(total rebuild time over total delta time across all batches, serial
vs serial — honest on any host) must clear the scenario's floor: 3x on
the retail workload, a reduced floor on the tiny smoke where fixed
state-handling costs dominate.  Per-batch speedups are recorded but
not individually floored — whether a batch crosses a support boundary
(triggering borderline recounts) is data-dependent, and the acceptance
bar is the scenario, not the luckiest batch.  Both the runner and
``--validate`` enforce the aggregate floor.

Unlike the ``pytest-benchmark`` suites in this directory (which
regenerate the paper's figures), this is a plain script so CI and
humans can run it without plugins::

    PYTHONPATH=src python benchmarks/run_bench.py            # full, ~1 min
    PYTHONPATH=src python benchmarks/run_bench.py --tiny     # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --validate BENCH_setm.json

Every run differentially checks that both engines found identical
patterns before recording a single number.  ``--validate`` checks an
existing results file against the schema (used by the CI smoke step;
deliberately no timing assertions — CI machines are noisy).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.incremental import setm_incremental  # noqa: E402
from repro.core.setm import setm  # noqa: E402
from repro.core.setm_columnar import setm_columnar  # noqa: E402
from repro.core.columns import InstanceRelation  # noqa: E402
from repro.core.transactions import TransactionDatabase  # noqa: E402
from repro.data.ingest import stream_encode  # noqa: E402
from repro.data.formats import open_chunk_source  # noqa: E402
from repro.data.io import read_sales_csv, write_basket_file  # noqa: E402
from repro.data.quest import QuestConfig, generate_quest_dataset  # noqa: E402
from repro.data.retail import generate_retail_dataset  # noqa: E402
from repro.serve.protocol import result_payload  # noqa: E402
from repro.serve.service import MiningService  # noqa: E402

SCHEMA_VERSION = 9
ENGINES = {"setm": setm, "setm-columnar": setm_columnar}

#: Worker counts swept per workload (setm-columnar, differentially
#: checked per run).  Only the Table 6.2 retail workload and the
#: largest QUEST workload carry the sweep (their R'_2 reach the pool
#: gate); ``--workers N`` narrows it to {1, N}.
WORKER_SWEEPS = {
    "table6.2-retail": (1, 2, 4),
    "quest-T10.I4.D10K": (1, 2, 4),
}

#: Workloads carrying the combined constrained-memory × worker sweep
#: (setm-columnar under the workload's CONSTRAINED_BUDGETS entry).
SPILL_PARALLEL_SWEEPS = {
    "table6.2-retail": (1, 2, 4),
}

#: Client counts swept through the in-process serve scenario (the tiny
#: smoke carries it so CI validates the schema branch on every push).
SERVE_SWEEPS = {
    "table6.2-retail": (1, 4),
    "quest-T5.I2.D300-tiny": (1, 4),
}

#: Requests each serve-scenario client issues inside the timed window.
SERVE_REQUESTS_PER_CLIENT = 8

#: Ingest-scenario parameters per workload: the decoder chunk size and
#: the encoder memory budget (both sized to force >= 4 decode chunks
#: and real spilling at the workload's scale).
INGEST_SCENARIOS = {
    "table6.2-retail": {"chunk_rows": 32768, "memory_budget_bytes": 2**20},
    "quest-T5.I2.D300-tiny": {
        "chunk_rows": 256, "memory_budget_bytes": 16 * 1024,
    },
}

#: Incremental-scenario parameters per workload: how much of the
#: workload forms the mined base prefix, how many append batches the
#: remainder splits into, the decode chunk size, and the per-workload
#: ``delta_speedup`` floor.  The retail floor is the PR's acceptance
#: bar (3x); the tiny smoke keeps a reduced floor because at smoke
#: scale fixed state-handling costs dominate the delta work.
INCREMENTAL_SCENARIOS = {
    "table6.2-retail": {
        "base_fraction": 0.96,
        "batches": 2,
        "chunk_rows": 32768,
        "speedup_floor": 3.0,
    },
    "quest-T5.I2.D300-tiny": {
        "base_fraction": 0.9,
        "chunk_rows": 256,
        "batches": 2,
        # At smoke scale (15-transaction batches, every batch growing
        # the catalog) fixed state I/O dominates the delta work, and
        # the smoke runs on noisy CI machines with --rounds 1 — so its
        # floor only guards against gross regressions (delta taking
        # multiples of the rebuild).  The 3x perf claim lives on the
        # retail workload, measured best-of-rounds on a quiet host.
        "speedup_floor": 0.5,
    },
}

#: The acceptance floor a non-tiny incremental scenario must carry:
#: delta-only re-mining must beat the from-scratch re-mine by at least
#: this factor on the Table 6.2 append workload.
INCREMENTAL_SPEEDUP_FLOOR = 3.0

#: Acceptance floor for the ingest scenario's deterministic savings:
#: the projected CSV fields must skip >= 30% of the decode bytes, and a
#: Parquet read (when pyarrow is present) must skip >= 30% of the file.
INGEST_REDUCTION_FLOOR = 0.3

#: The tiny smoke: ``--workers N`` extends the spill-parallel sweep to
#: it, whose budget cuts its levels into pooled key ranges.
TINY_WORKLOAD = "quest-T5.I2.D300-tiny"

#: Constrained-memory scenario budgets (bytes) per workload.  2 MiB on
#: the Table 6.2 retail workload forces 4 spill partitions on R'_2 (the
#: acceptance floor is 2); the tiny smoke uses 64 KiB for the same
#: reason at its scale.  Overridable with --memory-budget.
CONSTRAINED_BUDGETS = {
    "table6.2-retail": 2 * 2**20,
    "quest-T5.I2.D300-tiny": 64 * 1024,
}

#: The acceptance bar this PR's kernel was built against (recorded in
#: the output for context; never asserted here — see --validate).
TARGET_SPEEDUP = 3.0


def _workloads(tiny: bool):
    """Yield ``(name, database_factory, minsup)`` benchmark workloads."""
    if tiny:
        yield (
            "quest-T5.I2.D300-tiny",
            lambda: generate_quest_dataset(
                QuestConfig(
                    num_transactions=300, avg_transaction_len=5,
                    avg_pattern_len=2,
                )
            ),
            0.02,
        )
        return
    # The Table 6.2 workload: the full calibrated retail database at the
    # paper's 0.5% minimum-support grid point.
    yield ("table6.2-retail", generate_retail_dataset, 0.005)
    yield (
        "quest-T5.I2.D10K",
        lambda: generate_quest_dataset(
            QuestConfig(avg_transaction_len=5, avg_pattern_len=2)
        ),
        0.01,
    )
    yield (
        "quest-T10.I4.D10K",
        lambda: generate_quest_dataset(
            QuestConfig(avg_transaction_len=10, avg_pattern_len=4)
        ),
        0.01,
    )


def _bench_engine(
    runner, database, minsup: float, rounds: int, **options
) -> dict:
    """Best-of-``rounds`` measurements for one engine on one workload.

    Timing rounds run unmetered; one extra metered run records the
    loop's peak memory without contaminating the wall-clock numbers.
    """
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = runner(database, minsup, **options)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    metered = runner(database, minsup, measure_memory=True, **options)
    candidate_rows = sum(
        stats.candidate_instances for stats in result.iterations
    )
    return {
        "result": result,
        "measurements": {
            "elapsed_seconds": round(elapsed, 6),
            "iteration_seconds": {
                str(k): round(seconds, 6)
                for k, seconds in result.extra.get(
                    "iteration_seconds", {}
                ).items()
            },
            "peak_r_prime_instances": max(
                stats.candidate_instances for stats in result.iterations
            ),
            "total_candidate_instances": candidate_rows,
            "rows_per_second": (
                round(candidate_rows / elapsed) if elapsed > 0 else None
            ),
            "patterns": sum(
                len(rel) for rel in result.count_relations.values()
            ),
            "max_pattern_length": result.max_pattern_length,
            "peak_memory_bytes": metered.extra["peak_memory_bytes"],
        },
        "metered_result": metered,
    }


def _bench_constrained(
    name: str,
    database,
    minsup: float,
    budget: int,
    reference,
    rounds: int,
) -> dict:
    """The out-of-core scenario: setm-columnar under ``budget`` bytes.

    Refuses to record anything unless the budget actually forced at
    least two spill partitions and the results are identical to the
    reference engine's (patterns *and* iteration statistics).
    """
    bench = _bench_engine(
        setm_columnar,
        database,
        minsup,
        rounds,
        memory_budget_bytes=budget,
    )
    metered = bench["metered_result"]
    spill = metered.extra["spill"]
    if spill["max_partitions"] < 2:
        raise SystemExit(
            f"constrained-memory scenario on {name}: budget {budget} forced "
            f"only {spill['max_partitions']} spill partitions (need >= 2)"
        )
    if not (
        reference.same_patterns_as(metered)
        and reference.iterations == metered.iterations
    ):
        raise SystemExit(
            f"constrained-memory scenario on {name}: budgeted setm-columnar "
            "disagrees with setm; refusing to record"
        )
    print(
        f"  constrained ({budget >> 10} KiB budget): "
        f"{bench['measurements']['elapsed_seconds']:.3f}s, "
        f"partitions {spill['partitions']}, "
        f"peak {metered.extra['peak_memory_bytes']:,} bytes",
        flush=True,
    )
    return {
        "engine": "setm-columnar",
        "memory_budget_bytes": budget,
        "elapsed_seconds": bench["measurements"]["elapsed_seconds"],
        "peak_memory_bytes": metered.extra["peak_memory_bytes"],
        "spill_partitions": {
            str(k): p for k, p in spill["partitions"].items()
        },
        "max_partitions": spill["max_partitions"],
        "spill_bytes_written": spill["bytes_written"],
        "agreement": True,
    }


def _tag_single_cpu(
    entry: dict, speedup_key: str, *, count_key: str = "workers"
) -> bool:
    """Refuse to record a ≥ 2-way "speedup" measured on one CPU.

    On a single-CPU host a multi-worker (or multi-client) run can only
    measure coordination overhead; recording its sub-1x ratio as a
    speedup would read as a regression in the committed baseline.
    Such rows get ``speedup_key`` nulled and an explicit
    ``coordination_overhead_only`` tag instead (ROADMAP carries the
    multi-core re-run item).  Returns True when the row was tagged.
    """
    if os.cpu_count() == 1 and entry[count_key] > 1:
        entry[speedup_key] = None
        entry["coordination_overhead_only"] = True
        return True
    return False


def _bench_spill_parallel(
    name: str,
    database,
    minsup: float,
    budget: int,
    sweep: tuple[int, ...],
    reference,
    spill_serial_elapsed: float,
    rounds: int,
) -> dict:
    """The combined scenario: ``setm-columnar`` budget × workers.

    Every run is differentially checked against the ``setm`` reference,
    must actually have spilled (≥ 2 partitions — otherwise the budget
    measured nothing), and, above one worker, must actually have sent
    partitions to the pool.  Speedups are against one worker at the
    *same* budget — the inline run of the same range kernel — and carry
    the single-CPU tagging.
    """
    runs = []
    for workers in sweep:
        bench = _bench_engine(
            setm_columnar,
            database,
            minsup,
            rounds,
            memory_budget_bytes=budget,
            workers=workers,
        )
        metered = bench["metered_result"]
        if not (
            reference.same_patterns_as(metered)
            and reference.iterations == metered.iterations
        ):
            raise SystemExit(
                f"spill-parallel sweep on {name}: setm-columnar with "
                f"{workers} workers disagrees with setm; refusing to record"
            )
        spill = metered.extra["spill"]
        parallel = metered.extra["parallel"]
        if spill["max_partitions"] < 2:
            raise SystemExit(
                f"spill-parallel sweep on {name}: budget {budget} forced "
                f"only {spill['max_partitions']} partitions (need >= 2)"
            )
        if workers > 1 and not parallel["parallel_iterations"]:
            raise SystemExit(
                f"spill-parallel sweep on {name}: {workers} workers never "
                "reached the pool; nothing measured"
            )
        elapsed = bench["measurements"]["elapsed_seconds"]
        speedup = (
            round(spill_serial_elapsed / elapsed, 3) if elapsed > 0 else None
        )
        entry = {
            "workers": workers,
            "elapsed_seconds": elapsed,
            "peak_memory_bytes": bench["measurements"]["peak_memory_bytes"],
            "partitions": {
                str(k): p for k, p in spill["partitions"].items()
            },
            "parallel_iterations": parallel["parallel_iterations"],
            "spill_bytes_written": spill["bytes_written"],
            "speedup_vs_spill_serial": speedup,
            "agreement": True,
        }
        note = _tag_single_cpu(entry, "speedup_vs_spill_serial")
        print(
            f"  spill-parallel workers={workers}: {elapsed:.3f}s, "
            f"pooled iterations {parallel['parallel_iterations']}, "
            + (
                f"{entry['speedup_vs_spill_serial']}x vs one worker"
                if not note
                else "coordination overhead only (1 CPU)"
            ),
            flush=True,
        )
        runs.append(entry)
    return {
        "engine": "setm-columnar",
        "memory_budget_bytes": budget,
        "cpus": os.cpu_count(),
        "runs": runs,
    }


def _bench_serve(
    name: str,
    database,
    minsup: float,
    sweep: tuple[int, ...],
    reference,
    direct_elapsed: float,
) -> dict:
    """The serving scenario: N concurrent clients vs the direct Miner.

    An in-process ``MiningService`` hosts the workload's database with
    result caching *disabled* (``cache_entries=0``) so every request
    pays the full mining cost — the honest comparison against the
    direct single-threaded ``setm-columnar`` run.  Each client issues
    ``SERVE_REQUESTS_PER_CLIENT`` back-to-back ``mine`` requests;
    every response's result document must serialize byte-identically
    to the direct run's before anything is recorded.
    """
    expected = json.dumps(result_payload(reference), sort_keys=True)
    payload = {
        "op": "mine",
        "dataset": name,
        "config": {
            "support": minsup,
            "algorithm": "setm-columnar",
        },
    }
    direct_rps = 1.0 / direct_elapsed if direct_elapsed > 0 else None
    runs = []
    for clients in sweep:
        service = MiningService(
            {name: database},
            queue_depth=max(8, 2 * clients),
            workers=clients,
            default_timeout=600.0,
            cache_entries=0,
        )
        latencies: list[float] = []
        failures: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients)

        def client_loop():
            try:
                barrier.wait(timeout=60)
                mine = []
                for _ in range(SERVE_REQUESTS_PER_CLIENT):
                    started = time.perf_counter()
                    status, document = service.handle(payload)
                    elapsed = time.perf_counter() - started
                    if status != 200:
                        raise RuntimeError(
                            f"request failed: {status} {document}"
                        )
                    served = json.dumps(
                        document["result"], sort_keys=True
                    )
                    if served != expected:
                        raise RuntimeError(
                            "served result differs from the direct run"
                        )
                    mine.append(elapsed)
                with lock:
                    latencies.extend(mine)
            except Exception as exc:  # recorded, re-raised by the driver
                with lock:
                    failures.append(f"{type(exc).__name__}: {exc}")

        try:
            # Warm-up (and first differential check) outside the clock.
            status, document = service.handle(payload)
            if status != 200 or (
                json.dumps(document["result"], sort_keys=True) != expected
            ):
                raise SystemExit(
                    f"serve scenario on {name}: warm-up response "
                    "disagrees with the direct run; refusing to record"
                )
            threads = [
                threading.Thread(target=client_loop, daemon=True)
                for _ in range(clients)
            ]
            wall_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall_started
        finally:
            service.drain()
        if failures:
            raise SystemExit(
                f"serve scenario on {name} with {clients} clients: "
                + "; ".join(failures)
            )
        total = clients * SERVE_REQUESTS_PER_CLIENT
        ordered = sorted(latencies)
        p50 = ordered[(total - 1) // 2]
        p95 = ordered[int(0.95 * (total - 1))]
        throughput = total / wall if wall > 0 else None
        entry = {
            "clients": clients,
            "requests": total,
            "p50_seconds": round(p50, 6),
            "p95_seconds": round(p95, 6),
            "throughput_rps": (
                round(throughput, 3) if throughput is not None else None
            ),
            "throughput_vs_direct": (
                round(throughput / direct_rps, 3)
                if throughput is not None and direct_rps
                else None
            ),
            "agreement": True,
        }
        note = _tag_single_cpu(
            entry, "throughput_vs_direct", count_key="clients"
        )
        print(
            f"  serve clients={clients}: p50 {entry['p50_seconds']:.3f}s, "
            f"p95 {entry['p95_seconds']:.3f}s, "
            f"{entry['throughput_rps']} req/s"
            + (
                f" ({entry['throughput_vs_direct']}x direct)"
                if not note
                else " (coordination overhead only, 1 CPU)"
            ),
            flush=True,
        )
        runs.append(entry)
    return {
        "engine": "setm-columnar",
        "cpus": os.cpu_count(),
        "direct_seconds_per_request": direct_elapsed,
        "requests_per_client": SERVE_REQUESTS_PER_CLIENT,
        "runs": runs,
    }


def _write_wide_sales_csv(database, path: Path) -> None:
    """The workload as a *wide* CSV: real exports carry extra columns.

    The ``store`` and ``basket_size`` columns are deterministic junk
    beside the projected ``trans_id``/``item`` pair — they are what the
    ingest scenario's ``bytes_decoded_reduction`` measures skipping.
    """
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["store", "trans_id", "basket_size", "item"])
        for txn in database:
            store = f"store-{txn.trans_id % 97:05d}"
            for item in txn.items:
                writer.writerow([store, txn.trans_id, len(txn.items), item])


def _metered_stream_encode(path: Path, fmt: str, chunk_rows: int, budget: int):
    """One stream-encode with its tracemalloc peak: ``(dataset, peak)``."""
    source = open_chunk_source(path, input_format=fmt, chunk_rows=chunk_rows)
    tracemalloc.start()
    try:
        dataset = stream_encode(source, memory_budget_bytes=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return dataset, peak


def _ingest_leg(
    name: str,
    fmt: str,
    path: Path,
    chunk_rows: int,
    budget: int,
    minsup: float,
    reference,
    whole_file_peak: int,
    reference_keys: bytes,
) -> dict:
    """One format's pass through the ingest scenario, fully checked."""
    started = time.perf_counter()
    dataset, peak = _metered_stream_encode(path, fmt, chunk_rows, budget)
    elapsed = round(time.perf_counter() - started, 6)
    stats = dataset.stats
    if stats.chunks < 4:
        raise SystemExit(
            f"ingest scenario on {name}: {fmt} decoded in only "
            f"{stats.chunks} chunks (need >= 4); shrink chunk_rows"
        )
    if bytes(dataset.sales_relation().keys) != reference_keys:
        raise SystemExit(
            f"ingest scenario on {name}: {fmt} chunked encode differs "
            "from the whole-file encode; refusing to record"
        )
    mined = setm_columnar(dataset, minsup)
    if not (
        reference.same_patterns_as(mined)
        and reference.iterations == mined.iterations
    ):
        raise SystemExit(
            f"ingest scenario on {name}: mining the streamed {fmt} "
            "dataset disagrees with setm; refusing to record"
        )
    if peak >= whole_file_peak:
        raise SystemExit(
            f"ingest scenario on {name}: {fmt} streaming peak "
            f"({peak:,} bytes) did not beat the whole-file peak "
            f"({whole_file_peak:,} bytes); nothing saved"
        )
    dataset.close()
    entry = {
        "format": fmt,
        "chunk_rows": chunk_rows,
        "memory_budget_bytes": budget,
        "elapsed_seconds": elapsed,
        "chunks": stats.chunks,
        "rows": stats.rows,
        "spilled_chunks": stats.spilled_chunks,
        "bytes_total": stats.bytes_total,
        "bytes_read": stats.bytes_read,
        "bytes_decoded": stats.bytes_decoded,
        "bytes_read_reduction": stats.bytes_read_reduction,
        "bytes_decoded_reduction": stats.bytes_decoded_reduction,
        "peak_ingest_memory_bytes": peak,
        "peak_memory_reduction": round(1 - peak / whole_file_peak, 4),
        "agreement": True,
    }
    print(
        f"  ingest {fmt}: {stats.chunks} chunks, "
        f"{stats.bytes_decoded_reduction:.0%} fewer bytes decoded, "
        f"{stats.bytes_read_reduction:.0%} fewer bytes read, "
        f"peak {peak:,} vs {whole_file_peak:,} bytes",
        flush=True,
    )
    return entry


def _bench_ingest(
    name: str,
    database,
    minsup: float,
    reference,
    *,
    chunk_rows: int,
    memory_budget_bytes: int,
) -> dict:
    """The streaming-ingest scenario: bounded chunked encode, end to end.

    Every leg must decode in >= 4 chunks, reproduce the whole-file
    ``R_1`` bytes exactly, mine (``setm-columnar`` directly over the
    ``EncodedDataset``) to the ``setm`` reference, and beat the
    whole-file path's tracemalloc peak.  The CSV leg's decoded-byte
    saving comes from field projection over the wide CSV and must clear
    :data:`INGEST_REDUCTION_FLOOR`; the Parquet leg (optional
    ``pyarrow``) gets real read pushdown and holds
    ``bytes_read_reduction`` to the same floor.  Without pyarrow the
    Parquet leg records ``null`` plus ``pyarrow_available: false`` —
    never a fabricated number.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-ingest-") as tmp:
        csv_path = Path(tmp) / "sales-wide.csv"
        _write_wide_sales_csv(database, csv_path)

        # The whole-file baseline both legs must beat: read, encode,
        # build R_1 — the three O(dataset) residents of the classic path.
        tracemalloc.start()
        try:
            whole_db = read_sales_csv(csv_path)
            _, catalog = whole_db.encoded()
            whole_relation = InstanceRelation.sales_from_database(
                whole_db, catalog
            )
            _, whole_file_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        reference_keys = bytes(whole_relation.keys)
        del whole_db, whole_relation

        csv_leg = _ingest_leg(
            name,
            "csv",
            csv_path,
            chunk_rows,
            memory_budget_bytes,
            minsup,
            reference,
            whole_file_peak,
            reference_keys,
        )
        if csv_leg["bytes_decoded_reduction"] < INGEST_REDUCTION_FLOOR:
            raise SystemExit(
                f"ingest scenario on {name}: CSV field projection skipped "
                f"only {csv_leg['bytes_decoded_reduction']:.0%} of the "
                f"decode bytes (floor {INGEST_REDUCTION_FLOOR:.0%})"
            )

        try:
            import pyarrow as pa
            import pyarrow.parquet as pq
        except ImportError:
            pa = None
        parquet_leg = None
        if pa is not None:
            parquet_path = Path(tmp) / "sales-wide.parquet"
            columns: dict[str, list] = {
                "store": [], "trans_id": [], "basket_size": [], "item": [],
            }
            for txn in database:
                store = f"store-{txn.trans_id % 97:05d}"
                for item in txn.items:
                    columns["store"].append(store)
                    columns["trans_id"].append(txn.trans_id)
                    columns["basket_size"].append(len(txn.items))
                    columns["item"].append(item)
            pq.write_table(pa.table(columns), parquet_path)
            parquet_leg = _ingest_leg(
                name,
                "parquet",
                parquet_path,
                chunk_rows,
                memory_budget_bytes,
                minsup,
                reference,
                whole_file_peak,
                reference_keys,
            )
            if parquet_leg["bytes_read_reduction"] < INGEST_REDUCTION_FLOOR:
                raise SystemExit(
                    f"ingest scenario on {name}: Parquet projection "
                    "pushdown skipped only "
                    f"{parquet_leg['bytes_read_reduction']:.0%} of the file "
                    f"(floor {INGEST_REDUCTION_FLOOR:.0%})"
                )
        else:
            print(
                "  ingest parquet: skipped (pyarrow not installed)",
                flush=True,
            )
    return {
        "reduction_floor": INGEST_REDUCTION_FLOOR,
        "pyarrow_available": pa is not None,
        "peak_whole_file_memory_bytes": whole_file_peak,
        "csv": csv_leg,
        "parquet": parquet_leg,
    }


def _delta_work_violations(telemetry: dict) -> list[str]:
    """What a delta mine's telemetry shows beyond delta-only work."""
    checks = [
        (telemetry["mode"] == "delta", f"mode {telemetry['mode']!r}"),
        (
            telemetry["delta_rows"]
            == telemetry["total_rows"] - telemetry["base_rows"],
            f"counted {telemetry['delta_rows']} delta rows of "
            f"{telemetry['total_rows']} total and "
            f"{telemetry['base_rows']} base",
        ),
        (telemetry["state_hits"] > 0, "no state hits"),
        (
            telemetry["recount_fraction"] < 1,
            f"recount fraction {telemetry['recount_fraction']}",
        ),
    ]
    return [message for ok, message in checks if not ok]


def _bench_incremental(
    name: str,
    database,
    minsup: float,
    rounds: int,
    *,
    base_fraction: float,
    batches: int,
    chunk_rows: int,
    speedup_floor: float,
) -> dict:
    """The incremental scenario: delta-only re-mining under appends.

    The workload splits into a base prefix plus ``batches`` append
    batches.  The base is stream-encoded and mined once through
    ``setm-incremental`` with a state directory; each batch is then
    appended in place and re-mined three ways — delta-only against the
    saved state (restored from a snapshot between timing rounds, since
    a delta mine advances the state), a full rebuild through the same
    engine into a fresh state directory (the ``delta_speedup``
    denominator — both paths deliver the result plus a state covering
    the grown dataset), and from scratch through plain
    ``setm-columnar`` (recorded as ``columnar_seconds`` so the
    cross-engine cost stays visible).  Every batch refuses to record
    unless the delta result matches both re-mines byte for byte, and
    the whole scenario refuses to record unless the aggregate speedup
    (total rebuild time over total delta time) clears
    ``speedup_floor``.  All mines are serial, so the ratio is honest
    on any host — no ``coordination_overhead_only`` tagging needed.

    Every batch must also pass a deterministic work bound read from the
    delta mine's ``extra["incremental"]`` telemetry: it ran the delta
    path, counted exactly the appended rows, reused saved state, and
    recounted less than everything.  A delta mine that re-mines or
    recounts the whole base fails it on any host, however noisy its
    clock.
    """
    txns = list(database)
    base_count = max(1, int(len(txns) * base_fraction))
    remaining = txns[base_count:]
    if len(remaining) < batches:
        raise SystemExit(
            f"incremental scenario on {name}: only {len(remaining)} "
            f"transactions left for {batches} append batches"
        )
    with tempfile.TemporaryDirectory(prefix="repro-bench-incr-") as tmp:
        root = Path(tmp)
        state_dir = root / "state"

        def _write_split(split, index):
            path = root / f"split{index}.basket"
            write_basket_file(
                TransactionDatabase(
                    (txn.trans_id, txn.items) for txn in split
                ),
                path,
            )
            return path

        base_path = _write_split(txns[:base_count], 0)
        dataset = stream_encode(
            open_chunk_source(base_path, chunk_rows=chunk_rows)
        )
        try:
            started = time.perf_counter()
            base_result = setm_incremental(
                dataset, minsup, state_dir=state_dir
            )
            base_elapsed = round(time.perf_counter() - started, 6)
            if base_result.extra["incremental"]["mode"] != "full":
                raise SystemExit(
                    f"incremental scenario on {name}: base mine did not "
                    "run the full path"
                )
            print(
                f"  incremental base: {base_count:,} transactions mined in "
                f"{base_elapsed:.3f}s (state materialized)",
                flush=True,
            )

            step = len(remaining) / batches
            runs = []
            for batch in range(batches):
                split = remaining[
                    round(batch * step) : round((batch + 1) * step)
                ]
                path = _write_split(split, batch + 1)
                dataset.append_chunks(
                    open_chunk_source(path, chunk_rows=chunk_rows)
                )

                columnar_best = None
                columnar_result = None
                for _ in range(rounds):
                    started = time.perf_counter()
                    candidate = setm_columnar(dataset, minsup)
                    elapsed = time.perf_counter() - started
                    if columnar_best is None or elapsed < columnar_best:
                        columnar_best, columnar_result = elapsed, candidate

                # The full rebuild mines the grown dataset from scratch
                # through the same engine into a fresh state directory:
                # the honest refresh denominator, since both it and the
                # delta path end with the result *and* a current state.
                full_best = None
                full_result = None
                for attempt in range(rounds):
                    rebuild_dir = root / f"rebuild-{batch}-{attempt}"
                    started = time.perf_counter()
                    candidate = setm_incremental(
                        dataset, minsup, state_dir=rebuild_dir
                    )
                    elapsed = time.perf_counter() - started
                    shutil.rmtree(rebuild_dir)
                    if full_best is None or elapsed < full_best:
                        full_best, full_result = elapsed, candidate
                if full_result.extra["incremental"]["mode"] != "full":
                    raise SystemExit(
                        f"incremental scenario on {name}: batch {batch} "
                        "rebuild did not run the full path"
                    )

                # A delta mine advances the state to cover the grown
                # dataset, so timing rounds restore it from a snapshot.
                snapshot = root / f"state-pre-batch{batch}"
                shutil.copytree(state_dir, snapshot)
                delta_best = None
                delta_result = None
                for _ in range(rounds):
                    shutil.rmtree(state_dir)
                    shutil.copytree(snapshot, state_dir)
                    started = time.perf_counter()
                    candidate = setm_incremental(
                        dataset, minsup, state_dir=state_dir
                    )
                    elapsed = time.perf_counter() - started
                    if delta_best is None or elapsed < delta_best:
                        delta_best, delta_result = elapsed, candidate

                telemetry = delta_result.extra["incremental"]
                violations = _delta_work_violations(telemetry)
                if violations:
                    raise SystemExit(
                        f"incremental scenario on {name}: batch {batch} "
                        f"did more than delta work ({'; '.join(violations)})"
                        "; refusing to record"
                    )
                for label, reference in (
                    ("full-rebuild", full_result),
                    ("from-scratch columnar", columnar_result),
                ):
                    if not (
                        reference.same_patterns_as(delta_result)
                        and reference.iterations == delta_result.iterations
                    ):
                        raise SystemExit(
                            f"incremental scenario on {name}: batch "
                            f"{batch} delta re-mine disagrees with the "
                            f"{label} re-mine; refusing to record"
                        )
                if delta_best <= 0:
                    raise SystemExit(
                        f"incremental scenario on {name}: batch {batch} "
                        "delta mine measured no time; refusing to record"
                    )
                speedup = round(full_best / delta_best, 3)
                entry = {
                    "batch": batch,
                    "mode": telemetry["mode"],
                    "delta_transactions": telemetry["delta_transactions"],
                    "base_rows": telemetry["base_rows"],
                    "delta_rows": telemetry["delta_rows"],
                    "total_rows": telemetry["total_rows"],
                    "state_hits": telemetry["state_hits"],
                    "recount_fraction": telemetry["recount_fraction"],
                    "base_rows_rescanned": telemetry["base_rows_rescanned"],
                    "delta_seconds": round(delta_best, 6),
                    "full_remine_seconds": round(full_best, 6),
                    "columnar_seconds": round(columnar_best, 6),
                    "delta_speedup": speedup,
                    "agreement": True,
                }
                print(
                    f"  incremental batch {batch}: "
                    f"+{telemetry['delta_transactions']:,} transactions, "
                    f"delta {delta_best:.3f}s vs rebuild {full_best:.3f}s "
                    f"({speedup}x; columnar {columnar_best:.3f}s)",
                    flush=True,
                )
                runs.append(entry)
        finally:
            dataset.close()
    total_delta = sum(entry["delta_seconds"] for entry in runs)
    total_full = sum(entry["full_remine_seconds"] for entry in runs)
    aggregate = round(total_full / total_delta, 3) if total_delta else None
    if aggregate is None or aggregate < speedup_floor:
        raise SystemExit(
            f"incremental scenario on {name}: aggregate delta speedup "
            f"{aggregate} below the {speedup_floor}x floor; refusing "
            "to record"
        )
    print(
        f"  incremental aggregate: {aggregate}x (floor {speedup_floor}x)",
        flush=True,
    )
    return {
        "engine": "setm-incremental",
        "full_remine_engine": "setm-incremental (rebuild)",
        "base_transactions": base_count,
        "base_seconds": base_elapsed,
        "batches": batches,
        "chunk_rows": chunk_rows,
        "speedup_floor": speedup_floor,
        "aggregate_speedup": aggregate,
        "runs": runs,
    }


def _bench_worker_sweep(
    name: str,
    database,
    minsup: float,
    sweep: tuple[int, ...],
    reference,
    columnar_elapsed: float,
    rounds: int,
) -> dict:
    """The parallel scenario: ``setm-columnar`` across worker counts.

    Every run is differentially checked against the ``setm`` reference;
    the sweep's largest worker count must actually have sent iterations
    to the pool (otherwise the numbers would measure nothing).
    """
    runs = []
    for workers in sweep:
        bench = _bench_engine(
            setm_columnar, database, minsup, rounds, workers=workers
        )
        metered = bench["metered_result"]
        if not (
            reference.same_patterns_as(metered)
            and reference.iterations == metered.iterations
        ):
            raise SystemExit(
                f"worker sweep on {name}: setm-columnar with "
                f"{workers} workers disagrees with setm; refusing to record"
            )
        # One worker and no budget is the in-memory kernel: no pool block.
        parallel = metered.extra.get(
            "parallel", {"partitions": {}, "parallel_iterations": []}
        )
        elapsed = bench["measurements"]["elapsed_seconds"]
        speedup = (
            round(columnar_elapsed / elapsed, 3) if elapsed > 0 else None
        )
        entry = {
            "workers": workers,
            "elapsed_seconds": elapsed,
            "iteration_seconds": bench["measurements"][
                "iteration_seconds"
            ],
            "peak_memory_bytes": bench["measurements"][
                "peak_memory_bytes"
            ],
            "partitions": {
                str(k): p for k, p in parallel["partitions"].items()
            },
            "parallel_iterations": parallel["parallel_iterations"],
            "speedup_vs_columnar": speedup,
            "agreement": True,
        }
        note = _tag_single_cpu(entry, "speedup_vs_columnar")
        print(
            f"  workers={workers}: {elapsed:.3f}s, "
            f"pooled iterations {parallel['parallel_iterations']}, "
            + (
                f"{entry['speedup_vs_columnar']}x vs setm-columnar"
                if not note
                else "coordination overhead only (1 CPU)"
            ),
            flush=True,
        )
        runs.append(entry)
    top = runs[-1]
    if sweep[-1] > 1 and not top["parallel_iterations"]:
        raise SystemExit(
            f"worker sweep on {name}: {sweep[-1]} workers never reached "
            "the pool (every iteration short-circuited); nothing measured"
        )
    return {
        "engine": "setm-columnar",
        "cpus": os.cpu_count(),
        "runs": runs,
    }


def run(
    tiny: bool,
    rounds: int,
    memory_budget: int | None = None,
    workers: int | None = None,
) -> dict:
    workloads = []
    for name, factory, minsup in _workloads(tiny):
        database = factory()
        print(
            f"[{name}] {database.num_transactions:,} transactions, "
            f"{database.num_sales_rows:,} rows, minsup {minsup:g}",
            flush=True,
        )
        engines: dict[str, dict] = {}
        results = {}
        for engine_name, runner in ENGINES.items():
            bench = _bench_engine(runner, database, minsup, rounds)
            results[engine_name] = bench["result"]
            engines[engine_name] = bench["measurements"]
            print(
                f"  {engine_name:>14}: "
                f"{bench['measurements']['elapsed_seconds']:.3f}s, "
                f"{bench['measurements']['patterns']} patterns",
                flush=True,
            )
        agreement = results["setm"].same_patterns_as(
            results["setm-columnar"]
        ) and results["setm"].iterations == results["setm-columnar"].iterations
        if not agreement:
            raise SystemExit(
                f"engine disagreement on {name}: refusing to record timings"
            )
        speedup = (
            engines["setm"]["elapsed_seconds"]
            / engines["setm-columnar"]["elapsed_seconds"]
            if engines["setm-columnar"]["elapsed_seconds"] > 0
            else None
        )
        print(f"  speedup: {speedup:.2f}x", flush=True)
        workload_entry = {
            "name": name,
            "minsup": minsup,
            "dataset": {
                "transactions": database.num_transactions,
                "sales_rows": database.num_sales_rows,
                "distinct_items": len(database.distinct_items()),
            },
            "engines": engines,
            "agreement": True,
            "speedup": round(speedup, 3) if speedup else None,
        }
        # --memory-budget overrides the budget of workloads that carry
        # the constrained scenario; it never adds the scenario to the
        # pure-timing workloads (where an arbitrary budget might not
        # force spilling and would abort the whole run).
        budget = CONSTRAINED_BUDGETS.get(name)
        if budget is not None and memory_budget is not None:
            budget = memory_budget
        if budget is not None:
            workload_entry["constrained_memory"] = _bench_constrained(
                name, database, minsup, budget, results["setm"], rounds
            )
        # --workers narrows the sweep to {1, N}.
        sweep = WORKER_SWEEPS.get(name, ())
        if workers is not None and sweep:
            sweep = tuple(sorted({1, workers}))
        if sweep:
            workload_entry["worker_sweep"] = _bench_worker_sweep(
                name,
                database,
                minsup,
                sweep,
                results["setm"],
                engines["setm-columnar"]["elapsed_seconds"],
                rounds,
            )
        # The combined scenario rides on the constrained budget: pooled
        # counting of on-disk partitions, swept across worker counts.
        combined_sweep = SPILL_PARALLEL_SWEEPS.get(name, ())
        if workers is not None and (
            name in SPILL_PARALLEL_SWEEPS or name == TINY_WORKLOAD
        ):
            combined_sweep = tuple(sorted({1, workers}))
        if combined_sweep and budget is not None:
            workload_entry["spill_parallel"] = _bench_spill_parallel(
                name,
                database,
                minsup,
                budget,
                combined_sweep,
                results["setm"],
                workload_entry["constrained_memory"]["elapsed_seconds"],
                rounds,
            )
        # The serving scenario: concurrent clients through the
        # in-process MiningService, normalized against the direct
        # setm-columnar time measured above.
        serve_sweep = SERVE_SWEEPS.get(name, ())
        if serve_sweep:
            workload_entry["serve"] = _bench_serve(
                name,
                database,
                minsup,
                serve_sweep,
                results["setm-columnar"],
                engines["setm-columnar"]["elapsed_seconds"],
            )
        # The streaming-ingest scenario: bounded chunked encode from a
        # wide CSV (and Parquet when pyarrow is present), differentially
        # checked against the whole-file path before recording.
        ingest_params = INGEST_SCENARIOS.get(name)
        if ingest_params is not None:
            workload_entry["ingest"] = _bench_ingest(
                name, database, minsup, results["setm"], **ingest_params
            )
        # The incremental scenario: materialized count state + delta-only
        # re-mining under append batches, byte-checked per batch against
        # a from-scratch re-mine before recording.
        incremental_params = INCREMENTAL_SCENARIOS.get(name)
        if incremental_params is not None:
            workload_entry["incremental"] = _bench_incremental(
                name, database, minsup, rounds, **incremental_params
            )
        workloads.append(workload_entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/run_bench.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tiny": tiny,
        "rounds": rounds,
        "target_speedup": TARGET_SPEEDUP,
        "workloads": workloads,
    }


def validate(document: dict) -> list[str]:
    """Schema errors in a results document (empty list == well-formed)."""
    errors: list[str] = []

    def need(mapping, key, kinds, where):
        if not isinstance(mapping, dict) or key not in mapping:
            errors.append(f"{where}: missing key {key!r}")
            return None
        value = mapping[key]
        if not isinstance(value, kinds):
            errors.append(
                f"{where}.{key}: expected {kinds}, got {type(value).__name__}"
            )
            return None
        return value

    if need(document, "schema_version", int, "$") != SCHEMA_VERSION:
        errors.append("$.schema_version: unsupported version")
    need(document, "generated_at", str, "$")
    need(document, "python", str, "$")
    need(document, "tiny", bool, "$")
    workloads = need(document, "workloads", list, "$")
    if not workloads:
        errors.append("$.workloads: must be a non-empty list")
        return errors
    for i, workload in enumerate(workloads):
        where = f"$.workloads[{i}]"
        need(workload, "name", str, where)
        need(workload, "minsup", (int, float), where)
        need(workload, "agreement", bool, where)
        dataset = need(workload, "dataset", dict, where)
        if dataset is not None:
            for key in ("transactions", "sales_rows", "distinct_items"):
                need(dataset, key, int, f"{where}.dataset")
        engines = need(workload, "engines", dict, where)
        if engines is not None:
            for engine_name in ("setm", "setm-columnar"):
                engine = need(engines, engine_name, dict, f"{where}.engines")
                if engine is None:
                    continue
                prefix = f"{where}.engines.{engine_name}"
                need(engine, "elapsed_seconds", (int, float), prefix)
                need(engine, "iteration_seconds", dict, prefix)
                need(engine, "peak_r_prime_instances", int, prefix)
                need(engine, "rows_per_second", (int, float), prefix)
                need(engine, "patterns", int, prefix)
                need(engine, "peak_memory_bytes", int, prefix)
        if "constrained_memory" in (workload or {}):
            constrained = need(workload, "constrained_memory", dict, where)
            if constrained is not None:
                prefix = f"{where}.constrained_memory"
                need(constrained, "engine", str, prefix)
                need(constrained, "memory_budget_bytes", int, prefix)
                need(constrained, "elapsed_seconds", (int, float), prefix)
                need(constrained, "peak_memory_bytes", int, prefix)
                need(constrained, "agreement", bool, prefix)
                partitions = need(
                    constrained, "spill_partitions", dict, prefix
                )
                max_partitions = need(
                    constrained, "max_partitions", int, prefix
                )
                if (
                    partitions is not None
                    and max_partitions is not None
                    and max_partitions < 2
                ):
                    errors.append(
                        f"{prefix}.max_partitions: scenario must force "
                        ">= 2 spill partitions"
                    )
        if "worker_sweep" in (workload or {}):
            sweep = need(workload, "worker_sweep", dict, where)
            if sweep is not None:
                prefix = f"{where}.worker_sweep"
                need(sweep, "engine", str, prefix)
                cpus = need(sweep, "cpus", int, prefix)
                runs = need(sweep, "runs", list, prefix)
                if not runs:
                    errors.append(f"{prefix}.runs: must be a non-empty list")
                for j, entry in enumerate(runs or ()):
                    run_prefix = f"{prefix}.runs[{j}]"
                    need(entry, "workers", int, run_prefix)
                    need(entry, "elapsed_seconds", (int, float), run_prefix)
                    need(entry, "agreement", bool, run_prefix)
                    need(entry, "partitions", dict, run_prefix)
                    need(entry, "parallel_iterations", list, run_prefix)
                    errors.extend(
                        _check_single_cpu_tag(
                            entry, cpus, "speedup_vs_columnar", run_prefix
                        )
                    )
        if "spill_parallel" in (workload or {}):
            combined = need(workload, "spill_parallel", dict, where)
            if combined is not None:
                prefix = f"{where}.spill_parallel"
                need(combined, "engine", str, prefix)
                need(combined, "memory_budget_bytes", int, prefix)
                cpus = need(combined, "cpus", int, prefix)
                runs = need(combined, "runs", list, prefix)
                if not runs:
                    errors.append(f"{prefix}.runs: must be a non-empty list")
                for j, entry in enumerate(runs or ()):
                    run_prefix = f"{prefix}.runs[{j}]"
                    need(entry, "workers", int, run_prefix)
                    need(entry, "elapsed_seconds", (int, float), run_prefix)
                    need(entry, "agreement", bool, run_prefix)
                    need(entry, "partitions", dict, run_prefix)
                    pooled = need(
                        entry, "parallel_iterations", list, run_prefix
                    )
                    need(entry, "spill_bytes_written", int, run_prefix)
                    workers_value = entry.get("workers")
                    if (
                        isinstance(workers_value, int)
                        and workers_value > 1
                        and pooled == []
                    ):
                        errors.append(
                            f"{run_prefix}.parallel_iterations: a multi-"
                            "worker run must have reached the pool"
                        )
                    errors.extend(
                        _check_single_cpu_tag(
                            entry, cpus, "speedup_vs_spill_serial", run_prefix
                        )
                    )
        if "ingest" in (workload or {}):
            ingest = need(workload, "ingest", dict, where)
            if ingest is not None:
                prefix = f"{where}.ingest"
                floor = need(ingest, "reduction_floor", (int, float), prefix)
                if not isinstance(floor, (int, float)):
                    floor = INGEST_REDUCTION_FLOOR
                pyarrow_available = need(
                    ingest, "pyarrow_available", bool, prefix
                )
                need(
                    ingest, "peak_whole_file_memory_bytes", int, prefix
                )
                legs = {"csv": need(ingest, "csv", dict, prefix)}
                parquet = ingest.get("parquet")
                if parquet is None:
                    # The honesty tag: a missing Parquet leg must be
                    # explained by the environment, never silent.
                    if "parquet" not in ingest:
                        errors.append(f"{prefix}: missing key 'parquet'")
                    elif pyarrow_available is True:
                        errors.append(
                            f"{prefix}.parquet: null although pyarrow is "
                            "available — the leg must run"
                        )
                elif isinstance(parquet, dict):
                    legs["parquet"] = parquet
                else:
                    errors.append(
                        f"{prefix}.parquet: expected object or null"
                    )
                for leg_name, leg in legs.items():
                    if leg is None:
                        continue
                    leg_prefix = f"{prefix}.{leg_name}"
                    need(leg, "format", str, leg_prefix)
                    need(leg, "memory_budget_bytes", int, leg_prefix)
                    need(leg, "elapsed_seconds", (int, float), leg_prefix)
                    need(leg, "spilled_chunks", int, leg_prefix)
                    need(leg, "bytes_total", int, leg_prefix)
                    need(leg, "bytes_read", int, leg_prefix)
                    need(leg, "bytes_decoded", int, leg_prefix)
                    need(leg, "peak_ingest_memory_bytes", int, leg_prefix)
                    need(leg, "agreement", bool, leg_prefix)
                    chunks = need(leg, "chunks", int, leg_prefix)
                    if isinstance(chunks, int) and chunks < 4:
                        errors.append(
                            f"{leg_prefix}.chunks: the scenario must "
                            "decode in >= 4 chunks"
                        )
                    reduction_key = (
                        "bytes_decoded_reduction"
                        if leg_name == "csv"
                        else "bytes_read_reduction"
                    )
                    reduction = need(
                        leg, reduction_key, (int, float), leg_prefix
                    )
                    if (
                        isinstance(reduction, (int, float))
                        and reduction < floor
                    ):
                        errors.append(
                            f"{leg_prefix}.{reduction_key}: below the "
                            f"{floor:.0%} floor"
                        )
                    peak_reduction = need(
                        leg, "peak_memory_reduction", (int, float), leg_prefix
                    )
                    if (
                        isinstance(peak_reduction, (int, float))
                        and peak_reduction <= 0
                    ):
                        errors.append(
                            f"{leg_prefix}.peak_memory_reduction: streaming "
                            "must beat the whole-file ingest peak"
                        )
        if "incremental" in (workload or {}):
            incremental = need(workload, "incremental", dict, where)
            if incremental is not None:
                prefix = f"{where}.incremental"
                need(incremental, "engine", str, prefix)
                need(incremental, "full_remine_engine", str, prefix)
                need(incremental, "base_transactions", int, prefix)
                need(incremental, "base_seconds", (int, float), prefix)
                need(incremental, "batches", int, prefix)
                floor = need(
                    incremental, "speedup_floor", (int, float), prefix
                )
                if not isinstance(floor, (int, float)):
                    floor = INCREMENTAL_SPEEDUP_FLOOR
                if (
                    document.get("tiny") is not True
                    and isinstance(floor, (int, float))
                    and floor < INCREMENTAL_SPEEDUP_FLOOR
                ):
                    errors.append(
                        f"{prefix}.speedup_floor: a full bench must hold "
                        f"the {INCREMENTAL_SPEEDUP_FLOOR}x acceptance floor"
                    )
                aggregate = need(
                    incremental, "aggregate_speedup", (int, float), prefix
                )
                if (
                    isinstance(aggregate, (int, float))
                    and isinstance(floor, (int, float))
                    and aggregate < floor
                ):
                    errors.append(
                        f"{prefix}.aggregate_speedup: below the "
                        f"{floor}x floor"
                    )
                runs = need(incremental, "runs", list, prefix)
                if not runs:
                    errors.append(f"{prefix}.runs: must be a non-empty list")
                for j, entry in enumerate(runs or ()):
                    run_prefix = f"{prefix}.runs[{j}]"
                    need(entry, "delta_transactions", int, run_prefix)
                    need(entry, "delta_rows", int, run_prefix)
                    need(entry, "total_rows", int, run_prefix)
                    need(entry, "state_hits", int, run_prefix)
                    need(
                        entry, "recount_fraction", (int, float), run_prefix
                    )
                    need(entry, "delta_seconds", (int, float), run_prefix)
                    need(
                        entry, "full_remine_seconds", (int, float), run_prefix
                    )
                    need(entry, "columnar_seconds", (int, float), run_prefix)
                    need(entry, "agreement", bool, run_prefix)
                    # Per-batch speedups are recorded but not floored:
                    # borderline-recount batches are data-dependent and
                    # the acceptance bar is the scenario aggregate.
                    need(entry, "delta_speedup", (int, float), run_prefix)
                    delta_rows = entry.get("delta_rows")
                    total_rows = entry.get("total_rows")
                    if (
                        isinstance(delta_rows, int)
                        and isinstance(total_rows, int)
                        and delta_rows >= total_rows
                    ):
                        errors.append(
                            f"{run_prefix}: delta_rows must be a strict "
                            "subset of total_rows (otherwise nothing "
                            "incremental was measured)"
                        )
        if "serve" in (workload or {}):
            serve = need(workload, "serve", dict, where)
            if serve is not None:
                prefix = f"{where}.serve"
                need(serve, "engine", str, prefix)
                cpus = need(serve, "cpus", int, prefix)
                need(
                    serve, "direct_seconds_per_request", (int, float), prefix
                )
                need(serve, "requests_per_client", int, prefix)
                runs = need(serve, "runs", list, prefix)
                if not runs:
                    errors.append(f"{prefix}.runs: must be a non-empty list")
                for j, entry in enumerate(runs or ()):
                    run_prefix = f"{prefix}.runs[{j}]"
                    need(entry, "clients", int, run_prefix)
                    need(entry, "requests", int, run_prefix)
                    need(entry, "p50_seconds", (int, float), run_prefix)
                    need(entry, "p95_seconds", (int, float), run_prefix)
                    need(entry, "throughput_rps", (int, float), run_prefix)
                    need(entry, "agreement", bool, run_prefix)
                    p50 = entry.get("p50_seconds")
                    p95 = entry.get("p95_seconds")
                    if (
                        isinstance(p50, (int, float))
                        and isinstance(p95, (int, float))
                        and p95 < p50
                    ):
                        errors.append(
                            f"{run_prefix}: p95 below p50 is not a "
                            "latency distribution"
                        )
                    errors.extend(
                        _check_single_cpu_tag(
                            entry,
                            cpus,
                            "throughput_vs_direct",
                            run_prefix,
                            count_key="clients",
                        )
                    )
    return errors


def _check_single_cpu_tag(
    entry: dict,
    cpus: int | None,
    speedup_key: str,
    where: str,
    *,
    count_key: str = "workers",
) -> list[str]:
    """Schema errors for the single-CPU coordination-overhead tagging.

    A ≥ 2-worker (or ≥ 2-client) row measured on one CPU must carry
    ``coordination_overhead_only: true`` and a null speedup — a numeric
    "speedup" there would record pure coordination overhead as a
    regression (the stale-caveat failure mode schema v4 retired).
    """
    count = entry.get(count_key)
    if cpus != 1 or not isinstance(count, int) or count <= 1:
        return []
    errors = []
    if entry.get("coordination_overhead_only") is not True:
        errors.append(
            f"{where}: a >1-{count_key.rstrip('s')} run on a 1-CPU host "
            "must be tagged coordination_overhead_only"
        )
    if entry.get(speedup_key) is not None:
        errors.append(
            f"{where}.{speedup_key}: must be null on a 1-CPU host "
            "(coordination overhead is not a speedup)"
        )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="setm vs setm-columnar performance baseline"
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="one small synthetic workload (CI smoke; seconds, not minutes)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="measurement rounds per engine; best is recorded (default 3)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_setm.json",
        help="where to write the JSON results (default: repo root)",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="override the constrained-memory scenario budget in bytes "
             "for the workloads that carry the scenario "
             "(default: per-workload values in CONSTRAINED_BUDGETS)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="narrow the worker sweeps to {1, N} and extend the "
             "spill-parallel sweep to the tiny smoke (default: per-workload "
             "sweeps; the CI smoke passes --workers 2)",
    )
    parser.add_argument(
        "--validate", type=Path, default=None, metavar="PATH",
        help="validate an existing results file against the schema and exit",
    )
    args = parser.parse_args(argv)

    if args.validate is not None:
        document = json.loads(args.validate.read_text())
        errors = validate(document)
        if errors:
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            return 1
        print(f"{args.validate}: well-formed (schema v{SCHEMA_VERSION})")
        return 0

    document = run(
        tiny=args.tiny,
        rounds=max(1, args.rounds),
        memory_budget=args.memory_budget,
        workers=args.workers,
    )
    errors = validate(document)
    if errors:  # pragma: no cover - the writer always matches its schema
        for error in errors:
            print(f"internal schema error: {error}", file=sys.stderr)
        return 1
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
