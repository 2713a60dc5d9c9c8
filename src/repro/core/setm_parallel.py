"""Partition-parallel SETM: counting ``R'_k`` in worker processes.

Figure 4's count/filter pass has no cross-row dependencies, and
key-range partitioning makes per-partition counts *global* counts —
the same two facts the out-of-core engine exploits to count
partition-at-a-time.  This engine exploits them sideways: the
:class:`~repro.core.partitioning.Partition` work units are counted
*simultaneously* in a :mod:`multiprocessing` pool instead of one at a
time.

The division of labour per iteration:

* the parent builds ``R'_k`` exactly as ``setm-columnar`` does
  (:func:`~repro.core.columns.suffix_extend`), then splits it into one
  key-range partition per worker
  (:func:`~repro.core.partitioning.boundaries_from_keys` +
  :func:`~repro.core.partitioning.split_by_key_ranges`);
* each worker receives a picklable :class:`Partition` (chunk bytes in
  the spill format), counts its keys and applies the HAVING threshold
  with :func:`~repro.core.columns.count_supported`, and sends back
  compact supported ``(keys, counts)`` arrays;
* the parent merges results **in submission order** (ascending key
  range, so disjoint — merging is concatenation, never reconciliation)
  and filters ``R'_k`` in-process.

Because the filter runs on the parent's intact ``R'_k``, the surviving
relation is *the same object in the same row order* the serial columnar
kernel would produce — patterns, rules, and
:class:`~repro.core.result.IterationStats` are identical to ``setm``
(differentially tested over QUEST × minsup × workers grids).

Small iterations short-circuit to in-process counting below
``parallel_threshold`` rows: the QUEST tails (a few thousand rows by
``k = 3``) would pay more in chunk serialization and IPC than the count
costs.  Worker pools are created lazily, keyed by
``(start_method, workers)``, and **reused across runs** — a long-lived
mining session (the ROADMAP's serve layer) pays pool start-up once, not
per request.  :func:`shutdown_worker_pools` tears them down; an
``atexit`` hook does the same at interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from multiprocessing.pool import RUN as _POOL_RUN
from typing import Any, Literal, Sequence

import numpy as np

from repro.core.columns import count_supported, filter_by_keys
from repro.core.partitioning import (
    Partition,
    boundaries_from_keys,
    concat_columns,
    decode_buffer_chunks,
    key_ranges,
    split_by_key_ranges,
)
from repro.core.result import MiningResult
from repro.core.setm import run_figure4_loop
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import TransactionDatabase
from repro.core.transport import (
    TransportSession,
    negotiate_pool_transport,
    pack_buffers,
    partition_buffer,
    resolve_transport,
)
from repro.errors import InvalidConfigError
from repro.registry import register_engine

__all__ = [
    "DEFAULT_PARALLEL_THRESHOLD",
    "ParallelColumnarKernel",
    "PoolTransportMixin",
    "default_workers",
    "pool_map",
    "pool_stats",
    "resolve_start_method",
    "resolved_start_method",
    "setm_parallel",
    "shutdown_worker_pools",
    "validate_workers",
]


def default_workers() -> int:
    """The worker count a parallel engine uses when none is given.

    One owner for the default: the kernel applies it, and
    ``Miner.explain`` quotes it when describing a run it has not
    started.
    """
    return os.cpu_count() or 1

#: Rows below which an iteration is counted in-process.  Calibrated to
#: where the pool stops paying for itself: below ~64k rows the
#: vectorized count is single-digit milliseconds, less than the chunk
#: serialization + IPC round trip it would replace.
DEFAULT_PARALLEL_THRESHOLD = 65536

#: Environment override for the pool start method (the CI matrix runs
#: the suite under both ``fork`` and ``spawn`` through this).
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Live pools keyed by ``(start_method, workers)``.  Shared across
#: kernels and runs on purpose: pool start-up (especially under
#: ``spawn``) costs more than a whole small mining run, and a serving
#: process should pay it once.  ``setm-spill-parallel`` dispatches its
#: on-disk partitions to these same pools.
_POOLS: dict[tuple[str | None, int], Any] = {}

#: Guards every read-modify-write of ``_POOLS``.  The serve layer's
#: scheduler threads hit the cache concurrently; without the lock two
#: threads could both miss and each start a pool (leaking one), or one
#: could evict an entry mid-lookup of another.  Reentrant because an
#: eviction path may run inside a section that already holds it.
_POOLS_LOCK = threading.RLock()


def validate_workers(workers: int | None) -> int:
    """``workers`` as a validated positive int (``None`` → CPU count).

    Shared by every parallel kernel so the error message — and the
    ``os.cpu_count()`` default — have exactly one owner.
    """
    if workers is None:
        workers = default_workers()
    if (
        isinstance(workers, bool)
        or not isinstance(workers, int)
        or workers < 1
    ):
        raise InvalidConfigError(
            f"workers must be a positive integer or None; got {workers!r}"
        )
    return workers


def resolve_start_method(start_method: str | None) -> str | None:
    """A validated pool start method (``None`` → env override → platform).

    ``None`` defers first to the ``REPRO_MP_START_METHOD`` environment
    variable (the CI matrix's knob), then to the platform default at
    pool-creation time.
    """
    if start_method is None:
        start_method = os.environ.get(START_METHOD_ENV) or None
    if (
        start_method is not None
        and start_method not in multiprocessing.get_all_start_methods()
    ):
        raise InvalidConfigError(
            f"start_method must be one of "
            f"{multiprocessing.get_all_start_methods()} or None; "
            f"got {start_method!r}"
        )
    return start_method


def resolved_start_method(start_method: str | None) -> str:
    """The concrete method a ``None`` configuration resolves to."""
    return start_method or multiprocessing.get_start_method()


def _count_partition(
    task: tuple[Partition, int, str, tuple[int, int], str, str | None],
) -> tuple[int, tuple, int]:
    """Worker body: count one partition's pattern keys, HAVING applied.

    Runs in the pool process.  The partition arrives as whatever
    descriptor the session's transport published — inline bytes, a
    shared-memory slice, or a spool/spill path — and is decoded
    straight over that buffer
    (:func:`~repro.core.partitioning.decode_buffer_chunks`).  Key
    ranges are disjoint, so the threshold applies locally
    (:func:`~repro.core.columns.count_supported`, by direct addressing
    over the partition's key span when that is narrow).  The reply's flat
    supported ``(keys, counts)`` buffers leave through the same
    transport: a parent-named reply segment under ``shm``, the result
    pickle otherwise.  Returns ``(candidate_patterns, envelope,
    zero_copy_bytes)``.
    """
    partition, threshold, via, span, mode, reply_name = task
    with partition_buffer(partition, mode) as (buffer, source):
        chunks, zero_copy = decode_buffer_chunks(buffer)
        keys = concat_columns([chunk.keys for chunk in chunks])
        candidates, supported, counts = count_supported(
            keys, threshold, via=via, span=span
        )
        # The chunk columns borrow the shm/mmap buffer; drop them (and
        # any single-chunk key view) before the context releases it.
        del chunks, keys
    if source not in ("shm", "mmap"):
        # Inline/whole-read payloads were already copied to reach this
        # process; viewing them saves nothing worth reporting.
        zero_copy = 0
    envelope = pack_buffers([supported.tobytes(), counts.tobytes()], reply_name)
    return candidates, envelope, zero_copy


def _bounded(partition: Partition, span: tuple[int, int]) -> tuple[int, int]:
    """The partition's key range, its unbounded ends taken from ``span``."""
    low, high = partition.key_low, partition.key_high
    return (
        span[0] if low is None else low,
        span[1] if high is None else high,
    )


def _pool_alive(pool: Any) -> bool:
    """Whether a pool can still accept work.

    A pool survives *worker* exceptions (they propagate out of ``map``
    and the processes live on), but a terminated/closed/broken pool is
    permanently dead — ``map`` would raise ``ValueError: Pool not
    running`` forever.  The state attribute is CPython-internal, so an
    implementation without it is conservatively treated as alive.
    """
    return getattr(pool, "_state", _POOL_RUN) == _POOL_RUN


def _shared_pool(start_method: str | None, workers: int):
    """The (lazily created, cached) pool for this configuration.

    A cached pool that died since the last run (terminated by a test,
    broken by a crashed worker) is discarded and transparently
    recreated — a stale cache entry must never fail a fresh run.

    Thread-safe: concurrent callers of the same configuration get the
    *same* pool object (one of them creates it; the others wait on the
    lock), never two racing pools.
    """
    key = (start_method, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not _pool_alive(pool):
            del _POOLS[key]
            pool = None
        if pool is None:
            context = multiprocessing.get_context(start_method)
            pool = context.Pool(processes=workers)
            if not _POOLS:
                atexit.register(shutdown_worker_pools)
            _POOLS[key] = pool
        return pool


def pool_map(
    start_method: str | None, workers: int, func: Any, tasks: Sequence
) -> list:
    """Map ``func`` over ``tasks`` on the cached pool for this config.

    Worker exceptions propagate unchanged (the pool itself survives
    them and stays cached for the next run).  If the dispatch itself
    fails because the pool broke mid-flight, the dead pool is evicted
    from the cache so the next run starts a fresh one instead of
    hitting ``Pool not running`` forever.
    """
    key = (start_method, workers)
    pool = _shared_pool(start_method, workers)
    try:
        return pool.map(func, tasks, chunksize=1)
    except BaseException:
        with _POOLS_LOCK:
            if not _pool_alive(pool) and _POOLS.get(key) is pool:
                del _POOLS[key]
        raise


def pool_stats() -> list[dict[str, Any]]:
    """A snapshot of the cached pools: configuration and liveness.

    One entry per cached pool, sorted by configuration.  ``start_method``
    reports the *resolved* method (what ``None`` meant at creation
    time), ``alive`` whether the pool can still accept work.  The serve
    layer's ``stats`` op surfaces this.
    """
    with _POOLS_LOCK:
        snapshot = list(_POOLS.items())
    return [
        {
            "start_method": resolved_start_method(start_method),
            "workers": workers,
            "alive": _pool_alive(pool),
        }
        for (start_method, workers), pool in sorted(
            snapshot, key=lambda item: (item[0][0] or "", item[0][1])
        )
    ]


def shutdown_worker_pools() -> None:
    """Terminate every cached worker pool (idempotent and thread-safe).

    Long-lived processes that want to release the workers — or tests
    that must not leak them across start-method changes — call this;
    an ``atexit`` hook calls it at interpreter exit regardless.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.terminate()
        pool.join()


class PoolTransportMixin:
    """Transport negotiation + telemetry shared by the pooled kernels.

    Expects the host kernel to provide ``self._workers`` and
    ``self._start_method`` before :meth:`_init_transport` runs.  Both
    pooled kernels (in-memory and spill) dispatch through
    :meth:`_dispatch` — the one seam the crash-injection tests
    override — and report :meth:`transport_stats` in their
    ``extra_stats``.
    """

    #: What ``transport="auto"`` means for this kernel's partitions:
    #: ``shm`` for in-memory payloads, ``mmap`` for spill files.
    _AUTO_TRANSPORT = "shm"

    def _init_transport(self, transport: str | None) -> None:
        self._transport_requested = resolve_transport(transport)
        self._transport_mode: str | None = None
        self._transport_fallback: str | None = None
        self._transport_sessions = 0
        self._transport_counters: dict[str, int] = {}

    def _dispatch(self, func, tasks: list) -> list:
        """Run one iteration's tasks on the shared pool.

        The one seam between the kernel and the pool — the
        crash-injection tests override it to poison tasks mid-flight
        and prove the transport session cleans up anyway.
        """
        return pool_map(self._start_method, self._workers, func, tasks)

    def _negotiated_transport(self) -> str:
        """The concrete transport for this kernel's pool (cached).

        ``auto`` prefers the kernel's class default; ``shm`` (chosen or
        preferred) is proven through the real pool first and demotes to
        ``pickle`` — reason recorded in the telemetry — if the
        handshake fails.
        """
        if self._transport_mode is None:
            requested = self._transport_requested
            concrete = (
                self._AUTO_TRANSPORT if requested == "auto" else requested
            )
            self._transport_mode, self._transport_fallback = (
                negotiate_pool_transport(
                    concrete,
                    start_method=self._start_method,
                    workers=self._workers,
                    mapper=self._dispatch,
                )
            )
        return self._transport_mode

    def _record_transport(self, session: TransportSession) -> None:
        """Fold one session's counters into the run telemetry."""
        self._transport_sessions += 1
        for key, value in session.counters.items():
            self._transport_counters[key] = (
                self._transport_counters.get(key, 0) + value
            )

    def transport_stats(self) -> dict[str, Any]:
        """The ``extra["transport"]`` telemetry block for this run."""
        return {
            "requested": self._transport_requested,
            "mode": self._transport_mode,
            "fallback_reason": self._transport_fallback,
            "sessions": self._transport_sessions,
            **{
                key: self._transport_counters.get(key, 0)
                for key in (
                    "task_bytes_inline",
                    "task_bytes_shared",
                    "task_bytes_spooled",
                    "reply_bytes_inline",
                    "reply_bytes_shared",
                    "zero_copy_bytes",
                )
            },
        }


class ParallelColumnarKernel(PoolTransportMixin, ColumnarKernel):
    """The columnar Figure-4 steps with pooled partition counting.

    ``merge_extend`` and the support filter are inherited unchanged
    from :class:`ColumnarKernel`; only the counting of iterations with
    at least ``parallel_threshold`` candidate rows is farmed out, one
    key-range partition per worker.  ``workers=1`` degenerates to the
    serial columnar kernel (no pool is ever created).
    """

    def __init__(
        self,
        database: TransactionDatabase,
        *,
        workers: int | None = None,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        count_via: Literal["auto", "sort", "hash"] = "auto",
        start_method: str | None = None,
        transport: str | None = None,
    ) -> None:
        super().__init__(database, count_via=count_via)
        if (
            isinstance(parallel_threshold, bool)
            or not isinstance(parallel_threshold, int)
            or parallel_threshold < 0
        ):
            raise InvalidConfigError(
                "parallel_threshold must be a non-negative integer; "
                f"got {parallel_threshold!r}"
            )
        self._workers = validate_workers(workers)
        self._parallel_threshold = parallel_threshold
        self._start_method = resolve_start_method(start_method)
        self._init_transport(transport)
        self._k = 1
        self._partitions_per_k: dict[int, int] = {}
        self._short_circuited: list[int] = []

    # -- Figure-4 steps -------------------------------------------------------------

    def count_and_filter(self, r_prime, threshold: int):
        if (
            self._workers <= 1
            or len(r_prime) < self._parallel_threshold
        ):
            if len(r_prime):
                self._short_circuited.append(self._k)
            return super().count_and_filter(r_prime, threshold)

        partitions = self._partition(r_prime)
        if len(partitions) < 2:
            # Degenerate key distribution (every row the same pattern):
            # nothing to parallelize over.  Empty iterations are not
            # "short-circuited" — there was nothing to count at all.
            if len(r_prime):
                self._short_circuited.append(self._k)
            return super().count_and_filter(r_prime, threshold)

        mode = self._negotiated_transport()
        span = self._key_span(r_prime.k)
        candidate_patterns = 0
        key_parts, count_parts = [], []
        with TransportSession(mode) as session:
            tasks = [
                (
                    published,
                    threshold,
                    self._count_via,
                    _bounded(published, span),
                    mode,
                    session.reply_name(i),
                )
                for i, published in enumerate(session.publish(partitions))
            ]
            replies = self._dispatch(_count_partition, tasks)

            # Submission order == ascending key range: partition results
            # are disjoint, so the merge is concatenation and the
            # per-partition HAVING clause is the global one.
            for candidates, envelope, zero_copy in replies:
                session.note_zero_copy(zero_copy)
                key_bytes, count_bytes = session.collect(envelope)
                candidate_patterns += candidates
                key_parts.append(np.frombuffer(key_bytes, dtype=np.int64))
                count_parts.append(np.frombuffer(count_bytes, dtype=np.int64))
            self._record_transport(session)
        keys = np.concatenate(key_parts)
        self._levels.add(r_prime.k, keys)
        self._partitions_per_k[self._k] = len(partitions)
        c_k = dict(zip(keys.tolist(), np.concatenate(count_parts).tolist()))
        return candidate_patterns, c_k, filter_by_keys(r_prime, keys)

    def _partition(self, r_prime) -> list[Partition]:
        """One picklable key-range work unit per worker."""
        boundaries = boundaries_from_keys(r_prime.keys, self._workers)
        if not boundaries:
            return []
        ranges = key_ranges(boundaries, len(boundaries) + 1)
        return [
            Partition.from_relation(
                rows, key_low=ranges[p][0], key_high=ranges[p][1]
            )
            for p, rows in split_by_key_ranges(r_prime, boundaries)
        ]

    # -- lifecycle ------------------------------------------------------------------

    def begin_iteration(self, k: int) -> None:
        self._k = k

    def extra_stats(self) -> dict[str, Any]:
        return {
            **super().extra_stats(),
            "workers": self._workers,
            "parallel": {
                "partitions": dict(self._partitions_per_k),
                "parallel_iterations": sorted(self._partitions_per_k),
                "short_circuited": sorted(set(self._short_circuited)),
                "threshold_rows": self._parallel_threshold,
                "start_method": resolved_start_method(self._start_method),
            },
            "transport": self.transport_stats(),
        }


@register_engine(
    "setm-parallel",
    description=(
        "partition-parallel SETM: R'_k key-range partitions counted "
        "in a multiprocessing pool"
    ),
    representation="columnar",
    parallel=True,
    streaming_ingest=True,
    accepted_options=(
        "count_via",
        "workers",
        "parallel_threshold",
        "start_method",
        "transport",
        "measure_memory",
    ),
)
def setm_parallel(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    max_length: int | None = None,
    count_via: Literal["auto", "sort", "hash"] = "auto",
    workers: int | None = None,
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
    start_method: str | None = None,
    transport: str | None = None,
    measure_memory: bool = False,
) -> MiningResult:
    """Mine with pooled partition counting; identical results to ``setm``.

    Parameters
    ----------
    database:
        The transactions to mine.
    minimum_support:
        Fractional minimum support in ``(0, 1]`` or absolute count.
    max_length:
        Optional cap on pattern length.
    count_via:
        Counting strategy per partition — see
        :func:`repro.core.setm_columnar.setm_columnar`.
    workers:
        Pool size; defaults to ``os.cpu_count()``.  ``workers=1``
        forces fully serial execution (no pool, byte-identical to
        ``setm-columnar``'s behavior).
    parallel_threshold:
        Iterations with fewer candidate rows than this are counted
        in-process — pool IPC costs more than counting small relations.
        ``0`` parallelizes every non-empty iteration (the differential
        tests use this to force the pool).
    start_method:
        ``multiprocessing`` start method for the pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` defers to the
        ``REPRO_MP_START_METHOD`` environment variable, then the
        platform default.
    transport:
        How partition payloads cross the process boundary —
        ``"pickle"`` (inside the task pickle), ``"shm"``
        (shared-memory descriptors, zero-copy worker views),
        ``"mmap"`` (spooled to files workers map), or
        ``"auto"``/``None`` (prefer ``shm``, proven by a per-pool
        handshake, demoting to ``pickle`` on failure).  Results are
        byte-identical on every transport.
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``; off
        by default (see :func:`repro.core.setm.setm`).

    Returns
    -------
    MiningResult
        Patterns, counts, and iteration statistics identical to
        :func:`repro.core.setm.setm`.  ``extra`` additionally carries
        ``workers``, a ``"parallel"`` block — partitions per
        iteration, which iterations went to the pool, which
        short-circuited, and the resolved start method — and a
        ``"transport"`` block with the negotiated mode and
        bytes-moved / copies-avoided counters.
    """
    return run_figure4_loop(
        database,
        minimum_support,
        ParallelColumnarKernel(
            database,
            workers=workers,
            parallel_threshold=parallel_threshold,
            count_via=count_via,
            start_method=start_method,
            transport=transport,
        ),
        algorithm="setm-parallel",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )
