"""The pooled engines: priced key ranges run in a worker pool.

The out-of-core engine (:mod:`repro.core.setm_columnar_disk`) plans
``R'_k`` as priced key ranges under a ``memory_budget_bytes`` and runs
them as one batch — extend, count, HAVING-filter, write the ``R_k``
share — one range at a time.  :class:`SpillParallelKernel` cuts a
level's ranges into contiguous batches and maps the same
:func:`~repro.core.setm_columnar_disk.run_range_batch` over the cached
worker pool of :mod:`repro.core.setm_parallel`.  Two engines run it:
``setm-spill-parallel`` under a budget the caller chooses, and
``setm-parallel`` under the default budget.

* **Planning is inherited**, plus one gate: with ``workers > 1`` a
  level the budget would keep whole is still pooled when its priced
  ``|R'_k|`` reaches :data:`POOL_MIN_ROWS`, cut into
  ``BATCHES_PER_WORKER × workers`` ranges of like priced size.  Any
  other level that fits one budget share runs in memory, exactly as
  ``setm-columnar`` does, and never touches the disk or the pool.
* **Batches balance priced rows**: :data:`BATCHES_PER_WORKER`
  contiguous batches per worker, cut so each carries a like share of
  the level's priced rows, dispatched in key order (a ``k = 2`` batch
  is cut again where its selected ``SALES`` positions would pass one
  budget share, as inline).  A batch maps ``SALES`` once, so the
  per-task fixed cost is paid per batch, not per range.
* **``SALES`` is published once per run**, when the first level is
  pooled: its ``SalesIndex`` columns travel over the negotiated
  transport (a shared-memory segment under ``shm``, a spooled file
  workers map under ``mmap`` or read whole under ``pickle``), and
  :meth:`SpillParallelKernel.close` releases them.  Earlier levels'
  ``R_k`` shares travel by path; ``R'_k`` never crosses a process
  boundary and is never written anywhere.
* **Replies stay compact**: the supported ``(keys, counts)`` arrays,
  each key's extension total for the next plan, and I/O tallies,
  merged in key-range order (disjoint ⇒ concatenation).

With ``workers=1`` the kernel degenerates to ``setm-columnar-disk``;
under a budget nothing exceeds, to ``setm-columnar``.  Either way
patterns, rules, and :class:`~repro.core.result.IterationStats` are
identical to ``setm`` (the engine conformance matrix,
``tests/core/test_setm_parallel.py`` and
``tests/core/test_setm_spill_parallel.py`` hold it to that).

Failure containment: a worker raising mid-task propagates out of the
pool dispatch, and the Figure-4 loop's ``finally`` closes the kernel,
which removes the spill directory — half-written shares and all — and
releases the published ``SALES``.  The shared pool survives worker
exceptions and stays cached; a pool broken outright is evicted and
transparently recreated on the next run
(:func:`~repro.core.setm_parallel.pool_map`).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Literal

import numpy as np

from repro.core.columns import InstanceRelation
from repro.core.partitioning import ROW_BYTES, Partition
from repro.core.result import MiningResult
from repro.core.setm import run_figure4_loop
from repro.core.setm_columnar_disk import (
    DEFAULT_MEMORY_BUDGET,
    RangeBatch,
    SpillingColumnarKernel,
    run_range_batch,
)
from repro.core.setm_parallel import (
    PoolTransportMixin,
    resolve_start_method,
    resolved_start_method,
    validate_workers,
)
from repro.core.transactions import TransactionDatabase
from repro.core.transport import TransportSession
from repro.registry import register_engine

__all__ = [
    "POOL_MIN_ROWS",
    "SpillParallelKernel",
    "balanced_batches",
    "setm_parallel",
    "setm_spill_parallel",
]

#: Pool batches per worker: enough that a batch running long does not
#: leave the other workers idle, few enough that each batch's fixed
#: cost (mapping ``SALES``, one scan at ``k = 2``) stays small.
BATCHES_PER_WORKER = 3

#: Priced ``|R'_k|`` from which a level the budget keeps whole is still
#: pooled.  Below it the count is a few milliseconds in process, less
#: than publishing ``SALES`` and one pool round trip would cost.
POOL_MIN_ROWS = 65536


def balanced_batches(costs: list[int], batches: int) -> list[tuple[int, int]]:
    """``min(batches, len(costs))`` contiguous ``[start, stop)`` runs of ``costs``.

    The ``i``-th cut goes where the running total comes nearest to
    ``i / batches`` of the whole, so runs carry like costs; every run
    holds at least one entry.
    """
    count = min(batches, len(costs))
    cumulative = list(accumulate(costs))
    total = cumulative[-1] if cumulative else 0
    stops: list[int] = []
    start = 0
    for i in range(1, count):
        target = total * i / count
        crossing = bisect_left(cumulative, target)
        before = cumulative[crossing - 1] if crossing else 0
        stop = crossing + (cumulative[crossing] - target <= target - before)
        stop = min(max(stop, start + 1), len(costs) - (count - i))
        stops.append(stop)
        start = stop
    stops.append(len(costs))
    return list(zip([0, *stops[:-1]], stops))


class SpillParallelKernel(PoolTransportMixin, SpillingColumnarKernel):
    """The spilling Figure-4 steps with each level's range tasks pooled.

    The batch body is inherited unchanged.  When ``workers > 1``,
    :meth:`_level_share` also cuts a level of at least
    :data:`POOL_MIN_ROWS` that the budget would keep whole, and
    :meth:`_run_batches` cuts every planned level's ranges into
    :func:`balanced_batches` dispatched to the shared worker pool
    instead of running inline.  In-memory levels — and every level
    when ``workers=1`` — take the serial path, so the kernel degrades
    gracefully to its two parents.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        *,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        workers: int | None = None,
        count_via: Literal["auto", "sort", "hash"] = "auto",
        spill_dir: str | os.PathLike | None = None,
        start_method: str | None = None,
        transport: str | None = None,
    ) -> None:
        super().__init__(
            database,
            memory_budget_bytes=memory_budget_bytes,
            count_via=count_via,
            spill_dir=spill_dir,
        )
        self._workers = validate_workers(workers)
        self._start_method = resolve_start_method(start_method)
        self._init_transport(transport)
        self._pooled_per_k: dict[int, int] = {}
        self._in_process: list[int] = []
        self._sales_session: TransportSession | None = None
        self._published_sales: Partition | None = None

    # -- Figure-4 steps -------------------------------------------------------------

    def _level_share(self, rows: int) -> int:
        share = super()._level_share(rows)
        if self._workers > 1 and POOL_MIN_ROWS <= rows <= share // ROW_BYTES:
            # Kept whole by the budget, but big enough to pay for the
            # pool: plan it as the pool's batches instead.
            ranges = BATCHES_PER_WORKER * self._workers
            return -(-rows // ranges) * ROW_BYTES
        return share

    def count_and_filter(self, r_prime, threshold: int):
        # A level kept in memory is counted in-process, exactly as the
        # serial columnar kernel would.  Empty levels are not "in
        # process" — there was nothing to count at all.
        if isinstance(r_prime, InstanceRelation) and len(r_prime):
            self._in_process.append(self._k)
        return super().count_and_filter(r_prime, threshold)

    def _run_batches(self, template: RangeBatch) -> list[tuple]:
        if self._workers <= 1:
            self._in_process.append(self._k)
            return super()._run_batches(template)

        mode = self._negotiated_transport()
        sales = self._publish_sales(mode)
        ranges = template.ranges
        runs = self._capped(
            template,
            balanced_batches(
                [key_range.rows for key_range in ranges],
                BATCHES_PER_WORKER * self._workers,
            ),
        )
        replies = []
        with TransportSession(mode) as session:
            batches = [
                template._replace(
                    ranges=ranges[start:stop],
                    sales=sales,
                    mode=mode,
                    reply_name=session.reply_name(i),
                )
                for i, (start, stop) in enumerate(runs)
            ]
            for reply in self._dispatch(run_range_batch, batches):
                candidates, envelope, *tallies, zero_copy = reply
                session.note_zero_copy(zero_copy)
                replies.append((candidates, session.collect(envelope), *tallies))
            self._record_transport(session)
        self._pooled_per_k[self._k] = len(ranges)
        return replies

    def _publish_sales(self, mode: str) -> Partition:
        """The run's ``SalesIndex`` columns for the workers, published once.

        ``items`` then ``ext_counts`` as raw int64, in one shared-memory
        segment under ``shm`` and in one spooled file otherwise (mapped
        under ``mmap``, read whole under ``pickle``).  :meth:`close`
        releases it.
        """
        if self._published_sales is None:
            index = self._index
            raw = bytearray(index.items.nbytes + index.ext_counts.nbytes)
            np.concatenate(
                (index.items, index.ext_counts),
                out=np.frombuffer(raw, dtype=np.int64),
            )
            session = TransportSession("shm" if mode == "shm" else "mmap")
            (self._published_sales,) = session.publish(
                [Partition(1, num_rows=len(index.items), payload=raw)]
            )
            self._sales_session = session
            self._record_transport(session)
        return self._published_sales

    # -- lifecycle ------------------------------------------------------------------

    def extra_stats(self) -> dict[str, Any]:
        stats = super().extra_stats()
        stats["workers"] = self._workers
        stats["parallel"] = {
            "partitions": dict(self._pooled_per_k),
            "parallel_iterations": sorted(self._pooled_per_k),
            "short_circuited": sorted(set(self._in_process)),
            "start_method": resolved_start_method(self._start_method),
        }
        stats["transport"] = self.transport_stats()
        return stats

    def close(self) -> None:
        if self._sales_session is not None:
            self._sales_session.close()
            self._sales_session = None
            self._published_sales = None
        super().close()


@register_engine(
    "setm-parallel",
    description=(
        "parallel SETM: levels of at least POOL_MIN_ROWS R'_k rows cut "
        "into key ranges, extended, counted and filtered in a "
        "multiprocessing pool"
    ),
    representation="columnar",
    parallel=True,
    streaming_ingest=True,
    accepted_options=(
        "count_via",
        "workers",
        "start_method",
        "transport",
        "spill_dir",
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
    start_method: str | None = None,
    transport: str | None = None,
    spill_dir: str | os.PathLike | None = None,
    measure_memory: bool = False,
) -> MiningResult:
    """Mine with big levels pooled; identical results to ``setm``.

    ``setm-spill-parallel`` under the default memory budget: a level
    whose priced ``|R'_k|`` reaches :data:`POOL_MIN_ROWS` is cut into
    ``BATCHES_PER_WORKER × workers`` key ranges run in the worker pool;
    smaller levels are counted in process.

    Parameters
    ----------
    database:
        The transactions to mine.
    minimum_support:
        Fractional minimum support in ``(0, 1]`` or absolute count.
    max_length:
        Optional cap on pattern length.
    count_via:
        Counting strategy per key range — see
        :func:`setm_spill_parallel`.
    workers:
        Pool size; defaults to ``os.cpu_count()``.  ``workers=1``
        forces fully serial execution (no pool, byte-identical to
        ``setm-columnar``'s behavior under the default budget).
    start_method:
        ``multiprocessing`` start method for the pool; ``None`` defers
        to ``REPRO_MP_START_METHOD``, then the platform default.
    transport:
        How the ``SALES`` columns, the ``R_k`` shares and the replies
        cross the process boundary — see :func:`setm_spill_parallel`;
        ``"auto"``/``None`` means ``mmap``.
    spill_dir:
        Directory for the run's private spill files (a fresh
        subdirectory is created and removed): a pooled level's workers
        write its ``R_k`` shares there.
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``; off
        by default (see :func:`repro.core.setm.setm`).

    Returns
    -------
    MiningResult
        Patterns, counts, and iteration statistics identical to
        :func:`repro.core.setm.setm`, with the ``extra`` blocks of
        :func:`setm_spill_parallel`.
    """
    return run_figure4_loop(
        database,
        minimum_support,
        SpillParallelKernel(
            database,
            workers=workers,
            count_via=count_via,
            spill_dir=spill_dir,
            start_method=start_method,
            transport=transport,
        ),
        algorithm="setm-parallel",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )


@register_engine(
    "setm-spill-parallel",
    description=(
        "out-of-core AND parallel SETM: R'_k key ranges extended, "
        "counted and filtered in a multiprocessing pool"
    ),
    representation="columnar",
    out_of_core=True,
    parallel=True,
    streaming_ingest=True,
    accepted_options=(
        "count_via",
        "memory_budget_bytes",
        "spill_dir",
        "workers",
        "start_method",
        "transport",
        "measure_memory",
    ),
)
def setm_spill_parallel(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    max_length: int | None = None,
    count_via: Literal["auto", "sort", "hash"] = "auto",
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
    spill_dir: str | os.PathLike | None = None,
    workers: int | None = None,
    start_method: str | None = None,
    transport: str | None = None,
    measure_memory: bool = False,
) -> MiningResult:
    """Mine with each level's key ranges pooled; identical to ``setm``.

    Parameters
    ----------
    database:
        The transactions to mine.
    minimum_support:
        Fractional minimum support in ``(0, 1]`` or absolute count.
    max_length:
        Optional cap on pattern length.
    count_via:
        Counting strategy per key range — see
        :func:`repro.core.setm_columnar.setm_columnar`.  Under
        ``"auto"`` a range whose key span ``[key_low, key_high)`` is at
        most twice its ``R'_k`` rows is counted by direct addressing
        (one ``np.bincount``, the HAVING filter one table gather); a
        wider range is sorted.
    memory_budget_bytes:
        Target resident size for the mining loop's relations, exactly
        as in :func:`repro.core.setm_columnar_disk.setm_columnar_disk`.
        Levels the budget cuts into ≥ 2 key ranges run in workers, and
        so does a level it keeps whole whose priced ``|R'_k|`` reaches
        :data:`POOL_MIN_ROWS`.
    spill_dir:
        Directory for the run's private spill files (a fresh
        subdirectory is created and removed); workers write their
        ``R_k`` shares under it too.
    workers:
        Pool size; defaults to ``os.cpu_count()``.  ``workers=1``
        forces fully serial execution — byte-identical behavior to
        ``setm-columnar-disk``.
    start_method:
        ``multiprocessing`` start method for the pool; ``None`` defers
        to ``REPRO_MP_START_METHOD``, then the platform default.
    transport:
        How the ``SALES`` columns, the ``R_k`` shares and the replies
        cross the process boundary — ``"pickle"`` (workers read files
        whole; replies ride the result pickle), ``"mmap"`` (workers map
        the files and decode columns as views over the map), ``"shm"``
        (``SALES`` in a named shared-memory segment, replies through
        segments too), or ``"auto"``/``None`` (``mmap``).
        Results are byte-identical on every transport.
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``; off
        by default (see :func:`repro.core.setm.setm`).

    Returns
    -------
    MiningResult
        Patterns, counts, and iteration statistics identical to
        :func:`repro.core.setm.setm`.  ``extra`` carries the spill
        telemetry of ``setm-columnar-disk`` (``memory_budget_bytes``,
        ``"spill"`` — including worker-side reads and writes) merged
        with the pool telemetry (``workers``, a
        ``"parallel"`` block with pooled iterations, pooled key ranges,
        and the resolved start method) and a ``"transport"`` block
        with the negotiated mode and bytes-moved / copies-avoided
        counters.
    """
    return run_figure4_loop(
        database,
        minimum_support,
        SpillParallelKernel(
            database,
            memory_budget_bytes=memory_budget_bytes,
            workers=workers,
            count_via=count_via,
            spill_dir=spill_dir,
            start_method=start_method,
            transport=transport,
        ),
        algorithm="setm-spill-parallel",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )
