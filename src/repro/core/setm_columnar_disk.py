"""The range kernel of ``setm-columnar``: a memory budget and a worker pool.

``setm-columnar`` holds every ``R'_k`` in RAM — and the intermediates,
not ``SALES``, are the multiplicatively large objects, most of whose
rows die at the HAVING filter.  Under ``memory_budget_bytes`` or with
``workers > 1`` it runs :class:`SpillingColumnarKernel` instead, which
bounds them by partitioning *before* extending, so ``R'_k`` is never
written anywhere:

* **Priced key ranges.**  A level-``k`` key is ``rank * base + item``,
  so the extensions of prefix rank ``r`` are exactly the keys
  ``[r * base, (r + 1) * base)``: a key-range partition of ``R'_k`` is
  a prefix-range partition of ``R_{k-1}``.  The
  :class:`~repro.core.partitioning.PartitionPlan` prices every prefix
  exactly from the :class:`~repro.core.columns.SalesIndex` and cuts
  ``R'_k`` into ranges of at most one budget share (a prefix too big
  for a share is cut by item sub-range).  ``|R'_k|`` is the plan's
  exact total; nothing is materialized to make the plan.
* **Batches of ranges.**  :func:`run_range_batch` runs a contiguous
  batch of planned ranges: it maps ``SALES`` once and, at ``k = 2``,
  selects the batch's ``SALES`` positions with one scan and splits them
  per range; later, each range masks its rows out of the previous
  level's overlapping share files.  Then, one range at a time,
  it extends the range's rows, counts and HAVING-filters the keys — key
  ranges are disjoint, so its counts are global counts, and a narrow
  range is counted by direct addressing over ``[key_low, key_high)``
  (:func:`~repro.core.columns.count_and_filter`) — and writes the
  survivors as the range's share of ``R_k``, reporting each key's
  extension total for the next plan.  Resident memory stays at one
  range's slice of ``R'_k``, plus at ``k = 2`` the batch's selected
  positions, plus the fixed residents (``SALES`` + its index + ``C_k``,
  which the paper itself assumes memory-resident): a ``k = 2`` batch is
  cut where its positions would pass one budget share.
* **Inline or pooled.**  With one worker a level's ranges run inline,
  as one batch up to that cut.  With ``workers > 1`` they are cut into
  :func:`balanced_batches` mapped over the cached thread pool of
  :mod:`repro.core.setm_parallel`.  The batches run in the mining
  process: they read the run's ``SalesIndex`` in place, earlier levels'
  ``R_k`` shares by path, and return their supported ``(keys,
  counts)`` arrays and each key's extension total directly, merged in
  key-range order.  How many run at once is capped so that their
  working sets fit the budget (:meth:`SpillingColumnarKernel._threads`).
  A level the budget would keep whole is still pooled when its priced
  ``|R'_k|`` reaches :data:`POOL_MIN_ROWS`; its ``R_k`` survivors stay
  in memory, as the budget allows, instead of becoming share files.

Any other level fits one share and runs in memory, exactly as
``ColumnarKernel`` does.  Each row's extensions depend only on its own
``last_sid`` and counts are per-pattern, so partitioning changes
*nothing observable*: patterns, counts, and
:class:`~repro.core.result.IterationStats` are identical to ``setm``.

Failure containment: a batch raising mid-task propagates its own
exception out of the pool dispatch once every other running batch has
finished (:func:`~repro.core.setm_parallel.pool_map`), and the
Figure-4 loop's ``finally`` closes the kernel, which removes the spill
directory — half-written shares and all.  The cached pool survives and
serves the next run.  Batches are threads of the mining process, so a
batch that crashes the interpreter (a segfault in native code) takes
the process with it: nothing isolates it any more.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Any, Iterator, Literal, NamedTuple

import numpy as np

from repro.config import DEFAULT_MEMORY_BUDGET
from repro.core.columns import (
    InstanceRelation,
    SalesIndex,
    _as_int64,
    count_and_filter,
    extension_item_totals,
    extension_totals,
    suffix_extend,
)
from repro.core.partitioning import (
    ROW_BYTES,
    Partition,
    PartitionPlan,
    concat_columns,
    decode_buffer_chunks,
    split_by_key_ranges,
)
from repro.core.setm_columnar import ColumnarKernel
from repro.core.setm_parallel import PoolTransportMixin, validate_workers
from repro.core.transactions import TransactionDatabase
from repro.errors import InvalidConfigError

__all__ = [
    "BATCHES_PER_WORKER",
    "BatchReply",
    "DEFAULT_MEMORY_BUDGET",
    "KeyRange",
    "POOL_MIN_ROWS",
    "PlannedExtension",
    "RangeBatch",
    "SpilledRelation",
    "SpillingColumnarKernel",
    "balanced_batches",
    "run_range_batch",
]

#: Pool batches per worker: enough that a batch running long does not
#: leave the other workers idle, few enough that each batch's fixed
#: cost (mapping ``SALES``, one scan at ``k = 2``) stays small.
BATCHES_PER_WORKER = 3

#: Priced ``|R'_k|`` from which a level the budget keeps whole is still
#: pooled.  Measured on a 2-CPU host (in-process medians, against the
#: resident kernel): a level of 126,646 rows (Table 6.2 retail, ``k =
#: 2``) ran 0.90x with 2 threads and 0.73x with 4; levels of 525,931
#: (QUEST T10.I4.D10K) and 5,278,645 rows (T10.I4.D100K) ran 1.04-1.09x
#: and 1.06x with 2.
POOL_MIN_ROWS = 2**18


@dataclass
class SpilledRelation:
    """An ``R_k`` as its key-range shares on disk.

    ``partitions`` are path-backed :class:`Partition` files in ascending
    key order, each labelled with the key range of the task that wrote
    it.  ``ext_totals[i]`` is the exact number of ``R'_{k+1}`` rows the
    rows of the ``i``-th key of sorted ``F_k`` will produce — summed by
    the tasks that wrote them, so the next level plans without reading
    anything.
    """

    partitions: list[Partition]
    k: int
    ext_totals: np.ndarray | None = field(repr=False)

    def delete(self) -> None:
        for partition in self.partitions:
            partition.delete()
        self.partitions = []


class PlannedExtension(NamedTuple):
    """``R'_k`` before materialization: priced key ranges of its ``R_{k-1}``.

    ``in_memory`` marks a level cut only for the pool: the budget would
    keep it whole, so its ``R_{k-1}`` rows are read and its ``R_k``
    survivors kept in memory rather than in share files.
    """

    source: Any
    plan: PartitionPlan
    k: int
    in_memory: bool = False


class KeyRange(NamedTuple):
    """One planned key range ``[key_low, key_high)`` of ``R'_k``.

    ``prefixes`` is the slice of sorted ``F_{k-1}`` the range covers
    (``None`` at ``k = 2``, whose prefix is the item id); ``sources``
    hold its ``R_{k-1}`` rows: the share files that overlap it, or the
    in-memory relation itself.  ``out_path`` receives its ``R_k`` share
    (``None``: the survivors stay in memory); ``rows`` is the plan's
    exact price.
    """

    key_low: int
    key_high: int
    prefixes: np.ndarray | None
    sources: list
    out_path: str | None
    rows: int


class RangeBatch(NamedTuple):
    """Contiguous key ranges of one level, run as one task."""

    k: int
    ranges: list[KeyRange]
    sales: SalesIndex
    base: int
    threshold: int
    via: str


class BatchReply(NamedTuple):
    """What one :class:`RangeBatch` found, its ranges in key order.

    ``keys``/``counts`` are the supported patterns, ``ext_totals`` each
    key's extension total; ``rows_written`` holds one ``R_k`` row count
    per range; ``survivors`` holds the ranges' ``R_k`` rows when they
    stay in memory (empty otherwise).
    """

    candidates: int
    keys: np.ndarray
    counts: np.ndarray
    ext_totals: np.ndarray
    rows_written: list[int]
    bytes_written: int
    bytes_read: int
    survivors: list[InstanceRelation]


def run_range_batch(batch: RangeBatch) -> BatchReply:
    """The task body of the range kernel: per range extend → count → filter → keep.

    Each range's survivors are written as its ``R_k`` share file, or
    kept in the reply when the range has no ``out_path``.
    """
    index = batch.sales
    candidates = bytes_written = bytes_read = 0
    columns: tuple[list, list, list] = ([], [], [])
    rows_written = []
    survivors_kept = []
    for key_range, (rows, read) in zip(
        batch.ranges, _batch_rows(batch, index)
    ):
        bytes_read += read
        found, supported, counts, survivors = _extend_count_filter(
            batch, key_range, rows, index
        )
        candidates += found
        if key_range.out_path is None:
            survivors_kept.append(survivors)
        elif len(survivors):
            blob = survivors.to_chunk_bytes()
            with open(key_range.out_path, "wb") as handle:
                handle.write(blob)
            bytes_written += len(blob)
        ext = extension_totals(survivors, index, supported, len(supported))
        for column, part in zip(columns, (supported, counts, ext)):
            column.append(part)
        rows_written.append(len(survivors))
    return BatchReply(
        candidates,
        *(concat_columns(column) for column in columns),
        rows_written,
        bytes_written,
        bytes_read,
        survivors_kept,
    )


def _extend_count_filter(
    batch: RangeBatch,
    key_range: KeyRange,
    rows: InstanceRelation,
    index: SalesIndex,
) -> tuple:
    """One range's ``(candidates, keys, counts, survivors)``."""
    base = batch.base
    key_low, key_high = key_range.key_low, key_range.key_high
    first_rank = key_low // base
    items = None
    if key_low % base or key_high % base:
        # One prefix's item sub-range (an oversized prefix, cut finer).
        items = (key_low - first_rank * base, key_high - first_rank * base)
    r_prime = suffix_extend(
        rows,
        index,
        key_range.prefixes,
        first_rank=0 if key_range.prefixes is None else first_rank,
        items=items,
    )
    return count_and_filter(
        r_prime, batch.threshold, via=batch.via, span=(key_low, key_high)
    )


def _batch_rows(
    batch: RangeBatch, index: SalesIndex
) -> Iterator[tuple[InstanceRelation, int]]:
    """Per range, the ``R_{k-1}`` rows with an extension in it.

    Yields ``(rows, bytes_read)`` one range at a time.  At ``k = 2`` the
    rows are the ``SALES`` positions with extensions whose item is a
    prefix in range: one scan selects the whole batch's positions, and
    :func:`~repro.core.partitioning.split_by_key_ranges` splits them per
    item interval, each in ascending position order.  Later they are
    masked out of the range's sources, dropping rows without
    extensions.
    """
    if batch.k > 2:
        for key_range in batch.ranges:
            yield _share_rows(batch, key_range, index)
        return
    # A range covers the prefix items [low, high); ranges cut from one
    # oversized prefix share its interval, and the plan may skip items
    # without extensions, so the intervals are numbered over every bound.
    base = batch.base
    lows = [key_range.key_low // base for key_range in batch.ranges]
    highs = [-(-key_range.key_high // base) for key_range in batch.ranges]
    bounds = sorted(set(lows + highs))
    items = index.items
    sids = np.flatnonzero(
        (items >= bounds[0]) & (items < bounds[-1]) & (index.ext_counts > 0)
    )
    selected = InstanceRelation(
        None, None, last_sid=sids, keys=items[sids], k=1, index=index
    )
    pieces = dict(split_by_key_ranges(selected, bounds[1:-1]))
    empty = InstanceRelation(
        None, None, last_sid=sids[:0], keys=sids[:0], k=1, index=index
    )
    del selected, sids
    for low in lows:
        yield pieces.get(bounds.index(low), empty), 0


def _share_rows(
    batch: RangeBatch, key_range: KeyRange, index: SalesIndex
) -> tuple[InstanceRelation, int]:
    """A ``k >= 3`` range's ``R_{k-1}`` rows, from share files or memory.

    Only the rows with key in the range's prefixes and with extensions
    are copied out.
    """
    low = int(key_range.prefixes[0])
    high = int(key_range.prefixes[-1]) + 1
    keys, sids = [], []
    bytes_read = 0
    for source in key_range.sources:
        if isinstance(source, Partition):
            data = source.read_bytes()
            bytes_read += len(data)
            chunks = decode_buffer_chunks(data)[0]
        else:
            chunks = [source]
        for chunk in chunks:
            chunk_keys = _as_int64(chunk.keys)
            chunk_sids = _as_int64(chunk.last_sid)
            mask = (chunk_keys >= low) & (chunk_keys < high)
            mask &= index.ext_counts[chunk_sids] > 0
            keys.append(chunk_keys[mask])
            sids.append(chunk_sids[mask])
    rows = InstanceRelation(
        None,
        None,
        last_sid=concat_columns(sids),
        keys=concat_columns(keys),
        k=batch.k - 1,
        index=index,
    )
    return rows, bytes_read


def _overlapping(shares: list[Partition], low: int, high: int) -> list:
    """The shares whose key range meets ``[low, high)``."""
    return [p for p in shares if p.key_low < high and p.key_high > low]


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


class SpillingColumnarKernel(PoolTransportMixin, ColumnarKernel):
    """The columnar Figure-4 steps with budgeted, range-planned relations.

    Budget layout: one quarter of ``memory_budget_bytes`` is the share
    one key range of ``R'_k`` may take, leaving headroom for the
    counting structure, the filter copy, and the fixed residents
    (``SALES`` + index + ``C_k``).  A level whose ``R'_k`` fits within a
    share is simply kept in memory — small workloads never touch the
    disk.

    With ``workers > 1``, :meth:`_level_share` also cuts a level of at
    least :data:`POOL_MIN_ROWS` that the budget would keep whole, and
    :meth:`_run_batches` sends every planned level's ranges to the
    shared thread pool as :func:`balanced_batches` instead of running
    them inline.  :class:`~repro.core.setm_parallel.PoolTransportMixin`
    supplies the one pool dispatch seam.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        *,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        workers: int | None = 1,
        count_via: Literal["auto", "sort", "hash"] = "auto",
        spill_dir: str | os.PathLike | None = None,
    ) -> None:
        super().__init__(database, count_via=count_via)
        if (
            isinstance(memory_budget_bytes, bool)
            or not isinstance(memory_budget_bytes, int)
            or memory_budget_bytes < 1
        ):
            raise InvalidConfigError(
                "memory_budget_bytes must be a positive integer; "
                f"got {memory_budget_bytes!r}"
            )
        self._budget = memory_budget_bytes
        self._share_bytes = max(ROW_BYTES, memory_budget_bytes // 4)
        self._spill_dir_option = spill_dir
        self._spill_root: Path | None = None
        self._sequence = 0
        self._k = 1
        # Cumulative SALES positions with extensions, per item id.
        self._item_positions: np.ndarray | None = None

        # Spill telemetry, surfaced through extra_stats().
        self._partitions_per_k: dict[int, int] = {}
        self._bytes_written = 0
        self._bytes_read = 0
        self._chunks_written = 0

        self._workers = validate_workers(workers)
        # Pool telemetry: ranges per pooled level, levels run in process.
        self._pooled_per_k: dict[int, int] = {}
        self._in_process: list[int] = []

    # -- spill-file plumbing --------------------------------------------------------

    def _spill_path(self, stem: str) -> Path:
        if self._spill_root is None:
            self._spill_root = Path(
                tempfile.mkdtemp(
                    prefix="repro-spill-", dir=self._spill_dir_option
                )
            )
        self._sequence += 1
        return self._spill_root / f"{stem}-{self._sequence:06d}.chunks"

    def _load(self, partition: Partition) -> list[InstanceRelation]:
        data = partition.read_bytes()
        self._bytes_read += len(data)
        return decode_buffer_chunks(data, index=self._index)[0]

    def _spill(self, r: InstanceRelation) -> SpilledRelation:
        """An in-memory ``R_{k-1}`` written as one share file."""
        path = self._spill_path(f"r-k{r.k}")
        blob = r.to_chunk_bytes()
        path.write_bytes(blob)
        self._bytes_written += len(blob)
        self._chunks_written += 1
        keys = _as_int64(r.keys)
        share = Partition(
            r.k,
            key_low=int(keys.min()),
            key_high=int(keys.max()) + 1,
            num_rows=len(r),
            path=path,
        )
        return SpilledRelation([share], r.k, None)

    def _prefix_sids(self, r, key: int) -> np.ndarray:
        """The ``last_sid`` of every ``r`` row whose key is ``key``."""
        if isinstance(r, InstanceRelation):
            return _as_int64(r.last_sid)[_as_int64(r.keys) == key]
        return concat_columns(
            [
                chunk.last_sid[chunk.keys == key]
                for partition in _overlapping(r.partitions, key, key + 1)
                for chunk in self._load(partition)
            ]
        )

    def _item_totals(self, r, prefixes, rank: int) -> np.ndarray:
        """Per item id, how many extensions prefix ``rank`` has."""
        key = rank if prefixes is None else int(prefixes[rank])
        return extension_item_totals(self._prefix_sids(r, key), self._index)

    # -- Figure-4 steps -------------------------------------------------------------

    def merge_extend(self, r, sales):
        index = self._index
        assert index is not None  # make_sales always ran first
        prefixes = self._levels.prefixes(r.k)
        if isinstance(r, SpilledRelation):
            totals = r.ext_totals
        else:
            size = index.base if prefixes is None else len(prefixes)
            totals = extension_totals(r, index, prefixes, size)
        rows = int(totals.sum())
        plan = PartitionPlan.from_prefix_totals(
            totals,
            index.base,
            self._level_share(rows),
            item_totals=lambda rank: self._item_totals(r, prefixes, rank),
        )
        k = r.k + 1
        if not plan.fits_in_memory:
            in_memory = self._pooled_whole(rows)
            if not in_memory:
                self._partitions_per_k[k] = plan.num_partitions
                if k > 2 and isinstance(r, InstanceRelation):
                    r = self._spill(r)  # the range tasks read R_{k-1} shares
            return PlannedExtension(r, plan, k, in_memory)

        # Fits one budget share: materialize in memory, as the plain
        # columnar kernel would.
        if isinstance(r, InstanceRelation):
            return suffix_extend(r, index, prefixes)
        pieces = []
        for partition in r.partitions:
            pieces.extend(
                suffix_extend(chunk, index, prefixes)
                for chunk in self._load(partition)
            )
        r.delete()
        return InstanceRelation(
            None,
            None,
            last_sid=concat_columns([p.last_sid for p in pieces]),
            keys=concat_columns([p.keys for p in pieces]),
            k=k,
            index=index,
        )

    def _pooled_whole(self, rows: int) -> bool:
        """Whether an ``R'_k`` of ``rows`` is pooled only by the gate.

        The budget would keep it whole, but it is big enough to pay for
        the pool.
        """
        return self._workers > 1 and POOL_MIN_ROWS <= rows <= (
            self._share_bytes // ROW_BYTES
        )

    def _level_share(self, rows: int) -> int:
        """The range size, in bytes, to plan an ``R'_k`` of ``rows`` in."""
        if self._pooled_whole(rows):
            # Plan it as the pool's batches instead.
            ranges = BATCHES_PER_WORKER * self._workers
            return -(-rows // ranges) * ROW_BYTES
        return self._share_bytes

    def count_and_filter(self, r_prime, threshold: int):
        if isinstance(r_prime, InstanceRelation):
            # Kept in memory: counted in process, as ColumnarKernel
            # would.  An empty level had nothing to count at all.
            if len(r_prime):
                self._in_process.append(self._k)
            return super().count_and_filter(r_prime, threshold)
        ranges = self._key_ranges(r_prime)
        template = RangeBatch(
            k=r_prime.k,
            ranges=ranges,
            sales=self._index,
            base=self._index.base,
            threshold=threshold,
            via=self._count_via,
        )
        replies = self._run_batches(template)
        if isinstance(r_prime.source, SpilledRelation):
            r_prime.source.delete()  # R_1 is SALES, which stays

        candidate_patterns = 0
        rows_written: list[int] = []
        for reply in replies:
            candidate_patterns += reply.candidates
            rows_written.extend(reply.rows_written)
            self._bytes_written += reply.bytes_written
            self._bytes_read += reply.bytes_read
        keys = concat_columns([reply.keys for reply in replies])
        counts = concat_columns([reply.counts for reply in replies])
        self._levels.add(r_prime.k, keys)
        c_k = dict(zip(keys.tolist(), counts.tolist()))
        if r_prime.in_memory:
            kept = [rows for reply in replies for rows in reply.survivors]
            r_next = InstanceRelation(
                None,
                None,
                last_sid=concat_columns([rows.last_sid for rows in kept]),
                keys=concat_columns([rows.keys for rows in kept]),
                k=r_prime.k,
                index=self._index,
            )
            return candidate_patterns, c_k, r_next
        shares = [
            Partition(
                r_prime.k,
                key_low=key_range.key_low,
                key_high=key_range.key_high,
                num_rows=rows,
                path=key_range.out_path,
            )
            for key_range, rows in zip(ranges, rows_written)
            if rows
        ]
        self._chunks_written += len(shares)
        ext = concat_columns([reply.ext_totals for reply in replies])
        r_next = SpilledRelation(shares, r_prime.k, ext)
        return candidate_patterns, c_k, r_next

    def _key_ranges(self, planned: PlannedExtension) -> list[KeyRange]:
        """One :class:`KeyRange` per planned key range, in key order."""
        base = self._index.base
        prefixes = self._levels.prefixes(planned.k - 1)
        ranges = []
        for key_low, key_high, rows in planned.plan.ranges:
            first, last = key_low // base, (key_high - 1) // base
            if prefixes is None:  # R_1 is SALES: batches read the index
                ranks, sources = None, []
            else:
                ranks = prefixes[first : last + 1]
                sources = (
                    [planned.source]
                    if isinstance(planned.source, InstanceRelation)
                    else _overlapping(
                        planned.source.partitions, ranks[0], ranks[-1] + 1
                    )
                )
            ranges.append(
                KeyRange(
                    key_low=key_low,
                    key_high=key_high,
                    prefixes=ranks,
                    sources=sources,
                    out_path=(
                        None
                        if planned.in_memory
                        else str(self._spill_path(f"r-k{planned.k}"))
                    ),
                    rows=rows,
                )
            )
        return ranges

    def _run_batches(self, template: RangeBatch) -> list[BatchReply]:
        """Run the level's ranges as batches, inline or pooled, in key order."""
        ranges = template.ranges
        if self._workers <= 1:
            self._in_process.append(self._k)
            return [
                run_range_batch(template._replace(ranges=ranges[start:stop]))
                for start, stop in self._capped(template, [(0, len(ranges))])
            ]
        runs = self._capped(
            template,
            balanced_batches(
                [key_range.rows for key_range in ranges],
                BATCHES_PER_WORKER * self._workers,
            ),
        )
        batches = [
            template._replace(ranges=ranges[start:stop])
            for start, stop in runs
        ]
        replies = self._dispatch(
            run_range_batch, batches, self._threads(batches)
        )
        self._pooled_per_k[self._k] = len(ranges)
        return replies

    def _threads(self, batches: list[RangeBatch]) -> int:
        """How many of a level's batches may run at once.

        A batch in flight holds, at ``k = 2``, the ``SALES`` positions
        it selects, and one range's slice of ``R'_k`` at a time — each at
        most one of the budget's four shares.  Batches run together only
        while their largest holding fits the budget as many times over:
        a level the budget cuts runs at least two at a time, and a level
        pooled only by :data:`POOL_MIN_ROWS` (all of it fits one share)
        one per worker.
        """
        held = max(
            max(key_range.rows for key_range in batch.ranges)
            + (self._positions(batch.ranges) if batch.k == 2 else 0)
            for batch in batches
        )
        fits = self._budget // max(1, held * ROW_BYTES)
        return max(1, min(self._workers, fits))

    def _positions(self, ranges: list[KeyRange]) -> int:
        """The ``SALES`` positions a ``k = 2`` batch of ``ranges`` selects."""
        index = self._index
        if self._item_positions is None:
            per_item = np.bincount(
                index.items[index.ext_counts > 0], minlength=index.base
            )
            self._item_positions = np.concatenate(([0], np.cumsum(per_item)))
        positions, base = self._item_positions, index.base
        return int(
            positions[-(-ranges[-1].key_high // base)]
            - positions[ranges[0].key_low // base]
        )

    def _capped(
        self, template: RangeBatch, runs: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """``runs`` of ``template.ranges``, cut again to hold one share each.

        A ``k = 2`` batch holds the ``SALES`` positions it selects (and
        their items, 16 bytes a position) through all of its ranges, so
        a run is cut before the range whose positions would take it past
        one budget share; a single range is never cut.  Later levels
        read each range's rows in turn and hold nothing batch-wide.
        """
        if template.k > 2:
            return runs
        capped = []
        for start, stop in runs:
            held = 0
            for i in range(start, stop):
                rows = self._positions(template.ranges[i : i + 1])
                if held and (held + rows) * ROW_BYTES > self._share_bytes:
                    capped.append((start, i))
                    start, held = i, 0
                held += rows
            capped.append((start, stop))
        return capped

    def size(self, r) -> int:
        if isinstance(r, InstanceRelation):
            return len(r)
        if isinstance(r, PlannedExtension):
            return r.plan.predicted_rows
        return sum(share.num_rows for share in r.partitions)

    # -- lifecycle ------------------------------------------------------------------

    def begin_iteration(self, k: int) -> None:
        self._k = k

    def extra_stats(self) -> dict[str, Any]:
        return {
            **super().extra_stats(),
            "memory_budget_bytes": self._budget,
            "spill": {
                "partitions": dict(self._partitions_per_k),
                "max_partitions": max(
                    self._partitions_per_k.values(), default=0
                ),
                "bytes_written": self._bytes_written,
                "bytes_read": self._bytes_read,
                "chunks_written": self._chunks_written,
            },
            "workers": self._workers,
            "parallel": {
                "partitions": dict(self._pooled_per_k),
                "parallel_iterations": sorted(self._pooled_per_k),
                "short_circuited": sorted(set(self._in_process)),
            },
        }

    def close(self) -> None:
        if self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None
