"""Out-of-core SETM: the columnar kernel under a memory budget.

``setm-columnar`` holds every ``R'_k`` in RAM — and the intermediates,
not ``SALES``, are the multiplicatively large objects, most of whose
rows die at the HAVING filter.  This engine bounds them by partitioning
*before* extending, so ``R'_k`` is never written anywhere:

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

This engine runs a level's ranges inline, as one batch up to that cut;
``setm-spill-parallel`` maps batches of them over a worker pool.  A
level whose ``R'_k`` fits one share runs in memory, exactly as
``setm-columnar`` does.  Each row's extensions depend only on its own
``last_sid`` and counts are per-pattern, so partitioning changes
*nothing observable*: patterns, counts, and
:class:`~repro.core.result.IterationStats` are identical to ``setm``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Literal, NamedTuple

import numpy as np

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
from repro.core.result import MiningResult
from repro.core.setm import run_figure4_loop
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import TransactionDatabase
from repro.core.transport import pack_buffers, partition_buffer, unpack_buffers
from repro.errors import InvalidConfigError
from repro.registry import register_engine

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "KeyRange",
    "PlannedExtension",
    "RangeBatch",
    "SpilledRelation",
    "SpillingColumnarKernel",
    "run_range_batch",
    "setm_columnar_disk",
]

#: Default ``memory_budget_bytes``: generous for laptops, small enough
#: that genuinely large workloads spill instead of swapping.
DEFAULT_MEMORY_BUDGET = 128 * 2**20


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
    """``R'_k`` before materialization: priced key ranges of its ``R_{k-1}``."""

    source: Any
    plan: PartitionPlan
    k: int


class KeyRange(NamedTuple):
    """One planned key range ``[key_low, key_high)`` of ``R'_k``.

    ``prefixes`` is the slice of sorted ``F_{k-1}`` the range covers
    (``None`` at ``k = 2``, whose prefix is the item id); ``sources``
    are the ``R_{k-1}`` share files that overlap it; ``out_path``
    receives its ``R_k`` share; ``rows`` is the plan's exact price.
    """

    key_low: int
    key_high: int
    prefixes: np.ndarray | None
    sources: list
    out_path: str
    rows: int


class RangeBatch(NamedTuple):
    """Contiguous key ranges of one level, run as one (picklable) task.

    ``sales`` is the run's :class:`SalesIndex`, or a :class:`Partition`
    over its published ``items`` + ``ext_counts`` columns (raw int64).
    """

    k: int
    ranges: list[KeyRange]
    sales: Any
    base: int
    threshold: int
    via: str
    mode: str = "pickle"
    reply_name: str | None = None


def run_range_batch(batch: RangeBatch) -> tuple:
    """The task body of both spill engines: per range extend → count → filter → write.

    Returns ``(candidate_patterns, envelope, rows_written, bytes_written,
    bytes_read, zero_copy_bytes)``, where ``rows_written`` holds one
    count per range; the envelope
    (:func:`~repro.core.transport.pack_buffers`) carries the supported
    keys, their counts and each key's extension total as int64
    buffers, the ranges' in key order.
    """
    if isinstance(batch.sales, SalesIndex):
        return _run_batch(batch, batch.sales, 0)
    with partition_buffer(batch.sales, batch.mode) as (buffer, source):
        columns = np.frombuffer(buffer, dtype=np.int64)
        half = len(columns) // 2
        viewed = columns.nbytes if source in ("shm", "mmap") else 0
        index = SalesIndex.from_columns(
            columns[:half], columns[half:], batch.base
        )
        del columns
        reply = _run_batch(batch, index, viewed)
        del index  # views the buffer the context releases next
    return reply


def _run_batch(batch: RangeBatch, index: SalesIndex, viewed: int) -> tuple:
    candidates = bytes_written = bytes_read = 0
    zero_copy = viewed
    columns: tuple[list, list, list] = ([], [], [])
    rows_written = []
    for key_range, (rows, read, viewed_rows) in zip(
        batch.ranges, _batch_rows(batch, index)
    ):
        bytes_read += read
        zero_copy += viewed_rows
        found, supported, counts, survivors = _extend_count_filter(
            batch, key_range, rows, index
        )
        candidates += found
        written = 0
        if len(survivors):
            blob = survivors.to_chunk_bytes()
            with open(key_range.out_path, "wb") as handle:
                handle.write(blob)
            written = len(blob)
        ext = extension_totals(survivors, index, supported, len(supported))
        for column, part in zip(columns, (supported, counts, ext)):
            column.append(part)
        rows_written.append(len(survivors))
        bytes_written += written
    envelope = pack_buffers(
        [concat_columns(column).tobytes() for column in columns],
        batch.reply_name,
    )
    tallies = (rows_written, bytes_written, bytes_read, zero_copy)
    return (candidates, envelope, *tallies)


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
) -> Iterator[tuple[InstanceRelation, int, int]]:
    """Per range, the ``R_{k-1}`` rows with an extension in it.

    Yields ``(rows, bytes_read, zero_copy_bytes)`` one range at a time.
    At ``k = 2`` the rows are the ``SALES`` positions with extensions
    whose item is a prefix in range: one scan selects the whole batch's
    positions, and :func:`~repro.core.partitioning.split_by_key_ranges`
    splits them per item interval, each in ascending position order.
    Later they are masked out of the overlapping share files, dropping
    rows without extensions.
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
        yield pieces.get(bounds.index(low), empty), 0, 0


def _share_rows(
    batch: RangeBatch, key_range: KeyRange, index: SalesIndex
) -> tuple[InstanceRelation, int, int]:
    """A ``k >= 3`` range's ``R_{k-1}`` rows, read from the share files."""
    low = int(key_range.prefixes[0])
    high = int(key_range.prefixes[-1]) + 1
    keys, sids = [], []
    bytes_read = zero_copy = 0
    for partition in key_range.sources:
        with partition_buffer(partition, batch.mode) as (buffer, source):
            bytes_read += len(buffer)
            viewed = _pick_rows(
                buffer, low, high, index.ext_counts, keys, sids
            )
            if source in ("shm", "mmap"):
                zero_copy += viewed
    rows = InstanceRelation(
        None,
        None,
        last_sid=concat_columns(sids),
        keys=concat_columns(keys),
        k=batch.k - 1,
        index=index,
    )
    return rows, bytes_read, zero_copy


def _pick_rows(buffer, low, high, ext_counts, keys: list, sids: list) -> int:
    """Append copies of the rows of ``buffer`` with key in ``[low, high)``.

    Rows without extensions are dropped too.  The decoded views die with
    this frame, before the caller releases ``buffer``; returns the
    column bytes viewed.
    """
    chunks, viewed = decode_buffer_chunks(buffer)
    for chunk in chunks:
        mask = (chunk.keys >= low) & (chunk.keys < high)
        mask &= ext_counts[chunk.last_sid] > 0
        keys.append(chunk.keys[mask])
        sids.append(chunk.last_sid[mask])
    return viewed


def _overlapping(shares: list[Partition], low: int, high: int) -> list:
    """The shares whose key range meets ``[low, high)``."""
    return [p for p in shares if p.key_low < high and p.key_high > low]


class SpillingColumnarKernel(ColumnarKernel):
    """The columnar Figure-4 steps with budgeted, range-planned relations.

    Budget layout: one quarter of ``memory_budget_bytes`` is the share
    one key range of ``R'_k`` may take, leaving headroom for the
    counting structure, the filter copy, and the fixed residents
    (``SALES`` + index + ``C_k``).  A level whose ``R'_k`` fits within a
    share is simply kept in memory — small workloads never touch the
    disk.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        *,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
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
        plan = PartitionPlan.from_prefix_totals(
            totals,
            index.base,
            self._level_share(int(totals.sum())),
            item_totals=lambda rank: self._item_totals(r, prefixes, rank),
        )
        k = r.k + 1
        if not plan.fits_in_memory:
            self._partitions_per_k[k] = plan.num_partitions
            if k > 2 and isinstance(r, InstanceRelation):
                r = self._spill(r)  # the range tasks read R_{k-1} shares
            return PlannedExtension(r, plan, k)

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

    def _level_share(self, rows: int) -> int:
        """The range size, in bytes, to plan an ``R'_k`` of ``rows`` in."""
        return self._share_bytes

    def count_and_filter(self, r_prime, threshold: int):
        if isinstance(r_prime, InstanceRelation):
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
        if r_prime.k > 2:  # R_1 is SALES, which stays
            r_prime.source.delete()

        candidate_patterns = 0
        rows_written: list[int] = []
        keys, counts, ext = [], [], []
        for candidates, buffers, written_rows, written, read in replies:
            candidate_patterns += candidates
            for column, data in zip((keys, counts, ext), buffers):
                column.append(np.frombuffer(data, dtype=np.int64))
            rows_written.extend(written_rows)
            self._bytes_written += written
            self._bytes_read += read
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
        keys = concat_columns(keys)
        self._levels.add(r_prime.k, keys)
        c_k = dict(zip(keys.tolist(), concat_columns(counts).tolist()))
        r_next = SpilledRelation(shares, r_prime.k, concat_columns(ext))
        return candidate_patterns, c_k, r_next

    def _key_ranges(self, planned: PlannedExtension) -> list[KeyRange]:
        """One :class:`KeyRange` per planned key range, in key order."""
        base = self._index.base
        prefixes = self._levels.prefixes(planned.k - 1)
        ranges = []
        for key_low, key_high, rows in planned.plan.ranges:
            first, last = key_low // base, (key_high - 1) // base
            if prefixes is None:  # R_1 is SALES: batches read the index
                ranks, overlapping = None, []
            else:
                ranks = prefixes[first : last + 1]
                overlapping = _overlapping(
                    planned.source.partitions, ranks[0], ranks[-1] + 1
                )
            ranges.append(
                KeyRange(
                    key_low=key_low,
                    key_high=key_high,
                    prefixes=ranks,
                    sources=overlapping,
                    out_path=str(self._spill_path(f"r-k{planned.k}")),
                    rows=rows,
                )
            )
        return ranges

    def _run_batches(self, template: RangeBatch) -> list[tuple]:
        """Run the level's ranges inline, batch by batch; open the replies.

        A reply is ``(candidates, [keys, counts, ext_totals],
        rows_written, bytes_written, bytes_read)``, ``rows_written``
        holding one count per range.
        """
        replies = []
        for start, stop in self._capped(template, [(0, len(template.ranges))]):
            candidates, envelope, *tallies, _ = run_range_batch(
                template._replace(ranges=template.ranges[start:stop])
            )
            replies.append((candidates, unpack_buffers(envelope)[0], *tallies))
        return replies

    def _capped(
        self, template: RangeBatch, runs: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """``runs`` of ``template.ranges``, cut again to hold one share each.

        A ``k = 2`` batch holds the ``SALES`` positions it selects (and
        their items, 16 bytes a position) through all of its ranges, so
        a run is cut before the range whose positions would take it past
        one budget share; a single range is never cut.  Later levels
        read each range's rows from its share files in turn and hold
        nothing batch-wide.
        """
        if template.k > 2:
            return runs
        index = self._index
        if self._item_positions is None:
            per_item = np.bincount(
                index.items[index.ext_counts > 0], minlength=index.base
            )
            self._item_positions = np.concatenate(([0], np.cumsum(per_item)))
        positions, base = self._item_positions, index.base
        capped = []
        for start, stop in runs:
            held = 0
            for i in range(start, stop):
                key_range = template.ranges[i]
                rows = int(
                    positions[-(-key_range.key_high // base)]
                    - positions[key_range.key_low // base]
                )
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
        }

    def close(self) -> None:
        if self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None


@register_engine(
    "setm-columnar-disk",
    description=(
        "out-of-core SETM: R'_k planned as priced key ranges, each "
        "extended, counted and filtered in turn under a memory budget"
    ),
    representation="columnar",
    out_of_core=True,
    streaming_ingest=True,
    accepted_options=(
        "count_via",
        "memory_budget_bytes",
        "spill_dir",
        "measure_memory",
    ),
)
def setm_columnar_disk(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    max_length: int | None = None,
    count_via: Literal["auto", "sort", "hash"] = "auto",
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
    spill_dir: str | os.PathLike | None = None,
    measure_memory: bool = False,
) -> MiningResult:
    """Mine with bounded resident memory; identical results to ``setm``.

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
        Target resident size for the mining loop's relations.  Any
        ``R'_k`` priced above a quarter of this is cut into key ranges
        of at most that share, each extended, counted and filtered in
        turn, with its ``R_k`` share spilled.  The fixed residents
        (``SALES``, its extension index, the ``C_k`` count relations)
        are outside the budget — the paper itself assumes ``C_k``
        memory-resident.
    spill_dir:
        Directory for the run's private spill files (a fresh
        subdirectory is created and removed); defaults to the system
        temporary directory.
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``; off
        by default (see :func:`repro.core.setm.setm`).

    Returns
    -------
    MiningResult
        Patterns, counts, and iteration statistics identical to
        :func:`repro.core.setm.setm`.  ``extra`` additionally carries
        ``memory_budget_bytes`` and a ``"spill"`` block — key ranges
        per iteration, bytes written/read, chunks written — plus the
        loop-level ``peak_memory_bytes`` under ``measure_memory=True``
        (what the budget is checked against).
    """
    return run_figure4_loop(
        database,
        minimum_support,
        SpillingColumnarKernel(
            database,
            memory_budget_bytes=memory_budget_bytes,
            count_via=count_via,
            spill_dir=spill_dir,
        ),
        algorithm="setm-columnar-disk",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )
