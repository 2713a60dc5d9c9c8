"""Partitioned execution layer: first-class key-range work units.

The paper's central claim is that Figure 4's merge/count/filter passes
are pure set operations with no cross-row dependencies.  The range
kernel of ``setm-columnar`` (:mod:`repro.core.setm_columnar_disk`),
inline under a memory budget or pooled with ``workers > 1``, exploits
it by partitioning *before* extending: a level-``k`` key is ``rank * base + item``, so the
extensions of prefix rank ``r`` are exactly the keys
``[r * base, (r + 1) * base)`` and a key-range partition of ``R'_k`` is
a prefix-range partition of ``R_{k-1}``.  A :class:`PartitionPlan`
prices every range exactly before a row exists; each range is then
extended, counted, filtered and written as its share of ``R_k`` in one
task, inline or on a worker thread.

The machinery they share lives here:

* :class:`Partition` — one key-range slice of a relation as serialized
  chunks (:meth:`~repro.core.columns.InstanceRelation.to_chunk_bytes`),
  held in memory (``payload``) or on disk (``path``).
* :func:`decode_buffer_chunks` — the one decoder of the chunk format.
* :class:`PartitionPlan` / :func:`cut_ranges` — exact range planning
  from per-prefix extension totals.
* :func:`split_by_key_ranges` — routes a relation's rows to key
  intervals in one pass.

Key-range partitioning (as opposed to hashing or row slicing) is what
makes per-partition counts *global* counts: every occurrence of a
pattern lands in exactly one partition, so the support filter can be
applied locally and results merged by plain concatenation — no
cross-partition count reconciliation.

This module is a dependency near-leaf: it imports only numpy, the
standard library and :mod:`repro.core.columns`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.core.columns import (
    InstanceRelation,
    SalesIndex,
    _as_int64,
    chunk_frames,
)
__all__ = [
    "ROW_BYTES",
    "Partition",
    "PartitionPlan",
    "concat_columns",
    "cut_ranges",
    "decode_buffer_chunks",
    "split_by_key_ranges",
]

#: Resident bytes per relation row: the two int64 columns
#: (key, last_sid) a loop relation physically carries.  This is the
#: unit every :class:`PartitionPlan` prices in.
ROW_BYTES = 16


def decode_buffer_chunks(
    data, *, index: "SalesIndex | None" = None
) -> tuple[list[InstanceRelation], int]:
    """Decode chunks from *any* buffer, int64 columns as zero-copy views.

    The one decoder of the chunk format — spill files, range shares,
    the ingest spill and the incremental state all read through it, so
    no two readers can drift.  ``data`` may be ``bytes``, a
    :class:`memoryview` or an ``mmap``-ed file: the int64
    ``keys``/``last_sid`` columns are built with ``np.frombuffer``
    *directly over that buffer* — no intermediate ``bytes``, no
    ``array`` copy.  ``index`` reattaches the lazily-derived columns.

    Returns ``(chunks, zero_copy_bytes)`` where ``zero_copy_bytes``
    counts the column bytes that were *viewed* rather than copied.

    The views borrow ``data``: the caller must drop every chunk before
    releasing an underlying map.
    """
    chunks: list[InstanceRelation] = []
    zero_copy_bytes = 0
    for k, n, sid_off, key_off, _ in chunk_frames(data):
        sids = np.frombuffer(data, dtype=np.int64, count=n, offset=sid_off)
        keys = np.frombuffer(data, dtype=np.int64, count=n, offset=key_off)
        zero_copy_bytes += 16 * n
        chunks.append(
            InstanceRelation(
                None, None, last_sid=sids, keys=keys, k=k, index=index
            )
        )
    return chunks, zero_copy_bytes


def concat_columns(columns: list) -> np.ndarray:
    """One int64 column from per-chunk columns (empty for none)."""
    if not columns:
        return np.empty(0, dtype=np.int64)
    if len(columns) == 1:
        return _as_int64(columns[0])
    return np.concatenate([_as_int64(column) for column in columns])


def split_by_key_ranges(
    relation: InstanceRelation, boundaries: list[int]
) -> Iterator[tuple[int, InstanceRelation]]:
    """Route rows to key-range partitions; yield non-empty ``(p, rows)``.

    Partition indices ascend, so consuming the iterator in order visits
    partitions in ascending key-range order.  One ``searchsorted`` pass
    assigns every row, one stable argsort groups the rows by partition
    (input order kept within each; partition numbers as narrow as they
    fit, which makes it a radix sort), and ``np.bincount`` delimits the
    groups — one pass however many partitions there are.
    """
    keys = _as_int64(relation.keys)
    assignment = np.searchsorted(
        _as_int64(boundaries), keys, side="right"
    ).astype(np.min_scalar_type(len(boundaries)))
    order = np.argsort(assignment, kind="stable")
    keys = keys[order]
    last_sid = _as_int64(relation.last_sid)[order]
    sizes = np.bincount(assignment, minlength=len(boundaries) + 1)
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    for p in np.flatnonzero(sizes).tolist():
        low, high = bounds[p], bounds[p + 1]
        yield p, InstanceRelation(
            None,
            None,
            last_sid=last_sid[low:high],
            keys=keys[low:high],
            k=relation.k,
            index=relation.index,
        )


class Partition:
    """One key-range slice of an ``R'_k`` relation, as serialized chunks.

    The first-class work unit of partitioned execution: it carries the
    pattern-key range it covers (``key_low`` inclusive, ``key_high``
    exclusive, ``None`` for unbounded ends) and a *descriptor* of its
    rows in the chunk format of
    :meth:`InstanceRelation.to_chunk_bytes` — exactly one of

    * ``payload`` — the chunk bytes inline;
    * ``path`` — a spill file (the ``R_k`` shares, the ingest spill).

    Because every occurrence of a pattern falls in exactly one key
    range, counting a partition yields *global* counts for every
    pattern it contains.
    """

    __slots__ = ("k", "key_low", "key_high", "num_rows", "payload", "path")

    def __init__(
        self,
        k: int,
        *,
        key_low: int | None = None,
        key_high: int | None = None,
        num_rows: int = 0,
        payload: bytes | None = None,
        path: str | os.PathLike | None = None,
    ) -> None:
        if (payload is None) == (path is None):
            raise ValueError(
                "a Partition is backed by exactly one chunk source: "
                "pass payload= (in memory) or path= (spill file)"
            )
        self.k = k
        self.key_low = key_low
        self.key_high = key_high
        self.num_rows = num_rows
        self.payload = payload
        self.path = Path(path) if path is not None else None

    def read_bytes(self) -> bytes:
        """This partition's raw chunk bytes (memory or disk)."""
        if self.payload is not None:
            return self.payload
        if self.path is None:
            raise ValueError("partition already deleted; no chunk source left")
        return self.path.read_bytes()

    def load(
        self, *, index: SalesIndex | None = None
    ) -> list[InstanceRelation]:
        """Deserialize every chunk (``index`` reattaches lazy columns)."""
        return decode_buffer_chunks(self.read_bytes(), index=index)[0]

    def delete(self) -> None:
        """Drop the chunk source: unlink the spill file / free the payload.

        Reading a deleted partition raises a clear :class:`ValueError`
        from :meth:`read_bytes`; deleting twice is a no-op.
        """
        if self.path is not None:
            try:
                os.remove(self.path)
            except FileNotFoundError:
                pass
            self.path = None
        self.payload = None

    def __repr__(self) -> str:
        source = "payload" if self.payload is not None else f"path={self.path}"
        return (
            f"Partition(k={self.k}, rows={self.num_rows}, "
            f"range=[{self.key_low}, {self.key_high}), {source})"
        )


def cut_ranges(totals, share_rows: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` runs of ``totals`` of at most ``share_rows``.

    Greedy over the running sum: each run takes as many consecutive
    entries as fit in ``share_rows``; an entry larger than that on its
    own gets a run of its own (the caller may cut it finer).  Runs whose
    sum is zero are dropped, so a zero column yields no runs at all.
    """
    cumulative = np.cumsum(_as_int64(totals))
    runs: list[tuple[int, int]] = []
    start = done = 0
    total = int(cumulative[-1]) if len(cumulative) else 0
    while done < total:
        stop = int(
            np.searchsorted(cumulative, done + share_rows, side="right")
        )
        stop = max(stop, start + 1)
        reached = int(cumulative[stop - 1])
        if reached > done:
            runs.append((start, stop))
        start, done = stop, reached
    return runs


class PartitionPlan:
    """``R'_k`` as priced key ranges — decided before a single row exists.

    A level-``k`` key is ``rank * base + item``, so the extensions of
    prefix rank ``r`` are exactly the keys ``[r * base, (r + 1) * base)``
    and :func:`~repro.core.columns.extension_totals` prices each prefix
    exactly.  The plan cuts those totals into contiguous prefix ranges
    of at most one budget share of rows (:func:`cut_ranges`); a prefix
    whose extensions alone exceed a share is cut again by item
    sub-range (``item_totals(rank)`` prices its extensions per item id),
    still one contiguous key range.  ``ranges`` holds ``(key_low,
    key_high, rows)`` in ascending key order; ``predicted_rows`` is the
    exact ``|R'_k|``.  A single key whose rows exceed a share cannot be
    cut, so its range is over-full.
    """

    __slots__ = ("ranges", "predicted_rows", "share_bytes")

    def __init__(
        self, ranges: list[tuple[int, int, int]], share_bytes: int
    ) -> None:
        self.ranges = ranges
        self.predicted_rows = sum(rows for _, _, rows in ranges)
        self.share_bytes = share_bytes

    @classmethod
    def from_prefix_totals(
        cls,
        totals,
        base: int,
        share_bytes: int,
        *,
        item_totals: Callable[[int], np.ndarray] | None = None,
    ) -> "PartitionPlan":
        """Cut per-prefix extension totals into budget-share key ranges."""
        share_rows = max(1, share_bytes // ROW_BYTES)
        totals = _as_int64(totals)
        ranges = []
        for start, stop in cut_ranges(totals, share_rows):
            rows = int(totals[start:stop].sum())
            if rows > share_rows and item_totals is not None:
                per_item = item_totals(start)
                low = start * base
                ranges.extend(
                    (low + first, low + last, int(per_item[first:last].sum()))
                    for first, last in cut_ranges(per_item, share_rows)
                )
            else:
                ranges.append((start * base, stop * base, rows))
        return cls(ranges, share_bytes)

    @property
    def num_partitions(self) -> int:
        """How many key ranges the plan cut."""
        return len(self.ranges)

    @property
    def fits_in_memory(self) -> bool:
        """True when the priced relation fits one share, unpartitioned."""
        return self.num_partitions <= 1

    def __repr__(self) -> str:
        return (
            f"PartitionPlan(rows={self.predicted_rows}, "
            f"partitions={self.num_partitions}, share={self.share_bytes})"
        )
