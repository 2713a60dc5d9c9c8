"""Partitioned execution layer: first-class ``R'_k`` work units.

The paper's central claim is that Figure 4's merge/count/filter passes
are pure set operations with no cross-row dependencies.  Two engines
exploit the same consequence in two directions:

* the **spill** engine (:mod:`repro.core.setm_columnar_disk`) range-
  partitions ``R'_k`` by pattern key into *files* and counts one
  partition at a time to bound resident memory;
* the **parallel** engine (:mod:`repro.core.setm_parallel`) range-
  partitions ``R'_k`` into *picklable payloads* and counts all
  partitions at once in worker processes.

Both need exactly the same machinery, which this module owns (it used
to live inline in the spill kernel):

* :class:`Partition` — one key-range slice of a relation as serialized
  chunks (:meth:`~repro.core.columns.InstanceRelation.to_chunk_bytes`),
  held either in memory (``payload``) or on disk (``path``).  Picklable
  either way, so a partition can be handed to a worker process as-is.
* :class:`PartitionPlan` — partition count and placement priced from
  :func:`~repro.core.columns.extension_counts` *before* a single
  ``R'_k`` row is materialized.
* :func:`choose_boundaries` / :func:`sample_extension_boundaries` /
  :func:`boundaries_from_keys` — quantile boundary choosers; the
  extension sampler strides across the *whole* of ``R_{k-1}`` so
  tid-correlated key drift cannot funnel rows into one partition.
* :func:`split_by_key_ranges` — route a relation's rows to partitions
  (one ``searchsorted`` pass plus a per-partition mask).

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
from math import ceil
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.columns import (
    InstanceRelation,
    SalesIndex,
    _as_int64,
    chunk_frames,
    extension_counts,
    read_chunks,
    suffix_extend,
)
from repro.errors import PartitionFormatError

__all__ = [
    "PARTITION_PICKLE_VERSION",
    "ROW_BYTES",
    "Partition",
    "PartitionPlan",
    "boundaries_from_keys",
    "choose_boundaries",
    "concat_columns",
    "decode_buffer_chunks",
    "key_ranges",
    "output_slices",
    "sample_extension_boundaries",
    "slice_rows",
    "split_by_key_ranges",
]

#: Resident bytes per relation row: the two int64 columns
#: (key, last_sid) a loop relation physically carries.  This is the
#: unit every :class:`PartitionPlan` prices in.
ROW_BYTES = 16

#: Input rows sampled (strided, across the whole input) to place
#: partition boundaries.  Bounded so the sample's own extension stays a
#: sliver of any realistic budget.
BOUNDARY_SAMPLE_ROWS = 2048


def decode_buffer_chunks(
    data, *, index: "SalesIndex | None" = None
) -> tuple[list[InstanceRelation], int]:
    """Decode chunks from *any* buffer, int64 columns as zero-copy views.

    The one decoder every partition consumer reads spill bytes through
    (the serial kernel in-process, the pooled engines inside their
    workers), so they can never drift.  ``data`` may be ``bytes``, a
    :class:`memoryview` over a shared-memory segment or an ``mmap``-ed
    spill file: the int64 ``keys``/``last_sid`` columns are built with
    ``np.frombuffer`` *directly over that buffer* — no intermediate
    ``bytes``, no ``array`` copy.  ``index`` reattaches the
    lazily-derived columns.

    Returns ``(chunks, zero_copy_bytes)`` where ``zero_copy_bytes``
    counts the column bytes that were *viewed* rather than copied — the
    transport telemetry's ``copies_avoided`` evidence.

    The views borrow ``data``: the caller must drop every chunk before
    releasing the underlying segment or map (the worker bodies do, by
    construction — replies are packed into fresh buffers).
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
    """One int64 column from per-chunk columns."""
    if len(columns) == 1:
        return _as_int64(columns[0])
    return np.concatenate([_as_int64(column) for column in columns])


def slice_rows(
    relation: InstanceRelation, start: int, stop: int
) -> InstanceRelation:
    """A zero-or-cheap-copy row range of a loop relation."""
    return InstanceRelation(
        None,
        None,
        last_sid=relation.last_sid[start:stop],
        keys=relation.keys[start:stop],
        k=relation.k,
        index=relation.index,
    )


def output_slices(counts, target_rows: int) -> list[tuple[int, int]]:
    """Input row ranges whose summed extension output is ≈ ``target_rows``.

    A single row's extensions are never split, so a slice may overshoot
    by at most one transaction's length — bounded and tiny relative to
    any realistic budget share.
    """
    n = len(counts)
    if n == 0:
        return []
    cumulative = np.cumsum(counts)
    total = int(cumulative[-1])
    if total <= target_rows:
        return [(0, n)]
    marks = np.searchsorted(
        cumulative, np.arange(target_rows, total, target_rows), side="left"
    )
    edges = [0]
    for mark in (marks + 1).tolist():
        if edges[-1] < mark < n:
            edges.append(mark)
    edges.append(n)
    return list(zip(edges, edges[1:]))


def choose_boundaries(keys, partitions: int) -> list[int]:
    """``partitions - 1`` ascending boundary keys (sample quantiles).

    Partition ``p`` then holds the keys ``k`` with
    ``boundaries[p-1] <= k < boundaries[p]`` under the
    ``bisect_right`` routing of :func:`split_by_key_ranges` (duplicated
    boundary values simply leave some partitions empty — coverage stays
    disjoint and total).
    """
    ordered = np.sort(_as_int64(keys))
    n = len(ordered)
    return [int(ordered[n * i // partitions]) for i in range(1, partitions)]


def boundaries_from_keys(
    keys: Sequence[int],
    partitions: int,
    *,
    sample_rows: int = BOUNDARY_SAMPLE_ROWS,
) -> list[int] | None:
    """Boundaries for an already-materialized key column.

    A strided sample (never the column's prefix, which would inherit
    the tid-ordered input's position) feeds :func:`choose_boundaries`.
    Returns ``None`` on an empty column.
    """
    n = len(keys)
    if n == 0:
        return None
    stride = max(1, n // sample_rows)
    return choose_boundaries(_as_int64(keys)[::stride], partitions)


def sample_extension_boundaries(
    chunks: Iterable[InstanceRelation],
    index: SalesIndex,
    total_rows: int,
    partitions: int,
    *,
    prefixes: Sequence[int] | None = None,
    sample_rows: int = BOUNDARY_SAMPLE_ROWS,
) -> list[int] | None:
    """Partition boundaries from a whole-input sample of *output* keys.

    Quantiles of a single merge slice's keys would inherit that slice's
    position in the tid-ordered input — a database whose pattern keys
    drift with trans_id would then funnel most rows into one partition
    and void the memory bound.  Instead, rows strided across *all* of
    ``R_{k-1}`` are extended (exactly the keys the merge will emit for
    them; ``prefixes`` is the sorted ``F_{k-1}`` the merge ranks into)
    and the boundaries are quantiles of that global sample.  For
    spilled input this re-reads ``R_{k-1}`` once — the small filtered
    relation, not ``R'_k``.  Returns ``None`` when the sample has no
    extensions (the caller then falls back to first-slice quantiles).
    """
    stride = max(1, total_rows // sample_rows)
    sample_keys = []
    for chunk in chunks:
        sampled = InstanceRelation(
            None,
            None,
            last_sid=chunk.last_sid[::stride],
            keys=chunk.keys[::stride],
            k=chunk.k,
            index=index,
        )
        extended = suffix_extend(sampled, index, prefixes)
        if len(extended):
            sample_keys.append(extended.keys)
    if not sample_keys:
        return None
    return choose_boundaries(concat_columns(sample_keys), partitions)


def key_ranges(
    boundaries: list[int] | None, partitions: int
) -> list[tuple[int | None, int | None]]:
    """Per-partition ``(key_low, key_high)`` intervals for ``boundaries``.

    The one owner of the boundary-interval semantics both partition
    consumers label their :class:`Partition` work units with: partition
    ``p`` covers ``key_low`` inclusive to ``key_high`` exclusive (the
    :func:`split_by_key_ranges` routing), with ``None`` at unbounded
    ends.  Without boundaries every interval is unbounded.
    """
    if not boundaries:
        return [(None, None)] * partitions
    bounds = [None, *boundaries, None]
    return [(bounds[p], bounds[p + 1]) for p in range(partitions)]


def split_by_key_ranges(
    relation: InstanceRelation, boundaries: list[int]
) -> Iterator[tuple[int, InstanceRelation]]:
    """Route rows to key-range partitions; yield non-empty ``(p, rows)``.

    Partition indices ascend, so consuming the iterator in order visits
    partitions in ascending key-range order.  One ``searchsorted`` pass
    assigns every row; each partition's rows are then a mask copy
    preserving input order.
    """
    keys = _as_int64(relation.keys)
    last_sid = _as_int64(relation.last_sid)
    assignment = np.searchsorted(_as_int64(boundaries), keys, side="right")
    for p in range(len(boundaries) + 1):
        mask = assignment == p
        if not mask.any():
            continue
        yield p, InstanceRelation(
            None,
            None,
            last_sid=last_sid[mask],
            keys=keys[mask],
            k=relation.k,
            index=relation.index,
        )


#: Version tag written into every :class:`Partition` pickle.  Bumped
#: whenever the descriptor layout changes; a pool member reading a
#: different version raises the typed
#: :class:`~repro.errors.PartitionFormatError` instead of a garbled
#: unpickle (mixed-version pools are a deployment error, not a data
#: corruption).
PARTITION_PICKLE_VERSION = 2


class Partition:
    """One key-range slice of an ``R'_k`` relation, as serialized chunks.

    The first-class work unit of partitioned execution: it carries the
    pattern-key range it covers (``key_low`` inclusive, ``key_high``
    exclusive, ``None`` for unbounded ends) and a *descriptor* of its
    rows in the chunk format of
    :meth:`InstanceRelation.to_chunk_bytes` — exactly one of

    * ``payload`` — the chunk bytes inline (they travel inside the
      task pickle: the ``pickle`` transport);
    * ``shm`` — a ``(segment_name, offset, length)`` slice of a
      :mod:`multiprocessing.shared_memory` segment (the pickle shrinks
      to the descriptor; workers view the bytes in place: the ``shm``
      transport);
    * ``path`` — a spill file (workers read — or ``mmap`` — the file
      themselves: the spill engines and the ``mmap`` transport).

    Because every occurrence of a pattern falls in exactly one key
    range, counting a partition yields *global* counts for every
    pattern it contains.

    Partitions are picklable whatever the descriptor; the pickle carries
    :data:`PARTITION_PICKLE_VERSION` so version skew inside a pool
    fails typed and early.
    """

    __slots__ = (
        "k", "key_low", "key_high", "num_rows", "payload", "path", "shm"
    )

    def __init__(
        self,
        k: int,
        *,
        key_low: int | None = None,
        key_high: int | None = None,
        num_rows: int = 0,
        payload: bytes | None = None,
        path: str | os.PathLike | None = None,
        shm: tuple[str, int, int] | None = None,
    ) -> None:
        sources = sum(
            source is not None for source in (payload, path, shm)
        )
        if sources != 1:
            raise ValueError(
                "a Partition is backed by exactly one chunk source: "
                "pass payload= (in memory), path= (spill file), or "
                "shm= (shared-memory slice)"
            )
        self.k = k
        self.key_low = key_low
        self.key_high = key_high
        self.num_rows = num_rows
        self.payload = payload
        self.path = Path(path) if path is not None else None
        self.shm = tuple(shm) if shm is not None else None

    @classmethod
    def from_relation(
        cls,
        relation: InstanceRelation,
        *,
        key_low: int | None = None,
        key_high: int | None = None,
    ) -> "Partition":
        """An in-memory partition holding ``relation``'s rows."""
        return cls(
            relation.k,
            key_low=key_low,
            key_high=key_high,
            num_rows=len(relation),
            payload=relation.to_chunk_bytes(),
        )

    def read_bytes(self) -> bytes:
        """This partition's raw chunk bytes (memory, shared memory, or disk).

        For ``shm``-backed partitions this *copies* the slice out of
        the segment — the convenience accessor; the zero-copy path is
        :func:`repro.core.transport.partition_buffer`.
        """
        if self.payload is not None:
            return self.payload
        if self.shm is not None:
            # Imported lazily: this module stays a dependency near-leaf
            # and the transport module imports Partition from here.
            from repro.core.transport import read_segment_slice

            return read_segment_slice(self.shm)
        if self.path is None:
            raise ValueError("partition already deleted; no chunk source left")
        return self.path.read_bytes()

    def load(
        self, *, index: SalesIndex | None = None
    ) -> list[InstanceRelation]:
        """Deserialize every chunk (``index`` reattaches lazy columns)."""
        return list(read_chunks(self.read_bytes(), index=index))

    def delete(self) -> None:
        """Drop the chunk source: unlink the spill file / free the payload.

        A ``shm`` descriptor is only *detached* here — the segment's
        create/unlink lifecycle belongs to the parent-side transport
        session, never to the (possibly many) partitions viewing it.
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
        self.shm = None

    # Explicit, versioned pickle state: the descriptor travels to pool
    # processes on every dispatch, so its layout is a wire format.  The
    # "v" tag turns a mixed-version pool into a typed refusal instead
    # of a garbled unpickle.
    def __getstate__(self):
        return {
            "v": PARTITION_PICKLE_VERSION,
            "k": self.k,
            "key_low": self.key_low,
            "key_high": self.key_high,
            "num_rows": self.num_rows,
            "payload": self.payload,
            "path": str(self.path) if self.path is not None else None,
            "shm": self.shm,
        }

    def __setstate__(self, state) -> None:
        version = state.get("v") if isinstance(state, dict) else None
        if version != PARTITION_PICKLE_VERSION:
            raise PartitionFormatError(PARTITION_PICKLE_VERSION, version)
        self.k = state["k"]
        self.key_low = state["key_low"]
        self.key_high = state["key_high"]
        self.num_rows = state["num_rows"]
        self.payload = state["payload"]
        path = state["path"]
        self.path = Path(path) if path is not None else None
        shm = state["shm"]
        self.shm = tuple(shm) if shm is not None else None

    def __repr__(self) -> str:
        if self.payload is not None:
            source = "payload"
        elif self.shm is not None:
            source = f"shm={self.shm[0]}+{self.shm[1]}"
        else:
            source = f"path={self.path}"
        return (
            f"Partition(k={self.k}, rows={self.num_rows}, "
            f"range=[{self.key_low}, {self.key_high}), {source})"
        )


class PartitionPlan:
    """How (and whether) to partition one ``R'_k`` — priced up front.

    Because :func:`~repro.core.columns.extension_counts` prices every
    ``R_{k-1}`` row's merge output exactly, ``|R'_k|`` is known *before*
    a single row is materialized; the plan turns that row count into a
    partition count against a byte budget share.  ``num_partitions == 1``
    means the relation fits the share and should not be partitioned at
    all (the spill engine keeps it in memory; the parallel engine
    counts it in-process).
    """

    __slots__ = ("predicted_rows", "num_partitions", "share_bytes", "row_bytes")

    def __init__(
        self,
        predicted_rows: int,
        num_partitions: int,
        *,
        share_bytes: int | None = None,
        row_bytes: int = ROW_BYTES,
    ) -> None:
        self.predicted_rows = predicted_rows
        self.num_partitions = num_partitions
        self.share_bytes = share_bytes
        self.row_bytes = row_bytes

    @classmethod
    def from_predicted_rows(
        cls,
        predicted_rows: int,
        share_bytes: int,
        *,
        row_bytes: int = ROW_BYTES,
    ) -> "PartitionPlan":
        """Plan against a byte budget: spill into ``ceil(bytes/share)``
        ranges when the priced relation exceeds one share."""
        if predicted_rows * row_bytes <= share_bytes:
            partitions = 1
        else:
            partitions = max(2, ceil(predicted_rows * row_bytes / share_bytes))
        return cls(
            predicted_rows,
            partitions,
            share_bytes=share_bytes,
            row_bytes=row_bytes,
        )

    @classmethod
    def from_extension_counts(
        cls,
        relation: InstanceRelation,
        index: SalesIndex,
        share_bytes: int,
        *,
        row_bytes: int = ROW_BYTES,
    ) -> "PartitionPlan":
        """Price ``relation``'s merge output exactly, then plan."""
        predicted = int(extension_counts(relation, index).sum())
        return cls.from_predicted_rows(
            predicted, share_bytes, row_bytes=row_bytes
        )

    @property
    def fits_in_memory(self) -> bool:
        """True when the priced relation needs no partitioning."""
        return self.num_partitions == 1

    @property
    def predicted_bytes(self) -> int:
        """The priced resident size of the unpartitioned relation."""
        return self.predicted_rows * self.row_bytes

    def __repr__(self) -> str:
        return (
            f"PartitionPlan(rows={self.predicted_rows}, "
            f"partitions={self.num_partitions}, share={self.share_bytes})"
        )
