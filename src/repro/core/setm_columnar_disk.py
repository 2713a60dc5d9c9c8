"""Out-of-core SETM: the columnar kernel under a memory budget.

``setm-columnar`` holds every ``R'_k`` in RAM; on databases whose
intermediate relations exceed the machine this is fatal — and the
intermediates, not ``SALES``, are the multiplicatively large objects
(``|R'_2|`` alone can dwarf the input).  This engine bounds them:

* **Budgeted extension.**  ``R'_k := merge-scan(R_{k-1}, R_1)`` runs in
  *slices*: :func:`~repro.core.columns.extension_counts` prices every
  ``R_{k-1}`` row's output exactly (one gather over the precomputed
  :class:`~repro.core.columns.SalesIndex`), so input slices are chosen
  to emit at most a budget share of output rows each — ``|R'_k|`` is
  known exactly *before* a single row is materialized (the
  :class:`~repro.core.partitioning.PartitionPlan`).
* **Key-range spill partitions.**  When the planned ``R'_k`` exceeds
  its budget share, slice outputs are range-partitioned by pattern key
  into ``P = ceil(bytes / share)``
  :class:`~repro.core.partitioning.Partition` spill files (boundaries
  are quantiles sampled stride-wise from the *whole* input, so skewed
  or tid-correlated key distributions still split evenly).  Every
  occurrence of a pattern lands in exactly one partition, so
  per-partition counts are global counts.
* **Partition-at-a-time counting.**  ``C_k`` and the support filter run
  one partition at a time: load, count
  (:func:`~repro.core.columns.count_packed_keys`), filter
  (:func:`~repro.core.columns.filter_by_keys`), spill the survivors as
  ``R_k`` chunks, delete the partition.  Resident memory stays at one
  partition plus fixed overhead (``SALES`` + its index + ``C_k``, which
  the paper itself assumes memory-resident) regardless of ``|R'_k|``.

Because Figure 4's loop body has no cross-row dependencies — each row's
extensions depend only on its own ``last_sid``, and counts are
per-pattern — slicing and partitioning change *nothing observable*:
patterns, counts, and :class:`~repro.core.result.IterationStats` are
identical to ``setm`` and ``setm-columnar`` (the differential tests and
the benchmark runner hold it to that).  The partitioning machinery
itself — work units, boundary sampling, key-range routing, pricing —
lives in :mod:`repro.core.partitioning`, shared with the
``setm-parallel`` engine that counts the same partitions in worker
processes instead of one at a time.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Literal

from repro.core.columns import (
    InstanceRelation,
    count_packed_keys,
    extension_counts,
    filter_by_keys,
    suffix_extend,
)
from repro.core.partitioning import (
    ROW_BYTES,
    Partition,
    PartitionPlan,
    choose_boundaries,
    concat_columns,
    decode_buffer_chunks,
    key_ranges,
    output_slices,
    sample_extension_boundaries,
    slice_rows,
    split_by_key_ranges,
)
from repro.core.result import MiningResult
from repro.core.setm import run_figure4_loop
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import TransactionDatabase
from repro.errors import InvalidConfigError
from repro.registry import register_engine

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "SpilledPartitions",
    "SpilledRelation",
    "SpillingColumnarKernel",
    "setm_columnar_disk",
]

#: Default ``memory_budget_bytes``: generous for laptops, small enough
#: that genuinely large workloads spill instead of swapping.
DEFAULT_MEMORY_BUDGET = 128 * 2**20


class SpilledRelation:
    """An ``R_k`` as serialized chunks on disk (unpartitioned).

    ``extension_rows`` is the exact ``|R'_{k+1}|`` this relation will
    produce — summed from :func:`extension_counts` when the survivors
    were written, so the next iteration can plan its partitions without
    re-reading anything.
    """

    __slots__ = ("paths", "num_rows", "k", "extension_rows")

    def __init__(
        self,
        paths: list[Path],
        num_rows: int,
        k: int,
        extension_rows: int,
    ) -> None:
        self.paths = paths
        self.num_rows = num_rows
        self.k = k
        self.extension_rows = extension_rows

    def delete(self) -> None:
        for path in self.paths:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        self.paths = []

    def __repr__(self) -> str:
        return (
            f"SpilledRelation(k={self.k}, rows={self.num_rows}, "
            f"chunks={len(self.paths)})"
        )


class SpilledPartitions:
    """An ``R'_k`` range-partitioned into :class:`Partition` spill files.

    Each partition holds exactly the rows whose key falls in its
    boundary interval, so counting one partition yields global counts
    for every pattern it contains.
    """

    __slots__ = ("partitions", "num_rows", "k")

    def __init__(
        self, partitions: list[Partition], num_rows: int, k: int
    ) -> None:
        self.partitions = partitions
        self.num_rows = num_rows
        self.k = k

    def __repr__(self) -> str:
        return (
            f"SpilledPartitions(k={self.k}, rows={self.num_rows}, "
            f"partitions={len(self.partitions)})"
        )


class SpillingColumnarKernel(ColumnarKernel):
    """The columnar Figure-4 steps with budgeted, spill-backed relations.

    Budget layout: one quarter of ``memory_budget_bytes`` each for (a)
    the extension slice being materialized, (b) a loaded counting
    partition, leaving headroom for the counting structure, the filter
    copy, and the fixed residents (``SALES`` + index + ``C_k``).  A
    relation whose :class:`PartitionPlan` fits within a share is simply
    kept in memory — small workloads never touch the disk.
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
        self._slice_rows = max(1, self._share_bytes // ROW_BYTES)
        self._spill_dir_option = spill_dir
        self._spill_root: Path | None = None
        self._sequence = 0
        self._k = 1

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

    def _decode_chunks(self, data: bytes) -> list[InstanceRelation]:
        self._bytes_read += len(data)
        return decode_buffer_chunks(data, index=self._index)[0]

    def _load_chunks(self, path: Path) -> list[InstanceRelation]:
        return self._decode_chunks(path.read_bytes())

    def _iter_chunks(self, r, *, delete: bool = False):
        """Yield a relation's rows as bounded InstanceRelation chunks."""
        if isinstance(r, InstanceRelation):
            yield r
            return
        for path in list(r.paths):
            yield from self._load_chunks(path)
            if delete:
                os.remove(path)
        if delete:
            r.paths = []

    def _write_chunk(self, relation: InstanceRelation, handle) -> None:
        blob = relation.to_chunk_bytes()
        handle.write(blob)
        self._bytes_written += len(blob)
        self._chunks_written += 1

    # -- Figure-4 steps -------------------------------------------------------------

    def merge_extend(self, r, sales):
        index = self._index
        assert index is not None  # make_sales always ran first
        prefixes = self._levels.prefixes(r.k)
        if isinstance(r, InstanceRelation):
            plan = PartitionPlan.from_extension_counts(
                r, index, self._share_bytes
            )
        else:
            plan = PartitionPlan.from_predicted_rows(
                r.extension_rows, self._share_bytes
            )

        if plan.fits_in_memory:
            # Fits one budget share: materialize in memory, as the plain
            # columnar kernel would.
            pieces = [
                suffix_extend(chunk, index, prefixes)
                for chunk in self._iter_chunks(r, delete=True)
            ]
            if len(pieces) == 1:
                return pieces[0]
            return InstanceRelation(
                None,
                None,
                last_sid=concat_columns([p.last_sid for p in pieces]),
                keys=concat_columns([p.keys for p in pieces]),
                k=r.k + 1,
                index=index,
            )

        # Out-of-core: partition R'_k by pattern-key range as it is
        # produced, one bounded slice at a time.
        partitions = plan.num_partitions
        self._partitions_per_k[self._k] = partitions
        boundaries = sample_extension_boundaries(
            self._iter_chunks(r),
            index,
            self.size(r),
            partitions,
            prefixes=prefixes,
        )
        paths = [
            self._spill_path(f"rprime-k{self._k}-p{p}")
            for p in range(partitions)
        ]
        for path in paths:
            path.touch()  # an empty partition is an empty file
        # Each slice appends its share of a partition and closes the
        # file again: at most one spill handle is open at a time, so
        # the partition count is not capped by the descriptor limit.
        for chunk in self._iter_chunks(r, delete=True):
            counts = extension_counts(chunk, index)
            for start, stop in output_slices(counts, self._slice_rows):
                out = suffix_extend(
                    slice_rows(chunk, start, stop), index, prefixes
                )
                if len(out) == 0:
                    continue
                if boundaries is None:
                    boundaries = choose_boundaries(out.keys, partitions)
                for p, rows in split_by_key_ranges(out, boundaries):
                    with open(paths[p], "ab") as handle:
                        self._write_chunk(rows, handle)
        return SpilledPartitions(
            [
                Partition(r.k + 1, key_low=low, key_high=high, path=path)
                for (low, high), path in zip(
                    key_ranges(boundaries, partitions), paths
                )
            ],
            plan.predicted_rows,
            r.k + 1,
        )

    def count_and_filter(self, r_prime, threshold: int):
        if isinstance(r_prime, InstanceRelation):
            return super().count_and_filter(r_prime, threshold)

        index = self._index
        candidate_patterns = 0
        c_k: dict[int, int] = {}
        out_path: Path | None = None
        out_handle = None
        out_rows = 0
        out_extension_rows = 0
        try:
            for partition in list(r_prime.partitions):
                chunks = self._decode_chunks(partition.read_bytes())
                partition.delete()
                if not chunks:
                    continue
                # Key ranges are disjoint across partitions, so these
                # counts are global — the HAVING clause applies locally.
                counts = count_packed_keys(
                    concat_columns([chunk.keys for chunk in chunks]),
                    via=self._count_via,
                )
                candidate_patterns += len(counts)
                supported = {
                    key: count for key, count in counts if count >= threshold
                }
                if not supported:
                    continue
                c_k.update(supported)
                supported_keys = set(supported)
                for chunk in chunks:
                    survivors = filter_by_keys(chunk, supported_keys)
                    if len(survivors) == 0:
                        continue
                    if out_handle is None:
                        out_path = self._spill_path(f"r-k{self._k}")
                        out_handle = open(out_path, "wb")
                    self._write_chunk(survivors, out_handle)
                    out_rows += len(survivors)
                    out_extension_rows += int(
                        extension_counts(survivors, index).sum()
                    )
        finally:
            if out_handle is not None:
                out_handle.close()
        r_prime.partitions = []
        self._levels.add(r_prime.k, c_k)
        r_next = SpilledRelation(
            [out_path] if out_path is not None else [],
            out_rows,
            r_prime.k,
            out_extension_rows,
        )
        return candidate_patterns, c_k, r_next

    def size(self, r) -> int:
        if isinstance(r, InstanceRelation):
            return len(r)
        return r.num_rows

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
        "out-of-core SETM: columnar kernel spilling R'_k key-range "
        "partitions under a memory budget"
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
        Counting strategy per partition — see
        :func:`repro.core.setm_columnar.setm_columnar`.
    memory_budget_bytes:
        Target resident size for the mining loop's relations.  Any
        ``R'_k`` predicted to exceed a quarter of this is spilled as
        ``ceil(bytes / (budget/4))`` key-range partitions and processed
        partition-at-a-time.  The fixed residents (``SALES``, its
        extension index, the ``C_k`` count relations) are outside the
        budget — the paper itself assumes ``C_k`` memory-resident.
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
        ``memory_budget_bytes`` and a ``"spill"`` block — partitions
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
