"""Spill-AND-parallel SETM: pooled counting over on-disk partitions.

The ROADMAP's two partition consumers, combined.  The spill engine
(:mod:`repro.core.setm_columnar_disk`) range-partitions ``R'_k`` into
spill files under a ``memory_budget_bytes`` and counts them one at a
time; the parallel engine (:mod:`repro.core.setm_parallel`) counts
in-memory partitions simultaneously in a :mod:`multiprocessing` pool.
This engine does both at once, for databases too big for RAM *and* big
enough to parallelize:

* **Extension and spilling are inherited unchanged** from
  :class:`~repro.core.setm_columnar_disk.SpillingColumnarKernel`:
  ``R'_k`` is priced before materialization, built in budget-bounded
  slices, and range-partitioned by pattern key into
  :class:`~repro.core.partitioning.Partition` spill files.  A relation
  that fits one budget share never touches the disk — or the pool.
* **Counting and filtering move to the workers.**  Each spilled
  partition travels to the cached pool of :mod:`setm_parallel` *by
  path* (the work unit carries its spill file's location, not its
  bytes — the pickle is a file name, not a relation).  A worker loads
  the partition, counts its pattern keys, applies the HAVING threshold
  locally (key ranges are disjoint, so per-partition counts are global
  counts), filters the survivors, and writes them straight back to a
  spill file as the worker's share of ``R_k``.
* **Replies stay compact.**  A worker returns only the supported
  ``(keys, counts)`` arrays, its I/O tallies, and the survivors'
  ``last_sid`` column; the parent merges the count relations in
  key-range order (disjoint ⇒ concatenation) and prices
  ``|R'_{k+1}|`` exactly from the returned cursors — the rows
  themselves never cross the process boundary in either direction.

Because partitioning is driven by the memory budget, there is no
``parallel_threshold`` here: an iteration is pooled exactly when it
spilled (≥ 2 partitions) and ``workers > 1``.  With ``workers=1`` the
engine degenerates to ``setm-columnar-disk``; under a budget nothing
exceeds, it degenerates to ``setm-columnar``.  Either way patterns,
rules, and :class:`~repro.core.result.IterationStats` are identical to
``setm`` (held to that by the engine conformance matrix and the
differential grid in ``tests/core/test_setm_spill_parallel.py``).

Failure containment: a worker raising mid-partition propagates out of
the pool dispatch, and the Figure-4 loop's ``finally`` closes the
kernel, which removes the whole spill directory — partial partitions,
half-written ``R_k`` files and all.  The shared pool survives worker
exceptions and stays cached; a pool broken outright is evicted and
transparently recreated on the next run
(:func:`~repro.core.setm_parallel.pool_map`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Literal

import numpy as np

from repro.core.columns import count_packed_keys, filter_by_keys
from repro.core.partitioning import (
    Partition,
    concat_columns,
    decode_buffer_chunks,
)
from repro.core.result import MiningResult
from repro.core.setm import run_figure4_loop
from repro.core.setm_columnar_disk import (
    DEFAULT_MEMORY_BUDGET,
    SpilledPartitions,
    SpilledRelation,
    SpillingColumnarKernel,
)
from repro.core.setm_parallel import (
    PoolTransportMixin,
    _pack_counts,
    _unpack_counts,
    resolve_start_method,
    resolved_start_method,
    validate_workers,
)
from repro.core.transactions import TransactionDatabase
from repro.core.transport import (
    TransportSession,
    pack_buffers,
    partition_buffer,
)
from repro.registry import register_engine

__all__ = ["SpillParallelKernel", "setm_spill_parallel"]


def _count_filter_partition(
    task: tuple[Partition, str, int, str, str, str | None],
) -> tuple[int, tuple, int, int, int, int, int]:
    """Worker body: count one on-disk partition and spill its survivors.

    Runs in the pool process.  The :class:`Partition` arrives by
    *path* — the worker opens the spill file itself, so the task pickle
    is a file name plus a threshold; under the ``mmap`` transport the
    file is mapped and the int64 columns decoded as views over the map
    instead of a whole-blob read.  The whole per-partition pipeline of
    the serial spill engine runs here: count the pattern keys, apply the
    HAVING threshold (global, because key ranges are disjoint), filter
    the chunks, write the survivors to ``out_path`` in the same chunk
    format, and delete the consumed input partition.

    Returns ``(candidate_patterns, reply_envelope, rows_written,
    chunks_written, bytes_written, bytes_read, zero_copy_bytes)``.  The
    envelope carries the supported ``(keys, counts)`` buffers plus the
    survivors' ``last_sid`` column — one flat int64 buffer end to end,
    never an intermediate Python list, so the parent can price
    ``|R'_{k+1}|`` exactly against its resident extension index.
    """
    partition, out_path, threshold, via, mode, reply_name = task
    rows_written = 0
    chunks_written = 0
    bytes_written = 0
    sid_parts: list[bytes] = []
    with partition_buffer(partition, mode) as (buffer, source):
        bytes_read = len(buffer)
        chunks, zero_copy = decode_buffer_chunks(buffer)
        if source not in ("shm", "mmap"):
            zero_copy = 0
        if chunks:
            keys = concat_columns([chunk.keys for chunk in chunks])
            counts = count_packed_keys(keys, via=via)
            supported = {
                key: count for key, count in counts if count >= threshold
            }
            if supported:
                supported_keys = set(supported)
                with open(out_path, "wb") as handle:
                    for chunk in chunks:
                        survivors = filter_by_keys(chunk, supported_keys)
                        if len(survivors) == 0:
                            continue
                        blob = survivors.to_chunk_bytes()
                        handle.write(blob)
                        bytes_written += len(blob)
                        chunks_written += 1
                        rows_written += len(survivors)
                        sid_parts.append(survivors.last_sid.tobytes())
                if rows_written == 0:  # every survivor lived elsewhere
                    os.remove(out_path)
            # The chunk columns (and a single-chunk key view) borrow the
            # shm/mmap buffer; drop them before the context releases it.
            del keys
        else:
            counts = []
            supported = {}
        del chunks
    partition.delete()
    envelope = pack_buffers(
        [*_pack_counts(list(supported.items())), b"".join(sid_parts)],
        reply_name,
    )
    return (
        len(counts),
        envelope,
        rows_written,
        chunks_written,
        bytes_written,
        bytes_read,
        zero_copy,
    )


class SpillParallelKernel(PoolTransportMixin, SpillingColumnarKernel):
    """The spilling Figure-4 steps with pooled per-partition counting.

    ``merge_extend`` (budgeted slicing, key-range spilling) is
    inherited unchanged; only :meth:`count_and_filter` changes, and
    only for relations that actually spilled: their partitions are
    dispatched to the shared worker pool instead of being loaded one at
    a time.  In-memory relations — and every relation when
    ``workers=1`` — take the serial path, so the engine degrades
    gracefully to its two parents.
    """

    #: Spilled partitions already live in files, so ``auto`` means
    #: mapping them (``shm`` would still help only the reply leg).
    _AUTO_TRANSPORT = "mmap"

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

    # -- Figure-4 steps -------------------------------------------------------------

    def count_and_filter(self, r_prime, threshold: int):
        if not isinstance(r_prime, SpilledPartitions):
            # Fits one budget share: counted in-process, exactly as the
            # serial columnar kernel would.  Empty iterations are not
            # "in process" — there was nothing to count at all.
            if self.size(r_prime):
                self._in_process.append(self._k)
            return super().count_and_filter(r_prime, threshold)
        if self._workers <= 1 or len(r_prime.partitions) < 2:
            if r_prime.partitions:
                self._in_process.append(self._k)
            return super().count_and_filter(r_prime, threshold)

        mode = self._negotiated_transport()
        candidate_patterns = 0
        c_k: dict[int, int] = {}
        paths: list[Path] = []
        out_rows = 0
        out_extension_rows = 0
        with TransportSession(mode) as session:
            tasks = []
            for p, partition in enumerate(r_prime.partitions):
                out_path = self._spill_path(f"r-k{self._k}-p{p}")
                tasks.append(
                    (
                        partition,
                        str(out_path),
                        threshold,
                        self._count_via,
                        mode,
                        session.reply_name(p),
                    )
                )
            replies = self._dispatch(_count_filter_partition, tasks)

            # Submission order == ascending key range: the per-partition
            # count relations are disjoint, so merging is concatenation —
            # the same order the serial engine produces
            # partition-at-a-time.
            for task, reply in zip(tasks, replies):
                (
                    candidates,
                    envelope,
                    rows_written,
                    chunks_written,
                    bytes_written,
                    bytes_read,
                    zero_copy,
                ) = reply
                session.note_zero_copy(zero_copy)
                key_bytes, tally_bytes, sid_bytes = session.collect(envelope)
                candidate_patterns += candidates
                keys, tallies = _unpack_counts(key_bytes, tally_bytes)
                for key, count in zip(keys, tallies):
                    c_k[int(key)] = int(count)
                self._bytes_read += bytes_read
                self._bytes_written += bytes_written
                self._chunks_written += chunks_written
                if rows_written:
                    paths.append(Path(task[1]))
                    out_rows += rows_written
                    out_extension_rows += self._extension_rows_from_sids(
                        sid_bytes
                    )
            self._record_transport(session)
        r_prime.partitions = []
        self._levels.add(r_prime.k, c_k)
        self._pooled_per_k[self._k] = len(tasks)
        return (
            candidate_patterns,
            c_k,
            SpilledRelation(paths, out_rows, r_prime.k, out_extension_rows),
        )

    def _extension_rows_from_sids(self, sid_bytes: bytes) -> int:
        """Exact ``|R'_{k+1}|`` contribution of one worker's survivors.

        The workers have no extension index; the parent gathers the
        per-cursor extension counts over the returned ``last_sid``
        column — 8 bytes of IPC per surviving row instead of re-reading
        the ``R_k`` spill file.
        """
        sids = np.frombuffer(sid_bytes, dtype=np.int64)
        return int(self._index.ext_counts[sids].sum())

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


@register_engine(
    "setm-spill-parallel",
    description=(
        "out-of-core AND parallel SETM: R'_k spill partitions "
        "counted and filtered in a multiprocessing pool, by path"
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
    """Mine with pooled counting of on-disk partitions; identical to ``setm``.

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
        Target resident size for the mining loop's relations, exactly
        as in :func:`repro.core.setm_columnar_disk.setm_columnar_disk`;
        additionally the gate for the pool — only iterations the budget
        forces to spill (≥ 2 partitions) are counted in workers.
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
        How partition bytes cross the process boundary —
        ``"pickle"`` (workers read spill files whole; replies ride the
        result pickle), ``"mmap"`` (workers map spill files and decode
        columns as views over the map), ``"shm"`` (replies return
        through named shared-memory segments), or ``"auto"``/``None``
        (prefer ``mmap`` — the partitions already live in files).
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
        with the pool telemetry of ``setm-parallel`` (``workers``, a
        ``"parallel"`` block with pooled iterations, partition counts,
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
