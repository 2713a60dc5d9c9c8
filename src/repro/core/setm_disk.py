"""Algorithm SETM on paged storage, with the paper's I/O accounting.

This variant runs Figure 4 against the simulated disk of
:mod:`repro.storage`: ``SALES`` and every ``R_k`` / ``R'_k`` live in heap
files of 4 KB pages, sorting is a real external merge sort, and the
merge-scan join streams pages in file order.  The
:class:`~repro.storage.disk.IOStatistics` accumulated during the run are
returned in ``MiningResult.extra`` so experiments can compare *measured*
page accesses against the Section 4.3 bound:

    total ≤ (n-1)·‖R_1‖ + Σ‖R'_i‖ + 2·Σ‖R_i‖ + ...

(see :func:`repro.analysis.cost_model.sort_merge_page_accesses` for the
closed form).  Pattern labels are integer-encoded through the database's
:class:`~repro.core.transactions.ItemCatalog` — the storage engine stores
4-byte integer fields only, as the paper assumes — and decoded back before
the result is returned, so callers see the same patterns the in-memory
:func:`repro.core.setm.setm` produces.

Control flow vs. data movement
------------------------------
The engine is a :class:`PagedKernel` plugged into the one shared
:func:`~repro.core.setm.run_figure4_loop`: the loop owns the
``repeat ... until R_k = {}`` skeleton and the
:class:`~repro.core.result.IterationStats`, while the kernel owns
everything page-shaped — heap files, external sorts, file drops, and the
per-iteration :class:`IOStatistics` snapshots taken in its
``end_iteration`` lifecycle hook.  The kernel also tracks whether the
current ``R_k`` already sits in ``(trans_id, items)`` order ("We assume
R1 to be sorted" covers the first pass; the ``track_sort_order``
optimization extends that across iterations), so the loop's
``resort_by_tid`` step becomes a no-op exactly when the paper says it
can.
"""

from __future__ import annotations

from typing import Any

from repro.core.result import MiningResult, Pattern
from repro.core.setm import KernelLifecycle, run_figure4_loop
from repro.core.transactions import TransactionDatabase
from repro.registry import register_engine
from repro.storage.bufferpool import BufferPool
from repro.storage.disk import IOStatistics, SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.mergejoin import counting_scan, filter_scan, merge_scan_join
from repro.storage.page import PageFormat
from repro.storage.sort import external_sort

__all__ = ["PagedKernel", "setm_disk"]


class PagedKernel(KernelLifecycle):
    """Figure 4's steps over heap files on the simulated disk.

    Pattern keys are integer-id tuples (encoded through the database's
    :class:`~repro.core.transactions.ItemCatalog`); relations are
    :class:`~repro.storage.heapfile.HeapFile` objects whose page
    accesses the simulated disk books.  The lifecycle hooks collect the
    Section 4.3 telemetry the flat loop cannot see: per-iteration
    :class:`IOStatistics` deltas, ``‖R_k‖`` / ``‖R'_k‖`` page counts,
    and the modelled 10 ms/20 ms I/O time.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        *,
        buffer_pages: int = 64,
        sort_memory_pages: int = 32,
        track_sort_order: bool = False,
    ) -> None:
        self._database = database
        self._buffer_pages = buffer_pages
        self._sort_memory_pages = sort_memory_pages
        self._track_sort_order = track_sort_order

        self._disk = SimulatedDisk()
        self._pool = BufferPool(self._disk, capacity=buffer_pages)
        self._catalog = None
        self._sales: HeapFile | None = None

        # Sort-order bookkeeping: whether the current R_{k-1} is already
        # in (trans_id, items) order, and whether it *is* the SALES file
        # (which must never be dropped — the merge joins it every pass).
        self._current_is_sorted = True
        self._current_is_sales = True

        # Telemetry accumulated by the lifecycle hooks.
        self._k = 1
        self._page_counts: dict[int, int] = {}
        self._r_prime_page_counts: dict[int, int] = {}
        self._per_iteration_io: dict[int, IOStatistics] = {}
        self._previous_io = self._disk.stats.snapshot()

    # -- data movement --------------------------------------------------------------

    def make_sales(self) -> HeapFile:
        # Materialize SALES in (trans_id, item) order — the clustered
        # order transactions are inserted in, which sales_rows() already
        # yields.
        encoded, self._catalog = self._database.encoded()
        sales = HeapFile(self._pool, PageFormat(2))
        sales.extend(encoded.sales_rows())
        self._pool.flush_all()
        # The paper's costs start with SALES already on disk.
        self._disk.reset_stats()
        self._previous_io = self._disk.stats.snapshot()
        self._sales = sales
        return sales

    def c1_counts(self, sales: HeapFile) -> list[tuple[tuple[int, ...], int]]:
        # "sort R1 on item; C1 := generate counts from R1"
        r1_by_item = external_sort(
            sales,
            key=lambda record: record[1:],
            memory_pages=self._sort_memory_pages,
        ).output
        counts = counting_scan(r1_by_item)
        r1_by_item.drop()
        return counts

    def resort_by_tid(self, r: HeapFile) -> HeapFile:
        # Skipped when the previous iteration already produced that
        # order ("We assume R1 to be sorted" covers the first pass).
        if self._current_is_sorted:
            return r
        return external_sort(
            r, memory_pages=self._sort_memory_pages, drop_source=True
        ).output

    def merge_extend(self, r: HeapFile, sales: HeapFile) -> HeapFile:
        r_prime = merge_scan_join(r, sales)
        if not self._current_is_sales:
            r.drop()
        self._r_prime_page_counts[self._k] = r_prime.num_pages
        return r_prime

    def count_and_filter(
        self, r_prime: HeapFile, threshold: int
    ) -> tuple[int, dict[tuple[int, ...], int], HeapFile]:
        # sort R'_k on item_1, ..., item_k
        r_prime_by_items = external_sort(
            r_prime,
            key=lambda record: record[1:],
            memory_pages=self._sort_memory_pages,
            drop_source=True,
        ).output
        # C_k := generate counts (kept in memory, as the paper assumes)
        all_counts = counting_scan(r_prime_by_items)
        c_k = {
            pattern: count for pattern, count in all_counts if count >= threshold
        }
        # R_k := filter R'_k to retain supported patterns
        if self._track_sort_order:
            # Section 4.1's third statement as one fused pass: the
            # filtered sort writes R_k already in (trans_id, items)
            # order, so the next iteration's sort disappears.
            supported = set(c_k)
            r_next = external_sort(
                r_prime_by_items,
                memory_pages=self._sort_memory_pages,
                predicate=lambda record: record[1:] in supported,
            ).output
            self._current_is_sorted = True
        else:
            r_next = filter_scan(r_prime_by_items, set(c_k))
            self._current_is_sorted = False
        r_prime_by_items.drop()
        self._pool.flush_all()
        self._current_is_sales = False
        return len(all_counts), c_k, r_next

    def size(self, r: HeapFile) -> int:
        return r.num_records

    def decode(self, key: tuple[int, ...], k: int) -> Pattern:
        return self._catalog.decode(key)

    # -- lifecycle ------------------------------------------------------------------

    def begin_iteration(self, k: int) -> None:
        self._k = k

    def end_iteration(self, k: int, r_prime: HeapFile, r_next: HeapFile) -> None:
        self._page_counts[k] = r_next.num_pages
        current = self._disk.stats.snapshot()
        self._per_iteration_io[k] = (
            current if k == 1 else current.delta_since(self._previous_io)
        )
        self._previous_io = current

    def extra_stats(self) -> dict[str, Any]:
        total_io = self._disk.stats.snapshot()
        return {
            "io": total_io,
            "per_iteration_io": dict(self._per_iteration_io),
            "page_counts": dict(self._page_counts),
            "r_prime_page_counts": dict(self._r_prime_page_counts),
            "modelled_seconds": total_io.estimated_seconds(),
            "buffer_pages": self._buffer_pages,
            "sort_memory_pages": self._sort_memory_pages,
            "track_sort_order": self._track_sort_order,
        }


@register_engine(
    "setm-disk",
    description="SETM on the paged storage engine (measures page accesses)",
    reports_page_accesses=True,
    representation="paged",
    accepted_options=(
        "buffer_pages",
        "sort_memory_pages",
        "track_sort_order",
        "measure_memory",
    ),
)
def setm_disk(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    buffer_pages: int = 64,
    sort_memory_pages: int = 32,
    max_length: int | None = None,
    track_sort_order: bool = False,
    measure_memory: bool = False,
) -> MiningResult:
    """Run disk-based SETM and report both patterns and page accesses.

    Parameters
    ----------
    database:
        Transactions to mine (items of any label type; encoded internally).
    minimum_support:
        Fractional minimum support in ``(0, 1]``.
    buffer_pages:
        Buffer-pool capacity.  Small relative to the data, so scans really
        hit the disk; large enough to hold the handful of hot pages the
        paper assumes resident.
    sort_memory_pages:
        Pages of sort memory for run generation / merge fan-in.
    max_length:
        Optional cap on pattern length.
    track_sort_order:
        The Section 4.1/4.3 optimization: produce ``R_k`` by a *filtered
        sort* of ``R'_k`` straight into ``(trans_id, items)`` order — the
        ``INSERT INTO R_k ... ORDER BY`` plan — so the next iteration's
        merge-scan needs no separate sort and the filter pass costs no
        extra read ("the sorting we did in the last step ... enables an
        efficient execution plan if the sort order of the relations is
        tracked across iterations").  Off by default to match Figure 4
        verbatim ("We have not included in this algorithm the
        optimizations mentioned in Section 4.3").
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``; off
        by default (see :func:`repro.core.setm.setm`).

    Returns
    -------
    MiningResult
        ``extra`` carries:

        * ``"io"`` — total :class:`IOStatistics` for the mining run
          (excluding the initial load of ``SALES``, which the paper also
          excludes: the relation pre-exists);
        * ``"per_iteration_io"`` — ``{k: IOStatistics}`` deltas;
        * ``"page_counts"`` — ``{k: pages of R_k}`` (the ‖R_k‖ of §4.3);
        * ``"r_prime_page_counts"`` — ``{k: pages of R'_k}``;
        * ``"modelled_seconds"`` — I/O time under the 10 ms/20 ms model.
    """
    return run_figure4_loop(
        database,
        minimum_support,
        PagedKernel(
            database,
            buffer_pages=buffer_pages,
            sort_memory_pages=sort_memory_pages,
            track_sort_order=track_sort_order,
        ),
        algorithm="setm-disk",
        max_length=max_length,
        measure_memory=measure_memory,
    )
