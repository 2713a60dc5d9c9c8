"""Algorithm SETM (Figure 4 of the paper), in-memory reference implementation.

This module is a *faithful* transliteration of the pseudocode:

.. code-block:: text

    k := 1;
    sort R1 on item;
    C1 := generate counts from R1;
    repeat
        k := k + 1;
        sort R_{k-1} on trans_id, item_1, ..., item_{k-1};
        R'_k := merge-scan R_{k-1}, R_1;
        sort R'_k on item_1, ..., item_k;
        C_k := generate counts from R'_k;
        R_k := filter R'_k to retain supported patterns;
    until R_k = {}

Faithfulness notes (also recorded in DESIGN.md):

* ``R'_k`` extends every ``R_{k-1}`` instance with **every** later item of
  the same transaction — including infrequent items.  Filtering happens
  only afterwards, against ``C_k``.  This is SETM's signature behaviour
  (and its signature inefficiency relative to Apriori's candidate pruning);
  we keep it because the paper's Figure 5/6 curves depend on it.
* Counting is done exactly as the paper describes: sort ``R'_k`` on the
  item columns, then a single sequential scan emits group counts.  (A hash
  aggregate would be equivalent and is used by the Apriori baseline; the
  ``count_via`` knob exists for the ablation benchmark.)
* Patterns are generated in lexicographic order (``q.item > p.item_{k-1}``),
  so each ``k``-subset of a transaction appears exactly once.
* ``R_1`` is the full ``SALES`` relation; it is *not* filtered to frequent
  items before joining (the Section 4.1 SQL joins ``SALES q`` directly).

Representations
---------------
Figure 4's *control flow* is representation-independent, so this module
splits it out as :func:`run_figure4_loop`, parameterized by a kernel
object that supplies the representation-specific steps (sort, merge,
count, filter).  This is the **only** Figure-4 loop in the codebase;
every SETM engine is a kernel plugged into it:

* :class:`TupleKernel` (here) — an ``R_k`` instance is the plain Python
  tuple ``(trans_id, item_1, ..., item_k)``; every sort and scan is
  visible exactly as the paper wrote it.  This is the **faithful**
  engine: its row-at-a-time costs (fresh tuples out of the merge,
  ``tuple(row[1:])`` per count/filter probe, element-wise tuple
  comparisons in sorts) are part of what the Figure 5/6 reproduction
  measures, so it is deliberately *not* optimized.
* ``ColumnarKernel`` (:mod:`repro.core.setm_columnar`) — the same loop
  over the dictionary-encoded, array-backed relations of
  :mod:`repro.core.columns`: flat integer columns, rank-keyed integer
  patterns, fused merge/count/filter passes.  Same counts, same
  iteration statistics, several times faster — the ``setm-columnar``
  engine for workloads where speed matters more than transliteration.
* ``PagedKernel`` (:mod:`repro.core.setm_disk`) — relations live in
  4 KB-page heap files on the simulated disk, sorts are real external
  merge sorts, and the kernel's lifecycle hooks account page accesses
  per iteration for the Section 4.3 I/O analysis (``setm-disk``).
* ``SpillingColumnarKernel`` (:mod:`repro.core.setm_columnar_disk`) —
  the columnar representation under a ``memory_budget_bytes`` cap:
  ``R'_k`` is range-partitioned by pattern key into spill files
  and counted/filtered partition-at-a-time, so resident memory stays
  bounded while results stay identical (``setm-columnar-disk``).

The merge-scan join of the tuple kernel is a real two-cursor merge over
trans_id groups, not a hash shortcut, so the intermediate cardinalities
reported in :class:`~repro.core.result.IterationStats` are exactly the
paper's ``|R'_k|`` and ``|R_k|``.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence
from contextlib import closing
from typing import Any, Literal, Protocol

from repro.core.columns import count_sorted_rows
from repro.core.metering import memory_meter
from repro.core.result import IterationStats, MiningResult, Pattern
from repro.core.transactions import Item, TransactionDatabase
from repro.registry import register_engine

__all__ = [
    "setm",
    "merge_scan_extend",
    "count_sorted_instances",
    "run_figure4_loop",
    "KernelLifecycle",
    "SetmKernel",
    "TupleKernel",
]

#: Row of an ``R_k`` relation: ``(trans_id, item_1, ..., item_k)``.
Instance = tuple


def merge_scan_extend(
    r_prev: Sequence[Instance], sales: Sequence[tuple[int, Item]]
) -> list[Instance]:
    """The merge-scan join of Figure 4: ``R'_k := merge-scan(R_{k-1}, R_1)``.

    Both inputs must be sorted by ``trans_id`` (``r_prev`` additionally by
    its item columns, ``sales`` by item — the orders the surrounding sorts
    establish).  For every pair of rows sharing a ``trans_id``, an output
    row is produced when the ``SALES`` item is lexicographically greater
    than the last item of the ``R_{k-1}`` row — the paper's
    ``q.item > p.item_{k-1}`` band condition.

    Returns the new instances ordered by ``(trans_id, item_1, ..., item_k)``
    (the natural output order of the merge, since within a transaction the
    extension scan walks ``sales`` in item order).
    """
    output: list[Instance] = []
    i, j = 0, 0
    n_prev, n_sales = len(r_prev), len(sales)
    while i < n_prev and j < n_sales:
        tid = r_prev[i][0]
        sales_tid = sales[j][0]
        if tid < sales_tid:
            i += 1
            continue
        if tid > sales_tid:
            j += 1
            continue
        # Delimit the trans_id group on both sides.
        i_end = i
        while i_end < n_prev and r_prev[i_end][0] == tid:
            i_end += 1
        j_end = j
        while j_end < n_sales and sales[j_end][0] == tid:
            j_end += 1
        group = sales[j:j_end]
        for row in r_prev[i:i_end]:
            last_item = row[-1]
            # Group is sorted by item: binary-search-free scan from the end
            # would also work; a linear scan keeps the merge-scan character.
            for _, item in group:
                if item > last_item:
                    output.append(row + (item,))
        i, j = i_end, j_end
    return output


def count_sorted_instances(
    instances: Sequence[Instance],
) -> list[tuple[Pattern, int]]:
    """Sequential-scan grouping of instances sorted by their item columns.

    ``instances`` must be sorted by ``(item_1, ..., item_k)`` — the state
    after Figure 4's second sort.  Emits ``(pattern, count)`` in sorted
    pattern order, mirroring "generating the counts involves a simple
    sequential scan".  The scan itself is the shared
    :func:`repro.core.columns.count_sorted_rows` — the same helper the
    paged storage engine's counting scan uses.
    """
    return count_sorted_rows(instances)


def _hash_counts(instances: Sequence[Instance]) -> list[tuple[Pattern, int]]:
    """Hash-aggregate alternative to :func:`count_sorted_instances`.

    One :class:`collections.Counter` pass — a single hash per row, where
    the previous ``counts.get``/store pair hashed every pattern twice.
    """
    counts = Counter(tuple(row[1:]) for row in instances)
    return sorted(counts.items())


class SetmKernel(Protocol):
    """Representation-specific steps of Figure 4's loop.

    A kernel owns an opaque relation type ``R`` (the tuple kernel uses
    ``list[tuple]``; the columnar kernel uses
    :class:`~repro.core.columns.InstanceRelation`; the paged kernel
    uses heap files) and opaque pattern keys (label tuples / rank-keyed
    integers).  :func:`run_figure4_loop` drives the control flow and
    bookkeeping; the kernel does the data movement.

    Beyond the five data-movement steps, a kernel participates in the
    loop's *lifecycle*: :meth:`begin_iteration` / :meth:`end_iteration`
    bracket every iteration (including ``k = 1``), :meth:`extra_stats`
    contributes representation-specific result extras (I/O counters,
    spill statistics), and :meth:`close` releases any resources the
    kernel holds (spill files, pools) — called exactly once, even when
    the loop raises.  :class:`KernelLifecycle` provides no-op defaults
    so purely in-memory kernels implement none of them.
    """

    def make_sales(self) -> Any:
        """``R_1``: the SALES relation in ``(trans_id, item)`` order."""

    def c1_counts(self, sales: Any) -> list[tuple[Any, int]]:
        """'sort R1 on item; C1 := generate counts' — unfiltered."""

    def resort_by_tid(self, r: Any) -> Any:
        """'sort R_{k-1} on trans_id, item_1, ..., item_{k-1}'."""

    def merge_extend(self, r: Any, sales: Any) -> Any:
        """'R'_k := merge-scan(R_{k-1}, R_1)'."""

    def count_and_filter(
        self, r_prime: Any, threshold: int
    ) -> tuple[int, dict[Any, int], Any]:
        """'sort R'_k on items; C_k := counts; R_k := filter R'_k'.

        Returns ``(candidate_patterns, c_k, r_k)``: the number of
        distinct patterns before the HAVING clause, the supported
        ``{key: count}`` relation, and the filtered relation.  The
        kernel may consume (drop, spill, delete) ``r_prime`` — the loop
        reads its size before calling this.
        """

    def size(self, r: Any) -> int:
        """Row count of a relation (the ``|R|`` of the paper's figures)."""

    def decode(self, key: Any, k: int) -> Pattern:
        """A pattern key back to the caller-facing label tuple."""

    def begin_iteration(self, k: int) -> None:
        """Lifecycle hook: iteration ``k`` is about to run."""

    def end_iteration(self, k: int, r_prime: Any, r_next: Any) -> None:
        """Lifecycle hook: iteration ``k`` finished; its stats are in.

        ``r_prime`` is the pre-filter relation (possibly already
        consumed by :meth:`count_and_filter`), ``r_next`` the filtered
        one.  For ``k = 1`` both are the SALES relation.
        """

    def extra_stats(self) -> dict[str, Any]:
        """Representation-specific entries merged into ``result.extra``."""

    def close(self) -> None:
        """Release kernel resources; called once, in a ``finally``."""


class KernelLifecycle:
    """No-op lifecycle defaults for kernels without per-iteration state.

    The in-memory kernels inherit these; the paged and spilling kernels
    override what they need (I/O snapshots, spill-file cleanup).
    """

    def begin_iteration(self, k: int) -> None:
        """Nothing to prepare."""

    def end_iteration(self, k: int, r_prime: Any, r_next: Any) -> None:
        """Nothing to record."""

    def extra_stats(self) -> dict[str, Any]:
        """No representation-specific extras."""
        return {}

    def close(self) -> None:
        """No resources to release."""


def run_figure4_loop(
    database: TransactionDatabase,
    minimum_support: float,
    kernel: SetmKernel,
    *,
    algorithm: str,
    max_length: int | None = None,
    extra: dict[str, Any] | None = None,
    measure_memory: bool = False,
) -> MiningResult:
    """Figure 4's control flow, shared by every SETM kernel.

    Everything representation-independent lives here: the support
    threshold, the ``repeat ... until R_k = {}`` loop, the per-iteration
    :class:`IterationStats`, per-iteration wall-clock telemetry
    (``extra["iteration_seconds"]``), opt-in peak-memory accounting
    (``measure_memory=True`` records ``extra["peak_memory_bytes"]``,
    measured with :func:`~repro.core.metering.memory_meter`), and the
    final :class:`MiningResult` assembly.  The kernel supplies the
    representation-specific steps and lifecycle hooks — see
    :class:`SetmKernel`.
    """
    started = time.perf_counter()
    threshold = database.absolute_support(minimum_support)

    # Peak resident memory of the mining loop is opt-in: tracemalloc
    # taxes every allocation (~10x on the tuple kernel), and only the
    # callers that report the figure (``repro mine --json``, the bench
    # runner's metered run, the out-of-core budget acceptance) ask.
    with memory_meter(measure_memory) as traced_peak, closing(kernel):
        # R_1 := SALES.  "sort R1 on item; C1 := generate counts from
        # R1" — the pseudocode's C_1 carries no HAVING clause; the
        # Section 3.1 SQL applies one.  We compute both: unfiltered
        # counts for Figure 6, filtered C_1 for rule generation.
        kernel.begin_iteration(1)
        sales = kernel.make_sales()
        unfiltered_c1 = kernel.c1_counts(sales)
        filtered_c1 = {
            kernel.decode(key, 1): count
            for key, count in unfiltered_c1
            if count >= threshold
        }

        count_relations: dict[int, dict[Pattern, int]] = {1: filtered_c1}
        num_sales = kernel.size(sales)
        iterations = [
            IterationStats(
                k=1,
                candidate_instances=num_sales,
                supported_instances=num_sales,
                candidate_patterns=len(unfiltered_c1),
                supported_patterns=len(filtered_c1),
            )
        ]
        kernel.end_iteration(1, sales, sales)
        iteration_seconds = {1: time.perf_counter() - started}

        r_current = sales  # joined unfiltered, per Section 4.1
        # |R_{k-1}| is carried across iterations rather than re-asked:
        # size() can be a real query (SELECT COUNT(*) for the SQL
        # kernel), so the loop reads each relation's size exactly once.
        current_size = num_sales
        k = 1
        while current_size:
            k += 1
            if max_length is not None and k > max_length:
                break
            tick = time.perf_counter()
            kernel.begin_iteration(k)
            # sort R_{k-1} on trans_id, item_1, ..., item_{k-1}
            r_current = kernel.resort_by_tid(r_current)
            # R'_k := merge-scan(R_{k-1}, R_1)
            r_prime = kernel.merge_extend(r_current, sales)
            # |R'_k| before count_and_filter, which may consume r_prime
            # (the paged kernel drops its heap file, the spilling kernel
            # deletes its partitions).
            candidate_instances = kernel.size(r_prime)
            # sort R'_k on item_1, ..., item_k; C_k := generate counts
            # (with the minimum-support HAVING); R_k := filter R'_k
            # ("simple table look-ups on relation C_k")
            candidate_patterns, c_k, r_next = kernel.count_and_filter(
                r_prime, threshold
            )

            current_size = kernel.size(r_next)
            iterations.append(
                IterationStats(
                    k=k,
                    candidate_instances=candidate_instances,
                    supported_instances=current_size,
                    candidate_patterns=candidate_patterns,
                    supported_patterns=len(c_k),
                )
            )
            if c_k:
                count_relations[k] = {
                    kernel.decode(key, k): count for key, count in c_k.items()
                }
            kernel.end_iteration(k, r_prime, r_next)
            iteration_seconds[k] = time.perf_counter() - tick
            r_current = r_next

        loop_extra: dict[str, Any] = {
            **(extra or {}),
            **kernel.extra_stats(),
            "iteration_seconds": iteration_seconds,
        }
        if traced_peak is not None:
            loop_extra["peak_memory_bytes"] = traced_peak()
        return MiningResult(
            algorithm=algorithm,
            num_transactions=database.num_transactions,
            minimum_support=minimum_support,
            support_threshold=threshold,
            count_relations=count_relations,
            unfiltered_item_counts={
                kernel.decode(key, 1)[0]: count
                for key, count in unfiltered_c1
            },
            iterations=iterations,
            elapsed_seconds=time.perf_counter() - started,
            extra=loop_extra,
        )


class TupleKernel(KernelLifecycle):
    """The faithful row-at-a-time kernel: relations are lists of tuples."""

    def __init__(
        self,
        database: TransactionDatabase,
        *,
        count_via: Literal["sort", "hash"] = "sort",
    ) -> None:
        self._database = database
        self._counter = (
            count_sorted_instances if count_via == "sort" else _hash_counts
        )

    def make_sales(self) -> list[Instance]:
        # sales_rows() yields rows ordered by (trans_id, item):
        # simultaneously the merge-scan order and, within each
        # transaction, item order.
        return list(self._database.sales_rows())

    def c1_counts(self, sales: list[Instance]) -> list[tuple[Pattern, int]]:
        r1_by_item = sorted(sales, key=lambda row: row[1:])
        return self._counter(r1_by_item)

    def resort_by_tid(self, r: list[Instance]) -> list[Instance]:
        r.sort()
        return r

    def merge_extend(
        self, r: list[Instance], sales: list[Instance]
    ) -> list[Instance]:
        return merge_scan_extend(r, sales)

    def count_and_filter(
        self, r_prime: list[Instance], threshold: int
    ) -> tuple[int, dict[Pattern, int], list[Instance]]:
        r_prime.sort(key=lambda row: row[1:])
        all_counts = self._counter(r_prime)
        c_k = {
            pattern: count for pattern, count in all_counts if count >= threshold
        }
        r_next = [row for row in r_prime if tuple(row[1:]) in c_k]
        return len(all_counts), c_k, r_next

    def size(self, r: list[Instance]) -> int:
        return len(r)

    def decode(self, key: Pattern, k: int) -> Pattern:
        return key


@register_engine(
    "setm",
    description="in-memory Algorithm SETM (Figure 4)",
    accepted_options=("count_via", "measure_memory"),
)
def setm(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    max_length: int | None = None,
    count_via: Literal["sort", "hash"] = "sort",
    measure_memory: bool = False,
) -> MiningResult:
    """Run Algorithm SETM and return every count relation ``C_k``.

    Parameters
    ----------
    database:
        The transactions to mine.
    minimum_support:
        Fractional minimum support in ``(0, 1]``; converted to an absolute
        transaction-count threshold via
        :meth:`TransactionDatabase.absolute_support`.
    max_length:
        Optional cap on pattern length (the paper runs until ``R_k`` is
        empty; the cap exists for interactive exploration).
    count_via:
        ``"sort"`` (paper-faithful: sort then sequential scan) or ``"hash"``
        (hash aggregation).  Both produce identical counts; the knob feeds
        the counting-strategy ablation benchmark.
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``
        (:mod:`tracemalloc`).  Off by default: tracemalloc taxes every
        allocation.

    Returns
    -------
    MiningResult
        With ``algorithm="setm"``, one :class:`IterationStats` per iteration
        (including the terminal empty one, matching the paper's
        ``|R_4| = 0`` points in Figures 5 and 6), and the unfiltered item
        counts used by Figure 6's constant ``|C_1|``.
    """
    return run_figure4_loop(
        database,
        minimum_support,
        TupleKernel(database, count_via=count_via),
        algorithm="setm",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )
