"""Algorithm SETM over the columnar relation kernel (``setm-columnar``).

Same Figure 4, different representation: relations are the
dictionary-encoded, array-backed columns of :mod:`repro.core.columns`
and patterns are rank-keyed integers, so the loop body runs as a
handful of fused column passes instead of per-row tuple work.  The engine is
differentially held to :func:`repro.core.setm.setm` — identical count
relations *and* identical :class:`~repro.core.result.IterationStats`
cardinalities — because both drive the shared
:func:`~repro.core.setm.run_figure4_loop` skeleton.

Why the explicit sorts of Figure 4 disappear here: the columnar
merge-scan emits rows ordered by ``(trans_id, item_1, ..., item_k)``
(prev rows are walked in sorted order; within a transaction the band
extension walks ascending sales items), and the support filter keeps
row order.  ``(trans_id, items)`` order is therefore a loop invariant,
``sort R_{k-1} on trans_id, ...`` is a no-op, and ``sort R'_k on
item_1, ..., item_k`` collapses into the counting step — a key-free
integer sort of the rank keys (``count_via="sort"``, one
``np.unique``) or a single hash pass (``count_via="hash"``): the perf
engine has no obligation to sort where the faithful one must.  The
default ``"auto"`` counts by direct addressing — one ``np.bincount``
over the level's key span ``[0, |F_{k-1}| * base)`` — when that span is
at most twice ``|R'_k|``, and sorts otherwise
(:func:`~repro.core.columns.count_and_filter`).

Where the relations live and who counts them are options of the one
engine, not further engines: under ``memory_budget_bytes`` or with
``workers > 1`` it runs the range kernel of
:mod:`repro.core.setm_columnar_disk`, which cuts big levels into priced
key ranges, spills their ``R_k`` shares and may count them in a worker
pool.  With neither it runs :class:`ColumnarKernel` below.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Literal

from repro.config import DEFAULT_MEMORY_BUDGET
from repro.core.columns import (
    FrequentLevels,
    InstanceRelation,
    SalesIndex,
    count_and_filter,
    count_packed_keys,
    suffix_extend,
)
from repro.core.result import MiningResult, Pattern
from repro.core.setm import KernelLifecycle, run_figure4_loop
from repro.core.setm_parallel import resolve_start_method, validate_workers
from repro.core.transactions import ItemCatalog, TransactionDatabase
from repro.core.transport import resolve_transport
from repro.registry import register_engine

__all__ = ["ColumnarKernel", "setm_columnar"]


class ColumnarKernel(KernelLifecycle):
    """Figure 4's steps over :class:`InstanceRelation` columns.

    Patterns travel as rank keys (``rank * self._base + item``, where
    ``rank`` is the prefix's row in the sorted ``F_{k-1}`` keys and the
    base exceeds every dictionary id, so numeric order equals
    lexicographic pattern order).  ``self._levels`` records each
    ``F_k`` as the HAVING clause produces it — every
    :meth:`count_and_filter` override records its ``c_k`` there — and
    decodes keys back to item ids; labels are decoded only for the
    final :class:`~repro.core.result.MiningResult`.

    ``database`` may be a classic :class:`TransactionDatabase` *or* a
    stream-encoded :class:`~repro.data.ingest.EncodedDataset`: the
    latter already carries the catalog and the physical ``R_1`` columns,
    so :meth:`make_sales` reattaches them instead of re-deriving
    anything — no Python transaction objects exist on that path, which
    is the point of streaming ingest.
    """

    def __init__(
        self,
        database,
        *,
        count_via: Literal["auto", "sort", "hash"] = "auto",
    ) -> None:
        self._database = database
        if isinstance(database, TransactionDatabase):
            # One C-level pass collects the labels (equivalent to
            # database.catalog(), minus its per-transaction set updates).
            self._catalog = ItemCatalog(
                set(chain.from_iterable(txn.items for txn in database))
            )
            self._ingest_stats: dict | None = None
        else:
            # An EncodedDataset (duck-typed to keep this module free of
            # a repro.data import): catalog and telemetry travel with it.
            self._catalog = database.catalog
            stats = database.stats
            self._ingest_stats = (
                stats.as_dict() if stats is not None else None
            )
        # Ids run 1..len(catalog); any base > max id packs injectively.
        self._base = len(self._catalog) + 1
        self._levels = FrequentLevels(self._base)
        self._count_via: Literal["auto", "sort", "hash"] = count_via
        self._index: SalesIndex | None = None
        self._labels: list | None = None  # id -> label, built on first decode

    def make_sales(self) -> InstanceRelation:
        if isinstance(self._database, TransactionDatabase):
            # sales_from_database also resolves the merge-scan's group
            # matching over the static R_1, once for the whole run (the
            # attached SalesIndex).
            sales = InstanceRelation.sales_from_database(
                self._database, self._catalog
            )
        else:
            sales = self._database.sales_relation()
        self._index = sales.index
        return sales

    def extra_stats(self) -> dict:
        if self._ingest_stats is not None:
            return {"ingest": self._ingest_stats}
        return {}

    def c1_counts(self, sales: InstanceRelation) -> list[tuple[int, int]]:
        # For k = 1 the key *is* the item id; no pack pass needed.
        return count_packed_keys(
            sales.keys, via=self._count_via, span=(0, self._base)
        )

    def resort_by_tid(self, r: InstanceRelation) -> InstanceRelation:
        # No-op by invariant: merge output and filter both preserve
        # (trans_id, item_1, ..., item_k) order.  See the module
        # docstring for why the sort disappears.
        return r

    def merge_extend(
        self, r: InstanceRelation, sales: InstanceRelation
    ) -> InstanceRelation:
        assert self._index is not None  # make_sales always ran first
        return suffix_extend(r, self._index, self._levels.prefixes(r.k))

    def count_and_filter(
        self, r_prime: InstanceRelation, threshold: int
    ) -> tuple[int, dict[int, int], InstanceRelation]:
        candidates, keys, counts, r_next = count_and_filter(
            r_prime,
            threshold,
            via=self._count_via,
            span=self._key_span(r_prime.k),
        )
        self._levels.add(r_prime.k, keys)
        c_k = dict(zip(keys.tolist(), counts.tolist()))
        return candidates, c_k, r_next

    def _key_span(self, k: int) -> tuple[int, int]:
        """``[0, |F_{k-1}| * base)``: every level-``k`` key lies in it.

        At ``k = 2`` a key's prefix is an item id, below ``base``.
        """
        prefixes = self._levels.prefixes(k - 1)
        ranks = self._base if prefixes is None else len(prefixes)
        return 0, ranks * self._base

    def size(self, r: InstanceRelation) -> int:
        return len(r)

    def decode(self, key: int, k: int) -> Pattern:
        labels = self._labels
        if labels is None:
            # Ids run 1..len(catalog) in label order.
            labels = self._labels = [None, *self._catalog.labels()]
        if k == 1:
            return (labels[key],)
        return tuple(map(labels.__getitem__, self._levels.items(key, k)))


@register_engine(
    "setm-columnar",
    description=(
        "SETM on dictionary-encoded array columns: in memory by default, "
        "key ranges spilled under memory_budget_bytes and counted in a "
        "worker pool with workers > 1"
    ),
    representation="columnar",
    streaming_ingest=True,
    accepted_options=(
        "count_via",
        "measure_memory",
        "memory_budget_bytes",
        "workers",
        "spill_dir",
        "start_method",
        "transport",
    ),
)
def setm_columnar(
    database: TransactionDatabase,
    minimum_support: float,
    *,
    max_length: int | None = None,
    count_via: Literal["auto", "sort", "hash"] = "auto",
    measure_memory: bool = False,
    memory_budget_bytes: int | None = None,
    workers: int | None = 1,
    spill_dir: str | os.PathLike | None = None,
    start_method: str | None = None,
    transport: str | None = None,
) -> MiningResult:
    """Run SETM on the columnar kernel; same results, several times faster.

    Parameters
    ----------
    database:
        The transactions to mine (labels of any type; dictionary-encoded
        internally and decoded back in the result).
    minimum_support:
        Fractional minimum support in ``(0, 1]`` or absolute count.
    max_length:
        Optional cap on pattern length.
    count_via:
        ``"auto"`` (default: direct addressing — one ``np.bincount``
        over the level's (or key range's) key span, and the HAVING
        filter as one table gather — when the span is at most twice the
        number of keys, ``"sort"`` otherwise), ``"hash"`` (one Counter
        pass over rank keys), or ``"sort"`` (key-free integer sort +
        run-length scan as one ``np.unique`` — the paper-shaped
        strategy).  Identical counts any way; the knob feeds the
        counting-strategy ablation benchmark.
    measure_memory:
        Record loop peak memory in ``extra["peak_memory_bytes"]``; off
        by default (see :func:`repro.core.setm.setm`).
    memory_budget_bytes:
        Target resident size for the mining loop's relations; ``None``
        (the default) keeps every level in memory.  Under a budget any
        ``R'_k`` priced above a quarter of it is cut into key ranges of
        at most that share, each extended, counted and filtered in
        turn, with its ``R_k`` share spilled.  The fixed residents
        (``SALES``, its extension index, the ``C_k`` count relations)
        are outside the budget — the paper itself assumes ``C_k``
        memory-resident.
    workers:
        Worker processes; ``1`` (the default) counts in process and
        ``None`` means ``os.cpu_count()``.  With ``workers > 1`` the
        run works under ``memory_budget_bytes`` or
        :data:`~repro.config.DEFAULT_MEMORY_BUDGET`; the key ranges of a
        level the budget cuts run in the shared worker pool, and so do
        those of a level it keeps whole whose priced ``|R'_k|`` reaches
        :data:`~repro.core.setm_columnar_disk.POOL_MIN_ROWS`, cut into
        ``BATCHES_PER_WORKER × workers`` ranges.
    spill_dir:
        Directory for the run's private spill files (a fresh
        subdirectory is created and removed); defaults to the system
        temporary directory.
    start_method:
        ``multiprocessing`` start method for the pool; ``None`` defers
        to ``REPRO_MP_START_METHOD``, then the platform default.
    transport:
        How the ``SALES`` columns, the ``R_k`` shares and the replies
        cross the process boundary: ``"mmap"`` (workers map the files
        and decode columns as views over the map), ``"shm"`` (``SALES``
        in a named shared-memory segment, replies through segments
        too; a failed handshake falls back to ``mmap``), or
        ``"auto"``/``None`` (``mmap``).  Results are byte-identical on
        every transport.

    Returns
    -------
    MiningResult
        With ``algorithm="setm-columnar"``; count relations, unfiltered
        item counts, and :class:`~repro.core.result.IterationStats` are
        byte-identical to :func:`repro.core.setm.setm` on the same
        input.  ``extra["iteration_seconds"]`` carries per-iteration
        wall-clock from the shared loop skeleton.  A run on the range
        kernel also carries ``memory_budget_bytes``, a ``"spill"``
        block (key ranges per level, bytes written and read, chunks
        written), ``workers``, a ``"parallel"`` block (pooled levels
        and their ranges, levels counted in process, the resolved start
        method) and a ``"transport"`` block (negotiated mode, bytes
        moved, copies avoided).
    """
    workers = validate_workers(workers)
    start_method = resolve_start_method(start_method)
    transport = resolve_transport(transport)
    if memory_budget_bytes is None and workers == 1:
        kernel = ColumnarKernel(database, count_via=count_via)
    else:
        # Imported here: the range kernel's module subclasses ColumnarKernel.
        from repro.core.setm_columnar_disk import SpillingColumnarKernel

        kernel = SpillingColumnarKernel(
            database,
            memory_budget_bytes=(
                DEFAULT_MEMORY_BUDGET
                if memory_budget_bytes is None
                else memory_budget_bytes
            ),
            workers=workers,
            count_via=count_via,
            spill_dir=spill_dir,
            start_method=start_method,
            transport=transport,
        )
    return run_figure4_loop(
        database,
        minimum_support,
        kernel,
        algorithm="setm-columnar",
        max_length=max_length,
        extra={"count_via": count_via},
        measure_memory=measure_memory,
    )
