"""Columnar relation kernel: dictionary-encoded, array-backed ``R_k`` relations.

Representations
---------------
The package carries two in-memory representations of the paper's ``R_k``
instance relations, and the choice is the whole performance story:

* **Tuples** (:mod:`repro.core.setm`): one Python tuple
  ``(trans_id, item_1, ..., item_k)`` per row.  This mirrors Figure 4
  line by line — every sort, scan, and filter is visible as the paper
  wrote it — which is exactly what the Figure 5/6 reproduction needs.
  The price is row-at-a-time Python: every merge-scan output allocates
  a fresh tuple, every count/filter step re-allocates ``tuple(row[1:])``,
  and sorts compare heterogeneous tuples element by element.

* **Columnar** (this module): an ``R_k`` relation is flat int64
  columns, with items dictionary-encoded to dense integer ids through
  :class:`~repro.core.transactions.ItemCatalog`.  Rows never exist as
  Python objects inside the loop: every Figure-4 step is a few
  whole-column numpy operations — the set-oriented bulk passes (sort,
  merge-scan, group-count, filter) the paper argues for.  Four ideas
  carry the speedup:

  1. **Run-length group delimitation.**  Trans_id groups in ``SALES``
     are known from the ingest's run lengths, so no pass ever re-tests
     ``row[0] == current`` to find a transaction's rows.
  2. **The merge-scan as index arithmetic.**  ``R_1`` never changes, so
     the merge-scan join degenerates: every ``R_k`` row remembers the
     *global sales position* of its last item (the ``last_sid``
     column), and its Figure-4 extensions are exactly the suffix of its
     transaction's run — ``sales[s+1 : txn_end(s)]``.
     :class:`SalesIndex` precomputes the suffix lengths once;
     :func:`suffix_extend` then produces ``R'_k`` as a ``np.repeat``
     ragged-range expansion plus one item gather.
  3. **Rank-keyed patterns.**  A pattern is one integer key built on
     the previous level's frequent set: ``key = rank * base + item``,
     where ``rank`` is the position of the pattern's ``(k-1)``-prefix
     in the sorted ``F_{k-1}`` keys (:func:`prefix_ranks`) — the paper's
     "simple table look-ups on relation ``C_{k-1}``" as an integer row
     reference.  At ``k <= 2`` the prefix is the item id itself.  The
     merge computes the ranks once per ``R_{k-1}`` row, so counting
     never builds ``tuple(row[1:])``.  Ranks follow lexicographic
     prefix order, so key order is pattern order, and a key is bounded
     by ``|F_{k-1}| * base``: it always fits 64 bits.
  4. **Direct-address counting.**  The caller knows the span a level's
     keys lie in (``[0, |F_{k-1}| * base)``, or one planned key range),
     so when that span is at most twice the number of keys, ``C_k`` is
     one ``np.bincount`` over ``key - low`` and ``R_k`` is one gather
     from the ``count >= threshold`` table — the HAVING step as the
     paper's "simple table look-ups on relation ``C_k``"
     (:func:`count_and_filter`).  Wider spans sort
     (``np.unique(return_counts=True)``) and filter with one membership
     probe (:func:`filter_by_keys`).

  The key column and ``last_sid`` together determine every logical
  column (``trans_id`` by reading the sales tid at ``last_sid``; the
  items through :class:`FrequentLevels`, which maps a key back to its
  item ids level by level), so inside the mining loop a relation
  physically carries only those two, as int64 ndarrays; the trans_id
  and (for ``k <= 2``) item-id arrays materialize on first access
  (:attr:`InstanceRelation.tids`, :attr:`InstanceRelation.items`) for
  callers that want the plain columnar view.  ``array('q')`` remains
  the storage buffer of the ingest layer and of eagerly built
  relations; the primitives read it through zero-copy views.

The tuple engine stays the faithful, numpy-free reference; this kernel
feeds the ``setm-columnar`` engine (:mod:`repro.core.setm_columnar`) and
is differentially tested to produce identical counts and iteration
statistics.  :func:`count_sorted_rows` is the row-shaped counting scan
that the tuple engine and the paged storage engine's
:mod:`repro.storage.mergejoin` share.

This module is a dependency leaf: it imports only numpy, the standard
library and the leaf module :mod:`repro.core.transactions`, so
:mod:`repro.storage` can import it without creating a package cycle.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from typing import Literal

import numpy as np

from repro.core.transactions import ItemCatalog, TransactionDatabase

__all__ = [
    "FrequentLevels",
    "InstanceRelation",
    "SalesIndex",
    "chunk_frames",
    "count_and_filter",
    "count_packed_keys",
    "count_sorted_rows",
    "count_supported",
    "extension_counts",
    "extension_item_totals",
    "extension_totals",
    "filter_by_keys",
    "pack_chunks",
    "prefix_ranks",
    "suffix_extend",
]

#: Typecode of every materialized column: signed 64-bit, enough for any
#: trans_id or dictionary-encoded item id (the paper's 4-byte fields fit
#: trivially).
COLUMN_TYPECODE = "q"

#: Spill-chunk framing (see :meth:`InstanceRelation.to_chunk_bytes`):
#: magic, a reserved flags byte (always 0), pad, k (uint32), rows
#: (int64), payload bytes (int64).
_CHUNK_MAGIC = b"RKC1"
_CHUNK_HEADER = struct.Struct("<4sBxIqq")


def _column(values: Iterable[int] = ()) -> array:
    return array(COLUMN_TYPECODE, values)


def _as_int64(values: Sequence[int]) -> np.ndarray:
    """An int64 ndarray of any column (``array('q')`` becomes a view)."""
    return np.asarray(values, dtype=np.int64)


class InstanceRelation:
    """An ``R_k`` relation as flat integer columns.

    Logically every relation has ``k + 1`` columns — ``tids`` plus
    ``items[0..k-1]`` — and rows are maintained in
    ``(trans_id, item_1, ..., item_k)`` order by every kernel operation
    (simultaneously the merge-scan order and, within a transaction,
    lexicographic pattern order, so the explicit re-sorts of Figure 4
    become no-ops here).

    Physically a relation stores whichever columns it was built from:

    ``keys``
        The rank-keyed pattern of each row (``rank * base + item``, see
        :func:`suffix_extend`), built by the merge so counting and
        filtering never rebuild per-row tuples.
    ``last_sid``
        Global ``SALES`` position of each row's last item — the cursor
        the suffix merge of :func:`suffix_extend` resumes from.

    Those two columns determine the rest, so relations produced inside
    the mining loop carry only them; ``tids`` and, for ``k <= 2``,
    ``items`` materialize lazily (tid = sales tid at ``last_sid``; the
    items by splitting the key, whose prefix is still an item id).
    Deeper keys point into the previous level's frequent set, which the
    kernel's :class:`FrequentLevels` holds.  Relations built from raw
    rows (:meth:`from_rows`) are eager instead and carry no ``keys``.
    """

    __slots__ = ("_tids", "_items", "last_sid", "keys", "_k", "_index")

    def __init__(
        self,
        tids: array | None,
        items: tuple[array, ...] | None,
        *,
        last_sid: Sequence[int] | None = None,
        keys: Sequence[int] | None = None,
        k: int | None = None,
        index: "SalesIndex | None" = None,
    ) -> None:
        if items is None and (keys is None or k is None):
            raise ValueError(
                "a relation needs either materialized item columns or "
                "(keys, k) to derive them"
            )
        self._tids = tids
        self._items = items
        self.last_sid = last_sid
        self.keys = keys
        self._k = len(items) if items is not None else k
        self._index = index

    @classmethod
    def from_rows(
        cls, rows: Iterable[Sequence[int]], k: int
    ) -> "InstanceRelation":
        """Build eagerly from ``(trans_id, item_1..item_k)`` rows."""
        tids = _column()
        items = tuple(_column() for _ in range(k))
        for row in rows:
            tids.append(row[0])
            for j in range(k):
                items[j].append(row[j + 1])
        return cls(tids, items)

    @classmethod
    def sales_from_database(
        cls, database: TransactionDatabase, catalog: ItemCatalog
    ) -> "InstanceRelation":
        """The ``SALES`` relation (``R_1``), dictionary-encoded.

        Rows arrive in ``(trans_id, item)`` order because transactions
        are stored sorted and item ids preserve label order (the
        :class:`ItemCatalog` id-assignment invariant).  The item column
        is built by one C-driven ``map`` over the chained transactions;
        the rest is :meth:`sales_from_columns`.
        """
        items = _column(
            map(
                catalog.id_mapping().__getitem__,
                chain.from_iterable(txn.items for txn in database),
            )
        )
        return cls.sales_from_columns(
            items,
            base=len(catalog) + 1,
            run_lengths=[len(txn.items) for txn in database],
            trans_ids=[txn.trans_id for txn in database],
        )

    @classmethod
    def sales_from_columns(
        cls,
        items: array,
        *,
        base: int,
        run_lengths: Sequence[int],
        trans_ids: Sequence[int],
    ) -> "InstanceRelation":
        """``R_1`` directly from its physical columns (chunk-append path).

        The streaming ingest layer builds the encoded item column and
        the ``(trans_ids, run_lengths)`` run-length framing in bounded
        appends (see :func:`repro.data.ingest.stream_encode`) and
        finishes here; :meth:`sales_from_database` is the same
        construction with the columns derived from Python transaction
        objects in one pass.  Requirements are those of the whole-file
        path: rows grouped by ascending ``trans_id``, items ascending
        within a transaction, ``base`` strictly greater than every
        item id.  ``last_sid`` is the identity (row ``s``'s only item
        sits at sales position ``s``), ``keys`` aliases the item column
        (a 1-pattern's key *is* its item id), and the trans_id column
        materializes lazily through the attached :class:`SalesIndex`.
        """
        index = SalesIndex(
            items,
            base=base,
            run_lengths=run_lengths,
            trans_ids=trans_ids,
        )
        return cls(
            None,
            (items,),
            last_sid=np.arange(len(items), dtype=np.int64),
            keys=items,
            k=1,
            index=index,
        )

    @property
    def k(self) -> int:
        """Pattern length: the number of (logical) item columns."""
        return self._k

    @property
    def index(self) -> "SalesIndex | None":
        """The :class:`SalesIndex` this relation derives from, if any."""
        return self._index

    def __len__(self) -> int:
        if self.keys is not None:
            return len(self.keys)
        return len(self._tids) if self._tids is not None else 0

    def _require_index(self) -> "SalesIndex":
        if self._index is None:
            raise ValueError(
                "this relation has no SalesIndex to derive tids/items "
                "from; pass index=... when deserializing chunks whose "
                "logical columns will be read"
            )
        return self._index

    @property
    def tids(self) -> array:
        """The trans_id column (materialized on first access if needed)."""
        if self._tids is None:
            self._tids = _column(
                map(self._require_index().tids.__getitem__, self.last_sid)
            )
        return self._tids

    @property
    def items(self) -> tuple[array, ...]:
        """The item-id columns (materialized on first access if needed).

        Derivable from the keys alone only for ``k <= 2``; a deeper
        key's rank resolves through the run's :class:`FrequentLevels`.
        """
        if self._items is None:
            if self._k > 2:
                raise ValueError(
                    f"a k={self._k} key points into F_{self._k - 1}; "
                    "decode it through FrequentLevels.items"
                )
            base = self._require_index().base
            keys = self.keys
            if self._k == 1:
                self._items = (_column(keys),)
            else:
                self._items = (
                    _column(key // base for key in keys),
                    _column(key % base for key in keys),
                )
        return self._items

    def row(self, index: int) -> tuple[int, ...]:
        """Materialize one row as a tuple (tests and debugging only)."""
        return (self.tids[index], *(col[index] for col in self.items))

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Materialize all rows (tests and debugging only)."""
        return zip(self.tids, *self.items)

    def __repr__(self) -> str:
        return f"InstanceRelation(k={self.k}, rows={len(self)})"

    # -- chunk serialization (out-of-core spill format) -----------------------------

    def to_chunk_bytes(self) -> bytes:
        """Serialize this relation's ``(keys, last_sid)`` columns to one chunk.

        The spill format of the out-of-core engine: a fixed header
        (magic, a reserved flags byte, ``k``, row count, payload length)
        followed by the ``last_sid`` and ``keys`` columns as flat native
        int64 — rank keys always fit 64 bits.  ``(keys, last_sid, k)``
        fully determine a loop relation within its run, so the round
        trip is lossless; chunks are process-private scratch, hence
        native byte order.

        Requires the ``keys`` and ``last_sid`` columns (relations built
        by ``sales_from_database``/``suffix_extend`` have them).
        """
        sids = self.last_sid
        keys = self.keys
        if sids is None or keys is None:
            raise ValueError(
                "chunk serialization needs the keys/last_sid columns; "
                "build relations with sales_from_database/suffix_extend"
            )
        payload = _int64_column_bytes(sids) + _int64_column_bytes(keys)
        header = _CHUNK_HEADER.pack(
            _CHUNK_MAGIC, 0, self._k, len(self), len(payload)
        )
        return header + payload


def _int64_column_bytes(values: Sequence[int]) -> bytes:
    """Flat native-int64 bytes of a column."""
    return _as_int64(values).tobytes()


def pack_chunks(
    chunks: Sequence[tuple[int, Sequence[int], Sequence[int]]],
) -> bytearray:
    """Frame ``(k, last_sid, keys)`` column pairs as consecutive chunks.

    The bytes of joining each relation's
    :meth:`InstanceRelation.to_chunk_bytes`, written straight into one
    preallocated buffer, so every column is copied exactly once.
    """
    header = _CHUNK_HEADER.size
    blob = bytearray(sum(header + 16 * len(keys) for _, _, keys in chunks))
    offset = 0
    for k, sids, keys in chunks:
        n = len(keys)
        _CHUNK_HEADER.pack_into(blob, offset, _CHUNK_MAGIC, 0, k, n, 16 * n)
        body = offset + header
        payload = np.frombuffer(blob, dtype=np.int64, count=2 * n, offset=body)
        payload[:n] = sids
        payload[n:] = keys
        offset = body + 16 * n
    return blob


def _chunk_frame(data, offset: int) -> tuple[int, int, int, int, int]:
    """One chunk header at ``offset``: ``(k, n, sid_offset, key_offset, end)``."""
    magic, flags, k, n, payload_len = _CHUNK_HEADER.unpack_from(data, offset)
    body = offset + _CHUNK_HEADER.size
    end = body + payload_len
    if magic != _CHUNK_MAGIC:
        raise ValueError(f"bad chunk magic {magic!r} at offset {offset}")
    if flags or payload_len != 16 * n:
        raise ValueError(
            f"unsupported chunk flags {flags} or payload length "
            f"{payload_len} for {n} rows at offset {offset}"
        )
    return k, n, body, body + 8 * n, end


def chunk_frames(data) -> Iterator[tuple[int, int, int, int, int]]:
    """Walk chunk *framing* in ``data`` without decoding any column.

    Yields ``(k, n, sid_offset, key_offset, end)`` per chunk: the header
    fields plus the byte offsets of the ``last_sid`` column, the
    ``keys`` column, and the chunk's end.  ``data`` may be
    any buffer (bytes, a :class:`memoryview`, an ``mmap``) — nothing is
    sliced or copied, which is the point: the decoder uses these offsets
    to construct int64 column views directly over the source buffer
    instead of copying the payload through intermediate ``bytes``.
    """
    offset = 0
    total = len(data)
    while offset < total:
        frame = _chunk_frame(data, offset)
        yield frame
        offset = frame[-1]


def extension_counts(
    relation: InstanceRelation, index: "SalesIndex"
) -> Sequence[int]:
    """Per-row merge-scan output counts: ``|suffix_extend(relation)|`` termwise.

    ``counts[r]`` is how many ``R'_{k+1}`` rows row ``r`` will produce —
    the suffix length ``index.ext_counts[last_sid[r]]``, so the exact
    ``|R'_k|`` is ``extension_counts(r_prev).sum()``, one cheap gather
    pass, known before a single row is materialized.
    """
    sids = relation.last_sid
    if sids is None:
        raise ValueError("extension_counts needs the last_sid column")
    return index.ext_counts[_as_int64(sids)]


def extension_totals(
    relation: InstanceRelation,
    index: "SalesIndex",
    prefixes: Sequence[int] | None,
    size: int,
) -> np.ndarray:
    """``|R'_{k+1}|`` per prefix: :func:`extension_counts` summed by rank.

    ``totals[r]`` is how many merge-output rows the rows whose key has
    rank ``r`` in the sorted ``prefixes`` (``None``: the key itself, as
    for ``R_1``) will produce — exactly the rows of key range
    ``[r * base, (r + 1) * base)`` one level up; ``size`` ranks in all.
    """
    ranks = _as_int64(prefix_ranks(relation.keys, prefixes))
    totals = np.bincount(
        ranks, weights=extension_counts(relation, index), minlength=size
    )
    return totals.astype(np.int64)


def extension_item_totals(sids: np.ndarray, index: "SalesIndex") -> np.ndarray:
    """How many extensions of the rows ``sids`` carry each item id.

    Row ``s`` extends with positions ``s+1 .. s+ext_counts[s]``; a
    difference array over those runs counts, per sales position, the
    rows extending with it, and one weighted ``np.bincount`` sums that
    by item — ``SALES``-sized work that materializes no extension.
    """
    n = len(index.items)
    starts = np.bincount(sids + 1, minlength=n + 1)
    stops = np.bincount(sids + index.ext_counts[sids] + 1, minlength=n + 1)
    covering = np.cumsum(starts - stops)[:n]
    return np.bincount(
        index.items, weights=covering, minlength=index.base
    ).astype(np.int64)


class SalesIndex:
    """Extension index over ``R_1``: the merge-scan join, precomputed.

    ``R_1`` is the one relation Figure 4 never modifies, so the
    merge-scan's group matching can be resolved *once*: for every sales
    position ``s``, ``ext_counts[s]`` is the number of strictly-greater
    items in the same transaction — the run of positions
    ``s+1 .. s+ext_counts[s]`` (within a transaction items are distinct
    and ascending, so "later position" equals the paper's
    ``q.item > p.item_{k-1}`` band condition).  A transaction run of
    length ``L`` therefore contributes exactly ``L-1, L-2, ..., 0``,
    and the whole column is a few ``np.repeat``/``cumsum`` passes over
    the run lengths — run-length delimitation turned into run-length
    *generation*.
    :func:`suffix_extend` reads this array instead of re-merging
    trans_id groups every iteration.

    ``base`` is the pattern-key radix: one more than the largest
    dictionary id, so ``rank * base + item`` keys are injective and
    numerically ordered like their patterns.  The per-row trans_id column is derived from
    ``(trans_ids, run_lengths)`` lazily — the mining loop never reads
    it.
    """

    __slots__ = ("items", "ext_counts", "base", "_tids",
                 "_run_lengths", "_trans_ids")

    def __init__(
        self,
        items: array,
        base: int,
        *,
        run_lengths: Sequence[int],
        trans_ids: Sequence[int],
    ) -> None:
        self.items = _as_int64(items)
        self.base = base
        self._run_lengths = run_lengths
        self._trans_ids = trans_ids
        self._tids: array | None = None
        lengths = _as_int64(run_lengths)
        expanded = np.repeat(lengths, lengths)
        position = np.arange(len(items)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        self.ext_counts = expanded - 1 - position

    def item_window(
        self, sids: np.ndarray, low: int, high: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's extensions with item in ``[low, high)``: ``(starts, counts)``.

        Row ``s`` extends with positions ``s+1 .. s+ext_counts[s]``,
        whose items ascend; the ones inside the item window are again
        one contiguous run.  ``(txn_end * base + item)`` ascends over
        the whole of ``SALES``, so two ``searchsorted`` passes find
        every row's run at once.
        """
        positions = np.arange(len(self.items))
        end_keys = (positions + self.ext_counts) * self.base + self.items
        ends = (sids + self.ext_counts[sids]) * self.base
        starts = np.maximum(np.searchsorted(end_keys, ends + low), sids + 1)
        stops = np.searchsorted(end_keys, ends + high)
        return starts, np.maximum(stops - starts, 0)

    @property
    def tids(self) -> array:
        """Per-row trans_id column (materialized on first access)."""
        if self._tids is None:
            self._tids = _column(
                chain.from_iterable(
                    map(repeat, self._trans_ids, self._run_lengths)
                )
            )
        return self._tids


def prefix_ranks(
    keys: Sequence[int], prefixes: Sequence[int] | None
) -> Sequence[int]:
    """Each key's row number in the sorted ``F_{k-1}`` keys ``prefixes``.

    The one place a level's key is turned into the row reference the
    next level's keys are built on (``rank * base + item``): one
    ``searchsorted`` pass.  Every key
    must occur in ``prefixes`` — ``R_{k-1}`` holds only supported
    patterns.  ``prefixes=None`` stands for ``F_1``'s level, whose
    prefix is the item id itself, and returns ``keys`` unchanged.
    """
    if prefixes is None:
        return keys
    return np.searchsorted(_as_int64(prefixes), _as_int64(keys))


def suffix_extend(
    r_prev: InstanceRelation,
    index: SalesIndex,
    prefixes: Sequence[int] | None = None,
    *,
    first_rank: int = 0,
    items: tuple[int, int] | None = None,
) -> InstanceRelation:
    """The merge-scan join of Figure 4, fused and columnar.

    ``R'_k := merge-scan(R_{k-1}, R_1)``: every ``R_{k-1}`` row is
    extended with every strictly greater ``SALES`` item of the same
    transaction.  Because each row carries ``last_sid`` and the
    :class:`SalesIndex` knows each position's transaction run end, the
    extensions of row ``r`` are exactly sales positions
    ``last_sid[r]+1 .. ends[last_sid[r]]`` — so the whole join is a
    handful of whole-column int64 passes with no per-row Python:

    1. per-row extension counts — one gather over ``ext_counts``;
    2. the new ``last_sid`` column — a ``np.repeat`` ragged-range
       expansion;
    3. the rank keys (``key' = rank * base + item``) — each previous
       key becomes its rank in ``prefixes``, the sorted ``F_{k-1}``
       keys (:func:`prefix_ranks`; ``None`` when extending ``R_1``,
       whose key is the item id), ranks are scaled *before* expansion
       (|R_{k-1}| multiplications, not |R'_k|), replicated, and added
       to the sales items at the new positions.

    Output rows come out sorted by ``(trans_id, item_1, ..., item_k)``
    (prev rows are walked in sorted order; suffixes ascend within a
    transaction), so no re-sort is needed before counting or the next
    merge.  Requires ``r_prev.last_sid`` and ``r_prev.keys``.

    One key range of ``R'_k`` at a time: ``prefixes`` may be a slice of
    ``F_{k-1}`` that starts at rank ``first_rank``, and ``items=(low,
    high)`` keeps only the extensions whose item lies in ``[low, high)``
    (:meth:`SalesIndex.item_window`) — the key sub-range of one prefix.
    """
    sids = r_prev.last_sid
    prev_keys = r_prev.keys
    if sids is None or prev_keys is None:
        raise ValueError(
            "suffix_extend needs last_sid/keys columns; build relations "
            "with sales_from_database/suffix_extend, not raw constructors"
        )
    sids = _as_int64(sids)
    if items is None:
        starts, counts = sids + 1, index.ext_counts[sids]
    else:
        starts, counts = index.item_window(sids, *items)
    # Output row j of prev row r sits at sales position starts[r] +
    # (j - first output row of r): one repeat of the shifted starts.
    new_sids = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    new_sids += np.arange(len(new_sids))
    scaled = (
        _as_int64(prefix_ranks(prev_keys, prefixes)) + first_rank
    ) * index.base
    return InstanceRelation(
        None,
        None,
        last_sid=new_sids,
        keys=np.repeat(scaled, counts) + index.items[new_sids],
        k=r_prev.k + 1,
        index=index,
    )


class FrequentLevels:
    """Each level's sorted frequent keys, and the item ids they spell.

    A rank key is a row reference: a level-``k`` key
    ``rank * base + item`` (``k >= 3``) names row ``rank`` of the sorted
    ``F_{k-1}`` keys plus one item, so a key means nothing without the
    previous level's frequent set.  This table holds those sets —
    :meth:`add` records ``F_k`` once its HAVING clause has run,
    :meth:`prefixes` hands it to :func:`suffix_extend` for the next
    merge — and decodes keys back to item-id tuples through per-level
    lookup tables, ``ids_k[rank] = ids_{k-1}[key // base] +
    (key % base,)``, built on first use.  At ``k <= 2`` a key's prefix
    is the item id itself, so no table is needed.
    """

    __slots__ = ("base", "_keys", "_ids")

    def __init__(self, base: int) -> None:
        self.base = base
        self._keys: dict[int, np.ndarray] = {}
        self._ids: dict[int, list[tuple[int, ...]]] = {}

    def add(self, k: int, keys: Iterable[int]) -> None:
        """Record level ``k``'s frequent keys ``F_k`` (any order)."""
        if not isinstance(keys, np.ndarray):
            keys = np.fromiter(keys, dtype=np.int64)
        self._keys[k] = np.sort(keys)

    def prefixes(self, k: int) -> np.ndarray | None:
        """The sorted ``F_k`` keys level ``k + 1`` ranks into.

        ``None`` at ``k = 1``: a 2-pattern's prefix is its item id.
        """
        return self._keys[k] if k >= 2 else None

    def items(self, key: int, k: int) -> tuple[int, ...]:
        """The item ids of level-``k`` pattern ``key``."""
        if k == 1:
            return (key,)
        prefix, item = divmod(key, self.base)
        if k == 2:
            return (prefix, item)
        return self._table(k - 1)[prefix] + (item,)

    def _table(self, k: int) -> list[tuple[int, ...]]:
        table = self._ids.get(k)
        if table is None:
            table = self._ids[k] = [
                self.items(key, k) for key in self._keys[k].tolist()
            ]
        return table


def count_packed_keys(
    keys: Sequence[int],
    *,
    via: Literal["auto", "sort", "hash"] = "auto",
    span: tuple[int, int] | None = None,
) -> list[tuple[int, int]]:
    """Group counts over pattern keys.

    ``via="sort"`` mirrors the paper's sort-then-scan: a key-free
    integer sort followed by run-length delimitation, as
    ``np.unique(return_counts=True)``, emitted in ascending key order,
    which equals lexicographic pattern order.  ``via="hash"`` is one
    :class:`collections.Counter` pass (C-speed integer hashing), emitted
    in deterministic first-occurrence order.  ``via="auto"`` counts by
    direct addressing when the caller's ``span`` — every key lies in
    ``[low, high)`` — is narrow (:func:`count_and_filter`), and sorts
    otherwise; it emits ascending keys either way.  All strategies
    produce the same multiset of ``(key, count)`` pairs.
    """
    unique, counts = _tally(_as_int64(keys), via, span)
    return list(zip(unique.tolist(), counts.tolist()))


def _dense_counts(
    keys: np.ndarray, via: str, span: tuple[int, int] | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(key - low, count of every key in span)``, or ``None`` to sort.

    Direct addressing applies to ``via="auto"`` when the span is at most
    twice the number of keys, so the int64 count table costs no more per
    row than the row's own ``keys`` + ``last_sid`` columns; ``"sort"``
    and ``"hash"`` are the explicit ablations and keep their strategies.
    """
    if via != "auto" or span is None or span[1] - span[0] > 2 * len(keys):
        return None
    low, high = span
    offsets = keys - low if low else keys
    return offsets, np.bincount(offsets, minlength=high - low)


def _tally(
    keys: np.ndarray, via: str, span: tuple[int, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys and their counts, as :func:`count_packed_keys` orders them."""
    if via == "hash":
        tally = Counter(keys.tolist())
        return (
            np.fromiter(tally.keys(), dtype=np.int64, count=len(tally)),
            np.fromiter(tally.values(), dtype=np.int64, count=len(tally)),
        )
    dense = _dense_counts(keys, via, span)
    if dense is not None:
        table = dense[1]
        present = np.flatnonzero(table)
        return present + span[0], table[present]
    return np.unique(keys, return_counts=True)


def count_supported(
    keys: Sequence[int],
    threshold: int,
    *,
    via: Literal["auto", "sort", "hash"] = "auto",
    span: tuple[int, int] | None = None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """``C_k`` with its HAVING clause, on arrays: ``(candidates, keys, counts)``.

    Counts every key as :func:`count_packed_keys` does, keeps those
    with ``count >= threshold`` as two int64 arrays in ascending key
    order — ready for :func:`filter_by_keys` — and reports how many
    distinct keys were counted.  No per-candidate Python object is
    built on the sort or direct-address paths.  For callers that hold
    only the keys (a pool worker counting one partition);
    :func:`count_and_filter` also builds ``R_k``.
    """
    keys = _as_int64(keys)
    dense = _dense_counts(keys, via, span)
    if dense is not None:
        return _dense_supported(dense[1], threshold, span[0])[:3]
    unique, counts = _tally(keys, via)
    keep = counts >= threshold
    supported, counts = unique[keep], counts[keep].astype(np.int64)
    order = np.argsort(supported)  # the hash pass counts unordered
    return len(unique), supported[order], counts[order]


def _dense_supported(
    table: np.ndarray, threshold: int, low: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(candidates, keys, counts, kept)`` from a direct-address table.

    ``kept`` is the boolean ``count >= threshold`` table over the span
    (never true for an absent key, whatever the threshold).
    """
    kept = table >= max(threshold, 1)
    supported = np.flatnonzero(kept)
    return (
        int(np.count_nonzero(table)),
        supported + low,
        table[supported],
        kept,
    )


def count_and_filter(
    relation: InstanceRelation,
    threshold: int,
    *,
    via: Literal["auto", "sort", "hash"] = "auto",
    span: tuple[int, int] | None = None,
) -> tuple[int, np.ndarray, np.ndarray, InstanceRelation]:
    """``C_k`` with its HAVING clause, then ``R_k``: one level's count step.

    Returns ``(candidates, keys, counts, survivors)``: how many distinct
    keys ``relation`` holds, the supported keys in ascending order with
    their counts, and the rows of ``relation`` whose key is supported,
    in input order.  ``span=(low, high)`` is what the caller knows
    bounds every key — ``[0, |F_{k-1}| * base)`` for a whole level, the
    planned ``[key_low, key_high)`` for one key range.  Under
    ``via="auto"`` a span at most twice the row count is counted by one
    ``np.bincount`` over ``key - low``, and the survivors are one gather
    from the ``count >= threshold`` table; otherwise (and for
    ``"sort"``/``"hash"``) this is :func:`count_supported` plus
    :func:`filter_by_keys`.
    """
    if relation.keys is None:
        raise ValueError("count_and_filter needs the packed-keys column")
    keys = _as_int64(relation.keys)
    dense = _dense_counts(keys, via, span)
    if dense is None:
        candidates, supported, counts = count_supported(
            keys, threshold, via=via
        )
        return candidates, supported, counts, filter_by_keys(
            relation, supported
        )
    offsets, table = dense
    candidates, supported, counts, kept = _dense_supported(
        table, threshold, span[0]
    )
    return candidates, supported, counts, _select_rows(
        relation, keys, kept[offsets]
    )


def _member_mask(values: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Row mask of ``values`` found in the sorted column ``wanted``.

    One ``searchsorted`` probe per value, then an equality check at the
    probed position.  Unlike ``np.isin``, whose sorting fallback runs a
    plain ``np.unique`` and so imports ``numpy.ma`` lazily (tens of
    milliseconds inside the first such call of a process), this never
    leaves plain array operations.
    """
    if len(wanted) == 0:
        return np.zeros(len(values), dtype=bool)
    positions = np.searchsorted(wanted, values)
    positions[positions == len(wanted)] = 0
    return wanted[positions] == values


def filter_by_keys(
    relation: InstanceRelation, supported: Iterable[int]
) -> InstanceRelation:
    """``R_k`` from ``R'_k``: keep rows whose pattern key is supported.

    One :func:`_member_mask` probe builds the row mask, then the
    ``keys`` and ``last_sid`` columns are copied through it.  Input order is
    preserved, so the sorted-by-``(trans_id, items)`` invariant survives
    filtering.  ``supported`` is any collection of keys (a set, a
    ``C_k`` dict, the arrays :func:`count_supported` returns).
    Requires ``relation.keys``.
    """
    if relation.keys is None:
        raise ValueError("filter_by_keys needs the packed-keys column")
    keys = _as_int64(relation.keys)
    if not isinstance(supported, np.ndarray):
        supported = np.fromiter(supported, dtype=np.int64)
    mask = _member_mask(keys, np.sort(supported))
    return _select_rows(relation, keys, mask)


def _select_rows(
    relation: InstanceRelation, keys: np.ndarray, mask: np.ndarray
) -> InstanceRelation:
    """The rows of ``relation`` under ``mask`` (itself when all are kept)."""
    if bool(mask.all()):
        return relation
    return InstanceRelation(
        None,
        None,
        last_sid=(
            _as_int64(relation.last_sid)[mask]
            if relation.last_sid is not None
            else None
        ),
        keys=keys[mask],
        k=relation.k,
        index=relation._index,
    )


def count_sorted_rows(
    rows: Iterable[Sequence],
) -> list[tuple[tuple, int]]:
    """Sequential-scan grouping of ``(trans_id, item...)`` rows sorted by items.

    The one shared implementation of "generating the counts involves a
    simple sequential scan" for *row-shaped* inputs: both the in-memory
    tuple engine (:func:`repro.core.setm.count_sorted_instances`) and the
    paged storage engine (:func:`repro.storage.mergejoin.counting_scan`)
    delegate here.  ``rows`` must be sorted by ``row[1:]``; emits
    ``(pattern, count)`` in sorted pattern order.
    """
    counts: list[tuple[tuple, int]] = []
    current: tuple | None = None
    run = 0
    for row in rows:
        pattern = tuple(row[1:])
        if pattern == current:
            run += 1
        else:
            if current is not None:
                counts.append((current, run))
            current, run = pattern, 1
    if current is not None:
        counts.append((current, run))
    return counts
