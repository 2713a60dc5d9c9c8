"""Streaming ingest: out-of-core dictionary encode + chunked index build.

The whole-file path materializes a labelled
:class:`~repro.core.transactions.TransactionDatabase`, *then* encodes
it, *then* builds the ``SALES`` columns — three O(dataset) residents
before a single mining iteration runs.  :func:`stream_encode` collapses
that to one bounded pass: it pulls ``(trans_id, item)`` column batches
from a :class:`~repro.data.formats.ChunkSource`, dictionary-encodes
each transaction as it completes, and appends straight onto the flat
``R_1`` columns, so peak ingest memory is **O(chunk + catalog)** —
and, when a ``memory_budget_bytes`` is given, the growing encoded item
column is spilled through the existing
:class:`~repro.core.partitioning.Partition` chunk machinery whenever it
reaches half the budget.

The pass works on whole columns, not rows.  Each chunk arrives as two
parallel columns: int64 numpy arrays when the decoder could parse every
value as a plain integer (the CSV decoder's columnar path for the
paper's integer ``SALES`` relation), Python lists otherwise (string
labels, the basket and Parquet/Arrow decoders, and any CSV block the
decoder hands to :mod:`csv`).  :meth:`_StreamEncoder.add_rows` checks
ascending ``trans_id`` with one ``diff``, carries the chunk's trailing
basket over to the next chunk, gives every label a chunk-local code in
sorted label order (``np.unique`` for arrays, ``sorted(set(...))`` for
lists), sorts and de-duplicates each basket's codes with one
composite-key sort (skipped when a vectorized check finds every basket
already strictly ascending), takes run lengths from
``flatnonzero(diff)``, and sends only the chunk's *distinct* labels, as
Python objects, through the :class:`CatalogBuilder`.  Integer and
string labels then share the rest of the path.

Two problems make this more than a loop:

* **The sorted-id invariant.**  :class:`ItemCatalog` assigns ids in
  sorted label order (numeric id order must equal lexicographic label
  order — the pattern-key machinery depends on it), but a single pass
  sees labels in arrival order.  The encoder therefore uses
  *provisional* ids (:class:`~repro.core.transactions.CatalogBuilder`)
  and applies the final ``provisional -> sorted`` remap at the end:
  one vectorized gather over the resident column, one streamed rewrite
  per spilled chunk.  Each transaction's labels are sorted *before*
  provisional encoding, so the remapped rows land in exactly the
  whole-file order — the product is byte-identical to
  :meth:`InstanceRelation.sales_from_database`.
* **The ordering contract.**  A bounded pass cannot regroup rows, so
  input must arrive grouped by ascending ``trans_id`` (what
  ``write_sales_csv``/``write_basket_file`` and any clustered
  relational scan produce).  Violations raise a typed
  :class:`~repro.errors.IngestError` naming the whole-file readers as
  the fallback for unsorted data.

The product, :class:`EncodedDataset`, carries the catalog plus the
physical ``R_1`` columns and quacks enough like a database
(``num_transactions``, ``absolute_support``) that engines flagged
``streaming_ingest`` mine it directly — no Python transaction objects
ever exist.  For every other engine, :meth:`EncodedDataset.database`
materializes the classic object form.
"""

from __future__ import annotations

import os
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.columns import (
    COLUMN_TYPECODE,
    InstanceRelation,
    SalesIndex,
    _as_int64,
)
from repro.core.partitioning import Partition
from repro.core.transactions import (
    ItemCatalog,
    Transaction,
    TransactionDatabase,
    absolute_support_threshold,
)
from repro.data.formats import ChunkSource, join_columns, open_chunk_source
from repro.errors import IngestError

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "EncodedDataset",
    "IngestStats",
    "load_dataset",
    "stream_encode",
]

#: Default decoder batch size when the caller does not choose one.
DEFAULT_CHUNK_ROWS = 65536


def _column(values=()) -> array:
    return array(COLUMN_TYPECODE, values)


@dataclass
class IngestStats:
    """Telemetry of one streaming ingest, for ``extra["ingest"]``.

    Decoder-side counters (bytes, chunks, rows) come from the source's
    :class:`~repro.data.formats.DecodeStats`; the encode-side counters
    (transactions, distinct items, spill traffic) are this module's.
    """

    format: str
    path: str
    chunk_rows: int | None
    chunks: int = 0
    rows: int = 0
    transactions: int = 0
    distinct_items: int = 0
    bytes_total: int = 0
    bytes_read: int = 0
    bytes_decoded: int = 0
    bytes_read_reduction: float = 0.0
    bytes_decoded_reduction: float = 0.0
    columns_total: int = 0
    columns_read: int = 0
    memory_budget_bytes: int | None = None
    spilled_chunks: int = 0
    spill_bytes_written: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "format": self.format,
            "path": self.path,
            "chunk_rows": self.chunk_rows,
            "chunks": self.chunks,
            "rows": self.rows,
            "transactions": self.transactions,
            "distinct_items": self.distinct_items,
            "bytes_total": self.bytes_total,
            "bytes_read": self.bytes_read,
            "bytes_decoded": self.bytes_decoded,
            "bytes_read_reduction": self.bytes_read_reduction,
            "bytes_decoded_reduction": self.bytes_decoded_reduction,
            "columns_total": self.columns_total,
            "columns_read": self.columns_read,
            "memory_budget_bytes": self.memory_budget_bytes,
            "spilled_chunks": self.spilled_chunks,
            "spill_bytes_written": self.spill_bytes_written,
            **self.extra,
        }


class EncodedDataset:
    """A dictionary-encoded ``SALES`` relation, ready to mine.

    Physically: the :class:`ItemCatalog`, the flat encoded item column
    (resident, or as spilled :class:`Partition` chunks until first
    use), and the ``(trans_ids, run_lengths)`` run-length framing.
    ``run_lengths[i]`` rows of ``items`` belong to ``trans_ids[i]``;
    a zero run length is an empty transaction (it still counts toward
    the support denominator).

    The duck-typed surface the shared Figure-4 loop needs —
    ``num_transactions`` and ``absolute_support`` — is provided here,
    so engines whose kernels accept the columnar form
    (``streaming_ingest`` capability) mine this object directly;
    :meth:`database` bridges to every other engine by materializing
    Python transaction objects.
    """

    __slots__ = (
        "catalog",
        "base",
        "run_lengths",
        "trans_ids",
        "stats",
        "generation",
        "_items",
        "_partitions",
        "_num_rows",
        "_spill_root",
        "_owns_spill_root",
    )

    def __init__(
        self,
        catalog: ItemCatalog,
        *,
        items: array | None,
        partitions: list[Partition] | None = None,
        run_lengths: array,
        trans_ids: array,
        stats: IngestStats | None = None,
        num_rows: int | None = None,
        spill_root: Path | None = None,
        owns_spill_root: bool = False,
        generation: int = 0,
    ) -> None:
        self.catalog = catalog
        self.base = len(catalog) + 1
        self.run_lengths = run_lengths
        self.trans_ids = trans_ids
        self.stats = stats
        #: Monotonic append counter: 0 for a fresh encode, bumped by
        #: every :meth:`append_chunks`.  Result caches key on it so an
        #: append can never serve pre-append patterns.
        self.generation = generation
        self._items = items
        self._partitions = list(partitions or [])
        if num_rows is None:
            num_rows = (len(items) if items is not None else 0) + sum(
                partition.num_rows for partition in self._partitions
            )
        self._num_rows = num_rows
        self._spill_root = spill_root
        self._owns_spill_root = owns_spill_root

    # -- database-shaped surface ---------------------------------------------------

    @property
    def num_transactions(self) -> int:
        """Support denominator: every transaction, including empty ones."""
        return len(self.trans_ids)

    @property
    def num_sales_rows(self) -> int:
        """``|R_1|``: total encoded ``(trans_id, item)`` rows."""
        return self._num_rows

    def absolute_support(self, minimum_support: float | int) -> int:
        """Same semantics as :meth:`TransactionDatabase.absolute_support`."""
        return absolute_support_threshold(
            minimum_support, self.num_transactions
        )

    # -- the physical columns ------------------------------------------------------

    @property
    def items(self) -> array:
        """The encoded item column (merges spilled chunks on first access).

        Materializing consumes the spill files — they are scratch, and
        once their rows are resident there is nothing left to read from
        them — so the ingest spill directory is cleaned up here.
        """
        if self._partitions:
            merged = _column()
            for partition in self._partitions:
                for chunk in partition.load():
                    merged.frombytes(chunk.keys.tobytes())
                partition.delete()
            if self._items is not None:
                merged.extend(self._items)
            self._items = merged
            self._partitions = []
            self._cleanup_spill_root()
        if self._items is None:
            self._items = _column()
        return self._items

    def sales_index(self) -> SalesIndex:
        """The extension index over this dataset's ``R_1`` columns."""
        return SalesIndex(
            self.items,
            base=self.base,
            run_lengths=self.run_lengths,
            trans_ids=self.trans_ids,
        )

    def sales_relation(self) -> InstanceRelation:
        """``R_1`` as an :class:`InstanceRelation`, index attached.

        Byte-identical to what
        :meth:`InstanceRelation.sales_from_database` builds from the
        equivalent whole-file database — the equivalence suite holds
        it to that.
        """
        return InstanceRelation.sales_from_columns(
            self.items,
            base=self.base,
            run_lengths=self.run_lengths,
            trans_ids=self.trans_ids,
        )

    def iter_item_chunks(self):
        """Yield the encoded item column in its physical pieces.

        Spilled chunks stream one at a time without merging — the seam
        the incremental-mining work builds on.  Does not consume the
        spill files.
        """
        for partition in self._partitions:
            for chunk in partition.load():
                yield chunk.keys
        if self._items is not None and (self._partitions or self._items):
            yield self._items

    # -- appends -------------------------------------------------------------------

    def append_chunks(
        self,
        source: ChunkSource,
        *,
        memory_budget_bytes: int | None = None,
    ) -> dict[str, Any]:
        """Stream-encode ``source`` onto the end of this dataset, in place.

        The delta pass reuses the whole streaming-encode discipline:
        new transactions are provisionally encoded against a
        :class:`CatalogBuilder` pre-seeded with the existing labels,
        and the final sorted remap restores the id-order invariant for
        the *union* catalog.  When new labels sort between existing
        ones, the existing encoded columns (resident tail and spilled
        chunks alike) are re-gathered through the ``old id -> new id``
        map, so the result is byte-identical to a from-scratch encode
        of the concatenated input.  Appended trans_ids must be strictly
        greater than every existing one (the same ascending-groups
        contract a single file obeys); violations raise a typed
        :class:`~repro.errors.IngestError` before anything mutates.

        Bumps :attr:`generation` and returns the append telemetry
        (also recorded under ``stats.extra["appends"]``).
        """
        base_last = (
            int(self.trans_ids[-1]) if len(self.trans_ids) else None
        )
        encoder = _StreamEncoder(memory_budget_bytes, self._spill_root)
        encoder.file_prefix = f"append-{self.generation + 1:03d}-r1"
        encoder.last_tid = base_last
        encoder.row_offset = self._num_rows
        old_items = len(self.catalog)
        try:
            # Seed every existing label so the rebuilt catalog covers the
            # union even when the delta never mentions an old item.
            encoder.builder.encode(self.catalog.labels())
            for chunk in source.iter_columns():
                encoder.add_rows(chunk.trans_ids, chunk.items)
                if chunk.empty_trans_ids:
                    encoder.empty_tids.extend(chunk.empty_trans_ids)
                encoder.maybe_spill()
            encoder.finish_groups()
            encoder.merge_empty_transactions()
            if (
                base_last is not None
                and len(encoder.trans_ids)
                and encoder.trans_ids[0] <= base_last
            ):
                # Grouped rows fail inside add_rows; this catches empty
                # transactions merged in front of the delta.
                raise IngestError(
                    f"appended trans_ids must be strictly greater than "
                    f"the existing ones; trans_id {encoder.trans_ids[0]!r} "
                    f"arrived after {base_last!r}"
                )
            catalog = encoder.remap()
        except BaseException:
            for partition in encoder.partitions:
                partition.delete()
            if encoder.owns_spill_root and encoder.spill_root is not None:
                try:
                    encoder.spill_root.rmdir()
                except OSError:
                    pass
            raise

        # From here on only infallible column splices mutate the dataset.
        old_to_new = [0] + [
            catalog.id_of(self.catalog.label_of(old_id))
            for old_id in range(1, old_items + 1)
        ]
        identity = old_to_new == list(range(old_items + 1))
        if not identity:
            if self._items:
                self._items = _remap_column(self._items, old_to_new)
            for partition in self._partitions:
                pieces = []
                for chunk in partition.load():
                    remapped = InstanceRelation(
                        None,
                        None,
                        last_sid=chunk.last_sid,
                        keys=_remap_column(chunk.keys, old_to_new),
                        k=1,
                    )
                    pieces.append(remapped.to_chunk_bytes())
                partition.path.write_bytes(b"".join(pieces))
        if encoder.spill_root is not None and self._spill_root is None:
            self._spill_root = encoder.spill_root
            self._owns_spill_root = encoder.owns_spill_root
        if encoder.partitions and self._items:
            # Physical order is partitions-then-resident; a resident base
            # tail must therefore spill before delta partitions land.
            relation = InstanceRelation(
                None,
                None,
                last_sid=range(
                    self._num_rows - len(self._items), self._num_rows
                ),
                keys=self._items,
                k=1,
            )
            path = (
                self._spill_root
                / f"append-{self.generation + 1:03d}-base-tail.chunks"
            )
            path.write_bytes(relation.to_chunk_bytes())
            self._partitions.append(
                Partition(1, num_rows=len(self._items), path=path)
            )
            self._items = None
        self._partitions.extend(encoder.partitions)
        if self._items is None:
            self._items = encoder.items
        else:
            self._items.extend(encoder.items)
        self.trans_ids.extend(encoder.trans_ids)
        self.run_lengths.extend(encoder.run_lengths)
        delta_rows = encoder.row_offset + len(encoder.items) - self._num_rows
        self._num_rows = encoder.row_offset + len(encoder.items)
        self.catalog = catalog
        self.base = len(catalog) + 1
        self.generation += 1

        decode_stats = source.stats
        info = {
            "generation": self.generation,
            "path": decode_stats.path,
            "format": decode_stats.format,
            "rows": delta_rows,
            "transactions": len(encoder.trans_ids),
            "new_items": len(catalog) - old_items,
            "remapped_base_ids": not identity,
            "spilled_chunks": encoder.spilled_chunks,
        }
        if self.stats is not None:
            stats = self.stats
            stats.chunks += decode_stats.chunks
            stats.rows += decode_stats.rows
            stats.transactions = self.num_transactions
            stats.distinct_items = len(catalog)
            stats.bytes_total += decode_stats.bytes_total
            stats.bytes_read += decode_stats.bytes_read
            stats.bytes_decoded += decode_stats.bytes_decoded
            stats.spilled_chunks += encoder.spilled_chunks
            stats.spill_bytes_written += encoder.spill_bytes_written
            stats.extra.setdefault("appends", []).append(info)
        return info

    # -- bridges to the object world -----------------------------------------------

    def database(self, *, decoded: bool = False) -> TransactionDatabase:
        """Materialize the classic :class:`TransactionDatabase` form.

        With ``decoded=False`` items are the catalog ids (what
        ``database.encoded()`` would have produced); with
        ``decoded=True`` they are the original labels — byte-identical
        to the whole-file reader's output, which is what lets engines
        without the ``streaming_ingest`` capability mine a streamed
        file transparently.
        """
        items = self.items
        label_of = self.catalog.label_of
        transactions = []
        offset = 0
        for trans_id, run_length in zip(self.trans_ids, self.run_lengths):
            encoded = tuple(items[offset : offset + run_length])
            offset += run_length
            transactions.append(
                Transaction(
                    trans_id,
                    tuple(map(label_of, encoded)) if decoded else encoded,
                )
            )
        return TransactionDatabase(transactions)

    def close(self) -> None:
        """Delete any remaining spill chunks and the owned spill root."""
        for partition in self._partitions:
            partition.delete()
        self._partitions = []
        self._cleanup_spill_root()

    def _cleanup_spill_root(self) -> None:
        if self._owns_spill_root and self._spill_root is not None:
            try:
                self._spill_root.rmdir()
            except OSError:
                pass
            self._spill_root = None

    def __repr__(self) -> str:
        return (
            f"EncodedDataset(transactions={self.num_transactions}, "
            f"rows={self.num_sales_rows}, items={len(self.catalog)}, "
            f"spilled={len(self._partitions)})"
        )


class _StreamEncoder:
    """The bounded single-pass encoder behind :func:`stream_encode`."""

    def __init__(
        self,
        memory_budget_bytes: int | None,
        spill_dir: str | os.PathLike | None,
    ) -> None:
        if memory_budget_bytes is not None and (
            isinstance(memory_budget_bytes, bool)
            or not isinstance(memory_budget_bytes, int)
            or memory_budget_bytes < 1
        ):
            raise IngestError(
                "memory_budget_bytes must be a positive integer or None; "
                f"got {memory_budget_bytes!r}"
            )
        self.builder = ItemCatalog.builder()
        self.items = _column()
        self.run_lengths = _column()
        self.trans_ids = _column()
        self.partitions: list[Partition] = []
        self.empty_tids: list[int] = []
        # The trailing basket, as (trans_ids, labels) pieces of the
        # chunks it spans so far.
        self.carry: list[tuple[np.ndarray, Any]] = []
        self.last_tid: int | None = None
        self.row_offset = 0
        self.spilled_chunks = 0
        self.spill_bytes_written = 0
        # Spill at half the budget: the remap pass (and a mid-flight
        # chunk) must fit beside the resident column inside 2x budget.
        self.budget = memory_budget_bytes
        self.spill_threshold = (
            max(8, memory_budget_bytes // 2)
            if memory_budget_bytes is not None
            else None
        )
        self.spill_dir_option = spill_dir
        self.spill_root: Path | None = None
        self.owns_spill_root = False
        # Spill-file name prefix; append passes use a generation-tagged
        # prefix so delta chunks never collide with the base files in a
        # shared spill root.
        self.file_prefix = "ingest-r1"

    # -- transaction grouping ------------------------------------------------------

    def add_rows(self, trans_ids, labels) -> None:
        """Group one chunk's rows into baskets and encode the complete ones.

        ``trans_ids`` and ``labels`` are parallel columns: int64 numpy
        arrays from the integer decode, or Python lists.  Rows of the
        chunk's last ``trans_id`` may continue in the next chunk, so
        that basket is carried over until a later ``trans_id`` (or
        :meth:`finish_groups`) closes it.
        """
        tids = _tid_column(trans_ids)
        if not len(tids):
            return
        self._check_ascending(tids)
        if self.carry and self.carry[0][0][0] == tids[-1]:
            self.carry.append((tids, labels))
            return
        cut = int(np.searchsorted(tids, tids[-1]))
        if self.carry or cut:
            self._encode_baskets(
                *_concat_pieces([*self.carry, (tids[:cut], labels[:cut])])
            )
        self.carry = [(tids[cut:], labels[cut:])]

    def _check_ascending(self, tids: np.ndarray) -> None:
        if self.carry:
            # The carried basket may go on; an earlier trans_id may not.
            previous = int(self.carry[0][0][0])
            if tids[0] < previous:
                raise _descending(int(tids[0]), previous)
        elif self.last_tid is not None and tids[0] <= self.last_tid:
            raise _descending(int(tids[0]), self.last_tid)
        steps = np.flatnonzero(tids[1:] < tids[:-1])
        if len(steps):
            step = int(steps[0])
            raise _descending(int(tids[step + 1]), int(tids[step]))

    def _encode_baskets(self, tids: np.ndarray, labels) -> None:
        """Normalize and provisionally encode whole baskets, in bulk.

        Labels become chunk-local codes in sorted label order; each
        basket's codes are sorted and de-duplicated with one composite
        ``basket * width + code`` sort, skipped when every basket is
        already strictly ascending.  The chunk's distinct labels go
        through the :class:`CatalogBuilder` once, and a gather turns
        codes into provisional ids.
        """
        uniques, codes = _label_codes(labels)
        starts = np.empty(len(tids), dtype=bool)
        starts[0] = True
        np.not_equal(tids[1:], tids[:-1], out=starts[1:])
        basket_tids = tids[starts]
        if not (starts[1:] | (codes[1:] > codes[:-1])).all():
            width = len(uniques)
            keys = np.unique((np.cumsum(starts) - 1) * width + codes)
            baskets, codes = np.divmod(keys, width)
            starts = np.empty(len(keys), dtype=bool)
            starts[0] = True
            np.not_equal(baskets[1:], baskets[:-1], out=starts[1:])
        run_lengths = np.diff(np.flatnonzero(starts), append=len(codes))
        provisional = np.asarray(self.builder.encode(uniques), dtype=np.int64)
        self.items.frombytes(provisional[codes].tobytes())
        self.run_lengths.frombytes(run_lengths.astype(np.int64).tobytes())
        self.trans_ids.frombytes(basket_tids.tobytes())
        self.last_tid = int(basket_tids[-1])

    def finish_groups(self) -> None:
        if self.carry:
            self._encode_baskets(*_concat_pieces(self.carry))
            self.carry = []

    # -- spilling ------------------------------------------------------------------

    def maybe_spill(self) -> None:
        if (
            self.spill_threshold is None
            or len(self.items) * self.items.itemsize < self.spill_threshold
        ):
            return
        self._spill_resident()

    def _spill_resident(self) -> None:
        if not self.items:
            return
        if self.spill_root is None:
            if self.spill_dir_option is None:
                self.spill_root = Path(
                    tempfile.mkdtemp(prefix="repro-ingest-")
                )
                self.owns_spill_root = True
            else:
                self.spill_root = Path(self.spill_dir_option)
                self.spill_root.mkdir(parents=True, exist_ok=True)
        relation = InstanceRelation(
            None,
            None,
            last_sid=range(self.row_offset, self.row_offset + len(self.items)),
            keys=self.items,
            k=1,
        )
        blob = relation.to_chunk_bytes()
        path = (
            self.spill_root
            / f"{self.file_prefix}-{len(self.partitions):06d}.chunks"
        )
        path.write_bytes(blob)
        self.partitions.append(
            Partition(1, num_rows=len(self.items), path=path)
        )
        self.spilled_chunks += 1
        self.spill_bytes_written += len(blob)
        self.row_offset += len(self.items)
        self.items = _column()

    # -- finalization --------------------------------------------------------------

    def merge_empty_transactions(self) -> None:
        """Fold zero-item transactions into the run-length framing.

        Both sequences are ascending (the ordering contract), so a
        ``searchsorted`` merge reproduces exactly the whole-file order;
        any duplicate or out-of-order empty trans_id fails typed here.
        """
        if not self.empty_tids:
            return
        empties = _tid_column(self.empty_tids)
        steps = np.flatnonzero(empties[1:] <= empties[:-1])
        if len(steps):
            step = int(steps[0])
            raise IngestError(
                f"streaming ingest needs rows grouped by ascending "
                f"trans_id; empty trans_id {int(empties[step + 1])!r} "
                f"arrived after {int(empties[step])!r}"
            )
        tids = _as_int64(self.trans_ids)
        slots = np.searchsorted(tids, empties)
        if len(tids):
            clashes = tids[np.minimum(slots, len(tids) - 1)] == empties
            if clashes.any():
                raise IngestError(
                    f"duplicate trans_id {int(empties[clashes.argmax()])!r}: "
                    "appears both empty and with items"
                )
        self.trans_ids = _column()
        self.trans_ids.frombytes(np.insert(tids, slots, empties).tobytes())
        runs = np.insert(_as_int64(self.run_lengths), slots, 0)
        self.run_lengths = _column()
        self.run_lengths.frombytes(runs.tobytes())

    def remap(self) -> ItemCatalog:
        """Resolve provisional ids to the final sorted-order catalog ids."""
        try:
            catalog, remap = self.builder.build()
        except TypeError:
            raise _mixed_types(self.builder.labels()) from None
        self.items = _remap_column(self.items, remap)
        for partition in self.partitions:
            pieces = []
            for chunk in partition.load():
                remapped = InstanceRelation(
                    None,
                    None,
                    last_sid=chunk.last_sid,
                    keys=_remap_column(chunk.keys, remap),
                    k=1,
                )
                pieces.append(remapped.to_chunk_bytes())
            blob = b"".join(pieces)
            partition.path.write_bytes(blob)
            self.spill_bytes_written += len(blob)
        return catalog


def _descending(trans_id: int, previous: int) -> IngestError:
    return IngestError(
        f"streaming ingest needs rows grouped by ascending "
        f"trans_id; trans_id {trans_id!r} arrived after "
        f"{previous!r} (for unsorted data use the "
        f"whole-file readers in repro.data.io)"
    )


def _mixed_types(labels) -> IngestError:
    names = sorted({type(label).__name__ for label in labels})
    return IngestError(
        "transaction items must be mutually comparable; found "
        "mixed types: " + ", ".join(names)
    )


def _tid_column(trans_ids) -> np.ndarray:
    """``trans_ids`` as an int64 array (list input goes through ``array``)."""
    if isinstance(trans_ids, np.ndarray):
        return trans_ids
    try:
        return np.frombuffer(_column(trans_ids), dtype=np.int64)
    except (OverflowError, TypeError) as exc:
        raise IngestError(
            f"trans_ids must be integers that fit 64 bits: {exc}"
        ) from None


def _label_codes(labels) -> tuple[list, np.ndarray]:
    """``(sorted distinct labels, code of every label)`` for one batch.

    Codes index the sorted list, so code order is label order.  Labels
    that cannot be ordered together fail typed.  Integer labels whose
    span is at most twice their number are coded by direct addressing:
    a presence table over the span, its running count, and one gather.
    """
    if isinstance(labels, np.ndarray):
        if len(labels) and labels.dtype.kind == "i":
            low = int(labels.min())
            span = int(labels.max()) - low + 1
            if span <= 2 * len(labels):
                offsets = labels - low
                present = np.zeros(span, dtype=bool)
                present[offsets] = True
                codes = np.cumsum(present, dtype=np.int64) - 1
                uniques = np.flatnonzero(present) + low
                return uniques.tolist(), codes[offsets]
        uniques, codes = np.unique(labels, return_inverse=True)
        return uniques.tolist(), codes.reshape(-1).astype(np.int64, copy=False)
    try:
        uniques = sorted(set(labels))
    except TypeError:
        raise _mixed_types(labels) from None
    index = {label: code for code, label in enumerate(uniques)}
    codes = np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    return uniques, codes


def _concat_pieces(pieces: list[tuple[np.ndarray, Any]]):
    """Join ``(trans_ids, labels)`` pieces; labels stay int64 if all are."""
    return (
        join_columns([piece[0] for piece in pieces]),
        join_columns([piece[1] for piece in pieces]),
    )


def _remap_column(values, remap: list[int]) -> array:
    """Gather ``remap[value]`` for every value, as a fresh int64 column."""
    out = _column()
    out.frombytes(
        np.asarray(remap, dtype=np.int64)[_as_int64(values)].tobytes()
    )
    return out


def stream_encode(
    source: ChunkSource,
    *,
    memory_budget_bytes: int | None = None,
    spill_dir: str | os.PathLike | None = None,
) -> EncodedDataset:
    """Dictionary-encode a chunked source into an :class:`EncodedDataset`.

    One pass over the input: transactions are normalized (labels
    de-duplicated and sorted) and provisionally encoded as they
    complete; with a ``memory_budget_bytes`` the growing encoded column
    spills as :class:`Partition` chunks whenever it reaches half the
    budget, so peak resident ingest state is O(chunk + catalog).  The
    final remap pass (provisional first-appearance ids to sorted
    catalog ids) restores the :class:`ItemCatalog` id-order invariant,
    making the product byte-identical to the whole-file encode.

    Raises
    ------
    IngestError
        Malformed input (from the decoder), labels that cannot be
        ordered together, rows not grouped by ascending ``trans_id``,
        a duplicate group, or an invalid ``memory_budget_bytes``.
    """
    encoder = _StreamEncoder(memory_budget_bytes, spill_dir)
    for chunk in source.iter_columns():
        encoder.add_rows(chunk.trans_ids, chunk.items)
        if chunk.empty_trans_ids:
            encoder.empty_tids.extend(chunk.empty_trans_ids)
        encoder.maybe_spill()
    encoder.finish_groups()
    encoder.merge_empty_transactions()
    catalog = encoder.remap()

    decode_stats = source.stats
    stats = IngestStats(
        format=decode_stats.format,
        path=decode_stats.path,
        chunk_rows=source.chunk_rows,
        chunks=decode_stats.chunks,
        rows=decode_stats.rows,
        transactions=len(encoder.trans_ids),
        distinct_items=len(catalog),
        bytes_total=decode_stats.bytes_total,
        bytes_read=decode_stats.bytes_read,
        bytes_decoded=decode_stats.bytes_decoded,
        bytes_read_reduction=round(decode_stats.bytes_read_reduction, 4),
        bytes_decoded_reduction=round(
            decode_stats.bytes_decoded_reduction, 4
        ),
        columns_total=decode_stats.columns_total,
        columns_read=decode_stats.columns_read,
        memory_budget_bytes=memory_budget_bytes,
        spilled_chunks=encoder.spilled_chunks,
        spill_bytes_written=encoder.spill_bytes_written,
    )
    return EncodedDataset(
        catalog,
        items=encoder.items,
        partitions=encoder.partitions,
        run_lengths=encoder.run_lengths,
        trans_ids=encoder.trans_ids,
        stats=stats,
        num_rows=encoder.row_offset + len(encoder.items),
        spill_root=encoder.spill_root,
        owns_spill_root=encoder.owns_spill_root,
    )


def load_dataset(
    path: str | os.PathLike,
    *,
    input_format: str | None = "auto",
    chunk_rows: int | None = DEFAULT_CHUNK_ROWS,
    memory_budget_bytes: int | None = None,
    spill_dir: str | os.PathLike | None = None,
) -> EncodedDataset:
    """Stream-encode a transaction file in one call.

    ``input_format`` of ``"auto"`` sniffs magic bytes and extension
    (see :func:`repro.data.formats.detect_format`); ``parquet`` and
    ``arrow`` need the optional ``pyarrow`` dependency and fail typed
    without it.
    """
    source = open_chunk_source(
        path, input_format=input_format, chunk_rows=chunk_rows
    )
    return stream_encode(
        source,
        memory_budget_bytes=memory_budget_bytes,
        spill_dir=spill_dir,
    )
