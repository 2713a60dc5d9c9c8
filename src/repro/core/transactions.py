"""Transaction model: the ``SALES(trans_id, item)`` relation of the paper.

The paper (Section 2) stores customer transactions in a relational table

    SALES(trans_id, item)

with one row per item sold in a transaction.  This module provides the
in-memory equivalent used by every algorithm in this package:

* :class:`Transaction` — one customer transaction (a trans_id plus the set
  of items purchased, kept sorted so lexicographic pattern generation is a
  simple scan).
* :class:`TransactionDatabase` — an ordered collection of transactions with
  the derived statistics the paper's evaluation reports (number of
  transactions, number of ``SALES`` rows, distinct items).
* :class:`ItemCatalog` — a bijection between external item labels (strings
  such as ``"bread"`` or the paper's ``"A" ... "H"``) and dense integer ids,
  required by the paged storage engine where every field is a 4-byte integer
  (Section 3.2: "item values are represented by integers").

Items may be any totally ordered hashable Python values (strings and ints
are the common cases).  Within one database all items must be mutually
comparable; mixing ``str`` and ``int`` items raises :class:`TypeError` at
construction time rather than deep inside a sort.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CatalogBuilder",
    "Item",
    "ItemCatalog",
    "Transaction",
    "TransactionDatabase",
    "absolute_support_threshold",
    "sales_rows_to_transactions",
]

# An item is any hashable, totally ordered label.  We alias it for
# documentation purposes; Python's typing cannot express "totally ordered".
Item = Hashable


def absolute_support_threshold(
    minimum_support: float | int, num_transactions: int
) -> int:
    """Convert a minimum support into an absolute count threshold.

    The shared semantics of :meth:`TransactionDatabase.absolute_support`
    and :meth:`repro.data.ingest.EncodedDataset.absolute_support`: an
    ``int`` is already an absolute transaction count (applied as-is,
    must be ``>= 1``); a ``float`` is a fraction in ``(0, 1]`` rounded
    up over ``num_transactions`` ("minimum support of 30%" over 10
    transactions means 3).  A threshold of at least 1 is enforced so
    empty patterns never qualify vacuously.
    """
    if isinstance(minimum_support, int) and not isinstance(
        minimum_support, bool
    ):
        if minimum_support < 1:
            raise ValueError(
                "absolute minimum_support must be >= 1, "
                f"got {minimum_support!r}"
            )
        return minimum_support
    if not 0.0 < minimum_support <= 1.0:
        raise ValueError(
            f"minimum_support must be in (0, 1], got {minimum_support!r}"
        )
    return max(1, math.ceil(minimum_support * num_transactions))


@dataclass(frozen=True, slots=True)
class Transaction:
    """One customer transaction: ``trans_id`` plus the items purchased.

    ``items`` is stored as a sorted tuple of distinct items.  Sortedness is
    an invariant relied on throughout the package: SETM generates patterns
    in lexicographic order by scanning suffixes of this tuple.
    """

    trans_id: int
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        try:
            deduped = tuple(sorted(set(self.items)))
        except TypeError as exc:
            names = sorted({type(item).__name__ for item in self.items})
            raise TypeError(
                "transaction items must be mutually comparable; found "
                "mixed types: " + ", ".join(names)
            ) from exc
        if deduped != self.items:
            object.__setattr__(self, "items", deduped)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: Item) -> bool:
        return item in self.items

    def contains_all(self, pattern: Sequence[Item]) -> bool:
        """True when every item of ``pattern`` occurs in this transaction."""
        item_set = set(self.items)
        return all(item in item_set for item in pattern)


class ItemCatalog:
    """Bijective mapping between item labels and dense integer ids.

    Ids are assigned in sorted label order starting from ``first_id`` so
    that *lexicographic order of labels equals numeric order of ids*.  This
    property lets the storage engine and the in-memory algorithms agree on
    what "lexicographically ordered pattern" means.
    """

    def __init__(self, labels: Iterable[Item], *, first_id: int = 1) -> None:
        ordered = sorted(set(labels))
        self._first_id = first_id
        self._id_of: dict[Item, int] = {
            label: first_id + index for index, label in enumerate(ordered)
        }
        self._label_of: dict[int, Item] = {
            item_id: label for label, item_id in self._id_of.items()
        }

    def __len__(self) -> int:
        return len(self._id_of)

    def __contains__(self, label: Item) -> bool:
        return label in self._id_of

    def id_of(self, label: Item) -> int:
        """Integer id for ``label``; raises ``KeyError`` for unknown labels."""
        return self._id_of[label]

    def id_mapping(self) -> dict[Item, int]:
        """The full ``label -> id`` mapping, for bulk encoding hot paths.

        Returns the catalog's own dict so callers can drive C-level
        ``map(mapping.__getitem__, ...)`` passes without a per-item
        method call; treat it as read-only.
        """
        return self._id_of

    def label_of(self, item_id: int) -> Item:
        """Label for ``item_id``; raises ``KeyError`` for unknown ids."""
        return self._label_of[item_id]

    def encode(self, labels: Iterable[Item]) -> tuple[int, ...]:
        """Encode a label sequence to ids, preserving order."""
        return tuple(self._id_of[label] for label in labels)

    def decode(self, ids: Iterable[int]) -> tuple[Item, ...]:
        """Decode an id sequence back to labels, preserving order."""
        return tuple(self._label_of[item_id] for item_id in ids)

    def labels(self) -> list[Item]:
        """All labels in sorted (== id) order."""
        return [self._label_of[i] for i in sorted(self._label_of)]

    @classmethod
    def builder(cls) -> "CatalogBuilder":
        """An incremental bulk-encode builder (see :class:`CatalogBuilder`)."""
        return CatalogBuilder()


class CatalogBuilder:
    """Incremental bulk encoding for inputs read in bounded chunks.

    :class:`ItemCatalog` assigns ids in sorted label order — an
    invariant the pattern-key machinery of :mod:`repro.core.columns`
    relies on (numeric id order must equal lexicographic label order).
    A streaming reader cannot honour that order up front because it has
    not seen all the labels yet, so this builder encodes with
    *provisional* ids in first-appearance order and :meth:`build`
    resolves them: it constructs the final sorted-order catalog and
    returns the ``provisional id -> final id`` remap the caller applies
    to everything it encoded along the way (one vectorizable gather per
    resident or spilled column).

    Provisional ids are 0-based and dense, so the remap is a plain list
    indexable by provisional id.
    """

    __slots__ = ("_provisional", "_labels")

    def __init__(self) -> None:
        self._provisional: dict[Item, int] = {}
        self._labels: list[Item] = []

    def __len__(self) -> int:
        return len(self._labels)

    def labels(self) -> list[Item]:
        """Every registered label, in provisional-id order."""
        return list(self._labels)

    def encode(self, labels: Iterable[Item]) -> list[int]:
        """Provisional ids for ``labels``, registering new ones in bulk."""
        provisional = self._provisional
        out: list[int] = []
        for label in labels:
            pid = provisional.get(label)
            if pid is None:
                pid = len(provisional)
                provisional[label] = pid
                self._labels.append(label)
            out.append(pid)
        return out

    def build(self, *, first_id: int = 1) -> tuple[ItemCatalog, list[int]]:
        """The final catalog plus the ``provisional -> final`` id remap.

        ``remap[pid]`` is the sorted-order id of the label that was
        provisionally encoded as ``pid``; mixing incomparable label
        types raises ``TypeError`` here, exactly as the whole-file
        :class:`ItemCatalog` construction would.
        """
        catalog = ItemCatalog(self._labels, first_id=first_id)
        mapping = catalog.id_mapping()
        remap = [mapping[label] for label in self._labels]
        return catalog, remap


class TransactionDatabase:
    """An ordered collection of :class:`Transaction` objects.

    This is the Python-object view of the paper's ``SALES`` relation.  The
    database is immutable after construction; all mining algorithms treat it
    as read-only input.

    Parameters
    ----------
    transactions:
        Iterable of :class:`Transaction`, or of ``(trans_id, items)`` pairs.
        Transaction ids must be unique; items within a transaction are
        de-duplicated and sorted.
    """

    def __init__(
        self, transactions: Iterable[Transaction | tuple[int, Iterable[Item]]]
    ) -> None:
        normalized: list[Transaction] = []
        seen_ids: set[int] = set()
        for entry in transactions:
            if isinstance(entry, Transaction):
                txn = entry
            else:
                trans_id, items = entry
                txn = Transaction(trans_id, tuple(items))
            if txn.trans_id in seen_ids:
                raise ValueError(f"duplicate trans_id {txn.trans_id!r}")
            seen_ids.add(txn.trans_id)
            normalized.append(txn)
        normalized.sort(key=lambda txn: txn.trans_id)
        self._transactions: tuple[Transaction, ...] = tuple(normalized)
        self._check_item_comparability()

    def _check_item_comparability(self) -> None:
        kinds = {type(item) for txn in self._transactions for item in txn.items}
        if len(kinds) > 1:
            # bool is a subclass of int and compares fine; allow that pair.
            if not all(issubclass(kind, (int, bool)) for kind in kinds):
                names = sorted(kind.__name__ for kind in kinds)
                raise TypeError(
                    "items must be mutually comparable; found mixed types: "
                    + ", ".join(names)
                )

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self._transactions[index]

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return self._transactions == other._transactions

    def __hash__(self) -> int:  # immutable, so hashable
        return hash(self._transactions)

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(num_transactions={self.num_transactions}, "
            f"num_sales_rows={self.num_sales_rows}, "
            f"num_items={len(self.distinct_items())})"
        )

    # -- statistics the paper's evaluation reports --------------------------------

    @property
    def num_transactions(self) -> int:
        """Total number of customer transactions (the support denominator)."""
        return len(self._transactions)

    @property
    def num_sales_rows(self) -> int:
        """Number of rows of the ``SALES`` relation (``|R_1|`` in the paper)."""
        return sum(len(txn) for txn in self._transactions)

    def distinct_items(self) -> list[Item]:
        """Sorted list of distinct items across all transactions."""
        items: set[Item] = set()
        for txn in self._transactions:
            items.update(txn.items)
        return sorted(items)

    def average_transaction_length(self) -> float:
        """Mean number of items per transaction (0.0 for an empty database)."""
        if not self._transactions:
            return 0.0
        return self.num_sales_rows / self.num_transactions

    def item_counts(self) -> dict[Item, int]:
        """Transaction count per item (the unfiltered ``C_1`` of Figure 4)."""
        counts: dict[Item, int] = {}
        for txn in self._transactions:
            for item in txn.items:
                counts[item] = counts.get(item, 0) + 1
        return counts

    # -- support handling ----------------------------------------------------------

    def absolute_support(self, minimum_support: float | int) -> int:
        """Convert a minimum support into an absolute count threshold.

        A ``float`` is a fraction: the paper's worked example treats
        "minimum support of 30%" over 10 transactions as "3 transactions",
        i.e. ``ceil(fraction * N)``; a pattern qualifies when
        ``count >= threshold``.  An ``int`` is already an absolute
        transaction count and is applied as-is — this is what lets every
        engine honour ``MiningConfig(support=3)`` without a lossy
        count-to-fraction round trip.  A threshold of at least 1 is
        enforced so empty patterns never qualify vacuously.
        """
        return absolute_support_threshold(
            minimum_support, self.num_transactions
        )

    # -- relational view -----------------------------------------------------------

    def sales_rows(self) -> Iterator[tuple[int, Item]]:
        """Yield ``(trans_id, item)`` rows: the paper's ``SALES`` relation.

        Rows are emitted ordered by ``(trans_id, item)``, i.e. the order a
        clustered relational scan would produce after inserting whole
        transactions — exactly the order SETM's first merge-scan needs.
        """
        for txn in self._transactions:
            for item in txn.items:
                yield (txn.trans_id, item)

    def catalog(self, *, first_id: int = 1) -> ItemCatalog:
        """Build an :class:`ItemCatalog` over this database's items."""
        return ItemCatalog(self.distinct_items(), first_id=first_id)

    def encoded(self) -> tuple["TransactionDatabase", ItemCatalog]:
        """Return an integer-item copy of this database plus its catalog.

        The paged storage engine stores 4-byte integer fields only
        (Section 3.2); this is the bridge from labelled data to that world.
        """
        catalog = self.catalog()
        encoded = TransactionDatabase(
            (txn.trans_id, catalog.encode(txn.items)) for txn in self._transactions
        )
        return encoded, catalog

    def filter_items(self, keep: Iterable[Item]) -> "TransactionDatabase":
        """Project every transaction onto ``keep`` (dropping empty ones).

        Used by the customer-class extension and by tests; not part of the
        paper's algorithm (SETM deliberately does *not* pre-filter items).
        """
        keep_set = set(keep)
        projected = []
        for txn in self._transactions:
            retained = tuple(item for item in txn.items if item in keep_set)
            if retained:
                projected.append((txn.trans_id, retained))
        return TransactionDatabase(projected)


def sales_rows_to_transactions(
    rows: Iterable[tuple[int, Item]]
) -> TransactionDatabase:
    """Group ``(trans_id, item)`` rows into a :class:`TransactionDatabase`.

    The inverse of :meth:`TransactionDatabase.sales_rows`.  Duplicate
    ``(trans_id, item)`` rows collapse (the relation is a set).
    """
    grouped: dict[int, set[Item]] = {}
    for trans_id, item in rows:
        grouped.setdefault(trans_id, set()).add(item)
    return TransactionDatabase(
        (trans_id, tuple(items)) for trans_id, items in grouped.items()
    )
