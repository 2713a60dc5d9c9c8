"""The basket chunk decoder: ``trans_id: item item ...`` lines.

The parsing lives in :func:`iter_basket_transactions`, shared with the
whole-file reader :func:`repro.data.io.read_basket_file` (one parser,
two consumers).  A basket line *is* exactly the projected data — no
extra columns exist — so read and decoded bytes both equal the file
size.

A basket transaction may legitimately be empty (``"7:"`` with no
items); it contributes no ``(trans_id, item)`` rows but still counts
toward the support denominator, so the chunk source surfaces such
trans_ids through :attr:`ColumnChunk.empty_trans_ids`.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from pathlib import Path

from repro.data.formats import (
    ChunkSource,
    ColumnChunk,
    parse_item,
    register_decoder,
)
from repro.errors import IngestError

__all__ = ["BasketChunkSource", "iter_basket_transactions"]


def iter_basket_transactions(
    path: str | os.PathLike,
) -> Iterator[tuple[int, tuple]]:
    """Parse a basket file into ``(trans_id, items)`` pairs, in file order.

    Blank lines and ``#`` comment lines are ignored; malformed lines
    raise :class:`~repro.errors.IngestError` (a ``ValueError``) with the
    offending line number.  Items are not
    de-duplicated or sorted here — that is the consumer's contract
    (:class:`TransactionDatabase` construction, or the streaming
    encoder's per-transaction normalization).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, separator, tail = line.partition(":")
            if not separator:
                raise IngestError(
                    f"{path}:{line_no}: expected 'trans_id: items', "
                    f"got {line!r}"
                )
            try:
                trans_id = int(head.strip())
            except ValueError as exc:
                raise IngestError(
                    f"{path}:{line_no}: bad trans_id {head.strip()!r}"
                ) from exc
            yield trans_id, tuple(parse_item(token) for token in tail.split())


@register_decoder
class BasketChunkSource(ChunkSource):
    """Chunked ``(trans_id, item)`` batches from a basket file.

    Chunk boundaries fall only *between* transactions — a basket line
    is parsed whole — so a chunk may exceed ``chunk_rows`` by at most
    one transaction's length.
    """

    format = "basket"

    def _decode(self) -> Iterator[ColumnChunk]:
        stats = self.stats
        stats.bytes_total = self.path.stat().st_size
        stats.bytes_read = stats.bytes_total
        stats.bytes_decoded = stats.bytes_total
        stats.columns_total = 2
        stats.columns_read = 2
        limit = self.chunk_rows
        trans_ids: list[int] = []
        items: list = []
        empties: list[int] = []
        for trans_id, txn_items in iter_basket_transactions(self.path):
            if not txn_items:
                empties.append(trans_id)
            else:
                trans_ids.extend([trans_id] * len(txn_items))
                items.extend(txn_items)
            if limit is not None and len(trans_ids) >= limit:
                yield self._emit(trans_ids, items, tuple(empties))
                trans_ids = []
                items = []
                empties = []
        if trans_ids or empties:
            yield self._emit(trans_ids, items, tuple(empties))
