"""The CSV chunk decoder: projected-field decoding, columnar for integers.

A ``SALES`` CSV needs a header naming (at least) the two projected
columns ``trans_id`` and ``item``; any other columns are carried past
without ever being converted to Python values, and the saving shows up
in ``stats.bytes_decoded`` versus ``stats.bytes_total``.  Row-major
formats cannot skip bytes on disk, so ``bytes_read`` equals the file
size — the *read* saving belongs to the columnar formats.

The file is read in blocks of lines.  A block whose projected fields
are all plain integers — the paper's ``SALES`` relation with integer
items — is parsed as bytes with numpy into two int64 columns
(:func:`parse_integer_block`); no Python object is made per row.  The
parse is strict: it accepts only ASCII tokens ``-?[0-9]{1,18}``, for
which ``int()`` gives the same value and which always fit int64.  Any
other block (labels, quotes, spaces, ``+5``, ``1_000``, longer numbers,
non-ASCII text, bare ``\\r`` line ends, rows of another width) is
decoded by :mod:`csv` exactly as a whole-file :mod:`csv` pass would,
one block at a time.  A quote sends the rest of the file through
:mod:`csv`, since a quoted field may span lines.  Both paths produce the
same chunks, values, :class:`~repro.data.formats.DecodeStats` and
errors.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from itertools import chain

import numpy as np

from repro.data.formats import (
    ChunkSource,
    ColumnChunk,
    join_columns,
    parse_item,
    register_decoder,
)
from repro.errors import IngestError

__all__ = ["CsvChunkSource", "parse_integer_block"]

#: Rows per parsed block when ``chunk_rows`` does not ask for fewer:
#: enough to amortize numpy's per-call cost, few enough to bound the
#: transient parse state.  Blocks are read by size, at
#: ``_BLOCK_ROW_CHARS`` characters a row, then extended to a line end.
BLOCK_ROWS = 16384
#: Smallest block: tiny ``chunk_rows`` still parse in useful batches.
MIN_BLOCK_ROWS = 1024
_BLOCK_ROW_CHARS = 8

_NEWLINE, _COMMA, _MINUS, _ZERO = b"\n"[0], b","[0], b"-"[0], b"0"[0]
#: Every integer of at most 18 digits fits int64.
_MAX_DIGITS = 18


def parse_integer_block(
    data: bytes, num_columns: int, tid_col: int, item_col: int
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Parse ``\\n``-terminated CSV lines into ``(trans_ids, items)`` columns.

    Returns the two int64 columns plus the decoded byte count (both
    projected fields and their two separators per row, as the
    :mod:`csv` path counts them), or ``None`` when the block is not
    strictly integer: a non-blank line with other than ``num_columns``
    fields, a projected field that is not ``-?[0-9]{1,18}``, or a field
    longer than :func:`csv.field_size_limit`.  Blank lines are skipped,
    as :mod:`csv` skips them.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    # The padding lets the digit loop of _parse_fields read past the
    # last field without bounds checks.
    padded = np.frombuffer(data + b"\n" * _MAX_DIGITS, dtype=np.uint8)
    buf = padded[: len(data)]
    is_newline = buf == _NEWLINE
    ends = np.flatnonzero(is_newline | (buf == _COMMA))
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    line_end = is_newline[ends]
    # A blank line is one empty field that starts a line and ends it.
    blank = line_end & (starts == ends)
    blank[1:] &= line_end[:-1]
    if blank.any():
        keep = ~blank
        starts, ends, line_end = starts[keep], ends[keep], line_end[keep]
    if len(ends) % num_columns:
        return None
    grid = line_end.reshape(-1, num_columns)
    if not grid[:, -1].all() or grid[:, :-1].any():
        return None
    if len(ends) and int((ends - starts).max()) > csv.field_size_limit():
        return None
    decoded = 2 * len(grid)
    columns = []
    for column in (tid_col, item_col):
        field_starts = starts[column::num_columns]
        field_ends = ends[column::num_columns]
        values = _parse_fields(padded, field_starts, field_ends)
        if values is None:
            return None
        columns.append(values)
        decoded += int((field_ends - field_starts).sum())
    trans_ids, items = columns
    return trans_ids, items, decoded


def _parse_fields(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """int64 values of the fields ``buf[starts:ends]``, or ``None``.

    ``buf`` must hold at least :data:`_MAX_DIGITS` bytes past the last
    field, so digit positions never leave it.
    """
    negative = buf[starts] == _MINUS
    position = starts + negative
    digits = ends - position
    values = np.zeros(len(starts), dtype=np.int64)
    if not len(starts):
        return values
    if int(digits.min()) < 1 or int(digits.max()) > _MAX_DIGITS:
        return None
    for offset in range(int(digits.max())):
        live = digits > offset
        digit = buf[position] - np.uint8(_ZERO)
        if ((digit > 9) & live).any():
            return None
        np.multiply(values, 10, out=values, where=live)
        np.add(values, digit, out=values, where=live)
        position += 1
    np.negative(values, out=values, where=negative)
    return values


@register_decoder
class CsvChunkSource(ChunkSource):
    """Chunked ``(trans_id, item)`` batches from a headered CSV."""

    format = "csv"

    def _decode(self) -> Iterator[ColumnChunk]:
        stats = self.stats
        stats.bytes_total = self.path.stat().st_size
        stats.bytes_read = stats.bytes_total
        limit = self.chunk_rows
        block_chars = _BLOCK_ROW_CHARS * min(
            max(limit or BLOCK_ROWS, MIN_BLOCK_ROWS), BLOCK_ROWS
        )
        with self.path.open("r", encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle), None)
            names = (
                [cell.strip() for cell in header]
                if header is not None
                else []
            )
            if "trans_id" not in names or "item" not in names:
                raise IngestError(
                    f"{self.path}: expected header 'trans_id,item', "
                    f"got {header!r}"
                )
            tid_col = names.index("trans_id")
            item_col = names.index("item")
            stats.columns_total = len(names)
            stats.columns_read = 2
            width = max(tid_col, item_col)
            # Decoded rows not yet emitted, as (trans_ids, items) pieces:
            # int64 columns from the integer parse, lists from csv.
            pieces: list[tuple] = []
            pending = 0
            line_no = 2
            while text := handle.read(block_chars):
                if not text.endswith("\n"):
                    # End the block on a line end.
                    text += handle.readline()
                quoted = '"' in text
                columns = (
                    None
                    if quoted
                    else self._integer_columns(
                        text, len(names), tid_col, item_col
                    )
                )
                if columns is not None:
                    trans_ids, items, decoded = columns
                    stats.bytes_decoded += decoded
                    offset = 0
                    while (
                        limit is not None
                        and pending + len(trans_ids) - offset >= limit
                    ):
                        end = offset + limit - pending
                        pieces.append(
                            (trans_ids[offset:end], items[offset:end])
                        )
                        yield self._emit_pieces(pieces)
                        pieces, pending, offset = [], 0, end
                    if offset < len(trans_ids):
                        pieces.append((trans_ids[offset:], items[offset:]))
                        pending += len(trans_ids) - offset
                    line_no += text.count("\n")
                    continue
                # The csv decode: exactly a whole-file csv.reader's rows.
                lines = io.StringIO(text, newline="")
                rows = csv.reader(chain(lines, handle) if quoted else lines)
                trans_ids, items = [], []
                pieces.append((trans_ids, items))
                for row_no, row in enumerate(rows, start=line_no):
                    if not row:
                        continue
                    if len(row) <= width:
                        raise IngestError(
                            f"{self.path}:{row_no}: expected two columns"
                        )
                    raw_tid = row[tid_col]
                    raw_item = row[item_col]
                    try:
                        trans_id = int(raw_tid)
                    except ValueError:
                        raise IngestError(
                            f"{self.path}:{row_no}: bad trans_id {raw_tid!r}"
                        ) from None
                    trans_ids.append(trans_id)
                    items.append(parse_item(raw_item))
                    # The two projected cells plus their separators are
                    # all this decoder ever converts; extra columns stay
                    # raw.
                    stats.bytes_decoded += len(raw_tid) + len(raw_item) + 2
                    pending += 1
                    if limit is not None and pending >= limit:
                        yield self._emit_pieces(pieces)
                        trans_ids, items = [], []
                        pieces, pending = [(trans_ids, items)], 0
                line_no += rows.line_num
            if pending:
                yield self._emit_pieces(pieces)

    def _integer_columns(
        self, text: str, num_columns: int, tid_col: int, item_col: int
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """The block's integer columns, or ``None`` to decode it with csv."""
        if not text.isascii() or "\x00" in text:
            return None
        data = text.encode("ascii")
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
            if b"\r" in data:
                return None
        return parse_integer_block(data, num_columns, tid_col, item_col)

    def _emit_pieces(self, pieces: list[tuple]) -> ColumnChunk:
        pieces = [piece for piece in pieces if len(piece[0])]
        return self._emit(
            join_columns([piece[0] for piece in pieces]),
            join_columns([piece[1] for piece in pieces]),
        )
