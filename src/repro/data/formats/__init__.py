"""Per-format chunk decoders with column-projection pushdown.

The streaming ingest layer (:mod:`repro.data.ingest`) never reads a
whole input file: it pulls ``(trans_id, item)`` **column batches** from
a :class:`ChunkSource` and encodes them one bounded chunk at a time.
This package holds the sources, one module per format:

* ``csv`` — the file must be scanned byte-for-byte (row-major
  format), but only the ``trans_id`` and ``item`` fields are ever
  *decoded* — extra columns pass through untouched and the
  decode-byte saving is recorded.  All-integer blocks are parsed with
  numpy into int64 columns; every other block goes through stdlib
  :mod:`csv`;
* ``basket`` — the paper-shaped ``trans_id: item item ...`` lines;
  every byte is projected data, so read and decoded bytes coincide;
* ``parquet`` / ``arrow`` — real column-projection pushdown behind the
  optional ``pyarrow`` dependency: only the two needed columns' chunks
  are read at all, and the per-source stats record the byte saving
  (``bytes_read_reduction``) against the full file.

Every source accounts its own I/O in a :class:`DecodeStats`: total file
bytes, bytes actually read, bytes decoded into Python values, chunk and
row counts.  Formats without ``pyarrow`` installed fail at
:func:`open_chunk_source` time with a typed
:class:`~repro.errors.InvalidConfigError` carrying an install hint —
never midway through an ingest.

The whole-file readers of :mod:`repro.data.io` delegate here (a whole
file is just a single chunk), so each format is parsed in exactly one
place.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from repro.errors import InvalidConfigError

__all__ = [
    "ChunkSource",
    "ColumnChunk",
    "DecodeStats",
    "available_formats",
    "detect_format",
    "open_chunk_source",
    "parse_item",
    "register_decoder",
    "require_pyarrow",
]

#: The two columns every decoder projects: the paper's SALES schema.
PROJECTED_COLUMNS = ("trans_id", "item")


def parse_item(token: str):
    """Items that look like integers become integers; others stay strings."""
    try:
        return int(token)
    except ValueError:
        return token


@dataclass
class ColumnChunk:
    """One decoded batch of ``SALES`` rows, as parallel columns.

    ``trans_ids[i]`` pairs with ``items[i]``.  ``empty_trans_ids``
    carries transactions that contributed *no* rows (possible in the
    basket format, impossible in row-per-sale formats); they still
    count toward the support denominator, so the encoder must not lose
    them.

    Iterating a :class:`ChunkSource` always yields Python lists.  Inside
    the package, :meth:`ChunkSource.iter_columns` may instead hand over
    two int64 numpy columns for an all-integer chunk, which the
    streaming encoder consumes without a per-row loop.
    """

    trans_ids: list[int] | np.ndarray
    items: list[Any] | np.ndarray
    empty_trans_ids: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.trans_ids)

    def as_lists(self) -> "ColumnChunk":
        """This chunk with Python-list columns (ints stay Python ints)."""
        return ColumnChunk(
            _as_list(self.trans_ids),
            _as_list(self.items),
            self.empty_trans_ids,
        )


def _as_list(values) -> list:
    return values if isinstance(values, list) else values.tolist()


def join_columns(pieces: list) -> list | np.ndarray:
    """Concatenate column pieces: int64 if every piece is, else a list."""
    if len(pieces) == 1:
        return pieces[0]
    if all(isinstance(piece, np.ndarray) for piece in pieces):
        return np.concatenate(pieces)
    joined: list = []
    for piece in pieces:
        joined.extend(_as_list(piece))
    return joined


@dataclass
class DecodeStats:
    """Per-source I/O accounting, filled in while the source is iterated.

    ``bytes_read`` is what the decoder actually fetched from the file
    (for columnar formats with projection pushdown this is less than
    ``bytes_total``); ``bytes_decoded`` is what it turned into Python
    values (for row formats with projected *fields* this is less than
    ``bytes_read``).  The reductions are the honest savings claims the
    benchmark records.
    """

    format: str
    path: str
    bytes_total: int = 0
    bytes_read: int = 0
    bytes_decoded: int = 0
    chunks: int = 0
    rows: int = 0
    columns_total: int = 0
    columns_read: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def bytes_read_reduction(self) -> float:
        """Fraction of the file *not* read, thanks to projection pushdown."""
        if self.bytes_total <= 0:
            return 0.0
        return max(0.0, 1.0 - self.bytes_read / self.bytes_total)

    @property
    def bytes_decoded_reduction(self) -> float:
        """Fraction of the file never decoded into Python values."""
        if self.bytes_total <= 0:
            return 0.0
        return max(0.0, 1.0 - self.bytes_decoded / self.bytes_total)

    def as_dict(self) -> dict[str, Any]:
        return {
            "format": self.format,
            "path": self.path,
            "bytes_total": self.bytes_total,
            "bytes_read": self.bytes_read,
            "bytes_decoded": self.bytes_decoded,
            "bytes_read_reduction": round(self.bytes_read_reduction, 4),
            "bytes_decoded_reduction": round(
                self.bytes_decoded_reduction, 4
            ),
            "chunks": self.chunks,
            "rows": self.rows,
            "columns_total": self.columns_total,
            "columns_read": self.columns_read,
            **self.extra,
        }

    def reset(self) -> None:
        """Zero the counters (a source iterated twice restarts its tally)."""
        self.bytes_total = 0
        self.bytes_read = 0
        self.bytes_decoded = 0
        self.chunks = 0
        self.rows = 0
        self.extra = {}


class ChunkSource:
    """Base of every decoder: iterate :class:`ColumnChunk` batches.

    Subclasses set the class attribute ``format`` and implement
    ``_decode()``; iteration resets and then fills :attr:`stats`.
    ``chunk_rows=None`` means "one chunk for the whole file" — the
    whole-file readers of :mod:`repro.data.io` use exactly that.
    """

    format: ClassVar[str] = ""

    def __init__(
        self, path: str | os.PathLike, *, chunk_rows: int | None = None
    ) -> None:
        if chunk_rows is not None and (
            isinstance(chunk_rows, bool)
            or not isinstance(chunk_rows, int)
            or chunk_rows < 1
        ):
            raise InvalidConfigError(
                f"chunk_rows must be a positive integer or None; "
                f"got {chunk_rows!r}"
            )
        self.path = Path(path)
        self.chunk_rows = chunk_rows
        self.stats = DecodeStats(format=self.format, path=str(self.path))

    def __iter__(self) -> Iterator[ColumnChunk]:
        return map(ColumnChunk.as_lists, self.iter_columns())

    def iter_columns(self) -> Iterator[ColumnChunk]:
        """Iterate the chunks, keeping any int64 numpy columns as they are.

        Same chunks and the same :attr:`stats` as plain iteration; only
        the column type differs (see :class:`ColumnChunk`).
        """
        self.stats.reset()
        return self._decode()

    def _decode(self) -> Iterator[ColumnChunk]:
        raise NotImplementedError

    def _emit(
        self,
        trans_ids: list[int] | np.ndarray,
        items: list[Any] | np.ndarray,
        empty_trans_ids: tuple[int, ...] = (),
    ) -> ColumnChunk:
        self.stats.chunks += 1
        self.stats.rows += len(trans_ids)
        return ColumnChunk(trans_ids, items, empty_trans_ids)


_DECODERS: dict[str, type[ChunkSource]] = {}


def register_decoder(cls: type[ChunkSource]) -> type[ChunkSource]:
    """Class decorator: register ``cls`` under its ``format`` name."""
    if not cls.format:
        raise ValueError("a ChunkSource subclass needs a format name")
    _DECODERS[cls.format] = cls
    return cls


def available_formats() -> tuple[str, ...]:
    """Registered format names, plus the ``auto`` sniffing pseudo-format."""
    return ("auto", *sorted(_DECODERS))


def _import_pyarrow():
    """Seam for tests: the raw import, monkeypatchable independently."""
    import pyarrow

    return pyarrow


def require_pyarrow(feature: str):
    """Import and return :mod:`pyarrow`, or fail typed with an install hint."""
    try:
        return _import_pyarrow()
    except ImportError:
        raise InvalidConfigError(
            f"{feature} needs the optional dependency pyarrow "
            "(pip install pyarrow); without it, convert the input to "
            "CSV or basket format"
        ) from None


#: File-magic prefixes checked before extensions: renamed files still
#: route to the right decoder.
_MAGIC = (
    (b"PAR1", "parquet"),
    (b"ARROW1", "arrow"),
)

_EXTENSIONS = {
    ".csv": "csv",
    ".parquet": "parquet",
    ".pq": "parquet",
    ".arrow": "arrow",
    ".arrows": "arrow",
    ".feather": "arrow",
    ".ipc": "arrow",
    ".basket": "basket",
}


def detect_format(path: str | os.PathLike) -> str:
    """Sniff a file's format: magic bytes first, then extension.

    Anything unrecognized is treated as a basket file — the package's
    historical default for extensionless transaction files.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            head = handle.read(8)
    except OSError:
        head = b""
    for magic, fmt in _MAGIC:
        if head.startswith(magic):
            return fmt
    return _EXTENSIONS.get(path.suffix.lower(), "basket")


def open_chunk_source(
    path: str | os.PathLike,
    *,
    input_format: str | None = "auto",
    chunk_rows: int | None = None,
) -> ChunkSource:
    """A :class:`ChunkSource` over ``path`` in the requested format.

    ``input_format`` of ``"auto"`` (or ``None``) sniffs via
    :func:`detect_format`.  Unknown formats and formats whose optional
    dependency is missing raise :class:`InvalidConfigError` here, before
    any decoding starts.
    """
    if input_format is None or input_format == "auto":
        input_format = detect_format(path)
    decoder = _DECODERS.get(input_format)
    if decoder is None:
        choices = ", ".join(available_formats())
        raise InvalidConfigError(
            f"unknown input format {input_format!r}; choose from: {choices}"
        )
    return decoder(path, chunk_rows=chunk_rows)


# Import for side effect: each module registers its decoder.
from repro.data.formats import arrowfile as _arrowfile  # noqa: E402,F401
from repro.data.formats import basketfile as _basketfile  # noqa: E402,F401
from repro.data.formats import csvfile as _csvfile  # noqa: E402,F401
from repro.data.formats import parquetfile as _parquetfile  # noqa: E402,F401
