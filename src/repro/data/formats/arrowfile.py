"""The Arrow IPC chunk decoder: memory-mapped, projected-buffer reads.

An Arrow IPC file is memory-mapped, so bytes are only paged in when a
column's buffers are actually touched; selecting just the projected
``trans_id`` and ``item`` columns therefore reads (and decodes) only
their buffers.  ``bytes_read`` sums the projected columns' buffer
sizes per record batch — the honest counterpart of Parquet's
compressed-chunk accounting.

Needs the optional ``pyarrow`` dependency; constructing the source
without it raises a typed :class:`~repro.errors.InvalidConfigError`
with an install hint.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.data.formats import (
    ChunkSource,
    ColumnChunk,
    PROJECTED_COLUMNS,
    register_decoder,
    require_pyarrow,
)
from repro.errors import IngestError

__all__ = ["ArrowChunkSource"]


def _buffer_bytes(array) -> int:
    """Total buffer bytes backing one Arrow array (validity + offsets + data)."""
    return sum(
        buffer.size for buffer in array.buffers() if buffer is not None
    )


@register_decoder
class ArrowChunkSource(ChunkSource):
    """Chunked ``(trans_id, item)`` batches from an Arrow IPC file."""

    format = "arrow"

    def __init__(self, path, *, chunk_rows: int | None = None) -> None:
        super().__init__(path, chunk_rows=chunk_rows)
        require_pyarrow("arrow input")

    def _decode(self) -> Iterator[ColumnChunk]:
        import pyarrow as pa

        stats = self.stats
        stats.bytes_total = self.path.stat().st_size
        with pa.memory_map(str(self.path), "r") as source:
            reader = pa.ipc.open_file(source)
            names = reader.schema.names
            missing = [
                column
                for column in PROJECTED_COLUMNS
                if column not in names
            ]
            if missing:
                raise IngestError(
                    f"{self.path}: expected columns 'trans_id' and "
                    f"'item', got {names!r}"
                )
            stats.columns_total = len(names)
            stats.columns_read = len(PROJECTED_COLUMNS)
            tid_index = names.index("trans_id")
            item_index = names.index("item")
            limit = self.chunk_rows
            for batch_index in range(reader.num_record_batches):
                batch = reader.get_batch(batch_index)
                tid_array = batch.column(tid_index)
                item_array = batch.column(item_index)
                read = _buffer_bytes(tid_array) + _buffer_bytes(item_array)
                stats.bytes_read += read
                stats.bytes_decoded += read
                step = limit or batch.num_rows or 1
                for offset in range(0, batch.num_rows, step):
                    tid_slice = tid_array.slice(offset, step)
                    item_slice = item_array.slice(offset, step)
                    trans_ids = [
                        int(value) for value in tid_slice.to_pylist()
                    ]
                    yield self._emit(trans_ids, item_slice.to_pylist())
