"""The Parquet chunk decoder: real column-projection pushdown.

Parquet stores each column's pages contiguously per row group, so a
reader asking for ``columns=["trans_id", "item"]`` genuinely skips the
other columns' bytes on disk.  The source prices that saving from the
file's own metadata: ``bytes_read`` is the footer plus the projected
columns' compressed chunk sizes; ``bytes_total`` is the file size — the
difference is the ``bytes_read_reduction`` the ingest benchmark
enforces (>= 30% on a file with extra columns).

Needs the optional ``pyarrow`` dependency; constructing the source
without it raises a typed :class:`~repro.errors.InvalidConfigError`
with an install hint (see :func:`repro.data.formats.require_pyarrow`).
Values arrive with their stored types — a Parquet string column is not
re-parsed into integers the way the text formats' tokens are.
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

__all__ = ["ParquetChunkSource"]

#: Batch size when the caller does not bound chunks: large enough to
#: amortize per-batch overhead, small enough to stay well under typical
#: ingest budgets.
DEFAULT_BATCH_ROWS = 65536


@register_decoder
class ParquetChunkSource(ChunkSource):
    """Chunked ``(trans_id, item)`` batches from a Parquet file."""

    format = "parquet"

    def __init__(self, path, *, chunk_rows: int | None = None) -> None:
        super().__init__(path, chunk_rows=chunk_rows)
        require_pyarrow("parquet input")

    def _decode(self) -> Iterator[ColumnChunk]:
        import pyarrow.parquet as pq

        stats = self.stats
        stats.bytes_total = self.path.stat().st_size
        parquet_file = pq.ParquetFile(self.path)
        names = parquet_file.schema_arrow.names
        missing = [
            column for column in PROJECTED_COLUMNS if column not in names
        ]
        if missing:
            raise IngestError(
                f"{self.path}: expected columns 'trans_id' and 'item', "
                f"got {names!r}"
            )
        stats.columns_total = len(names)
        stats.columns_read = len(PROJECTED_COLUMNS)

        # Projection pushdown, priced from the metadata: the reader
        # fetches the footer plus only the projected columns' chunks.
        metadata = parquet_file.metadata
        all_columns = 0
        projected = 0
        uncompressed = 0
        for group_index in range(metadata.num_row_groups):
            group = metadata.row_group(group_index)
            for column_index in range(group.num_columns):
                column = group.column(column_index)
                all_columns += column.total_compressed_size
                if column.path_in_schema in PROJECTED_COLUMNS:
                    projected += column.total_compressed_size
                    uncompressed += column.total_uncompressed_size
        overhead = max(0, stats.bytes_total - all_columns)
        stats.bytes_read = overhead + projected
        stats.bytes_decoded = uncompressed

        batch_rows = self.chunk_rows or DEFAULT_BATCH_ROWS
        for batch in parquet_file.iter_batches(
            batch_size=batch_rows, columns=list(PROJECTED_COLUMNS)
        ):
            trans_ids = [
                int(value) for value in batch.column("trans_id").to_pylist()
            ]
            items = batch.column("item").to_pylist()
            yield self._emit(trans_ids, items)
