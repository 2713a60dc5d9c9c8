"""Streaming ingest equivalence: chunked encode ≡ whole-file encode.

The contract of :mod:`repro.data.ingest` is byte-level: whatever the
chunk size, format, or memory budget, the product must be
*indistinguishable* from the classic path (read whole file → encode →
``sales_from_database``) — same catalog, same physical ``R_1`` columns,
same mined patterns and iteration statistics.
"""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiningConfig
from repro.core.columns import InstanceRelation
from repro.core.transactions import TransactionDatabase
from repro.data.ingest import (
    DEFAULT_CHUNK_ROWS,
    EncodedDataset,
    _label_codes,
    load_dataset,
    stream_encode,
)
from repro.data.formats import open_chunk_source
from repro.data.io import (
    read_basket_file,
    read_sales_csv,
    write_basket_file,
    write_sales_csv,
)
from repro.errors import IngestError
from repro.miner import Miner
from repro.registry import get_engine
from tests.conftest import random_database

# Chunk sizes the equivalence matrix sweeps: degenerate (1 row per
# chunk), prime (chunks never align with transaction boundaries), large
# (single chunk), and the default.
CHUNK_SIZES = (1, 7, 4096, None)

FORMATS = ("csv", "basket")


def _write(db: TransactionDatabase, fmt: str, directory: Path) -> Path:
    path = directory / f"data.{fmt}"
    if fmt == "csv":
        write_sales_csv(db, path)
    else:
        write_basket_file(db, path)
    return path


def _reference(db: TransactionDatabase):
    """The whole-file product: ``(catalog, R_1 relation)``."""
    _, catalog = db.encoded()
    return catalog, InstanceRelation.sales_from_database(db, catalog)


def assert_byte_identical(ds: EncodedDataset, db: TransactionDatabase):
    catalog, ref = _reference(db)
    assert ds.catalog.labels() == catalog.labels()
    assert ds.base == len(catalog) + 1
    rel = ds.sales_relation()
    assert bytes(rel.keys) == bytes(ref.keys)
    assert list(ds.trans_ids) == [txn.trans_id for txn in db]
    assert list(ds.run_lengths) == [len(txn.items) for txn in db]
    assert ds.num_transactions == db.num_transactions
    assert ds.num_sales_rows == len(ref)
    assert ds.database(decoded=True) == db


class TestStreamEncodeEquivalence:
    """The matrix: formats × chunk sizes × budget on/off."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    @pytest.mark.parametrize("budget", (None, 64))
    def test_example_database(self, tmp_path, example_db, fmt, chunk_rows, budget):
        path = _write(example_db, fmt, tmp_path)
        ds = load_dataset(
            path,
            input_format=fmt,
            chunk_rows=chunk_rows,
            memory_budget_bytes=budget,
        )
        assert_byte_identical(ds, example_db)
        if budget is not None:
            # A 64-byte budget forces the resident column out repeatedly.
            assert ds.stats.spilled_chunks >= 1
        ds.close()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_random_database(self, tmp_path, fmt):
        db = random_database(9, num_transactions=60, num_items=15)
        path = _write(db, fmt, tmp_path)
        for chunk_rows in CHUNK_SIZES:
            ds = load_dataset(path, chunk_rows=chunk_rows)
            assert_byte_identical(ds, db)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_integer_database_spilled(self, tmp_path, fmt, chunk_rows):
        # Integer labels take the columnar decode (CSV) and the array
        # encoder; a 64-byte budget adds spill plus the final remap.
        db = random_database(9, num_transactions=60, num_items=15)
        path = _write(db, fmt, tmp_path)
        ds = load_dataset(
            path,
            input_format=fmt,
            chunk_rows=chunk_rows,
            memory_budget_bytes=64,
        )
        assert_byte_identical(ds, db)
        assert ds.stats.spilled_chunks >= 1
        ds.close()

    def test_auto_format_detection(self, tmp_path, example_db):
        for fmt in FORMATS:
            path = _write(example_db, fmt, tmp_path)
            ds = load_dataset(path, input_format="auto", chunk_rows=3)
            assert_byte_identical(ds, example_db)

    def test_stats_counters(self, tmp_path, example_db):
        path = _write(example_db, "csv", tmp_path)
        ds = load_dataset(path, input_format="csv", chunk_rows=7)
        stats = ds.stats
        assert stats.format == "csv"
        assert stats.transactions == example_db.num_transactions
        assert stats.rows == sum(len(t.items) for t in example_db)
        assert stats.chunks == -(-stats.rows // 7)
        assert stats.distinct_items == len(ds.catalog)
        assert stats.bytes_total == path.stat().st_size
        assert 0.0 <= stats.bytes_decoded_reduction <= 1.0
        doc = stats.as_dict()
        assert json.dumps(doc)  # telemetry must be JSON-serializable
        assert doc["chunk_rows"] == 7

    def test_basket_items_are_normalized(self, tmp_path):
        # Duplicates and out-of-order items within a basket collapse to
        # the sorted set — exactly what TransactionDatabase does.
        path = tmp_path / "messy.basket"
        path.write_text("1: b a b\n2: c c\n")
        ds = load_dataset(path, chunk_rows=1)
        db = read_basket_file(path)
        assert_byte_identical(ds, db)


class TestLabelCodes:
    """Integer chunks coded by direct addressing match ``np.unique``."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-3, 40), max_size=30),
        st.sampled_from([0, 2**40, -(2**40)]),
    )
    def test_direct_address_matches_unique(self, values, shift):
        labels = np.asarray(values, dtype=np.int64) + shift
        uniques, codes = _label_codes(labels)
        expected, inverse = np.unique(labels, return_inverse=True)
        assert uniques == expected.tolist()
        assert all(type(label) is int for label in uniques)
        assert codes.dtype == np.int64
        assert codes.tolist() == inverse.reshape(-1).tolist()

    @pytest.mark.parametrize("spread", [1, 2, 3, 2**59])
    def test_wide_and_narrow_spans_agree(self, spread):
        labels = np.array([5, 1, 5, 9, 1, 0], dtype=np.int64) * spread
        uniques, codes = _label_codes(labels)
        assert uniques == sorted(set(labels.tolist()))
        assert [uniques[code] for code in codes] == labels.tolist()


class TestEncodedDataset:
    def test_spill_files_consumed_on_materialize(self, tmp_path, example_db):
        data = _write(example_db, "csv", tmp_path)
        spill_dir = tmp_path / "spill"
        ds = load_dataset(
            data, chunk_rows=2, memory_budget_bytes=64, spill_dir=spill_dir
        )
        chunks = list(spill_dir.glob("*.chunks"))
        assert len(chunks) == ds.stats.spilled_chunks >= 1
        items = ds.items  # merges and consumes the spill
        assert not list(spill_dir.glob("*.chunks"))
        assert len(items) == ds.num_sales_rows
        # Re-access is the now-resident column, unchanged.
        assert ds.items is items

    def test_iter_item_chunks_is_nonconsuming(self, tmp_path, example_db):
        data = _write(example_db, "csv", tmp_path)
        ds = load_dataset(data, chunk_rows=2, memory_budget_bytes=64)
        first = [bytes(chunk) for chunk in ds.iter_item_chunks()]
        second = [bytes(chunk) for chunk in ds.iter_item_chunks()]
        assert first == second
        _, ref = _reference(example_db)
        assert b"".join(first) == bytes(ref.keys)
        ds.close()

    def test_close_deletes_spill(self, tmp_path, example_db):
        data = _write(example_db, "csv", tmp_path)
        spill_dir = tmp_path / "spill"
        ds = load_dataset(
            data, chunk_rows=2, memory_budget_bytes=64, spill_dir=spill_dir
        )
        assert list(spill_dir.glob("*.chunks"))
        ds.close()
        assert not list(spill_dir.glob("*.chunks"))

    def test_owned_temp_spill_root_removed(self, tmp_path, example_db):
        data = _write(example_db, "csv", tmp_path)
        ds = load_dataset(data, chunk_rows=2, memory_budget_bytes=64)
        root = ds._spill_root
        assert root is not None and root.exists()
        _ = ds.items
        assert not root.exists()

    def test_absolute_support_matches_database(self, example_db, tmp_path):
        data = _write(example_db, "csv", tmp_path)
        ds = load_dataset(data)
        for minsup in (0.01, 0.2, 0.5, 1.0, 3):
            assert ds.absolute_support(minsup) == example_db.absolute_support(
                minsup
            )

    def test_encoded_database_form(self, example_db, tmp_path):
        data = _write(example_db, "csv", tmp_path)
        ds = load_dataset(data)
        encoded, catalog = example_db.encoded()
        assert ds.database(decoded=False) == encoded
        assert ds.catalog.labels() == catalog.labels()

    def test_sales_index_matches_whole_file(self, example_db, tmp_path):
        data = _write(example_db, "csv", tmp_path)
        ds = load_dataset(data, chunk_rows=3)
        _, ref = _reference(example_db)
        index = ds.sales_index()
        assert bytes(index.tids) == bytes(ref.index.tids)
        assert list(index.ext_counts) == list(ref.index.ext_counts)
        assert index.base == ref.index.base


class TestOrderingContract:
    def test_descending_trans_ids_rejected(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("trans_id,item\n2,a\n1,b\n")
        with pytest.raises(IngestError, match="ascending"):
            load_dataset(path)

    def test_regrouped_trans_id_rejected(self, tmp_path):
        # 1, 2, 1: the second group of trans_id 1 cannot be merged in a
        # bounded pass.
        path = tmp_path / "regrouped.csv"
        path.write_text("trans_id,item\n1,a\n2,b\n1,c\n")
        with pytest.raises(IngestError, match="ascending"):
            load_dataset(path)

    def test_error_points_at_whole_file_readers(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("trans_id,item\n2,a\n1,b\n")
        with pytest.raises(IngestError, match="repro.data.io"):
            load_dataset(path)

    def test_duplicate_empty_and_nonempty_rejected(self, tmp_path):
        path = tmp_path / "dup.basket"
        path.write_text("1: a\n1:\n")
        with pytest.raises(IngestError, match="duplicate trans_id"):
            load_dataset(path)

    @pytest.mark.parametrize("bad", (0, -1, True, 2.5))
    def test_bad_memory_budget_rejected(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        path.write_text("trans_id,item\n1,a\n")
        with pytest.raises(IngestError, match="memory_budget_bytes"):
            load_dataset(path, memory_budget_bytes=bad)


class TestEmptyTransactions:
    def test_empty_baskets_keep_denominator(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("1: a b\n2:\n3: a\n4:\n")
        ds = load_dataset(path, chunk_rows=1)
        db = read_basket_file(path)
        assert db.num_transactions == 4
        assert_byte_identical(ds, db)
        # Support denominators agree: item 'a' in 2 of 4 transactions.
        assert ds.absolute_support(0.5) == db.absolute_support(0.5)

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_empty_baskets_interleaved(self, tmp_path, chunk_rows):
        path = tmp_path / "x.basket"
        path.write_text("1:\n2: b a\n3:\n4:\n6: c\n7: a\n9:\n10:\n")
        ds = load_dataset(path, chunk_rows=chunk_rows)
        assert_byte_identical(ds, read_basket_file(path))
        assert list(ds.run_lengths) == [0, 2, 0, 0, 1, 1, 0, 0]

    def test_out_of_order_empty_baskets_rejected(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("1: a\n5:\n3:\n")
        with pytest.raises(
            IngestError, match="empty trans_id 3 arrived after 5"
        ):
            load_dataset(path)

    def test_trailing_empty_baskets(self, tmp_path):
        path = tmp_path / "x.basket"
        path.write_text("1: a\n2:\n3:\n")
        ds = load_dataset(path)
        assert list(ds.trans_ids) == [1, 2, 3]
        assert list(ds.run_lengths) == [1, 0, 0]


# Strategy: small random transaction databases, mirroring the columnar
# differential suite's shape.
databases = st.lists(
    st.frozensets(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
    min_size=1,
    max_size=25,
).map(
    lambda baskets: TransactionDatabase(
        (tid, tuple(basket)) for tid, basket in enumerate(baskets, start=1)
    )
)


class TestChunkAppendRoundTrip:
    """Property: any chunking of any database reproduces the R_1 bytes."""

    @settings(max_examples=25, deadline=None)
    @given(db=databases, chunk_rows=st.integers(min_value=1, max_value=40))
    def test_csv_round_trip(self, db, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sales.csv"
            write_sales_csv(db, path)
            ds = load_dataset(path, chunk_rows=chunk_rows)
            assert_byte_identical(ds, db)

    @settings(max_examples=15, deadline=None)
    @given(db=databases, budget=st.integers(min_value=8, max_value=256))
    def test_spilled_round_trip(self, db, budget):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sales.basket"
            write_basket_file(db, path)
            ds = load_dataset(path, chunk_rows=3, memory_budget_bytes=budget)
            assert_byte_identical(ds, db)
            ds.close()


ENGINES = (
    "setm",
    "setm-columnar",
    "setm-columnar-disk",
    "setm-parallel",
    "setm-spill-parallel",
    "apriori",
    "bruteforce",
)


class TestEngineBridge:
    """Every engine mines an EncodedDataset; results never change."""

    def test_capability_flags(self):
        streaming = {
            name for name in ENGINES if get_engine(name).streaming_ingest
        }
        assert streaming == {
            "setm-columnar",
            "setm-columnar-disk",
            "setm-parallel",
            "setm-spill-parallel",
        }

    @pytest.mark.parametrize("algorithm", ENGINES)
    def test_equivalent_results(self, tmp_path, example_db, algorithm):
        data = _write(example_db, "csv", tmp_path)
        ds = load_dataset(data, chunk_rows=5)
        config = MiningConfig(support=0.2, algorithm=algorithm)
        streamed = Miner(ds).frequent_itemsets(config)
        direct = Miner(example_db).frequent_itemsets(config)
        assert streamed.count_relations == direct.count_relations
        assert streamed.iterations == direct.iterations
        assert streamed.support_threshold == direct.support_threshold
        if get_engine(algorithm).streaming_ingest:
            ingest = streamed.extra.get("ingest")
            assert ingest is not None and ingest["format"] == "csv"
        else:
            assert streamed.extra.get("ingest") is None


class TestRetailStreaming:
    """The acceptance scenario: retail CSV in >=4 bounded chunks."""

    def test_chunked_mine_matches_whole_file(self, tmp_path, small_retail_db):
        path = _write(small_retail_db, "csv", tmp_path)
        budget = 16 * 1024
        ds = load_dataset(
            path, chunk_rows=1024, memory_budget_bytes=budget
        )
        assert ds.stats.chunks >= 4
        assert ds.stats.spilled_chunks >= 1
        assert_byte_identical(ds, small_retail_db)
        config = MiningConfig(support=0.02, algorithm="setm-columnar")
        streamed = Miner(ds).frequent_itemsets(config)
        direct = Miner(small_retail_db).frequent_itemsets(config)
        assert streamed.count_relations == direct.count_relations
        assert streamed.iterations == direct.iterations

    def test_peak_ingest_memory_is_bounded(self, tmp_path, small_retail_db):
        path = _write(small_retail_db, "csv", tmp_path)
        budget = 16 * 1024

        tracemalloc.start()
        ds = stream_encode(
            open_chunk_source(path, input_format="csv", chunk_rows=1024),
            memory_budget_bytes=budget,
        )
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        num_rows = ds.num_sales_rows
        ds.close()

        tracemalloc.start()
        db = read_sales_csv(path)
        _, catalog = db.encoded()
        ref = InstanceRelation.sales_from_database(db, catalog)
        _, whole_file_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(ref) == num_rows

        # The whole point: bounded-pass peak sits well under the
        # materialize-everything peak, and under 2x the working set the
        # budget implies (resident column caps at budget/2, plus one
        # decoded chunk and the catalog).
        assert streamed_peak < whole_file_peak
        chunk_allowance = 1024 * 200  # ~200B per decoded Python cell
        assert streamed_peak < 2 * (budget + chunk_allowance)


class TestServeRegistration:
    def test_encoded_dataset_serves_identically(self, tmp_path, example_db):
        from repro.serve.protocol import result_payload
        from repro.serve.service import MiningService

        path = _write(example_db, "csv", tmp_path)
        ds = load_dataset(path, chunk_rows=4)
        service = MiningService({"example": ds}, workers=1)
        try:
            status, document = service.handle(
                {
                    "op": "mine",
                    "dataset": "example",
                    "config": {"support": 0.3},
                }
            )
            assert status == 200, document
            expected = result_payload(
                Miner(example_db).frequent_itemsets(MiningConfig(support=0.3))
            )
            assert document["result"] == expected
            stats = service.stats()
            ingest = stats["server"]["datasets"]["example"]["ingest"]
            assert ingest["format"] == "csv"
            assert ingest["transactions"] == example_db.num_transactions
        finally:
            service.drain()

    def test_whole_file_registration_reports_no_ingest(self, example_db):
        from repro.serve.service import MiningService

        service = MiningService({"example": example_db}, workers=1)
        try:
            stats = service.stats()
            assert stats["server"]["datasets"]["example"]["ingest"] is None
        finally:
            service.drain()


class TestLoadDatasetValidation:
    def test_default_chunk_rows_is_sane(self):
        assert DEFAULT_CHUNK_ROWS == 65536

    def test_unknown_format_fails_before_decoding(self, tmp_path):
        from repro.errors import InvalidConfigError

        path = tmp_path / "x.csv"
        path.write_text("trans_id,item\n1,a\n")
        with pytest.raises(InvalidConfigError):
            load_dataset(path, input_format="xml")
