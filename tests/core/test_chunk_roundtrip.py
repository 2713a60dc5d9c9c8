"""Spill-chunk serialization must be lossless (ISSUE 3 satellite).

Property-style coverage: for relations produced by the real kernel
pipeline over seeded QUEST databases (and hypothesis-generated ones),
``to_chunk_bytes`` → :func:`decode_buffer_chunks` (the one decoder of
the chunk format) must reproduce the ``(keys, last_sid, k)`` triple
exactly, for any int64 key.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columns
from repro.core.columns import InstanceRelation, chunk_frames
from repro.core.partitioning import decode_buffer_chunks
from repro.core.setm_columnar import ColumnarKernel
from repro.data.quest import QuestConfig, generate_quest_dataset


def _pipeline_relations(db):
    """Every relation the columnar pipeline materializes on ``db``."""
    kernel = ColumnarKernel(db)
    sales = kernel.make_sales()
    relations = [sales]
    threshold = db.absolute_support(0.05)
    r = sales
    while len(r):
        r_prime = kernel.merge_extend(r, sales)
        relations.append(r_prime)
        _, _, r = kernel.count_and_filter(r_prime, threshold)
        relations.append(r)
    return sales.index, relations


def _assert_round_trip(relation, index):
    blob = relation.to_chunk_bytes()
    (restored,), _ = decode_buffer_chunks(blob, index=index)
    (frame,) = chunk_frames(blob)
    assert frame[-1] == len(blob)
    assert restored.k == relation.k
    assert list(restored.keys) == [int(key) for key in relation.keys]
    assert list(restored.last_sid) == [int(s) for s in relation.last_sid]


class TestQuestPipelines:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_pipeline_relation_round_trips(self, seed):
        db = generate_quest_dataset(
            QuestConfig(
                num_transactions=120,
                avg_transaction_len=6,
                avg_pattern_len=2,
                seed=seed,
            )
        )
        index, relations = _pipeline_relations(db)
        assert len(relations) >= 3  # sales + at least one R'_k / R_k pair
        for relation in relations:
            _assert_round_trip(relation, index)

    def test_round_trip_preserves_derived_rows(self):
        """tids/items derived after a round trip equal the originals."""
        db = generate_quest_dataset(
            QuestConfig(
                num_transactions=60, avg_transaction_len=5, seed=11
            )
        )
        index, relations = _pipeline_relations(db)
        r_prime = relations[1]
        blob = r_prime.to_chunk_bytes()
        (restored,), _ = decode_buffer_chunks(blob, index=index)
        assert list(restored.rows()) == list(r_prime.rows())


class TestKeyMagnitudes:
    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1), max_size=40
        )
    )
    def test_int64_key_magnitudes_round_trip(self, keys):
        relation = InstanceRelation(
            None,
            None,
            last_sid=list(range(len(keys))),
            keys=keys,
            k=9,
            index=None,
        )
        blob = relation.to_chunk_bytes()
        (restored,), viewed = decode_buffer_chunks(blob)
        assert viewed == 16 * len(keys)
        assert list(restored.keys) == keys
        assert restored.k == 9


class TestBorrowedBuffers:
    """The decoder views any buffer; filtered columns stay int64 buffers."""

    def test_round_trip_from_a_memoryview(self):
        keys = [5, 2**62, 0, 7]
        blob = InstanceRelation(
            None, None, last_sid=list(range(4)), keys=keys, k=2, index=None
        ).to_chunk_bytes()
        (restored,), viewed = decode_buffer_chunks(memoryview(blob))
        assert restored.keys.tolist() == keys
        assert restored.last_sid.tolist() == [0, 1, 2, 3]
        assert viewed == 16 * len(keys)

    def test_int64_columns_are_views_not_copies(self):
        blob = InstanceRelation(
            None,
            None,
            last_sid=list(range(100)),
            keys=list(range(100)),
            k=2,
            index=None,
        ).to_chunk_bytes()
        chunks, _ = decode_buffer_chunks(blob)
        for chunk in chunks:
            assert not chunk.keys.flags.owndata  # frombuffer view
            assert not chunk.last_sid.flags.owndata

    def test_filter_emits_int64_ndarray(self):
        relation = InstanceRelation(
            None,
            None,
            last_sid=np.arange(5, dtype=np.int64),
            keys=np.array([5, 9, 9, 12, 5], dtype=np.int64),
            k=2,
            index=None,
        )
        survivors = columns.filter_by_keys(relation, {9, 12})
        assert survivors.last_sid.dtype == np.int64
        assert columns._int64_column_bytes(survivors.last_sid) == (
            survivors.last_sid.tobytes()
        )


class TestFraming:
    def test_concatenated_chunks_walk_back_out(self):
        db = generate_quest_dataset(
            QuestConfig(num_transactions=50, avg_transaction_len=5, seed=3)
        )
        index, relations = _pipeline_relations(db)
        blob = b"".join(r.to_chunk_bytes() for r in relations)
        restored, _ = decode_buffer_chunks(blob, index=index)
        assert len(restored) == len(relations)
        for original, copy in zip(relations, restored):
            assert list(copy.keys) == [int(k) for k in original.keys]

    def test_bad_magic_rejected(self):
        relation = InstanceRelation(
            None, None, last_sid=[0], keys=[5], k=1, index=None
        )
        blob = relation.to_chunk_bytes()
        with pytest.raises(ValueError, match="magic"):
            decode_buffer_chunks(b"XXXX" + blob[4:])

    def test_relation_without_columns_rejected(self):
        eager = InstanceRelation.from_rows([(1, 2), (1, 3)], 1)
        with pytest.raises(ValueError, match="keys/last_sid"):
            eager.to_chunk_bytes()

    def test_indexless_chunk_names_missing_index_on_derivation(self):
        """Decoding without index: keys/last_sid work, tids/items
        fail with a clear error, not a bare AttributeError."""
        relation = InstanceRelation(
            None, None, last_sid=[0, 1], keys=[5, 6], k=1, index=None
        )
        blob = relation.to_chunk_bytes()
        (restored,), _ = decode_buffer_chunks(blob)
        assert list(restored.keys) == [5, 6]
        with pytest.raises(ValueError, match="SalesIndex"):
            restored.tids
        with pytest.raises(ValueError, match="SalesIndex"):
            restored.items
