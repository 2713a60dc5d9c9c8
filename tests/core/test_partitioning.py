"""The partitioned-execution layer (repro.core.partitioning).

The layer's contract: partitions are first-class, *picklable* work
units read from memory or a spill file, key-range routing is disjoint
and total, and plans price ``R'_k`` exactly before
any row is materialized.  Round-trip coverage runs over relations the
real kernel pipeline produces on seeded QUEST databases.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.columns import (
    InstanceRelation,
    extension_counts,
    extension_totals,
)
from repro.core.partitioning import (
    ROW_BYTES,
    Partition,
    PartitionPlan,
    concat_columns,
    cut_ranges,
    split_by_key_ranges,
)
from repro.core.setm_columnar import ColumnarKernel
from repro.data.quest import QuestConfig, generate_quest_dataset


def _pipeline_relations(db, minsup=0.05):
    """Every relation the columnar pipeline materializes on ``db``."""
    kernel = ColumnarKernel(db)
    sales = kernel.make_sales()
    relations = [sales]
    threshold = db.absolute_support(minsup)
    r = sales
    while len(r):
        r_prime = kernel.merge_extend(r, sales)
        relations.append(r_prime)
        _, _, r = kernel.count_and_filter(r_prime, threshold)
        relations.append(r)
    return sales.index, relations


def _quantile_boundaries(keys, partitions):
    """``partitions - 1`` ascending boundary keys at the column's quantiles."""
    ordered = np.sort(np.asarray(keys, dtype=np.int64))
    n = len(ordered)
    return [int(ordered[n * i // partitions]) for i in range(1, partitions)]


def _quest_db(seed, transactions=120):
    return generate_quest_dataset(
        QuestConfig(
            num_transactions=transactions,
            avg_transaction_len=6,
            avg_pattern_len=2,
            seed=seed,
        )
    )


class TestPartitionPickling:
    @pytest.mark.parametrize("seed", range(4))
    def test_pipeline_partitions_survive_pickling(self, seed):
        """Partitions built from real pipeline relations round-trip
        through pickle with keys, cursors, and ranges intact."""
        index, relations = _pipeline_relations(_quest_db(seed))
        checked = 0
        for relation in relations:
            if len(relation) < 4:
                continue
            boundaries = _quantile_boundaries(relation.keys, 3)
            for p, rows in split_by_key_ranges(relation, boundaries):
                bounds = [None, *boundaries, None]
                partition = Partition(
                    rows.k,
                    key_low=bounds[p],
                    key_high=bounds[p + 1],
                    num_rows=len(rows),
                    payload=rows.to_chunk_bytes(),
                )
                clone = pickle.loads(pickle.dumps(partition))
                assert clone.k == partition.k
                assert clone.key_low == partition.key_low
                assert clone.key_high == partition.key_high
                assert clone.num_rows == partition.num_rows
                (restored,) = clone.load(index=index)
                assert list(restored.keys) == [int(k) for k in rows.keys]
                assert list(restored.last_sid) == [
                    int(s) for s in rows.last_sid
                ]
                checked += 1
        assert checked >= 2  # the pipeline really exercised the layer

    def test_path_backed_partition_round_trips(self, tmp_path):
        relation = InstanceRelation(
            None, None, last_sid=[0, 1], keys=[5, 9], k=1, index=None
        )
        path = tmp_path / "p0.chunks"
        path.write_bytes(relation.to_chunk_bytes())
        partition = Partition(1, key_low=5, key_high=10, path=path, num_rows=2)
        clone = pickle.loads(pickle.dumps(partition))
        (restored,) = clone.load()
        assert list(restored.keys) == [5, 9]
        partition.delete()
        assert not path.exists()
        partition.delete()  # idempotent

    def test_partition_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            Partition(1)
        with pytest.raises(ValueError, match="exactly one"):
            Partition(1, payload=b"", path="x")

    def test_deleted_partition_reads_fail_clearly(self):
        relation = InstanceRelation(
            None, None, last_sid=[0], keys=[5], k=1, index=None
        )
        partition = Partition(1, payload=relation.to_chunk_bytes(), num_rows=1)
        partition.delete()
        with pytest.raises(ValueError, match="deleted"):
            partition.read_bytes()


class TestPartitionBuffer:
    """``read_bytes`` serves exactly the one chunk source a partition has."""

    def test_inline_source(self):
        partition = Partition(2, payload=b"bytes", num_rows=0)
        assert partition.read_bytes() == b"bytes"

    def test_path_source_reads_the_file_as_it_is(self, tmp_path):
        path = tmp_path / "part.chunks"
        path.write_bytes(b"spilled bytes")
        partition = Partition(2, path=path, num_rows=0)
        assert partition.read_bytes() == b"spilled bytes"
        path.write_bytes(b"")  # an empty share reads as no chunks
        assert partition.read_bytes() == b""
        assert partition.load() == []

    def test_deleted_partition_raises(self, tmp_path):
        path = tmp_path / "part.chunks"
        path.write_bytes(b"x")
        partition = Partition(2, path=path, num_rows=0)
        partition.delete()
        assert not path.exists()
        with pytest.raises(ValueError, match="deleted"):
            partition.read_bytes()


class TestKeyRangeRouting:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("partitions", [2, 3, 5])
    def test_split_is_disjoint_and_total(self, seed, partitions):
        index, relations = _pipeline_relations(_quest_db(seed))
        r_prime = relations[1]
        boundaries = _quantile_boundaries(r_prime.keys, partitions)
        assert boundaries == sorted(boundaries)
        pieces = list(split_by_key_ranges(r_prime, boundaries))
        assert sum(len(rows) for _, rows in pieces) == len(r_prime)
        seen = []
        previous_max = None
        for p, rows in pieces:
            assert len(rows) > 0
            seen.append(p)
            lo = min(int(k) for k in rows.keys)
            if previous_max is not None:
                assert lo > previous_max  # ranges really are disjoint
            previous_max = max(int(k) for k in rows.keys)
        assert seen == sorted(seen)  # ascending submission order

    def test_split_respects_boundary_semantics(self):
        relation = InstanceRelation(
            None,
            None,
            last_sid=list(range(6)),
            keys=[1, 3, 5, 5, 7, 9],
            k=1,
            index=None,
        )
        pieces = dict(split_by_key_ranges(relation, [5, 8]))
        assert list(pieces[0].keys) == [1, 3]
        assert list(pieces[1].keys) == [5, 5, 7]  # low bound inclusive
        assert list(pieces[2].keys) == [9]

    def test_concat_columns_merges_heterogenous_chunks(self):
        assert list(concat_columns([[1, 2], [3]])) == [1, 2, 3]
        assert list(concat_columns([[1, 2]])) == [1, 2]


class TestPartitionPlan:
    def test_small_relations_fit_in_memory(self):
        plan = PartitionPlan.from_prefix_totals([4, 6], 10, share_bytes=1024)
        assert plan.fits_in_memory
        assert plan.num_partitions == 1
        assert plan.predicted_rows == 10

    def test_oversized_relations_get_ceil_partitions(self):
        # 1000 one-row prefixes * 16 bytes over a 4096-byte share.
        plan = PartitionPlan.from_prefix_totals(
            [1] * 1000, 10, share_bytes=4096
        )
        assert not plan.fits_in_memory
        assert plan.num_partitions == 4
        assert [rows for _, _, rows in plan.ranges] == [256, 256, 256, 232]

    def test_at_least_two_partitions_once_spilling(self):
        plan = PartitionPlan.from_prefix_totals(
            [1] * 257, 10, share_bytes=4096
        )
        assert plan.num_partitions == 2

    def test_pricing_from_extension_counts_is_exact(self):
        index, relations = _pipeline_relations(_quest_db(2))
        sales = relations[0]
        totals = extension_totals(sales, index, None, index.base)
        plan = PartitionPlan.from_prefix_totals(
            totals, index.base, share_bytes=1
        )
        assert plan.predicted_rows == len(relations[1])
        assert plan.predicted_rows == int(
            sum(extension_counts(sales, index))
        )

    def test_ranges_are_priced_within_a_share_and_exact(self):
        """Every emitted R'_2 key lies in exactly one range, and each
        range's price is exactly the rows it holds."""
        index, relations = _pipeline_relations(_quest_db(1))
        sales, r_prime = relations[0], relations[1]
        share_bytes = 64 * ROW_BYTES
        totals = extension_totals(sales, index, None, index.base)
        plan = PartitionPlan.from_prefix_totals(
            totals, index.base, share_bytes
        )
        assert plan.num_partitions >= 2
        keys = np.sort(np.asarray(r_prime.keys))
        previous_high = None
        for low, high, rows in plan.ranges:
            assert low < high
            assert previous_high is None or low >= previous_high
            previous_high = high
            held = int(np.count_nonzero((keys >= low) & (keys < high)))
            assert held == rows
            # Only a single prefix (not cut by item here) may overflow.
            assert rows <= 64 or high - low == index.base
        assert plan.predicted_rows == len(keys)

    def test_oversized_prefix_is_cut_by_item(self):
        # Prefix 1 alone has 10 rows over a 4-row share: its item
        # totals cut it into contiguous sub-ranges of [1*base, 2*base).
        per_item = np.array([0, 0, 3, 1, 4, 2, 0, 0], dtype=np.int64)
        plan = PartitionPlan.from_prefix_totals(
            [2, 10, 1],
            8,
            share_bytes=4 * ROW_BYTES,
            item_totals=lambda rank: per_item,
        )
        assert plan.ranges == [
            (0, 8, 2),
            (8 + 0, 8 + 4, 4),
            (8 + 4, 8 + 5, 4),
            (8 + 5, 8 + 8, 2),
            (16, 24, 1),
        ]

    def test_zero_totals_plan_no_ranges(self):
        assert cut_ranges([0, 0, 0], 4) == []
        assert cut_ranges([], 4) == []
        plan = PartitionPlan.from_prefix_totals([0, 0], 10, share_bytes=16)
        assert plan.ranges == [] and plan.fits_in_memory


class TestCutRanges:
    def test_runs_fit_the_share_except_single_oversized_entries(self):
        assert cut_ranges([3, 3, 3, 9, 1, 1], 6) == [
            (0, 2), (2, 3), (3, 4), (4, 6)
        ]

    def test_zero_runs_are_dropped(self):
        assert cut_ranges([0, 0, 9, 0], 4) == [(2, 3)]
        assert cut_ranges([2, 0, 0, 9], 4) == [(0, 3), (3, 4)]
