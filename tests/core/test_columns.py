"""Unit tests for the columnar relation kernel (repro.core.columns)."""

from __future__ import annotations

import random
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import (
    _dense_counts,
    _member_mask,
    FrequentLevels,
    InstanceRelation,
    count_and_filter,
    count_packed_keys,
    count_supported,
    count_sorted_rows,
    extension_counts,
    filter_by_keys,
    prefix_ranks,
    suffix_extend,
)
from repro.core.setm import merge_scan_extend, run_figure4_loop
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import TransactionDatabase
from tests.conftest import random_database


def small_db() -> TransactionDatabase:
    return TransactionDatabase(
        [
            (1, ["A", "B", "C"]),
            (2, ["A", "C"]),
            (3, ["B"]),
            (5, ["A", "B", "C", "D"]),
        ]
    )


def sales_relation(db: TransactionDatabase) -> InstanceRelation:
    return InstanceRelation.sales_from_database(db, db.catalog())


class TestInstanceRelation:
    def test_from_rows_roundtrip(self):
        rows = [(1, 10, 20), (1, 10, 30), (2, 20, 30)]
        relation = InstanceRelation.from_rows(rows, k=2)
        assert relation.k == 2
        assert len(relation) == 3
        assert list(relation.rows()) == rows
        assert relation.row(1) == (1, 10, 30)

    def test_sales_from_database_matches_sales_rows(self):
        db = small_db()
        catalog = db.catalog()
        relation = sales_relation(db)
        expected = [
            (tid, catalog.id_of(item)) for tid, item in db.sales_rows()
        ]
        assert list(relation.rows()) == expected
        assert relation.k == 1

    def test_sales_keys_alias_item_column(self):
        relation = sales_relation(small_db())
        assert list(relation.keys) == list(relation.items[0])
        assert list(relation.last_sid) == list(range(len(relation)))

    def test_lazy_tids_and_items_materialize(self):
        db = small_db()
        sales = sales_relation(db)
        r_prime = suffix_extend(sales, sales.index)
        # Lazy relation: logical columns derive from keys/last_sid.
        rows = sorted(r_prime.rows())
        expected = sorted(
            merge_scan_extend(
                list(sales_relation(db).rows()),
                list(sales_relation(db).rows()),
            )
        )
        assert rows == expected

    def test_constructor_rejects_underspecified_relation(self):
        with pytest.raises(ValueError, match="item columns"):
            InstanceRelation(None, None, keys=[1, 2])


class TestSalesIndex:
    def test_ext_counts_against_bruteforce(self):
        db = small_db()
        sales = sales_relation(db)
        index = sales.index
        rows = list(db.sales_rows())
        for position, (tid, _) in enumerate(rows):
            remaining = sum(
                1 for later_tid, _ in rows[position + 1:] if later_tid == tid
            )
            assert int(index.ext_counts[position]) == remaining

    def test_lazy_tids_column(self):
        db = small_db()
        index = sales_relation(db).index
        assert list(index.tids) == [tid for tid, _ in db.sales_rows()]


class TestSuffixExtend:
    def test_matches_tuple_merge_scan(self):
        db = small_db()
        sales = sales_relation(db)
        encoded_rows = list(sales.rows())
        r_prime = suffix_extend(sales, sales.index)
        assert sorted(r_prime.rows()) == sorted(
            merge_scan_extend(encoded_rows, encoded_rows)
        )
        assert r_prime.k == 2

    def test_level_two_keys_are_item_pairs(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        base = sales.index.base
        assert list(map(int, r_prime.keys)) == [
            first * base + second for _, first, second in r_prime.rows()
        ]

    def test_deeper_keys_rank_into_the_previous_level(self):
        """A level-3 key is rank(prefix in sorted F_2) * base + item."""
        db = small_db()
        sales = sales_relation(db)
        base = sales.index.base
        r2 = suffix_extend(sales, sales.index)
        levels = FrequentLevels(base)
        frequent = sorted(set(map(int, r2.keys)))
        levels.add(2, reversed(frequent))  # any order in, sorted out
        r3 = suffix_extend(r2, sales.index, levels.prefixes(2))
        patterns = sorted(
            tuple(row[1:])
            for row in merge_scan_extend(
                list(r2.rows()), list(sales.rows())
            )
        )
        decoded = sorted(levels.items(int(key), 3) for key in r3.keys)
        assert decoded == patterns
        for key, (a, b, c) in zip(sorted(map(int, r3.keys)), patterns):
            assert key == frequent.index(a * base + b) * base + c
        with pytest.raises(ValueError, match="FrequentLevels"):
            r3.items

    def test_empty_relation(self):
        db = TransactionDatabase([(1, ["A"]), (2, ["B"])])
        sales = sales_relation(db)
        r_prime = suffix_extend(sales, sales.index)
        assert len(r_prime) == 0

    def test_requires_kernel_columns(self):
        bare = InstanceRelation.from_rows([(1, 5)], k=1)
        sales = sales_relation(small_db())
        with pytest.raises(ValueError, match="last_sid"):
            suffix_extend(bare, sales.index)


class TestPatternKeys:
    def test_levels_decode_through_the_rank_tables(self):
        levels = FrequentLevels(10)
        levels.add(2, [37, 12, 19])  # (3, 7), (1, 2), (1, 9)
        levels.add(3, [0 * 10 + 5, 2 * 10 + 8])  # (1, 2, 5), (3, 7, 8)
        assert levels.prefixes(1) is None
        assert list(levels.prefixes(2)) == [12, 19, 37]
        assert levels.items(4, 1) == (4,)
        assert levels.items(37, 2) == (3, 7)
        assert levels.items(1 * 10 + 9, 3) == (1, 9, 9)
        assert levels.items(1 * 10 + 4, 4) == (3, 7, 8, 4)

    def test_key_order_equals_pattern_order(self):
        levels = FrequentLevels(10)
        levels.add(2, [12, 19, 37])
        keys = [2 * 10 + 1, 0 * 10 + 9, 1 * 10 + 3, 0 * 10 + 4]
        patterns = [levels.items(key, 3) for key in keys]
        assert sorted(range(4), key=keys.__getitem__) == sorted(
            range(4), key=patterns.__getitem__
        )

    def test_every_level_fits_its_rank_bound(self, deep_wide_db):
        """Level-k keys stay below |F_{k-1}| * base on the deep input."""
        database, minsup = deep_wide_db
        bounds: dict[int, tuple[int, int]] = {}

        class Recording(ColumnarKernel):
            def count_and_filter(self, r_prime, threshold):
                k = r_prime.k
                prefixes = self._levels.prefixes(k - 1)
                rows = self._base if prefixes is None else len(prefixes)
                top = max(map(int, r_prime.keys), default=-1)
                bounds[k] = (top, rows * self._base)
                return super().count_and_filter(r_prime, threshold)

        result = run_figure4_loop(
            database, minsup, Recording(database), algorithm="setm-columnar"
        )
        base = len(database.distinct_items()) + 1
        assert result.max_pattern_length == 9
        assert base**9 > 2**63  # mixed-radix keys would not fit int64
        assert sorted(bounds) == list(range(2, 11))
        for k, (top, bound) in bounds.items():
            assert top < bound, k

    @pytest.mark.parametrize("via", ["auto", "sort", "hash"])
    def test_count_strategies_agree(self, via):
        keys = [5, 3, 5, 5, 3, 9]
        assert sorted(count_packed_keys(keys, via=via)) == [
            (3, 2),
            (5, 3),
            (9, 1),
        ]

    def test_count_empty(self):
        assert count_packed_keys([], via="sort") == []
        assert count_packed_keys([], via="hash") == []


class TestFilterByKeys:
    def test_keeps_only_supported(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        counts = dict(count_packed_keys(r_prime.keys, via="sort"))
        supported = {key for key, count in counts.items() if count >= 2}
        filtered = filter_by_keys(r_prime, supported)
        assert len(filtered) == sum(counts[key] for key in supported)
        assert set(map(int, filtered.keys)) <= supported
        # Row order (trans_id, items) is preserved.
        assert list(filtered.rows()) == [
            row
            for row in r_prime.rows()
            if any(
                divmod(key, sales.index.base) == tuple(row[1:])
                for key in supported
            )
        ]

    def test_all_surviving_returns_same_object(self):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        everything = set(map(int, r_prime.keys))
        assert filter_by_keys(r_prime, everything) is r_prime

    def test_requires_keys(self):
        bare = InstanceRelation.from_rows([(1, 5)], k=1)
        with pytest.raises(ValueError, match="packed-keys"):
            filter_by_keys(bare, {5})

    @pytest.mark.parametrize("spread", [1, 10**12])
    def test_member_mask_agrees_with_isin(self, spread):
        """The probe matches np.isin for narrow and wide key ranges."""
        values = np.array([0, 3, 3, 7, 9, 12, 40], dtype=np.int64) * spread
        wanted = np.array([3, 9, 40, 41], dtype=np.int64) * spread
        assert _member_mask(values, wanted).tolist() == (
            np.isin(values, wanted).tolist()
        )
        assert _member_mask(values, wanted[:0]).tolist() == [False] * 7


def _level(offsets, low, shuffle_seed):
    """An ``R'_k``-shaped relation whose keys are ``low + offsets``."""
    keys = np.asarray(offsets, dtype=np.int64) + low
    sids = np.arange(len(keys), dtype=np.int64)
    random.Random(shuffle_seed).shuffle(sids)
    return InstanceRelation(None, None, last_sid=sids, keys=keys, k=2)


def _outcome(result):
    candidates, keys, counts, survivors = result
    return (
        candidates,
        np.asarray(keys).tolist(),
        np.asarray(counts).tolist(),
        np.asarray(survivors.keys).tolist(),
        np.asarray(survivors.last_sid).tolist(),
    )


@st.composite
def _levels(draw):
    """Keys inside a span of exactly 2n or 2n + 1, any threshold."""
    n = draw(st.integers(0, 60))
    width = 2 * n + draw(st.integers(0, 1))
    offsets = draw(
        st.lists(st.integers(0, max(width - 1, 0)), min_size=n, max_size=n)
        if width
        else st.just([])
    )
    low = draw(st.sampled_from([0, 1, 977, 10**12]))
    threshold = draw(st.integers(1, 8))
    return _level(offsets, low, draw(st.integers(0, 9))), (low, low + width), threshold


class TestCountAndFilter:
    """``auto`` (direct address or its sort fallback), ``sort`` and
    ``hash`` agree on candidates, keys, counts and survivor rows."""

    @settings(max_examples=200, deadline=None)
    @given(_levels())
    def test_strategies_agree(self, level):
        relation, span, threshold = level
        expected = _outcome(
            count_and_filter(relation, threshold, via="sort")
        )
        for via in ("auto", "sort", "hash"):
            for given_span in (span, None):
                assert _outcome(
                    count_and_filter(
                        relation, threshold, via=via, span=given_span
                    )
                ) == expected, (via, given_span)
        assert count_supported(
            relation.keys, threshold, via="auto", span=span
        )[0] == expected[0]
        assert sorted(
            count_packed_keys(relation.keys, via="auto", span=span)
        ) == sorted(count_packed_keys(relation.keys, via="hash"))
        kept = filter_by_keys(relation, expected[1])
        assert np.asarray(kept.keys).tolist() == expected[3]

    def test_span_of_exactly_2n_is_dense_and_2n_plus_1_sorts(self):
        keys = np.array([4, 5, 5, 9], dtype=np.int64)
        assert _dense_counts(keys, "auto", (4, 12)) is not None
        assert _dense_counts(keys, "auto", (4, 13)) is None
        for via in ("sort", "hash"):
            assert _dense_counts(keys, via, (4, 12)) is None

    @pytest.mark.parametrize(
        "span", [(3, 11), (3, 16)], ids=["count-table", "sort-probe"]
    )
    def test_survivors_keep_input_order(self, span):
        relation = _level([5, 1, 5, 0, 7, 1], 3, 4)
        candidates, keys, counts, survivors = count_and_filter(
            relation, 2, span=span
        )
        assert candidates == 4
        assert keys.tolist() == [4, 8] and counts.tolist() == [2, 2]
        assert survivors.keys.tolist() == [8, 4, 8, 4]
        assert survivors.last_sid.tolist() == [
            relation.last_sid[i] for i in (0, 1, 2, 5)
        ]

    @pytest.mark.parametrize("via", ["auto", "sort", "hash"])
    def test_edge_levels(self, via):
        empty = _level([], 0, 0)
        candidates, keys, counts, survivors = count_and_filter(
            empty, 1, via=via, span=(0, 0)
        )
        assert (candidates, len(keys), len(counts), len(survivors)) == (
            0, 0, 0, 0,
        )
        single = _level([0], 7, 0)
        assert _outcome(
            count_and_filter(single, 1, via=via, span=(7, 9))
        ) == (1, [7], [1], [7], [0])
        # A threshold above every count keeps nothing.
        level = _level([0, 0, 1, 2, 2, 2], 0, 0)
        candidates, keys, _, survivors = count_and_filter(
            level, 4, via=via, span=(0, 6)
        )
        assert candidates == 3 and len(keys) == 0 and len(survivors) == 0
        # Threshold 1 keeps every row: the relation itself.
        assert count_and_filter(level, 1, via=via, span=(0, 6))[3] is level
        # No threshold admits a key that never occurs.
        assert _outcome(
            count_and_filter(level, 0, via=via, span=(0, 6))
        ) == _outcome(count_and_filter(level, 1, via="sort"))

    def test_requires_keys(self):
        bare = InstanceRelation.from_rows([(1, 5)], k=1)
        with pytest.raises(ValueError, match="packed-keys"):
            count_and_filter(bare, 1)


class TestCountSortedRows:
    """The shared sequential-scan grouping helper (setm + mergejoin)."""

    def test_counts_runs(self):
        rows = [(1, "A"), (3, "A"), (2, "B")]
        rows.sort(key=lambda row: row[1:])
        assert count_sorted_rows(rows) == [(("A",), 2), (("B",), 1)]

    def test_empty(self):
        assert count_sorted_rows([]) == []

    def test_multi_column_patterns(self):
        rows = [(1, "A", "B"), (2, "A", "B"), (1, "A", "C")]
        rows.sort(key=lambda row: row[1:])
        assert count_sorted_rows(rows) == [(("A", "B"), 2), (("A", "C"), 1)]


#: The column buffers the kernels are handed: Python lists (callers and
#: tests), ``array('q')`` (the ingest and storage buffers; ``R_1``'s keys
#: alias one) and int64 ndarrays (every column the mining loop derives).
COLUMN_KINDS = {
    "list": list,
    "array": lambda values: array("q", values),
    "ndarray": lambda values: np.asarray(values, dtype=np.int64),
}
by_column_kind = pytest.mark.parametrize(
    "make", list(COLUMN_KINDS.values()), ids=list(COLUMN_KINDS)
)


def recolumned(relation: InstanceRelation, make) -> InstanceRelation:
    """``relation`` with its ``last_sid`` and ``keys`` rebuilt by ``make``."""
    return InstanceRelation(
        None,
        None,
        last_sid=make(list(map(int, relation.last_sid))),
        keys=make(list(map(int, relation.keys))),
        k=relation.k,
        index=relation.index,
    )


class TestColumnKinds:
    """Every kernel reads any int64 column buffer the same way."""

    @by_column_kind
    @pytest.mark.parametrize("via", ["auto", "sort", "hash"])
    def test_count_packed_keys(self, make, via):
        keys = make([5, 3, 2**62, 5, 5, 3, 9])
        assert sorted(count_packed_keys(keys, via=via)) == [
            (3, 2),
            (5, 3),
            (9, 1),
            (2**62, 1),
        ]

    @by_column_kind
    def test_prefix_ranks(self, make):
        keys = make([37, 12, 37, 19])
        assert list(map(int, prefix_ranks(keys, make([12, 19, 37])))) == [
            2, 0, 2, 1,
        ]
        assert prefix_ranks(keys, None) is keys

    @by_column_kind
    def test_extension_counts(self, make):
        sales = sales_relation(small_db())
        index = sales.index
        r2 = suffix_extend(sales, index)
        counts = extension_counts(recolumned(r2, make), index)
        assert list(map(int, counts)) == [
            int(index.ext_counts[sid]) for sid in r2.last_sid
        ]
        levels = FrequentLevels(index.base)
        levels.add(2, set(map(int, r2.keys)))
        assert int(counts.sum()) == len(
            suffix_extend(r2, index, levels.prefixes(2))
        )

    @by_column_kind
    def test_suffix_extend(self, make):
        sales = sales_relation(small_db())
        index = sales.index
        expected = suffix_extend(sales, index)
        r2 = suffix_extend(recolumned(sales, make), index)
        assert list(r2.rows()) == list(expected.rows())
        assert isinstance(r2.keys, np.ndarray)
        assert isinstance(r2.last_sid, np.ndarray)
        frequent = sorted(set(map(int, expected.keys)))
        levels = FrequentLevels(index.base)
        levels.add(2, frequent)
        r3 = suffix_extend(recolumned(r2, make), index, make(frequent))
        assert r3.keys.tolist() == suffix_extend(
            expected, index, levels.prefixes(2)
        ).keys.tolist()

    @by_column_kind
    def test_filter_by_keys(self, make):
        sales = sales_relation(small_db())
        r2 = suffix_extend(sales, sales.index)
        supported = {int(key) for key in r2.keys[::2]}
        kept = filter_by_keys(recolumned(r2, make), supported)
        mask = [int(key) in supported for key in r2.keys]
        assert kept.keys.tolist() == r2.keys[mask].tolist()
        assert kept.last_sid.tolist() == r2.last_sid[mask].tolist()
        assert kept.keys.dtype == kept.last_sid.dtype == np.int64


@pytest.mark.parametrize("seed", range(5))
class TestKernelsAgainstRowReference:
    """The whole-column kernels against row-at-a-time references."""

    def test_extend_and_filter_match_merge_scan_to_level_three(self, seed):
        db = random_database(
            seed, num_transactions=40, num_items=12, max_basket=6
        )
        sales = sales_relation(db)
        index = sales.index
        sales_rows = list(sales.rows())
        r2 = suffix_extend(sales, index)
        reference = merge_scan_extend(sales_rows, sales_rows)
        assert list(r2.rows()) == reference

        support = Counter(row[1:] for row in reference)
        frequent = {
            first * index.base + second
            for (first, second), count in support.items()
            if count >= 2
        }
        r2 = filter_by_keys(r2, frequent)
        reference = [row for row in reference if support[row[1:]] >= 2]
        assert list(r2.rows()) == reference

        levels = FrequentLevels(index.base)
        levels.add(2, frequent)
        r3 = suffix_extend(r2, index, levels.prefixes(2))
        assert [levels.items(int(key), 3) for key in r3.keys] == [
            row[1:] for row in merge_scan_extend(reference, sales_rows)
        ]

    def test_count_and_filter_match_counter(self, seed):
        """Seeds 0..4 spread the keys from 1 to 10**12 apart, crossing
        from ``np.isin``'s lookup table to the ``searchsorted`` probe."""
        rng = random.Random(seed)
        spread = 1000**seed
        keys = [rng.randrange(60) * spread for _ in range(300)]
        expected = Counter(keys)
        for via in ("sort", "hash"):
            assert sorted(count_packed_keys(keys, via=via)) == sorted(
                expected.items()
            )

        supported = {key for key in expected if rng.random() < 0.5}
        relation = InstanceRelation(
            None,
            None,
            last_sid=np.arange(len(keys), dtype=np.int64),
            keys=np.asarray(keys, dtype=np.int64),
            k=2,
        )
        kept = filter_by_keys(relation, supported)
        assert kept.keys.tolist() == [key for key in keys if key in supported]
        assert kept.last_sid.tolist() == [
            position
            for position, key in enumerate(keys)
            if key in supported
        ]
