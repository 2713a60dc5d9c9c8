"""Unit tests for the columnar relation kernel (repro.core.columns)."""

from __future__ import annotations

from array import array

import pytest

import repro.core.columns as columns
from repro.core.columns import (
    FrequentLevels,
    InstanceRelation,
    SalesIndex,
    count_packed_keys,
    count_sorted_rows,
    filter_by_keys,
    suffix_extend,
    take,
    tid_group_bounds,
)
from repro.core.setm import merge_scan_extend, run_figure4_loop
from repro.core.setm_columnar import ColumnarKernel
from repro.core.transactions import TransactionDatabase

HAVE_NUMPY = columns._np is not None


@pytest.fixture(params=["stdlib", "numpy"])
def kernel_path(request, monkeypatch):
    """Run the test under both kernel paths (numpy one when available)."""
    if request.param == "numpy":
        if not HAVE_NUMPY:
            pytest.skip("numpy not installed")
    else:
        monkeypatch.setattr(columns, "_np", None)
    return request.param


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


class TestTidGroupBounds:
    def test_empty(self):
        assert tid_group_bounds(array("q")) == [0]

    def test_single_run(self):
        assert tid_group_bounds(array("q", [7, 7, 7])) == [0, 3]

    def test_multiple_runs(self):
        tids = array("q", [1, 1, 2, 5, 5, 5])
        assert tid_group_bounds(tids) == [0, 2, 3, 6]

    def test_runs_of_one(self):
        assert tid_group_bounds(array("q", [3, 4, 5])) == [0, 1, 2, 3]


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

    def test_lazy_tids_and_items_materialize(self, kernel_path):
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
    def test_ext_counts_against_bruteforce(self, kernel_path):
        db = small_db()
        sales = sales_relation(db)
        index = sales.index
        rows = list(db.sales_rows())
        for position, (tid, _) in enumerate(rows):
            remaining = sum(
                1 for later_tid, _ in rows[position + 1:] if later_tid == tid
            )
            assert int(index.ext_counts[position]) == remaining

    def test_from_relation_matches_database_path(self, kernel_path):
        db = small_db()
        sales = sales_relation(db)
        rebuilt = SalesIndex.from_relation(
            InstanceRelation.from_rows(list(sales.rows()), k=1),
            sales.index.base,
        )
        assert list(rebuilt.ext_counts) == list(sales.index.ext_counts)
        assert list(rebuilt.tids) == list(sales.index.tids)

    def test_lazy_tids_column(self):
        db = small_db()
        index = sales_relation(db).index
        assert list(index.tids) == [tid for tid, _ in db.sales_rows()]


class TestSuffixExtend:
    def test_matches_tuple_merge_scan(self, kernel_path):
        db = small_db()
        sales = sales_relation(db)
        encoded_rows = list(sales.rows())
        r_prime = suffix_extend(sales, sales.index)
        assert sorted(r_prime.rows()) == sorted(
            merge_scan_extend(encoded_rows, encoded_rows)
        )
        assert r_prime.k == 2

    def test_level_two_keys_are_item_pairs(self, kernel_path):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        base = sales.index.base
        assert list(map(int, r_prime.keys)) == [
            first * base + second for _, first, second in r_prime.rows()
        ]

    def test_deeper_keys_rank_into_the_previous_level(self, kernel_path):
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

    def test_empty_relation(self, kernel_path):
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
    def test_levels_decode_through_the_rank_tables(self, kernel_path):
        levels = FrequentLevels(10)
        levels.add(2, [37, 12, 19])  # (3, 7), (1, 2), (1, 9)
        levels.add(3, [0 * 10 + 5, 2 * 10 + 8])  # (1, 2, 5), (3, 7, 8)
        assert levels.prefixes(1) is None
        assert list(levels.prefixes(2)) == [12, 19, 37]
        assert levels.items(4, 1) == (4,)
        assert levels.items(37, 2) == (3, 7)
        assert levels.items(1 * 10 + 9, 3) == (1, 9, 9)
        assert levels.items(1 * 10 + 4, 4) == (3, 7, 8, 4)

    def test_key_order_equals_pattern_order(self, kernel_path):
        levels = FrequentLevels(10)
        levels.add(2, [12, 19, 37])
        keys = [2 * 10 + 1, 0 * 10 + 9, 1 * 10 + 3, 0 * 10 + 4]
        patterns = [levels.items(key, 3) for key in keys]
        assert sorted(range(4), key=keys.__getitem__) == sorted(
            range(4), key=patterns.__getitem__
        )

    def test_every_level_fits_its_rank_bound(
        self, kernel_path, deep_wide_db
    ):
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
    def test_count_strategies_agree(self, kernel_path, via):
        keys = [5, 3, 5, 5, 3, 9]
        assert sorted(count_packed_keys(keys, via=via)) == [
            (3, 2),
            (5, 3),
            (9, 1),
        ]

    def test_count_empty(self, kernel_path):
        assert count_packed_keys([], via="sort") == []
        assert count_packed_keys([], via="hash") == []


class TestFilterByKeys:
    def test_keeps_only_supported(self, kernel_path):
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

    def test_all_surviving_returns_same_object(self, kernel_path):
        sales = sales_relation(small_db())
        r_prime = suffix_extend(sales, sales.index)
        everything = set(map(int, r_prime.keys))
        assert filter_by_keys(r_prime, everything) is r_prime

    def test_requires_keys(self):
        bare = InstanceRelation.from_rows([(1, 5)], k=1)
        with pytest.raises(ValueError, match="packed-keys"):
            filter_by_keys(bare, {5})


class TestTake:
    def test_gathers_rows_and_derived_columns(self, kernel_path):
        sales = sales_relation(small_db())
        taken = take(sales, [0, 2, 3])
        rows = list(sales.rows())
        assert list(taken.rows()) == [rows[0], rows[2], rows[3]]
        assert list(map(int, taken.keys)) == [
            int(sales.keys[0]), int(sales.keys[2]), int(sales.keys[3])
        ]


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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestNumpyStdlibEquivalence:
    """The two kernel paths are the same function."""

    def test_suffix_extend_same_rows(self, monkeypatch):
        db = small_db()
        sales_np = sales_relation(db)
        vectorized = suffix_extend(sales_np, sales_np.index)
        monkeypatch.setattr(columns, "_np", None)
        sales_py = sales_relation(db)
        plain = suffix_extend(sales_py, sales_py.index)
        assert list(vectorized.rows()) == list(plain.rows())
        assert list(map(int, vectorized.keys)) == list(plain.keys)
