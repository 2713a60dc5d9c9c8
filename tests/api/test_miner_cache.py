"""The Miner's bounded LRU result cache: hits, eviction, counters."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Miner, MiningConfig
from repro.errors import InvalidConfigError


class TestHitsAndMisses:
    def test_repeat_config_is_a_hit_and_identical(self, example_db):
        miner = Miner(example_db)
        config = MiningConfig(support=0.3)
        first = miner.frequent_itemsets(config)
        second = miner.frequent_itemsets(config)
        assert second is first
        info = miner.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["hit_rate"] == 0.5

    def test_confidence_does_not_split_the_cache(self, example_db):
        miner = Miner(example_db)
        first = miner.frequent_itemsets(MiningConfig(support=0.3))
        second = miner.frequent_itemsets(
            MiningConfig(support=0.3, confidence=0.9)
        )
        assert second is first

    def test_absolute_and_fractional_support_do_not_collide(self, example_db):
        # support=1 means one transaction (absolute); support=1.0 means
        # every transaction.  ``1 == 1.0`` in Python, so an ==-based
        # cache would conflate them.
        miner = Miner(example_db)
        absolute = miner.frequent_itemsets(MiningConfig(support=1))
        fractional = miner.frequent_itemsets(MiningConfig(support=1.0))
        assert absolute is not fractional
        assert absolute.support_threshold == 1
        assert fractional.support_threshold == example_db.num_transactions

    def test_unhashable_option_values_are_cacheable(self, example_db):
        miner = Miner(example_db)
        config = MiningConfig(
            support=0.3,
            options={"memory_budget_bytes": 1 << 20},
        )
        assert miner.frequent_itemsets(config) is miner.frequent_itemsets(
            config
        )

    def test_cache_info_before_any_call(self, example_db):
        info = Miner(example_db).cache_info()
        assert info == {
            "entries": 0,
            "max_entries": 8,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": None,
        }


class TestEviction:
    def test_lru_eviction_beyond_the_bound(self, example_db):
        miner = Miner(example_db, cache_entries=2)
        supports = [0.2, 0.3, 0.4]
        results = {
            s: miner.frequent_itemsets(MiningConfig(support=s))
            for s in supports
        }
        info = miner.cache_info()
        assert info["entries"] == 2
        assert info["evictions"] == 1
        # 0.2 was least recently used: re-requesting it re-mines.
        assert (
            miner.frequent_itemsets(MiningConfig(support=0.2))
            is not results[0.2]
        )
        # 0.4 is still cached.
        assert (
            miner.frequent_itemsets(MiningConfig(support=0.4))
            is results[0.4]
        )

    def test_hit_refreshes_recency(self, example_db):
        miner = Miner(example_db, cache_entries=2)
        first = miner.frequent_itemsets(MiningConfig(support=0.2))
        miner.frequent_itemsets(MiningConfig(support=0.3))
        miner.frequent_itemsets(MiningConfig(support=0.2))  # refresh
        miner.frequent_itemsets(MiningConfig(support=0.4))  # evicts 0.3
        assert (
            miner.frequent_itemsets(MiningConfig(support=0.2)) is first
        )

    def test_zero_disables_caching_but_keeps_last_result(self, example_db):
        miner = Miner(example_db, cache_entries=0)
        first = miner.frequent_itemsets(MiningConfig(support=0.3))
        second = miner.frequent_itemsets(MiningConfig(support=0.3))
        assert second is not first
        assert miner.last_result is second
        info = miner.cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0
        assert info["misses"] == 2

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "lots"])
    def test_bad_cache_entries_rejected(self, example_db, bad):
        with pytest.raises(InvalidConfigError):
            Miner(example_db, cache_entries=bad)


class TestLastResult:
    def test_cache_hit_updates_last_result(self, example_db):
        miner = Miner(example_db)
        first = miner.frequent_itemsets(MiningConfig(support=0.3))
        miner.frequent_itemsets(MiningConfig(support=0.5))
        miner.frequent_itemsets(MiningConfig(support=0.3))  # hit
        assert miner.last_result is first

    def test_post_hoc_queries_follow_last_result(self, example_db):
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.3))
        miner.frequent_itemsets(MiningConfig(support=0.6))
        narrow = dict(miner.patterns())
        miner.frequent_itemsets(MiningConfig(support=0.3))  # hit
        wide = dict(miner.patterns())
        assert set(narrow) <= set(wide)


class TestThreadSafety:
    def test_concurrent_mixed_configs_stay_consistent(self, example_db):
        miner = Miner(example_db, cache_entries=4)
        supports = [0.2, 0.3, 0.4, 0.5, 0.6]

        def mine(i: int):
            support = supports[i % len(supports)]
            result = miner.frequent_itemsets(MiningConfig(support=support))
            assert result.minimum_support == support
            return support, result.support_threshold

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(mine, range(40)))
        expected = {
            support: Miner(example_db)
            .frequent_itemsets(MiningConfig(support=support))
            .support_threshold
            for support in supports
        }
        for support, threshold in outcomes:
            assert threshold == expected[support]
        info = miner.cache_info()
        assert info["hits"] + info["misses"] == 40
        assert info["entries"] <= 4
