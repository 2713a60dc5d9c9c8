"""Differential tests: ``setm-columnar`` ≡ ``setm`` ≡ ``bruteforce``.

The columnar engine's contract is strict: not just the same supported
patterns, but identical count relations, identical unfiltered item
counts, and identical per-iteration cardinalities (``|R'_k|``,
``|R_k|``, ``|C_k|``) — the numbers the paper's Figures 5/6 plot.
These tests hold it to that across the paper's worked example, random
databases, and seeded QUEST workloads over a minsup grid.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce
from repro.core.rules import generate_rules
from repro.core.setm import setm
from repro.core.setm_columnar import setm_columnar
from repro.core.transactions import TransactionDatabase
from repro.data.quest import QuestConfig, generate_quest_dataset

# Strategy: small random transaction databases (items 1..12, <=25 txns).
databases = st.lists(
    st.frozensets(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
    min_size=1,
    max_size=25,
).map(
    lambda baskets: TransactionDatabase(
        (tid, tuple(basket)) for tid, basket in enumerate(baskets, start=1)
    )
)

#: Seeded QUEST configurations × minsup grid for the property-style
#: differential sweep (small sizes keep the tier-1 suite fast).
QUEST_GRID = [
    QuestConfig(num_transactions=300, avg_transaction_len=5,
                avg_pattern_len=2, seed=seed)
    for seed in (7, 1994)
] + [
    QuestConfig(num_transactions=200, avg_transaction_len=8,
                avg_pattern_len=3, seed=11)
]
MINSUP_GRID = (0.01, 0.02, 0.05)


def assert_equivalent(reference, candidate):
    """Full-strength equivalence: counts, C_1, and iteration stats."""
    assert candidate.count_relations == reference.count_relations
    assert (
        candidate.unfiltered_item_counts == reference.unfiltered_item_counts
    )
    assert candidate.iterations == reference.iterations
    assert candidate.support_threshold == reference.support_threshold


class TestAgainstSetm:
    def test_paper_example(self, example_db):
        assert_equivalent(setm(example_db, 0.30), setm_columnar(example_db, 0.30))

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_random_databases(self, make_random_db, seed):
        db = make_random_db(seed)
        assert_equivalent(setm(db, 0.05), setm_columnar(db, 0.05))

    @pytest.mark.parametrize("config", QUEST_GRID, ids=lambda c: f"seed{c.seed}")
    @pytest.mark.parametrize("minsup", MINSUP_GRID)
    def test_quest_grid(self, config, minsup):
        db = generate_quest_dataset(config)
        reference = setm(db, minsup)
        candidate = setm_columnar(db, minsup)
        assert_equivalent(reference, candidate)
        # Derived rules agree too (satellite: rules ride on the counts).
        assert generate_rules(candidate, 0.6) == generate_rules(reference, 0.6)

    def test_quest_against_bruteforce(self):
        db = generate_quest_dataset(
            QuestConfig(num_transactions=120, avg_transaction_len=4,
                        avg_pattern_len=2, seed=42)
        )
        assert setm_columnar(db, 0.05).same_patterns_as(bruteforce(db, 0.05))

    @settings(max_examples=30, deadline=None)
    @given(db=databases, minsup=st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    def test_property_equivalence(self, db, minsup):
        assert_equivalent(setm(db, minsup), setm_columnar(db, minsup))

    @settings(max_examples=15, deadline=None)
    @given(db=databases)
    def test_property_against_bruteforce(self, db):
        assert setm_columnar(db, 0.25).same_patterns_as(bruteforce(db, 0.25))


class TestOptionsAndEdges:
    @pytest.mark.parametrize("via", ["auto", "sort", "hash"])
    def test_count_via_strategies_agree(self, make_random_db, via):
        db = make_random_db(21)
        assert_equivalent(setm(db, 0.05), setm_columnar(db, 0.05, count_via=via))

    def test_empty_database(self):
        result = setm_columnar(TransactionDatabase([]), 0.5)
        assert result.count_relations[1] == {}
        assert result.max_pattern_length == 0

    def test_single_transaction(self):
        result = setm_columnar(TransactionDatabase([(1, ["A", "B", "C"])]), 1.0)
        assert result.count_relations[3] == {("A", "B", "C"): 1}

    def test_max_length_caps_iterations(self):
        db = TransactionDatabase([(1, ["A", "B", "C"]), (2, ["A", "B", "C"])])
        result = setm_columnar(db, 0.5, max_length=2)
        assert result.max_pattern_length == 2
        assert max(stats.k for stats in result.iterations) == 2

    def test_string_and_integer_items(self):
        by_str = setm_columnar(
            TransactionDatabase([(1, ["A", "B"]), (2, ["A", "B"])]), 0.5
        )
        by_int = setm_columnar(
            TransactionDatabase([(1, [10, 20]), (2, [10, 20])]), 0.5
        )
        assert by_str.count_relations[2] == {("A", "B"): 2}
        assert by_int.count_relations[2] == {(10, 20): 2}

    def test_absolute_support(self, example_db):
        assert_equivalent(setm(example_db, 3), setm_columnar(example_db, 3))

    def test_algorithm_name_and_timings(self, example_db):
        result = setm_columnar(example_db, 0.30)
        assert result.algorithm == "setm-columnar"
        assert result.elapsed_seconds > 0
        timings = result.extra["iteration_seconds"]
        assert set(timings) == {stats.k for stats in result.iterations}


class TestThroughApi:
    def test_registered_and_minable_via_miner(self, example_db):
        from repro.config import MiningConfig
        from repro.miner import Miner

        result = Miner(example_db).frequent_itemsets(
            MiningConfig(
                support=0.30,
                algorithm="setm-columnar",
                options={"setm-columnar.count_via": "sort"},
            )
        )
        assert result.algorithm == "setm-columnar"
        assert result.extra["count_via"] == "sort"

    def test_explain_reports_columnar_representation(self, example_db):
        from repro.config import MiningConfig
        from repro.miner import Miner

        text = Miner(example_db).explain(
            MiningConfig(support=0.30, algorithm="setm-columnar")
        )
        assert "representation: columnar" in text
