"""Executor plumbing: source resolution, post-filters, session reuse."""

from __future__ import annotations

import json

import pytest

from repro.data.example import paper_example_database
from repro.errors import PlanError
from repro.miner import Miner
from repro.query import (
    explain_query,
    parse_query,
    plan_for,
    resolve_database,
    run_query,
)


@pytest.fixture(scope="module")
def example_db():
    return paper_example_database()


class TestResolveDatabase:
    def test_path_without_loader_is_a_plan_error(self):
        query = parse_query("MINE RULES FROM '/tmp/x.basket'")
        with pytest.raises(PlanError, match="hosted datasets"):
            resolve_database(query, {})

    def test_unknown_name_lists_the_available_datasets(self, example_db):
        query = parse_query("MINE RULES FROM nope")
        with pytest.raises(PlanError, match="available datasets: a, b"):
            resolve_database(query, {"a": example_db, "b": example_db})

    def test_bare_database_source_is_used_directly(self, example_db):
        query = parse_query("MINE RULES FROM anything")
        assert resolve_database(query, example_db) is example_db

    def test_loader_receives_the_quoted_path(self, example_db):
        query = parse_query("MINE RULES FROM 'x.basket'")
        seen = []

        def loader(path):
            seen.append(path)
            return example_db

        assert resolve_database(query, {}, loader=loader) is example_db
        assert seen == ["x.basket"]


class TestRunQuery:
    def test_session_reuse_hits_the_result_cache(self, example_db):
        miner = Miner(example_db)
        text = "MINE ITEMSETS FROM ex WHERE support >= 0.3"
        run_query(text, {"ex": example_db}, miner=miner)
        before = miner.cache_info()["hits"]
        run_query(text, {"ex": example_db}, miner=miner)
        assert miner.cache_info()["hits"] == before + 1

    def test_itemsets_query_has_no_rules(self, example_db):
        document = run_query(
            "MINE ITEMSETS FROM ex WHERE support >= 0.3",
            {"ex": example_db},
        )
        assert document["rules"] is None
        assert document["result"]["num_patterns"] == 13

    def test_rhs_has_filters_consequents_only(self, example_db):
        document = run_query(
            "MINE RULES FROM ex WHERE support >= 0.3 "
            "AND confidence >= 0.5 AND rhs HAS 'D'",
            {"ex": example_db},
        )
        assert document["rules"]
        for rule in document["rules"]:
            assert "D" in rule["consequent"]

    def test_items_has_matches_stringified_labels(self):
        """Queries quote items as strings; int-labelled datasets must
        still match (label 3 vs item '3')."""
        from repro.core.transactions import TransactionDatabase

        db = TransactionDatabase(
            [(1, (1, 2, 3)), (2, (2, 3)), (3, (3,)), (4, (1, 2))]
        )
        document = run_query(
            "MINE ITEMSETS FROM d WHERE support >= 0.5 AND items HAS '3'",
            {"d": db},
        )
        assert document["result"]["patterns"]
        for entry in document["result"]["patterns"]:
            assert 3 in entry["items"]

    def test_canonical_query_is_echoed(self, example_db):
        document = run_query(
            "mine itemsets from ex where support >= 0.3",
            {"ex": example_db},
        )
        assert (
            document["query"] == "MINE ITEMSETS FROM ex WHERE support >= 0.3"
        )

    def test_length_cap_is_pushed_down(self, example_db):
        document = run_query(
            "MINE ITEMSETS FROM ex WHERE support >= 0.3 AND length <= 2",
            {"ex": example_db},
        )
        assert document["result"]["max_pattern_length"] == 2
        assert all(
            len(entry["items"]) <= 2
            for entry in document["result"]["patterns"]
        )


class TestExplain:
    def test_explain_is_deterministic_text(self, example_db):
        text = "MINE ITEMSETS FROM ex WHERE support >= 0.3"
        first = explain_query(text, {"ex": example_db}, cpu_count=2)
        second = explain_query(text, {"ex": example_db}, cpu_count=2)
        assert first == second
        assert first.splitlines()[0] == text

    def test_document_is_json_serializable(self, example_db):
        document = run_query(
            "MINE RULES FROM ex WHERE support >= 0.3 AND confidence >= 0.5",
            {"ex": example_db},
        )
        json.dumps(document)


class TestBudgetHonoured:
    """``WITH memory_budget`` reaches the engine even when the scan's
    16 B/row estimate fits it (T10.I4.D10K is estimated at 1.5 MiB)."""

    def test_2m_budget_cuts_r2_into_17_ranges(self, quest_t10_db):
        text = (
            "MINE ITEMSETS FROM q WHERE support >= 0.01 "
            "WITH memory_budget = '2M'"
        )
        plan = plan_for(parse_query(text), quest_t10_db)
        assert plan.engine == "setm-columnar"
        assert plan.config.options == {"memory_budget_bytes": 2097152}
        miner = Miner(quest_t10_db)
        document = run_query(text, quest_t10_db, miner=miner)
        assert document["engine"] == "setm-columnar"
        spill = miner.last_result.extra["spill"]
        assert spill["partitions"] == {2: 17}
        assert miner.last_result.extra["memory_budget_bytes"] == 2097152
