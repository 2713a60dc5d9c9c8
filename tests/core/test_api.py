"""Unit tests for the front-door API (repro.api) and its compat layer."""

from __future__ import annotations

import pytest

import repro
from repro.api import ALGORITHMS, mine_association_rules, mine_frequent_itemsets
from repro.config import DEFAULT_ENGINE
from repro.errors import (
    InvalidSupportError,
    ReproError,
    UnknownAlgorithmError,
)


class TestRegistry:
    def test_expected_engines_registered(self):
        assert {
            "setm",
            "setm-columnar",
            "setm-columnar-disk",
            "setm-parallel",
            "setm-spill-parallel",
            "setm-disk",
            "setm-sql",
            "setm-sqlite",
            "nested-loop",
            "nested-loop-disk",
            "setm-incremental",
            "apriori",
            "ais",
            "bruteforce",
        } == set(ALGORITHMS)

    def test_default_algorithm_is_default_engine(self, example_db):
        result = mine_frequent_itemsets(example_db, 0.30)
        assert result.algorithm == DEFAULT_ENGINE

    def test_unknown_algorithm_message_lists_registry(self, example_db):
        with pytest.raises(ValueError) as excinfo:
            mine_frequent_itemsets(example_db, 0.3, algorithm="fpgrowth")
        message = str(excinfo.value)
        assert "fpgrowth" in message
        assert "setm" in message

    def test_unknown_algorithm_is_structured(self, example_db):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            mine_frequent_itemsets(example_db, 0.3, algorithm="fpgrowth")
        assert excinfo.value.algorithm == "fpgrowth"
        assert "setm" in excinfo.value.known

    def test_every_engine_callable_through_api(self, example_db):
        for algorithm in ALGORITHMS:
            result = mine_frequent_itemsets(
                example_db, 0.30, algorithm=algorithm
            )
            assert result.count_relations[2], algorithm

    def test_getitem_returns_engine_callable(self, example_db):
        runner = ALGORITHMS["setm"]
        assert runner(example_db, 0.30).count_relations[2]

    def test_dict_style_reads_still_work(self):
        """Read-side dict API old code relied on: copy(), dict(), get()."""
        snapshot = ALGORITHMS.copy()
        assert isinstance(snapshot, dict)
        assert set(snapshot) == set(ALGORITHMS)
        assert dict(ALGORITHMS) == snapshot
        assert ALGORITHMS.get("fpgrowth") is None

    def test_missing_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            ALGORITHMS["fpgrowth"]
        assert "fpgrowth" not in ALGORITHMS

    def test_mapping_is_read_only(self):
        """Engines register through repro.registry; the view rejects writes."""
        sentinel = ALGORITHMS["setm"]
        with pytest.raises(TypeError):
            ALGORITHMS["legacy-custom"] = sentinel
        assert "legacy-custom" not in ALGORITHMS
        with pytest.raises(TypeError):
            del ALGORITHMS["setm"]
        assert ALGORITHMS["setm"] is sentinel


class TestRules:
    def test_returns_result_and_rules(self, example_db):
        result, rules = mine_association_rules(example_db, 0.30, 0.70)
        assert result.max_pattern_length == 3
        assert len(rules) == 11

    def test_bad_support_rejected_at_boundary(self, example_db):
        with pytest.raises(ValueError, match="minimum_support"):
            mine_association_rules(example_db, 0.0, 0.7)

    def test_negative_support_rejected(self, example_db):
        with pytest.raises(InvalidSupportError, match="-0.2"):
            mine_frequent_itemsets(example_db, -0.2)

    def test_bad_confidence_rejected_at_boundary(self, example_db):
        with pytest.raises(ValueError, match="minimum_confidence"):
            mine_association_rules(example_db, 0.3, 1.5)

    def test_negative_confidence_rejected(self, example_db):
        with pytest.raises(InvalidSupportError, match="minimum_confidence"):
            mine_association_rules(example_db, 0.3, -0.5)

    def test_boundary_errors_are_repro_errors(self, example_db):
        with pytest.raises(ReproError):
            mine_association_rules(example_db, 0.0, 0.7)

    def test_integer_support_keeps_fraction_reading(self, example_db):
        """Legacy calls documented support as a fraction: 1 means 100%."""
        result = mine_frequent_itemsets(example_db, 1)
        assert result.support_threshold == example_db.num_transactions

    def test_integer_support_above_one_points_at_mining_config(self, example_db):
        """Legacy wrappers never read ints as counts; the error says where to."""
        with pytest.raises(InvalidSupportError, match="MiningConfig"):
            mine_frequent_itemsets(example_db, 5)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.10.0"

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_readme_quickstart_snippet(self):
        """The exact code shown in README.md must work."""
        from repro import TransactionDatabase, mine_association_rules

        db = TransactionDatabase(
            [
                (1, ["bread", "butter", "milk"]),
                (2, ["bread", "butter"]),
                (3, ["beer", "chips"]),
            ]
        )
        result, rules = mine_association_rules(
            db, minimum_support=0.5, minimum_confidence=0.9
        )
        assert "butter ==> bread, [100.0%, 66.7%]" in [
            str(rule) for rule in rules
        ]

    def test_miner_quickstart_snippet(self):
        """The session-API quickstart shown in repro/__init__.py."""
        from repro import Miner, MiningConfig, TransactionDatabase

        db = TransactionDatabase(
            [
                (1, ["bread", "butter", "milk"]),
                (2, ["bread", "butter"]),
            ]
        )
        miner = Miner(db)
        config = MiningConfig(support=0.5, confidence=0.9)
        result = miner.frequent_itemsets(config)
        rules = miner.rules(config)
        assert result.count_relations[2]
        assert rules
        assert miner.support_of("bread", "butter") == 1.0
