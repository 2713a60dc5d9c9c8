"""The Miner session facade: mining, caching, explain, selective queries."""

from __future__ import annotations

import pytest

from repro.api import mine_association_rules, mine_frequent_itemsets
from repro.config import DEFAULT_ENGINE, MiningConfig
from repro.errors import (
    EngineOptionError,
    InvalidConfigError,
    ReproError,
    UnknownAlgorithmError,
)
from repro.miner import Miner
from repro.registry import ENGINE_ALIASES, available_engines


class TestFrequentItemsets:
    def test_acceptance_criterion_call(self, example_db):
        """The ISSUE.md acceptance call, verbatim."""
        result = Miner(example_db).frequent_itemsets(MiningConfig(support=0.01))
        assert result.count_relations[1]

    def test_default_config_used_when_omitted(self, example_db):
        miner = Miner(
            example_db, default_config=MiningConfig(support=0.30)
        )
        result = miner.frequent_itemsets()
        assert result.support_threshold == 3

    def test_keyword_overrides_refine_config(self, example_db):
        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.30), algorithm="apriori", max_length=2
        )
        assert result.algorithm == "apriori"
        assert result.max_pattern_length == 2

    def test_non_config_argument_rejected(self, example_db):
        with pytest.raises(InvalidConfigError, match="MiningConfig"):
            Miner(example_db).frequent_itemsets(0.3)

    def test_unknown_algorithm(self, example_db):
        with pytest.raises(UnknownAlgorithmError):
            Miner(example_db).frequent_itemsets(
                MiningConfig(support=0.3, algorithm="magic")
            )

    def test_absolute_and_fractional_support_agree(self, example_db):
        miner = Miner(example_db)
        fractional = miner.frequent_itemsets(MiningConfig(support=0.30))
        absolute = miner.frequent_itemsets(MiningConfig(support=3))
        assert absolute.same_patterns_as(fractional)
        assert absolute.support_threshold == 3

    def test_absolute_support_reaches_every_engine(self, example_db):
        for name in available_engines():
            result = Miner(example_db).frequent_itemsets(
                MiningConfig(support=3, algorithm=name)
            )
            assert result.support_threshold == 3, name

    def test_session_timing_recorded(self, example_db):
        result = Miner(example_db).frequent_itemsets(MiningConfig(support=0.3))
        session = result.extra["session"]
        assert session["engine"] == DEFAULT_ENGINE
        assert session["api_elapsed_seconds"] >= 0.0


class TestCaching:
    def test_same_config_returns_cached_result(self, example_db):
        miner = Miner(example_db)
        config = MiningConfig(support=0.30)
        first = miner.frequent_itemsets(config)
        assert miner.frequent_itemsets(config) is first
        # An equal-by-value config hits the cache too.
        assert miner.frequent_itemsets(MiningConfig(support=0.30)) is first

    def test_confidence_does_not_fragment_the_cache(self, example_db):
        miner = Miner(example_db)
        result = miner.frequent_itemsets(MiningConfig(support=0.30))
        rules = miner.rules(MiningConfig(support=0.30, confidence=0.70))
        assert miner.last_result is result
        assert len(rules) == 11

    def test_different_support_remines(self, example_db):
        miner = Miner(example_db)
        low = miner.frequent_itemsets(MiningConfig(support=0.30))
        high = miner.frequent_itemsets(MiningConfig(support=0.60))
        assert low is not high
        assert low.support_threshold != high.support_threshold


class TestMineDelta:
    """``mine_delta`` reroutes to ``setm-incremental``; options follow."""

    def _appended(self, example_db, tmp_path):
        from repro.data.formats import open_chunk_source
        from repro.data.ingest import stream_encode
        from repro.data.io import write_basket_file

        base = tmp_path / "base.basket"
        write_basket_file(example_db, base)
        dataset = stream_encode(open_chunk_source(base))
        delta = tmp_path / "delta.basket"
        delta.write_text("101: A B C\n102: B C\n")
        return dataset, open_chunk_source(delta)

    def test_columnar_options_move_out_of_the_incremental_run(
        self, example_db, tmp_path
    ):
        dataset, delta = self._appended(example_db, tmp_path)
        try:
            miner = Miner(dataset)
            config = MiningConfig(
                support=0.3,
                algorithm="setm-columnar",
                options={"memory_budget_bytes": 32768, "workers": 2},
                state_dir=str(tmp_path / "state"),
            )
            full = miner.mine_delta(config)
            assert full.algorithm == "setm-incremental"
            assert full.extra["incremental"]["mode"] == "full"
            dataset.append_chunks(delta)
            result = miner.mine_delta(config)
            assert result.extra["incremental"]["mode"] == "delta"
            # The budgeted, pooled columnar mine of the grown data agrees.
            reference = miner.frequent_itemsets(config)
            assert reference.algorithm == "setm-columnar"
            assert result.count_relations == reference.count_relations
            assert result.iterations == reference.iterations
        finally:
            dataset.close()

    def test_options_the_incremental_engine_takes_stay_plain(
        self, example_db, tmp_path
    ):
        result = Miner(example_db).mine_delta(
            MiningConfig(
                support=0.3,
                algorithm="setm-columnar",
                options={"measure_memory": True, "workers": 2},
                state_dir=str(tmp_path / "state"),
            )
        )
        assert result.algorithm == "setm-incremental"
        assert result.extra["peak_memory_bytes"] > 0

    def test_option_neither_engine_takes_fails_typed(
        self, example_db, tmp_path
    ):
        with pytest.raises(EngineOptionError, match="setm-columnar"):
            Miner(example_db).mine_delta(
                MiningConfig(
                    support=0.3,
                    algorithm="setm-columnar",
                    options={"buffer_pages": 8},
                    state_dir=str(tmp_path / "state"),
                )
            )


class TestRulesAndQueries:
    def test_rules_need_confidence(self, example_db):
        with pytest.raises(InvalidConfigError, match="confidence"):
            Miner(example_db).rules(MiningConfig(support=0.30))

    def test_rules_match_legacy_wrapper(self, example_db):
        rules = Miner(example_db).rules(
            MiningConfig(support=0.30, confidence=0.70)
        )
        _, legacy = mine_association_rules(example_db, 0.30, 0.70)
        assert [str(r) for r in rules] == [str(r) for r in legacy]

    def test_queries_require_a_cached_run(self, example_db):
        miner = Miner(example_db)
        with pytest.raises(ReproError, match="no mining run"):
            miner.support_of("A")
        with pytest.raises(ReproError, match="no mining run"):
            list(miner.patterns())

    def test_support_of_is_order_insensitive(self, example_db):
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.30))
        assert miner.support_of("F", "D", "E") == pytest.approx(0.3)
        assert miner.support_of("A", "F") is None

    def test_patterns_selective_filters(self, example_db):
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.30))
        triples = list(miner.patterns(length=3))
        assert triples == [(("D", "E", "F"), 3)]
        containing = dict(miner.patterns(containing=["F"], length=2))
        assert set(containing) == {("D", "F"), ("E", "F")}
        heavy = list(miner.patterns(min_count=7))
        assert all(count >= 7 for _, count in heavy)

    def test_rules_about_filters_by_item(self, example_db):
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.30))
        rules = miner.rules_about("F", confidence=0.70)
        assert rules
        assert all("F" in rule.pattern for rule in rules)

    def test_rules_about_needs_some_confidence(self, example_db):
        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.30))
        with pytest.raises(InvalidConfigError, match="confidence"):
            miner.rules_about("F")

    def test_rules_about_validates_confidence_range(self, example_db):
        """Out-of-range confidence raises the structured error here too."""
        from repro.errors import InvalidSupportError

        miner = Miner(example_db)
        miner.frequent_itemsets(MiningConfig(support=0.30))
        with pytest.raises(InvalidSupportError, match="minimum_confidence"):
            miner.rules_about("F", confidence=1.5)


class TestExplain:
    def test_explain_mentions_engine_and_threshold(self, example_db):
        text = Miner(example_db).explain(
            MiningConfig(support=0.30, confidence=0.70)
        )
        assert "engine: setm" in text
        assert "threshold 3" in text
        assert "cached: no" in text

    def test_explain_does_not_mine(self, example_db):
        miner = Miner(example_db)
        miner.explain(MiningConfig(support=0.30))
        assert miner.last_result is None

    def test_explain_is_a_dry_run_validator(self, example_db):
        with pytest.raises(EngineOptionError):
            Miner(example_db).explain(
                MiningConfig(support=0.3, options={"buffer_pages": 4})
            )

    def test_explain_reports_out_of_core_capability(self, example_db):
        miner = Miner(example_db)
        text = miner.explain(MiningConfig(support=0.3))
        assert "out of core: yes (honours memory_budget_bytes)" in text
        assert "out of core: no" in miner.explain(
            MiningConfig(support=0.3, algorithm="setm")
        )

    def test_explain_reflects_cache_and_capabilities(self, example_db):
        miner = Miner(example_db)
        config = MiningConfig(
            support=3, algorithm="setm-disk", options={"buffer_pages": 16}
        )
        miner.frequent_itemsets(config)
        text = miner.explain(config)
        assert "reports page accesses: yes" in text
        assert "buffer_pages=16" in text
        assert "cached: yes" in text
        assert "absolute" in text


class TestLegacyEquivalence:
    """The old flat functions and the Miner agree, engine by engine."""

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize(
        "name", sorted({*available_engines(), *ENGINE_ALIASES})
    )
    def test_wrapper_matches_miner(self, name, example_db):
        via_miner = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.30, algorithm=name)
        )
        via_legacy = mine_frequent_itemsets(example_db, 0.30, algorithm=name)
        assert via_legacy.same_patterns_as(via_miner), name

    def test_legacy_options_still_flow(self, example_db):
        result = mine_frequent_itemsets(
            example_db,
            0.30,
            algorithm="setm-disk",
            buffer_pages=16,
            max_length=2,
        )
        assert result.extra["buffer_pages"] == 16
        assert result.max_pattern_length == 2

    def test_legacy_rejects_bad_option_before_mining(self, example_db):
        with pytest.raises(EngineOptionError):
            mine_frequent_itemsets(example_db, 0.30, buffer_pages=16)
