"""MiningConfig validation and helpers — the typed request object."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DEFAULT_ENGINE, MiningConfig
from repro.errors import InvalidConfigError, InvalidSupportError


class TestSupportValidation:
    @pytest.mark.parametrize("support", [0.0, -0.1, 1.0001, 2.5, float("nan")])
    def test_bad_fractions_rejected(self, support):
        with pytest.raises(InvalidSupportError, match="minimum_support"):
            MiningConfig(support=support)

    @pytest.mark.parametrize("support", [0, -3])
    def test_bad_counts_rejected(self, support):
        with pytest.raises(InvalidSupportError):
            MiningConfig(support=support)

    def test_offending_value_is_in_the_message(self):
        with pytest.raises(InvalidSupportError, match="0.0"):
            MiningConfig(support=0.0)

    @pytest.mark.parametrize("support", [True, False, "0.5", None])
    def test_non_numeric_support_rejected(self, support):
        with pytest.raises(InvalidSupportError):
            MiningConfig(support=support)

    @pytest.mark.parametrize("support", [0.001, 1.0, 1, 500])
    def test_legal_supports_accepted(self, support):
        assert MiningConfig(support=support).support == support

    def test_fraction_vs_count_discrimination(self):
        assert not MiningConfig(support=0.5).is_absolute_support
        assert MiningConfig(support=5).is_absolute_support

    def test_threshold_fraction_rounds_up(self):
        assert MiningConfig(support=0.30).support_threshold(10) == 3
        assert MiningConfig(support=0.25).support_threshold(10) == 3
        assert MiningConfig(support=1e-9).support_threshold(10) == 1

    def test_threshold_count_passes_through(self):
        assert MiningConfig(support=7).support_threshold(10) == 7

    def test_support_fraction_from_count(self):
        assert MiningConfig(support=5).support_fraction(10) == 0.5
        assert MiningConfig(support=50).support_fraction(10) == 1.0


class TestConfidenceValidation:
    @pytest.mark.parametrize("confidence", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_confidence_rejected(self, confidence):
        with pytest.raises(InvalidSupportError, match="minimum_confidence"):
            MiningConfig(support=0.5, confidence=confidence)

    def test_none_confidence_means_patterns_only(self):
        assert MiningConfig(support=0.5).confidence is None

    @pytest.mark.parametrize("confidence", [0.1, 1.0])
    def test_legal_confidence_accepted(self, confidence):
        config = MiningConfig(support=0.5, confidence=confidence)
        assert config.confidence == confidence


class TestOtherFields:
    @pytest.mark.parametrize("max_length", [0, -1, 1.5, True])
    def test_bad_max_length_rejected(self, max_length):
        with pytest.raises(InvalidConfigError):
            MiningConfig(support=0.5, max_length=max_length)

    def test_empty_algorithm_rejected(self):
        with pytest.raises(InvalidConfigError):
            MiningConfig(support=0.5, algorithm="")

    def test_non_mapping_options_rejected(self):
        with pytest.raises(InvalidConfigError):
            MiningConfig(support=0.5, options=["buffer_pages"])

    @pytest.mark.parametrize("key", ["", ".x", "x.", 3])
    def test_malformed_option_keys_rejected(self, key):
        with pytest.raises(InvalidConfigError):
            MiningConfig(support=0.5, options={key: 1})


class TestImmutability:
    def test_frozen(self):
        config = MiningConfig(support=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.support = 0.7

    def test_options_snapshot_detached_from_caller(self):
        options = {"buffer_pages": 64}
        config = MiningConfig(support=0.5, options=options)
        options["buffer_pages"] = 8
        assert config.options["buffer_pages"] == 64

    def test_replace_revalidates(self):
        config = MiningConfig(support=0.5)
        with pytest.raises(InvalidSupportError):
            config.replace(support=0.0)

    def test_replace_builds_new_config(self):
        config = MiningConfig(support=0.5, confidence=0.9)
        other = config.replace(algorithm="apriori")
        assert other.algorithm == "apriori"
        assert other.confidence == 0.9
        assert config.algorithm == DEFAULT_ENGINE

    def test_equality_is_by_value(self):
        assert MiningConfig(support=0.5) == MiningConfig(support=0.5)
        assert MiningConfig(support=0.5) != MiningConfig(support=0.4)


class TestNamespacedOptions:
    def test_plain_options_apply_to_any_engine(self):
        config = MiningConfig(support=0.5, options={"buffer_pages": 32})
        assert config.options_for("setm-disk") == {"buffer_pages": 32}
        assert config.options_for("setm") == {"buffer_pages": 32}

    def test_namespaced_options_apply_only_to_their_engine(self):
        config = MiningConfig(
            support=0.5, options={"setm-disk.buffer_pages": 32}
        )
        assert config.options_for("setm-disk") == {"buffer_pages": 32}
        assert config.options_for("setm") == {}

    def test_namespaced_wins_over_plain(self):
        config = MiningConfig(
            support=0.5,
            options={"buffer_pages": 8, "setm-disk.buffer_pages": 128},
        )
        assert config.options_for("setm-disk") == {"buffer_pages": 128}
        assert config.options_for("nested-loop-disk") == {"buffer_pages": 8}
