"""Tests for the partition-parallel engine (repro.core.setm_parallel).

The acceptance bar: ``setm-parallel`` must produce patterns, rules, and
iteration statistics identical to ``setm`` across a QUEST × minsup ×
workers grid — with ``parallel_threshold=0`` so the pool path really
runs, not the short circuit.  The pool is shared across runs, so the
grid costs one pool start-up per worker count, not one per run.
"""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce
from repro.core.rules import generate_rules
from repro.core.setm import setm
from repro.core.setm_parallel import (
    DEFAULT_PARALLEL_THRESHOLD,
    ParallelColumnarKernel,
    setm_parallel,
)
from repro.core.transactions import TransactionDatabase
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.errors import InvalidConfigError


def _quest_db(seed, transactions=400):
    return generate_quest_dataset(
        QuestConfig(
            num_transactions=transactions,
            avg_transaction_len=7,
            avg_pattern_len=3,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def quest_references():
    """``setm`` oracles per (seed, minsup) grid point."""
    grid = {}
    for seed in (0, 1):
        db = _quest_db(seed)
        for minsup in (0.01, 0.03):
            grid[(seed, minsup)] = (db, setm(db, minsup))
    return grid


class TestDifferentialGrid:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("minsup", [0.01, 0.03])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_setm_across_grid(
        self, quest_references, seed, minsup, workers
    ):
        db, reference = quest_references[(seed, minsup)]
        result = setm_parallel(
            db,
            minsup,
            workers=workers,
            parallel_threshold=0,
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.unfiltered_item_counts == (
            reference.unfiltered_item_counts
        )
        assert result.extra["workers"] == workers
        if workers > 1:
            assert result.extra["parallel"]["parallel_iterations"]

    def test_matches_bruteforce_on_example(self, example_db):
        result = setm_parallel(
            example_db, 0.30, workers=2, parallel_threshold=0
        )
        assert result.same_patterns_as(bruteforce(example_db, 0.30))

    def test_rules_identical_to_setm(self, quest_references):
        db, reference = quest_references[(0, 0.01)]
        result = setm_parallel(db, 0.01, workers=2, parallel_threshold=0)
        assert generate_rules(result, 0.5) == generate_rules(reference, 0.5)

    def test_max_length(self, quest_references):
        db, _ = quest_references[(0, 0.01)]
        result = setm_parallel(
            db, 0.01, workers=2, parallel_threshold=0, max_length=2
        )
        assert result.max_pattern_length <= 2

    def test_spawn_start_method_agrees(self, quest_references):
        """The spawn leg: every shipped object must actually pickle."""
        db, reference = quest_references[(1, 0.03)]
        result = setm_parallel(
            db,
            0.03,
            workers=2,
            parallel_threshold=0,
            start_method="spawn",
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.extra["parallel"]["start_method"] == "spawn"


class TestShortCircuit:
    def test_small_iterations_stay_in_process(self, example_db):
        result = setm_parallel(example_db, 0.30, workers=4)
        parallel = result.extra["parallel"]
        assert parallel["partitions"] == {}
        assert parallel["parallel_iterations"] == []
        assert parallel["short_circuited"]
        assert parallel["threshold_rows"] == DEFAULT_PARALLEL_THRESHOLD

    def test_workers_one_never_builds_a_pool(self, example_db):
        from repro.core import setm_parallel as module

        before = dict(module._POOLS)
        result = setm_parallel(
            example_db, 0.30, workers=1, parallel_threshold=0
        )
        assert module._POOLS == before
        assert result.extra["workers"] == 1

    def test_uniform_keys_fall_back_to_serial(self):
        # Every transaction is the same single pair: R'_2 has one
        # distinct key, so at most one partition is non-empty.
        db = TransactionDatabase(
            (tid, ["a", "b"]) for tid in range(1, 30)
        )
        result = setm_parallel(db, 0.5, workers=4, parallel_threshold=0)
        assert result.extra["parallel"]["partitions"] == {}
        assert result.same_patterns_as(setm(db, 0.5))


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, "4"])
    def test_bad_workers_rejected(self, example_db, workers):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_parallel(example_db, 0.30, workers=workers)

    @pytest.mark.parametrize("threshold", [-1, 0.5, True, "none"])
    def test_bad_threshold_rejected(self, example_db, threshold):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_parallel(
                example_db, 0.30, parallel_threshold=threshold
            )

    def test_bad_start_method_rejected(self, example_db):
        with pytest.raises(InvalidConfigError, match="start_method"):
            setm_parallel(example_db, 0.30, start_method="teleport")

    def test_env_start_method_is_honoured(self, example_db, monkeypatch):
        from repro.core.setm_parallel import START_METHOD_ENV

        monkeypatch.setenv(START_METHOD_ENV, "teleport")
        with pytest.raises(InvalidConfigError, match="start_method"):
            ParallelColumnarKernel(example_db)

    def test_default_workers_is_cpu_count(self, example_db, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        kernel = ParallelColumnarKernel(example_db)
        assert kernel._workers == 3


class TestPlumbing:
    def test_registry_capability_and_options(self):
        from repro.registry import get_engine

        spec = get_engine("setm-parallel")
        assert spec.parallel is True
        assert spec.out_of_core is False
        assert spec.representation == "columnar"
        assert "workers" in spec.accepted_options
        assert "parallel_threshold" in spec.accepted_options

    def test_miner_explain_reports_worker_count(self, example_db):
        from repro.config import MiningConfig
        from repro.miner import Miner

        miner = Miner(example_db)
        text = miner.explain(
            MiningConfig(
                support=0.3,
                algorithm="setm-parallel",
                options={"workers": 3},
            )
        )
        assert "parallel: yes (workers=3)" in text
        assert "parallel: no" in miner.explain(MiningConfig(support=0.3))

    def test_workers_flow_through_miner(self, example_db):
        from repro.config import MiningConfig
        from repro.miner import Miner

        result = Miner(example_db).frequent_itemsets(
            MiningConfig(
                support=0.3,
                algorithm="setm-parallel",
                options={"workers": 2, "parallel_threshold": 0},
            )
        )
        assert result.extra["workers"] == 2
        assert result.same_patterns_as(bruteforce(example_db, 0.30))
