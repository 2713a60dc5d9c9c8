"""Tests for ``setm-columnar`` with ``workers`` (repro.core.setm_columnar_disk).

With ``workers > 1`` and no budget, ``setm-columnar`` runs
:class:`SpillingColumnarKernel` under the default memory budget: a
level whose priced ``|R'_k|`` reaches :data:`POOL_MIN_ROWS` is cut into
``BATCHES_PER_WORKER × workers`` key ranges that run in the worker
pool; a smaller level is counted in process.  With ``workers=1`` and no
budget it runs the in-memory ``ColumnarKernel`` and never builds a
pool.  The acceptance bar: patterns, rules and iteration statistics
identical to ``setm`` across a QUEST × minsup × workers grid — with
``POOL_MIN_ROWS`` lowered to 1 so the pool path really runs.  The pool
is shared across runs, so the grid costs one pool start-up per worker
count, not one per run.
"""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce
from repro.core import setm_columnar_disk as pooled
from repro.core.rules import generate_rules
from repro.core.setm import setm
from repro.core.setm_columnar import setm_columnar
from repro.core.partitioning import ROW_BYTES
from repro.core.setm_columnar_disk import (
    BATCHES_PER_WORKER,
    POOL_MIN_ROWS,
    SpillingColumnarKernel,
)
from repro.core.transactions import TransactionDatabase
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.errors import (
    EngineOptionError,
    InvalidConfigError,
    TransportError,
)
from repro.registry import get_engine


def _quest_db(seed, transactions=400):
    return generate_quest_dataset(
        QuestConfig(
            num_transactions=transactions,
            avg_transaction_len=7,
            avg_pattern_len=3,
            seed=seed,
        )
    )


@pytest.fixture
def pool_every_level(monkeypatch):
    """Pool every non-empty level, however small."""
    monkeypatch.setattr(pooled, "POOL_MIN_ROWS", 1)


@pytest.fixture(scope="module")
def quest_references():
    """``setm`` oracles per (seed, minsup) grid point."""
    grid = {}
    for seed in (0, 1):
        db = _quest_db(seed)
        for minsup in (0.01, 0.03):
            grid[(seed, minsup)] = (db, setm(db, minsup))
    return grid


@pytest.mark.usefixtures("pool_every_level")
class TestDifferentialGrid:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("minsup", [0.01, 0.03])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_setm_across_grid(
        self, quest_references, seed, minsup, workers
    ):
        db, reference = quest_references[(seed, minsup)]
        result = setm_columnar(db, minsup, workers=workers)
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.unfiltered_item_counts == (
            reference.unfiltered_item_counts
        )
        if workers > 1:
            assert result.extra["workers"] == workers
            assert result.extra["parallel"]["parallel_iterations"]
        else:
            # One worker, no budget: the in-memory kernel, no telemetry.
            assert "parallel" not in result.extra

    def test_matches_bruteforce_on_example(self, example_db):
        result = setm_columnar(example_db, 0.30, workers=2)
        assert result.same_patterns_as(bruteforce(example_db, 0.30))

    def test_rules_identical_to_setm(self, quest_references):
        db, reference = quest_references[(0, 0.01)]
        result = setm_columnar(db, 0.01, workers=2)
        assert generate_rules(result, 0.5) == generate_rules(reference, 0.5)

    def test_max_length(self, quest_references):
        db, _ = quest_references[(0, 0.01)]
        result = setm_columnar(db, 0.01, workers=2, max_length=2)
        assert result.max_pattern_length <= 2

    def test_spawn_start_method_agrees(self, quest_references):
        """The spawn leg: every shipped object must actually pickle."""
        db, reference = quest_references[(1, 0.03)]
        result = setm_columnar(db, 0.03, workers=2, start_method="spawn")
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.extra["parallel"]["start_method"] == "spawn"


class TestPoolGate:
    """A level is pooled exactly when its priced ``|R'_k|`` reaches the gate."""

    @pytest.fixture(scope="class")
    def wide(self):
        """``|R'_2|`` of about 90,000 rows: above the default gate."""
        db = generate_quest_dataset(
            QuestConfig(
                num_transactions=2000,
                avg_transaction_len=10,
                avg_pattern_len=4,
                seed=3,
            )
        )
        return db, setm(db, 0.02)

    def test_default_gate_pools_a_level_above_it(self, wide):
        db, reference = wide
        assert reference.iterations[1].candidate_instances >= POOL_MIN_ROWS
        result = setm_columnar(db, 0.02, workers=2)
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        parallel = result.extra["parallel"]
        assert 2 in parallel["parallel_iterations"]
        assert parallel["partitions"][2] >= 2
        assert result.extra["spill"]["partitions"][2] == (
            parallel["partitions"][2]
        )

    def test_level_at_the_gate_is_pooled(self, wide, monkeypatch):
        db, reference = wide
        rows = reference.iterations[1].candidate_instances
        monkeypatch.setattr(pooled, "POOL_MIN_ROWS", rows)
        result = setm_columnar(db, 0.02, workers=2)
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.extra["parallel"]["partitions"][2] >= 2

    def test_level_below_the_gate_runs_in_process(self, wide, monkeypatch):
        db, reference = wide
        rows = reference.iterations[1].candidate_instances
        monkeypatch.setattr(pooled, "POOL_MIN_ROWS", rows + 1)
        result = setm_columnar(db, 0.02, workers=2)
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        parallel = result.extra["parallel"]
        assert 2 not in parallel["parallel_iterations"]
        assert 2 in parallel["short_circuited"]
        assert 2 not in result.extra["spill"]["partitions"]

    def test_levels_the_budget_cuts_are_planned_as_inline(
        self, quest_references, pool_every_level
    ):
        db, reference = quest_references[(0, 0.01)]
        inline = setm_columnar(db, 0.01, memory_budget_bytes=16384)
        pooled_run = setm_columnar(
            db, 0.01, workers=2, memory_budget_bytes=16384
        )
        assert pooled_run.iterations == reference.iterations
        cut = inline.extra["spill"]["partitions"]
        assert cut
        # The gate also cuts the levels the budget keeps whole; the
        # levels the budget cuts keep the budget's ranges.
        planned = pooled_run.extra["spill"]["partitions"]
        assert {k: planned[k] for k in cut} == cut

    def test_small_iterations_stay_in_process(self, example_db):
        result = setm_columnar(example_db, 0.30, workers=4)
        parallel = result.extra["parallel"]
        assert parallel["partitions"] == {}
        assert parallel["parallel_iterations"] == []
        assert parallel["short_circuited"]
        assert "threshold_rows" not in parallel
        assert result.extra["spill"]["bytes_written"] == 0
        assert result.extra["transport"]["sessions"] == 0

    def test_workers_one_never_builds_a_pool(
        self, example_db, pool_every_level
    ):
        from repro.core import setm_parallel as pools

        before = dict(pools._POOLS)
        result = setm_columnar(example_db, 0.30, workers=1)
        assert pools._POOLS == before
        # No budget and one worker: ColumnarKernel, unchanged.
        for block in ("workers", "parallel", "spill", "memory_budget_bytes"):
            assert block not in result.extra
        assert result.same_patterns_as(bruteforce(example_db, 0.30))

    def test_uniform_keys_fall_back_to_serial(self, pool_every_level):
        # Every transaction is the same single pair: R'_2 has one
        # distinct key, which no plan can cut into two ranges.
        db = TransactionDatabase(
            (tid, ["a", "b"]) for tid in range(1, 30)
        )
        result = setm_columnar(db, 0.5, workers=4)
        assert result.extra["parallel"]["partitions"] == {}
        assert result.same_patterns_as(setm(db, 0.5))

    def test_pooled_shares_live_under_spill_dir(
        self, example_db, pool_every_level, tmp_path, monkeypatch
    ):
        roots = []
        close = SpillingColumnarKernel.close

        def recording_close(kernel):
            roots.append(kernel._spill_root)
            close(kernel)

        monkeypatch.setattr(SpillingColumnarKernel, "close", recording_close)
        result = setm_columnar(
            example_db, 0.30, workers=2, spill_dir=tmp_path
        )
        assert result.same_patterns_as(bruteforce(example_db, 0.30))
        assert result.extra["spill"]["bytes_written"] > 0
        assert len(roots) == 1 and roots[0].parent == tmp_path
        assert list(tmp_path.iterdir()) == []  # the private root is gone


class TestLevelShare:
    """The range size, in bytes, a level of ``rows`` priced rows is planned in."""

    def _shares(self, db, rows, **kwargs):
        """``(budget share, level share)`` of a fresh kernel, in bytes."""
        kernel = SpillingColumnarKernel(db, **kwargs)
        try:
            return kernel._share_bytes, kernel._level_share(rows)
        finally:
            kernel.close()

    def test_workers_one_keeps_the_budget_share(self, example_db):
        budget, share = self._shares(example_db, 4 * POOL_MIN_ROWS, workers=1)
        assert share == budget

    @pytest.mark.parametrize("rows", [0, 1, POOL_MIN_ROWS - 1])
    def test_level_below_the_gate_keeps_the_budget_share(
        self, example_db, rows
    ):
        budget, share = self._shares(example_db, rows, workers=4)
        assert share == budget

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "rows", [POOL_MIN_ROWS, 3 * POOL_MIN_ROWS + 7]
    )
    def test_pooled_level_is_cut_into_the_pool_batches(
        self, example_db, workers, rows
    ):
        _, share = self._shares(example_db, rows, workers=workers)
        assert share % ROW_BYTES == 0
        share_rows = share // ROW_BYTES
        ranges = BATCHES_PER_WORKER * workers
        # The smallest share that holds the level in that many ranges.
        assert share_rows * ranges >= rows
        assert (share_rows - 1) * ranges < rows

    def test_level_filling_the_budget_share_is_still_pooled(
        self, example_db
    ):
        budget, _ = self._shares(example_db, 0, workers=2)
        _, share = self._shares(example_db, budget // ROW_BYTES, workers=2)
        assert share < budget

    def test_level_the_budget_cuts_keeps_the_budget_share(self, example_db):
        budget, share = self._shares(
            example_db,
            POOL_MIN_ROWS + 1,
            workers=2,
            memory_budget_bytes=4 * POOL_MIN_ROWS * ROW_BYTES,
        )
        assert budget == POOL_MIN_ROWS * ROW_BYTES
        assert share == budget


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, "4"])
    def test_bad_workers_rejected(self, example_db, workers):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_columnar(example_db, 0.30, workers=workers)

    def test_parallel_threshold_is_not_an_option(self, example_db):
        with pytest.raises(EngineOptionError, match="parallel_threshold"):
            get_engine("setm-columnar").run(
                example_db, 0.30, options={"parallel_threshold": 0}
            )

    def test_bad_start_method_rejected(self, example_db):
        with pytest.raises(InvalidConfigError, match="start_method"):
            setm_columnar(example_db, 0.30, start_method="teleport")

    def test_unknown_transport_rejected(self, example_db):
        with pytest.raises(TransportError, match="carrier-pigeon"):
            setm_columnar(example_db, 0.30, transport="carrier-pigeon")

    def test_spill_dir_is_an_option(self, example_db, tmp_path):
        result = get_engine("setm-columnar").run(
            example_db,
            0.30,
            options={"spill_dir": str(tmp_path), "workers": 2},
        )
        assert result.same_patterns_as(bruteforce(example_db, 0.30))
        assert list(tmp_path.iterdir()) == []

    def test_env_start_method_is_honoured(self, example_db, monkeypatch):
        from repro.core.setm_parallel import START_METHOD_ENV

        monkeypatch.setenv(START_METHOD_ENV, "teleport")
        with pytest.raises(InvalidConfigError, match="start_method"):
            SpillingColumnarKernel(example_db)

    def test_default_workers_is_cpu_count(self, example_db, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        kernel = SpillingColumnarKernel(example_db, workers=None)
        assert kernel._workers == 3


class TestPlumbing:
    def test_registry_options(self):
        spec = get_engine("setm-columnar")
        assert spec.representation == "columnar"
        assert spec.accepted_options == {
            "count_via",
            "measure_memory",
            "memory_budget_bytes",
            "workers",
            "spill_dir",
            "start_method",
            "transport",
        }

    def test_miner_explain_reports_worker_count(self, example_db, monkeypatch):
        import os

        from repro.config import MiningConfig
        from repro.miner import Miner

        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        miner = Miner(example_db)
        text = miner.explain(
            MiningConfig(support=0.3, options={"workers": 3})
        )
        assert "parallel: yes (workers=3)" in text
        # setm-columnar's own default is one worker; None means the CPUs.
        assert "parallel: yes (workers=1)" in miner.explain(
            MiningConfig(support=0.3)
        )
        assert "parallel: yes (workers=5)" in miner.explain(
            MiningConfig(support=0.3, options={"workers": None})
        )
        assert "parallel: no" in miner.explain(
            MiningConfig(support=0.3, algorithm="setm")
        )

    def test_workers_flow_through_miner(self, example_db, pool_every_level):
        from repro.config import MiningConfig
        from repro.miner import Miner

        result = Miner(example_db).frequent_itemsets(
            MiningConfig(support=0.3, options={"workers": 2})
        )
        assert result.extra["workers"] == 2
        assert result.extra["parallel"]["parallel_iterations"]
        assert result.same_patterns_as(bruteforce(example_db, 0.30))
