"""Tests for ``setm-columnar`` under a memory budget AND with workers.

The acceptance bar: the range kernel
(:class:`~repro.core.setm_columnar_disk.SpillingColumnarKernel`) must
produce patterns, rules, and iteration statistics identical to ``setm``
across a QUEST × minsup × workers grid under a memory budget small
enough to force at least two key ranges — with telemetry proving the
pooled range tasks actually ran, not a silent fallback to inline
ranges or the in-memory kernel.

Failure injection: a batch raising mid-level must propagate its own
exception and leave no spill files behind (the Figure-4 loop's
``finally`` closes the kernel, which removes the spill root), and the
shared thread pool must serve the next run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce
from repro.core.rules import generate_rules
from repro.core.setm import run_figure4_loop, setm
from repro.core.partitioning import ROW_BYTES
from repro.core.setm_columnar import setm_columnar
from repro.core.setm_columnar_disk import (
    SpillingColumnarKernel,
    balanced_batches,
    run_range_batch,
)
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.errors import InvalidConfigError

#: Small enough to force >= 2 spill partitions on the grid databases
#: below (their R'_2 runs to a few thousand 16-byte rows).
GRID_BUDGET = 48 * 1024


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
        result = setm_columnar(
            db,
            minsup,
            workers=workers,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.unfiltered_item_counts == (
            reference.unfiltered_item_counts
        )
        assert result.extra["workers"] == workers
        # The budget really forced spilling...
        assert result.extra["spill"]["max_partitions"] >= 2
        if workers > 1:
            # ... and the spilled iterations really went to the pool.
            assert result.extra["parallel"]["parallel_iterations"]
        else:
            assert result.extra["parallel"]["parallel_iterations"] == []

    def test_matches_bruteforce_on_example(self, example_db):
        result = setm_columnar(
            example_db, 0.30, workers=2, memory_budget_bytes=1024
        )
        assert result.same_patterns_as(bruteforce(example_db, 0.30))

    def test_rules_identical_to_setm(self, quest_references):
        db, reference = quest_references[(0, 0.01)]
        result = setm_columnar(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert generate_rules(result, 0.5) == generate_rules(reference, 0.5)

    def test_max_length(self, quest_references):
        db, _ = quest_references[(0, 0.01)]
        result = setm_columnar(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
            max_length=2,
        )
        assert result.max_pattern_length <= 2

    def test_agrees_with_serial_spill_engine(self, quest_references):
        """Same patterns, same spill partitioning as with one worker."""
        db, _ = quest_references[(0, 0.01)]
        pooled = setm_columnar(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        serial = setm_columnar(db, 0.01, memory_budget_bytes=GRID_BUDGET)
        assert pooled.same_patterns_as(serial)
        assert pooled.iterations == serial.iterations
        # Same budget => same partition plan; only the consumer differs.
        assert (
            pooled.extra["spill"]["partitions"]
            == serial.extra["spill"]["partitions"]
        )


class _RecordingKernel(SpillingColumnarKernel):
    """Records the ranges of every pooled batch, per level."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: dict[int, list[list[tuple[int, int]]]] = {}

    def _dispatch(self, func, tasks, threads):
        if func is run_range_batch:
            self.batches[self._k] = [
                [(r.key_low, r.key_high) for r in batch.ranges]
                for batch in tasks
            ]
        return super()._dispatch(func, tasks, threads)


class TestBatches:
    """A level's planned ranges travel to the pool as contiguous batches."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_batches_match_setm(self, quest_references, workers):
        db, reference = quest_references[(0, 0.01)]
        kernel = _RecordingKernel(
            db, memory_budget_bytes=GRID_BUDGET, workers=workers
        )
        result = run_figure4_loop(
            db, 0.01, kernel, algorithm="setm-columnar"
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        planned = result.extra["spill"]["partitions"]
        # Telemetry still counts planned ranges, not batches.
        assert result.extra["parallel"]["partitions"] == planned
        assert sorted(kernel.batches) == sorted(planned)
        for k, batches in kernel.batches.items():
            assert all(batches)
            assert len(batches) >= min(planned[k], 3 * workers)
            # Dispatched in key order, the batches tile the planned ranges.
            ranges = [r for batch in batches for r in batch]
            assert len(ranges) == planned[k]
            assert all(a[1] <= b[0] for a, b in zip(ranges, ranges[1:]))

    def test_k2_batches_hold_at_most_one_share(self, quest_references):
        """Pooled k = 2 batches are cut again where the SALES positions
        they select would pass one budget share, as inline ones are."""
        db, reference = quest_references[(0, 0.01)]
        budget = 8 * 1024
        kernel = _RecordingKernel(db, memory_budget_bytes=budget, workers=2)
        result = run_figure4_loop(
            db, 0.01, kernel, algorithm="setm-columnar"
        )
        assert result.same_patterns_as(reference)
        index = kernel._index
        base = index.base
        items = np.asarray(index.items)[np.asarray(index.ext_counts) > 0]
        batches = kernel.batches[2]
        assert len(batches) > 3 * 2  # the cap cut some balanced batch
        for batch in batches:
            first, last = batch[0][0] // base, -(-batch[-1][1] // base)
            held = items[(items >= first) & (items < last)]
            lone = len(batch) == 1 or len(np.unique(held)) <= 1
            assert lone or len(held) * ROW_BYTES <= budget // 4

    def test_fewer_ranges_than_batches(self, quest_references):
        db, reference = quest_references[(1, 0.01)]
        kernel = _RecordingKernel(
            db, memory_budget_bytes=GRID_BUDGET, workers=3
        )
        result = run_figure4_loop(
            db, 0.01, kernel, algorithm="setm-columnar"
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        few = {
            k: batches for k, batches in kernel.batches.items()
            if len(batches) < 3 * 3
        }
        assert few, "no level had fewer ranges than batches"
        for batches in few.values():
            assert all(len(batch) == 1 for batch in batches)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=40),
        st.integers(1, 12),
    )
    def test_balanced_batches_cover_in_order(self, costs, batches):
        runs = balanced_batches(costs, batches)
        assert runs[0][0] == 0 and runs[-1][1] == len(costs)
        assert all(start < stop for start, stop in runs)
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        assert len(runs) == min(batches, len(costs))

    def test_balanced_batches_one_batch_is_the_whole_run(self):
        assert balanced_batches([3, 0, 9, 1], 1) == [(0, 4)]

    def test_balanced_batches_more_batches_than_entries(self):
        assert balanced_batches([5, 1, 7], 9) == [(0, 1), (1, 2), (2, 3)]

    def test_balanced_batches_share_cost(self):
        costs = [10] * 12 + [60, 60]
        runs = balanced_batches(costs, 4)
        loads = [sum(costs[start:stop]) for start, stop in runs]
        assert loads == [60, 60, 60, 60]


class _ThreadsKernel(SpillingColumnarKernel):
    """Records, per pooled level, the threads it ran on and the most
    rows one of its batches holds at once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.levels: list[tuple[int, int]] = []

    def _dispatch(self, func, tasks, threads):
        if func is run_range_batch:
            index = self._index
            base = index.base
            items = np.asarray(index.items)[np.asarray(index.ext_counts) > 0]
            held = 0
            for batch in tasks:
                rows = max(key_range.rows for key_range in batch.ranges)
                if batch.k == 2:
                    # A k = 2 batch also holds the SALES positions it
                    # selects, for all of its ranges.
                    first = batch.ranges[0].key_low // base
                    last = -(-batch.ranges[-1].key_high // base)
                    rows += int(np.count_nonzero(
                        (items >= first) & (items < last)
                    ))
                held = max(held, rows)
            self.levels.append((threads, held))
        return super()._dispatch(func, tasks, threads)


class TestThreadCap:
    """Batches run together only while their holdings fit the budget."""

    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("budget", [4096, GRID_BUDGET, 2 * 1024 * 1024])
    def test_threads_fit_the_budget(
        self, quest_references, monkeypatch, budget, workers
    ):
        from repro.core import setm_columnar_disk as pooled

        # Pool every level, so the generous budget's whole levels run
        # on the pool too.
        monkeypatch.setattr(pooled, "POOL_MIN_ROWS", 1)
        db, reference = quest_references[(0, 0.01)]
        kernel = _ThreadsKernel(
            db, memory_budget_bytes=budget, workers=workers
        )
        result = run_figure4_loop(
            db, 0.01, kernel, algorithm="setm-columnar"
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert kernel.levels, "no level ran on the pool"
        for threads, held in kernel.levels:
            assert 1 <= threads <= workers
            # Never more at once than the budget holds...
            assert threads == 1 or threads * held * ROW_BYTES <= budget
            # ... and never fewer than it does.
            assert threads == workers or (
                (threads + 1) * held * ROW_BYTES > budget
            )


class TestGating:
    def test_generous_budget_never_spills_or_pools(self, example_db):
        result = setm_columnar(example_db, 0.30, workers=4)
        assert result.extra["spill"]["partitions"] == {}
        parallel = result.extra["parallel"]
        assert parallel["partitions"] == {}
        assert parallel["parallel_iterations"] == []
        assert parallel["short_circuited"]

    def test_workers_one_never_builds_a_pool(self, example_db):
        from repro.core import setm_parallel as pools

        before = dict(pools._POOLS)
        result = setm_columnar(
            example_db, 0.30, workers=1, memory_budget_bytes=1024
        )
        assert pools._POOLS == before
        assert result.extra["workers"] == 1
        assert result.extra["spill"]["max_partitions"] >= 2


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, "4"])
    def test_bad_workers_rejected(self, example_db, workers):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_columnar(example_db, 0.30, workers=workers)

    @pytest.mark.parametrize("budget", [0, -1, 0.5, True])
    def test_bad_budget_rejected(self, example_db, budget):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_columnar(
                example_db, 0.30, memory_budget_bytes=budget
            )


class TestPlumbing:
    def test_registry_options(self):
        from repro.registry import get_engine

        spec = get_engine("setm-columnar")
        assert spec.representation == "columnar"
        assert "workers" in spec.accepted_options
        assert "memory_budget_bytes" in spec.accepted_options
        assert "parallel_threshold" not in spec.accepted_options

    def test_miner_explain_reports_both_capabilities(self, example_db):
        from repro.config import MiningConfig
        from repro.miner import Miner

        text = Miner(example_db).explain(
            MiningConfig(
                support=0.3,
                options={"workers": 3, "memory_budget_bytes": 4096},
            )
        )
        assert "out of core: yes" in text
        assert "parallel: yes (workers=3)" in text

    def test_options_flow_through_miner(self, example_db):
        from repro.config import MiningConfig
        from repro.miner import Miner

        result = Miner(example_db).frequent_itemsets(
            MiningConfig(
                support=0.3,
                options={"workers": 2, "memory_budget_bytes": 1024},
            )
        )
        assert result.extra["workers"] == 2
        assert result.extra["memory_budget_bytes"] == 1024
        assert result.same_patterns_as(bruteforce(example_db, 0.30))


class BatchFailed(Exception):
    """The injected failure: one batch's own exception."""


class _FailAfterFirstBatch(SpillingColumnarKernel):
    """Fails the first pooled batch *after* it wrote its ``R_k`` shares.

    Its siblings keep running and writing theirs on the other threads —
    the shape of a disk failing under a live run.  ``_dispatch`` is the
    seam built for exactly this.
    """

    def __init__(self, *args, fail_index=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_index = fail_index
        self.seen_root = None
        self.poisoned = False

    def _dispatch(self, func, tasks, threads):
        if func is not run_range_batch or self.poisoned:
            return super()._dispatch(func, tasks, threads)
        self.poisoned = True
        self.seen_root = self._spill_root
        failing = tasks[self.fail_index]

        def poisoned(batch):
            reply = func(batch)
            if batch is failing:
                if self._spill_root is not None:
                    assert any(self._spill_root.iterdir())
                raise BatchFailed(f"batch {self.fail_index} failed mid-level")
            return reply

        return super()._dispatch(poisoned, tasks, threads)


class TestFailureInjection:
    def _grid_db(self):
        return _quest_db(0, transactions=200)

    def test_failing_batch_leaves_no_spill_files(self, tmp_path):
        from repro.core import setm_parallel as pools

        db = self._grid_db()
        kernel = _FailAfterFirstBatch(
            db, memory_budget_bytes=GRID_BUDGET, workers=2, spill_dir=tmp_path
        )
        with pytest.raises(BatchFailed, match="batch 0 failed"):
            run_figure4_loop(
                db, 0.01, kernel, algorithm="setm-columnar"
            )
        assert kernel.poisoned, "the pooled branch never ran"
        # The loop's finally closed the kernel: the spill root and every
        # R_k share written under it are gone.
        assert kernel.seen_root is not None
        assert not kernel.seen_root.exists()
        assert list(tmp_path.iterdir()) == []
        # The pool survived the batch's exception and stays cached...
        pool = pools._POOLS.get(2)
        assert pool is not None
        # ... and is genuinely usable: the next run reuses it and wins.
        result = setm_columnar(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert pools._POOLS.get(2) is pool
        assert result.same_patterns_as(setm(db, 0.01))
        assert result.extra["parallel"]["parallel_iterations"]

    def test_stopped_pool_is_recreated_for_the_next_run(self):
        from repro.core import setm_parallel as pools

        db = self._grid_db()
        reference = setm(db, 0.01)
        first = setm_columnar(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert first.same_patterns_as(reference)
        stopped = pools._POOLS[2]
        pools.shutdown_worker_pools()
        result = setm_columnar(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert result.same_patterns_as(reference)
        assert result.extra["parallel"]["parallel_iterations"]
        assert pools._POOLS[2] is not stopped

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("fail_index", [0, -1])
    def test_any_failing_batch_propagates_its_own_exception(
        self, tmp_path, fail_index, workers
    ):
        from repro.core import setm_parallel as pools

        db = self._grid_db()
        kernel = _FailAfterFirstBatch(
            db,
            memory_budget_bytes=GRID_BUDGET,
            workers=workers,
            spill_dir=tmp_path,
            fail_index=fail_index,
        )
        with pytest.raises(BatchFailed) as caught:
            run_figure4_loop(db, 0.01, kernel, algorithm="setm-columnar")
        # The batch's own exception, not a wrapper around it.
        assert type(caught.value) is BatchFailed
        assert f"batch {fail_index} failed" in str(caught.value)
        assert kernel.poisoned
        assert not kernel.seen_root.exists()
        assert list(tmp_path.iterdir()) == []
        pool = pools._POOLS[workers]
        result = setm_columnar(
            db, 0.01, workers=workers, memory_budget_bytes=GRID_BUDGET
        )
        assert pools._POOLS[workers] is pool
        assert result.same_patterns_as(setm(db, 0.01))

    def test_failing_gate_pooled_batch_leaves_nothing_on_disk(
        self, tmp_path, monkeypatch
    ):
        """A level pooled only by the gate keeps its survivors in memory:
        its batches write no share, so a failure has nothing to remove."""
        from repro.core import setm_columnar_disk as pooled

        monkeypatch.setattr(pooled, "POOL_MIN_ROWS", 1)
        db = self._grid_db()
        kernel = _FailAfterFirstBatch(db, workers=2, spill_dir=tmp_path)
        with pytest.raises(BatchFailed, match="batch 0 failed"):
            run_figure4_loop(db, 0.01, kernel, algorithm="setm-columnar")
        assert kernel.poisoned
        assert kernel.seen_root is None
        assert kernel._spill_root is None
        assert list(tmp_path.iterdir()) == []
