"""Tests for the spill-AND-parallel engine (repro.core.setm_spill_parallel).

The acceptance bar: ``setm-spill-parallel`` must produce patterns,
rules, and iteration statistics identical to ``setm`` across a QUEST ×
minsup × workers grid under a memory budget small enough to force at
least two key ranges — with telemetry proving the pooled range tasks
actually ran, not a silent fallback to either parent engine.

Failure injection: a worker raising mid-task must leave no spill files
and no shared-memory segment behind (the Figure-4 loop's ``finally``
closes the kernel, which removes the spill root and releases the
published ``SALES`` columns), and the shared pool must stay usable
after a worker exception — or be cleanly recreated after an outright
pool break.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce
from repro.core.rules import generate_rules
from repro.core.setm import run_figure4_loop, setm
from repro.core.partitioning import ROW_BYTES, Partition
from repro.core.setm_columnar_disk import run_range_batch, setm_columnar_disk
from repro.core.setm_spill_parallel import (
    SpillParallelKernel,
    balanced_batches,
    setm_spill_parallel,
)
from repro.core.transport import leaked_segment_names
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
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("minsup", [0.01, 0.03])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_setm_across_grid(
        self, quest_references, seed, minsup, workers
    ):
        db, reference = quest_references[(seed, minsup)]
        result = setm_spill_parallel(
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
        result = setm_spill_parallel(
            example_db, 0.30, workers=2, memory_budget_bytes=1024
        )
        assert result.same_patterns_as(bruteforce(example_db, 0.30))

    def test_rules_identical_to_setm(self, quest_references):
        db, reference = quest_references[(0, 0.01)]
        result = setm_spill_parallel(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert generate_rules(result, 0.5) == generate_rules(reference, 0.5)

    def test_max_length(self, quest_references):
        db, _ = quest_references[(0, 0.01)]
        result = setm_spill_parallel(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
            max_length=2,
        )
        assert result.max_pattern_length <= 2

    def test_spawn_start_method_agrees(self, quest_references):
        """The spawn leg: tasks, paths, and replies must all pickle."""
        db, reference = quest_references[(1, 0.03)]
        result = setm_spill_parallel(
            db,
            0.03,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
            start_method="spawn",
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.extra["parallel"]["start_method"] == "spawn"
        assert result.extra["parallel"]["parallel_iterations"]

    def test_agrees_with_serial_spill_engine(self, quest_references):
        """Same patterns, same spill partitioning as setm-columnar-disk."""
        db, _ = quest_references[(0, 0.01)]
        pooled = setm_spill_parallel(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        serial = setm_columnar_disk(db, 0.01, memory_budget_bytes=GRID_BUDGET)
        assert pooled.same_patterns_as(serial)
        assert pooled.iterations == serial.iterations
        # Same budget => same partition plan; only the consumer differs.
        assert (
            pooled.extra["spill"]["partitions"]
            == serial.extra["spill"]["partitions"]
        )


class _RecordingKernel(SpillParallelKernel):
    """Records the ranges of every pooled batch, per level."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: dict[int, list[list[tuple[int, int]]]] = {}

    def _dispatch(self, func, tasks):
        if func is run_range_batch:
            self.batches[self._k] = [
                [(r.key_low, r.key_high) for r in batch.ranges]
                for batch in tasks
            ]
        return super()._dispatch(func, tasks)


class TestBatches:
    """A level's planned ranges travel to the pool as contiguous batches."""

    @pytest.mark.parametrize("transport", ["pickle", "mmap", "shm"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_batches_match_setm(self, quest_references, workers, transport):
        db, reference = quest_references[(0, 0.01)]
        kernel = _RecordingKernel(
            db,
            memory_budget_bytes=GRID_BUDGET,
            workers=workers,
            transport=transport,
        )
        result = run_figure4_loop(
            db, 0.01, kernel, algorithm="setm-spill-parallel"
        )
        assert result.same_patterns_as(reference)
        assert result.iterations == reference.iterations
        assert result.extra["transport"]["mode"] == transport
        assert leaked_segment_names() == ()
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
            db, 0.01, kernel, algorithm="setm-spill-parallel"
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
            db, 0.01, kernel, algorithm="setm-spill-parallel"
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


class TestGating:
    def test_generous_budget_never_spills_or_pools(self, example_db):
        result = setm_spill_parallel(example_db, 0.30, workers=4)
        assert result.extra["spill"]["partitions"] == {}
        parallel = result.extra["parallel"]
        assert parallel["partitions"] == {}
        assert parallel["parallel_iterations"] == []
        assert parallel["short_circuited"]

    def test_workers_one_never_builds_a_pool(self, example_db):
        from repro.core import setm_parallel as pools

        before = dict(pools._POOLS)
        result = setm_spill_parallel(
            example_db, 0.30, workers=1, memory_budget_bytes=1024
        )
        assert pools._POOLS == before
        assert result.extra["workers"] == 1
        assert result.extra["spill"]["max_partitions"] >= 2


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, "4"])
    def test_bad_workers_rejected(self, example_db, workers):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_spill_parallel(example_db, 0.30, workers=workers)

    @pytest.mark.parametrize("budget", [0, -1, 0.5, True])
    def test_bad_budget_rejected(self, example_db, budget):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_spill_parallel(
                example_db, 0.30, memory_budget_bytes=budget
            )

    def test_bad_start_method_rejected(self, example_db):
        with pytest.raises(InvalidConfigError, match="start_method"):
            setm_spill_parallel(example_db, 0.30, start_method="teleport")


class TestPlumbing:
    def test_registry_capabilities(self):
        from repro.registry import get_engine

        spec = get_engine("setm-spill-parallel")
        assert spec.parallel is True
        assert spec.out_of_core is True
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
                algorithm="setm-spill-parallel",
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
                algorithm="setm-spill-parallel",
                options={"workers": 2, "memory_budget_bytes": 1024},
            )
        )
        assert result.extra["workers"] == 2
        assert result.extra["memory_budget_bytes"] == 1024
        assert result.same_patterns_as(bruteforce(example_db, 0.30))


class _PoisoningKernel(SpillParallelKernel):
    """Points one pooled range batch at a ``SALES`` file that is gone.

    The worker assigned the poisoned batch raises ``FileNotFoundError``
    mid-level while its siblings write their ``R_k`` shares — exactly
    the shape of a disk failing under a live run.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen_root = None
        self.poisoned = False

    def _dispatch(self, func, tasks):
        if func is run_range_batch and not self.poisoned:
            self.seen_root = self._spill_root
            missing = Partition(1, path=self._spill_root / "missing.bin")
            tasks = [tasks[0]._replace(sales=missing), *tasks[1:]]
            self.poisoned = True
        return super()._dispatch(func, tasks)


class TestFailureInjection:
    def _grid_db(self):
        return _quest_db(0, transactions=200)

    def test_worker_failure_leaves_no_spill_files(self):
        from repro.core import setm_parallel as pools

        db = self._grid_db()
        kernel = _PoisoningKernel(
            db, memory_budget_bytes=GRID_BUDGET, workers=2
        )
        with pytest.raises(FileNotFoundError):
            run_figure4_loop(
                db, 0.01, kernel, algorithm="setm-spill-parallel"
            )
        assert kernel.poisoned, "the pooled branch never ran"
        # The loop's finally closed the kernel: spill root and every
        # half-written R_k share under it are gone, and so is the
        # published SALES.
        assert kernel.seen_root is not None
        assert not kernel.seen_root.exists()
        assert leaked_segment_names() == ()
        # The pool survived the worker exception and stays cached...
        key = (kernel._start_method, 2)
        pool = pools._POOLS.get(key)
        assert pool is not None
        # ... and is genuinely usable: the next run reuses it and wins.
        result = setm_spill_parallel(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert pools._POOLS.get(key) is pool
        assert result.same_patterns_as(setm(db, 0.01))
        assert result.extra["parallel"]["parallel_iterations"]

    def test_worker_failure_releases_published_sales_segment(self):
        db = self._grid_db()
        kernel = _PoisoningKernel(
            db, memory_budget_bytes=GRID_BUDGET, workers=2, transport="shm"
        )
        with pytest.raises(FileNotFoundError):
            run_figure4_loop(
                db, 0.01, kernel, algorithm="setm-spill-parallel"
            )
        assert kernel.poisoned, "the pooled branch never ran"
        assert kernel.extra_stats()["transport"]["mode"] == "shm"
        assert kernel.extra_stats()["transport"]["task_bytes_shared"] > 0
        assert not kernel.seen_root.exists()
        assert leaked_segment_names() == ()

    def test_broken_pool_is_recreated_for_the_next_run(self):
        from repro.core import setm_parallel as pools

        db = self._grid_db()
        reference = setm(db, 0.01)
        # Prime the cache, then break the pool outright.
        first = setm_spill_parallel(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert first.same_patterns_as(reference)
        key = (first.extra["parallel"]["start_method"], 2)
        key = (
            key if key in pools._POOLS else (None, 2)
        )
        broken = pools._POOLS[key]
        broken.terminate()
        broken.join()
        # The stale cache entry must not fail the next run: it is
        # evicted and a fresh pool is created transparently.
        result = setm_spill_parallel(
            db,
            0.01,
            workers=2,
            memory_budget_bytes=GRID_BUDGET,
        )
        assert result.same_patterns_as(reference)
        assert result.extra["parallel"]["parallel_iterations"]
        assert pools._POOLS[key] is not broken
