"""Tests for ``setm-columnar`` under a memory budget (repro.core.setm_columnar_disk).

The acceptance bar: under a memory budget small enough to force at
least two spill partitions on the Table 6.2 retail workload, the range
kernel (one worker, ranges run inline) must produce patterns, rules, and iteration statistics identical to
``setm`` (and to the ``bruteforce`` oracle where the oracle is
feasible), with measured peak memory bounded by the budget plus the
documented fixed residents.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.bruteforce import bruteforce
from repro.core.partitioning import ROW_BYTES
from repro.core.rules import generate_rules
from repro.core.setm import setm
from repro.core.setm_columnar import setm_columnar
from repro.core.setm_columnar_disk import (
    DEFAULT_MEMORY_BUDGET,
    KeyRange,
    RangeBatch,
    SpillingColumnarKernel,
    _batch_rows,
)
from repro.core.transactions import TransactionDatabase
from repro.data.retail import generate_retail_dataset
from repro.errors import InvalidConfigError

#: The committed constrained-memory budget for the Table 6.2 workload
#: (also recorded in BENCH_setm.json): forces >= 2 spill partitions.
TABLE62_BUDGET = 2 * 2**20

#: Fixed residents sit outside the budget: SALES' columns and its
#: extension index are O(|SALES|) int64 arrays (plus construction
#: temporaries), ~48 bytes per SALES row all told.  The budget governs
#: everything R'_k-shaped on top of that.
FIXED_RESIDENT_BYTES_PER_ROW = 48

#: Large-side budget tolerance: 2x covers the per-partition working
#: copies (counting structure + filter output) on int64 ndarrays, where
#: a row really costs the _ROW_BYTES the engine prices.
BUDGET_TOLERANCE = 2


@pytest.fixture(scope="module")
def table62_db() -> TransactionDatabase:
    """The full calibrated retail database of the paper's Table 6.2."""
    return generate_retail_dataset()


@pytest.fixture(scope="module")
def table62_reference(table62_db):
    """``setm`` on the Table 6.2 workload: the oracle."""
    return setm(table62_db, 0.005)


@pytest.fixture(scope="module")
def table62_budgeted(table62_db):
    """The out-of-core run the acceptance criteria are checked against
    (metered: the budget is held to its peak)."""
    return setm_columnar(
        table62_db,
        0.005,
        memory_budget_bytes=TABLE62_BUDGET,
        measure_memory=True,
    )


class TestDifferential:
    def test_matches_setm_and_bruteforce_on_example(self, example_db):
        result = setm_columnar(
            example_db, 0.30, memory_budget_bytes=DEFAULT_MEMORY_BUDGET
        )
        assert result.extra["memory_budget_bytes"] == DEFAULT_MEMORY_BUDGET
        assert result.same_patterns_as(setm(example_db, 0.30))
        assert result.same_patterns_as(bruteforce(example_db, 0.30))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce_on_random_dbs(self, make_random_db, seed):
        db = make_random_db(seed)
        # A budget this small forces spilling even on an 80-transaction
        # database, so the differential check exercises the spill path.
        result = setm_columnar(db, 0.05, memory_budget_bytes=4096)
        assert result.extra["spill"]["max_partitions"] >= 2
        assert result.same_patterns_as(bruteforce(db, 0.05))
        assert result.same_patterns_as(setm(db, 0.05))

    def test_iteration_stats_match_setm_when_spilling(self, make_random_db):
        db = make_random_db(7)
        budgeted = setm_columnar(db, 0.05, memory_budget_bytes=4096)
        reference = setm(db, 0.05)
        assert budgeted.iterations == reference.iterations
        assert budgeted.unfiltered_item_counts == (
            reference.unfiltered_item_counts
        )

    def test_rules_match_setm_when_spilling(self, make_random_db):
        db = make_random_db(3)
        budgeted = setm_columnar(db, 0.05, memory_budget_bytes=4096)
        reference = setm(db, 0.05)
        assert generate_rules(budgeted, 0.5) == generate_rules(reference, 0.5)

    def test_max_length(self, make_random_db):
        result = setm_columnar(
            make_random_db(4), 0.05, max_length=2, memory_budget_bytes=4096
        )
        assert result.max_pattern_length <= 2


class TestTable62Acceptance:
    """The ISSUE 3 acceptance scenario on the real Table 6.2 workload."""

    def test_budget_forces_at_least_two_partitions(self, table62_budgeted):
        spill = table62_budgeted.extra["spill"]
        assert spill["max_partitions"] >= 2
        assert spill["bytes_written"] > 0
        # Everything written is read back at least once (the boundary
        # sampler may re-read spilled R_{k-1} chunks a second time).
        assert spill["bytes_read"] >= spill["bytes_written"]

    def test_patterns_and_iterations_identical_to_setm(
        self, table62_budgeted, table62_reference
    ):
        assert table62_budgeted.same_patterns_as(table62_reference)
        assert table62_budgeted.iterations == table62_reference.iterations

    def test_rules_identical_to_setm(
        self, table62_budgeted, table62_reference
    ):
        assert generate_rules(table62_budgeted, 0.5) == generate_rules(
            table62_reference, 0.5
        )

    def test_peak_memory_within_budget_tolerance(
        self, table62_budgeted, table62_db
    ):
        peak = table62_budgeted.extra["peak_memory_bytes"]
        fixed_allowance = (
            FIXED_RESIDENT_BYTES_PER_ROW * table62_db.num_sales_rows
        )
        assert peak <= BUDGET_TOLERANCE * TABLE62_BUDGET + fixed_allowance

    def test_peak_memory_below_unbudgeted_columnar(
        self, table62_budgeted, table62_db
    ):
        unbudgeted = setm_columnar(table62_db, 0.005, measure_memory=True)
        assert (
            table62_budgeted.extra["peak_memory_bytes"]
            < unbudgeted.extra["peak_memory_bytes"]
        )


class TestKeyDistributionDrift:
    """Partition boundaries must survive key distributions that drift
    with trans_id (quantiles of the first slice alone would funnel later
    rows into one partition and void the memory bound)."""

    def test_drifting_keys_stay_partitioned_and_bounded(self):
        import random

        rng = random.Random(7)
        transactions = []
        for tid in range(1, 4001):
            low = tid // 4  # the item population shifts upward with tid
            transactions.append(
                (tid, [low + j for j in rng.sample(range(60), 8)])
            )
        db = TransactionDatabase(transactions)
        budget = 256 * 1024

        reference = setm(db, 0.002)
        budgeted = setm_columnar(
            db, 0.002, memory_budget_bytes=budget, measure_memory=True
        )
        assert budgeted.same_patterns_as(reference)
        assert budgeted.iterations == reference.iterations
        assert budgeted.extra["spill"]["max_partitions"] >= 2
        # The bound is the point: with drift-blind boundaries nearly all
        # of R'_2 lands in one partition and peak memory approaches the
        # unbudgeted engine's.
        unbudgeted = setm_columnar(db, 0.002, measure_memory=True)
        assert (
            budgeted.extra["peak_memory_bytes"]
            < unbudgeted.extra["peak_memory_bytes"] / 2
        )


class TestOversizedPrefix:
    """One 400-item transaction plus four short ones at an 8 KiB budget:
    R'_2 needs hundreds of key ranges, and item 1's extensions alone
    exceed a budget share, so the plan cuts that prefix by item
    sub-range (at k = 2 and again at k = 3, from spilled shares)."""

    @staticmethod
    def _db():
        return TransactionDatabase(
            [(1, list(range(1, 401)))]
            + [(tid, [1, 2, 3, 50 + tid]) for tid in range(2, 6)]
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_setm(self, workers, monkeypatch):
        split = []
        item_totals = SpillingColumnarKernel._item_totals

        def spy(self, r, prefixes, rank):
            split.append(r.k + 1)
            return item_totals(self, r, prefixes, rank)

        monkeypatch.setattr(SpillingColumnarKernel, "_item_totals", spy)
        db = self._db()
        result = setm_columnar(
            db, 2, memory_budget_bytes=8192, workers=workers
        )
        reference = setm(db, 2)
        assert result.count_relations == reference.count_relations
        assert result.iterations == reference.iterations
        assert result.extra["spill"]["partitions"][2] > 64
        assert {2, 3} <= set(split)


class TestBatchRows:
    def test_k2_rows_are_each_ranges_positions_in_order(self, make_random_db):
        """One scan serves the batch; each range gets exactly the SALES
        positions with extensions whose item is one of its prefixes,
        ascending."""
        kernel = SpillingColumnarKernel(make_random_db(3))
        sales = kernel.make_sales()
        index = sales.index
        base = index.base
        items = np.asarray(index.items)
        extends = np.asarray(index.ext_counts) > 0
        # Full prefix ranges, a skipped prefix (a gap), and one prefix
        # cut into two item sub-ranges.
        cuts = [(1, 3), (3, 4), (5, 7)]
        bounds = [(low * base, high * base) for low, high in cuts]
        bounds += [(7 * base + 1, 7 * base + 5), (7 * base + 5, 8 * base)]
        ranges = [
            KeyRange(low, high, None, [], "unused", 1) for low, high in bounds
        ]
        batch = RangeBatch(2, ranges, index, base, 1, "auto")
        for (low, high), (rows, read, viewed) in zip(
            bounds, _batch_rows(batch, index), strict=True
        ):
            first, last = low // base, -(-high // base)
            expected = np.flatnonzero(
                (items >= first) & (items < last) & extends
            )
            assert rows.last_sid.tolist() == expected.tolist()
            assert rows.keys.tolist() == items[expected].tolist()
            assert (read, viewed) == (0, 0)
        kernel.close()

    @pytest.mark.parametrize("budget", [256, 1024, 4096, 2**20])
    def test_k2_batches_hold_at_most_one_share(self, make_random_db, budget):
        """A k = 2 batch is cut where the positions it selects would pass
        one budget share; a lone range with positions is never cut, and
        later levels keep their runs."""
        kernel = SpillingColumnarKernel(
            make_random_db(3), memory_budget_bytes=budget
        )
        index = kernel.make_sales().index
        base = index.base
        items = np.asarray(index.items)
        extends = np.asarray(index.ext_counts) > 0
        ranges = [
            KeyRange(item * base, (item + 1) * base, None, [], "unused", 1)
            for item in range(base)
        ]
        batch = RangeBatch(2, ranges, index, base, 1, "auto")
        runs = kernel._capped(batch, [(0, 5), (5, len(ranges))])
        assert runs[0][0] == 0 and runs[-1][1] == len(ranges)
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        assert 5 in {start for start, _ in runs}
        for start, stop in runs:
            held = items[extends & (items >= start) & (items < stop)]
            lone = len(np.unique(held)) <= 1
            assert lone or len(held) * ROW_BYTES <= budget // 4
        if budget == 2**20:
            assert runs == [(0, 5), (5, len(ranges))]
        later = batch._replace(k=3)
        assert kernel._capped(later, [(0, len(ranges))]) == [
            (0, len(ranges))
        ]
        kernel.close()


class TestHousekeeping:
    def test_spill_directory_removed_after_run(self, tmp_path, make_random_db):
        db = make_random_db(1)
        setm_columnar(
            db, 0.05, memory_budget_bytes=4096, spill_dir=tmp_path
        )
        assert list(tmp_path.iterdir()) == []

    def test_small_runs_never_touch_disk(self, example_db, tmp_path):
        result = setm_columnar(
            example_db,
            0.30,
            memory_budget_bytes=DEFAULT_MEMORY_BUDGET,
            spill_dir=tmp_path,
        )
        assert result.extra["spill"]["bytes_written"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_spill_files_cleaned_up_when_counting_raises(
        self, tmp_path, make_random_db, monkeypatch
    ):
        """run_figure4_loop's finally must close the kernel: an
        exception mid-iteration (here: inside the second key range's
        counting, after the first range spilled its R_2 share) cannot
        leak temp files."""
        import repro.core.setm_columnar_disk as disk_module

        count_and_filter = disk_module.count_and_filter
        calls = []

        def boom(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("counting exploded")
            return count_and_filter(*args, **kwargs)

        monkeypatch.setattr(disk_module, "count_and_filter", boom)
        with pytest.raises(RuntimeError, match="counting exploded"):
            setm_columnar(
                make_random_db(5),
                0.05,
                memory_budget_bytes=4096,
                spill_dir=tmp_path,
            )
        assert list(tmp_path.iterdir()) == []

    def test_kernel_close_is_idempotent(self, make_random_db):
        kernel = SpillingColumnarKernel(
            make_random_db(2), memory_budget_bytes=4096
        )
        kernel.close()
        kernel.close()

    def test_extra_records_budget_and_engine_name(self, example_db):
        result = setm_columnar(
            example_db, 0.30, memory_budget_bytes=123456
        )
        assert result.algorithm == "setm-columnar"
        assert result.extra["memory_budget_bytes"] == 123456
        assert result.extra["workers"] == 1
        assert result.extra["parallel"]["parallel_iterations"] == []


#: Runs in a fresh interpreter whose soft descriptor limit is 64: one
#: 200-item transaction prices R'_2 at ~19,900 rows, so an 8 KiB budget
#: plans more partitions than the process may hold open files.
_FD_LIMIT_SCRIPT = """
import json, resource
from repro.core.setm import setm
from repro.core.setm_columnar import setm_columnar
from repro.core.transactions import TransactionDatabase

_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
db = TransactionDatabase(
    [(1, list(range(1, 201)))]
    + [(tid, [1, 2, 3, 50 + tid]) for tid in range(2, 6)]
)
result = setm_columnar(db, 2, memory_budget_bytes=8192)
reference = setm(db, 2)
print(json.dumps({
    "max_partitions": result.extra["spill"]["max_partitions"],
    "same_patterns": result.count_relations == reference.count_relations,
    "same_iterations": result.iterations == reference.iterations,
}))
"""


class TestDescriptorLimit:
    def test_more_partitions_than_open_file_limit(self):
        """Spilling keeps at most one partition file open at a time."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        completed = subprocess.run(
            [sys.executable, "-c", _FD_LIMIT_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert report["max_partitions"] > 64
        assert report["same_patterns"]
        assert report["same_iterations"]


class TestValidation:
    @pytest.mark.parametrize("budget", [0, -1, 1.5, True, "64M"])
    def test_bad_budget_rejected(self, example_db, budget):
        with pytest.raises((InvalidConfigError, ValueError)):
            setm_columnar(
                example_db, 0.30, memory_budget_bytes=budget
            )

    def test_bad_support_rejected(self, example_db):
        with pytest.raises(ValueError):
            setm_columnar(example_db, 0.0)
