"""Unit and property tests for the in-memory Algorithm SETM."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce
from repro.core.setm import count_sorted_instances, merge_scan_extend, setm
from repro.core.transactions import TransactionDatabase

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


class TestMergeScanExtend:
    def test_extends_with_later_items_only(self):
        r1 = [(1, "A"), (1, "B"), (1, "C")]
        out = merge_scan_extend(r1, r1)
        assert out == [(1, "A", "B"), (1, "A", "C"), (1, "B", "C")]

    def test_no_match_across_transactions(self):
        left = [(1, "A")]
        right = [(2, "B")]
        assert merge_scan_extend(left, right) == []

    def test_skips_left_only_and_right_only_tids(self):
        left = [(1, "A"), (3, "A")]
        right = [(2, "B"), (3, "B")]
        assert merge_scan_extend(left, right) == [(3, "A", "B")]

    def test_output_is_sorted_by_tid_then_items(self):
        sales = [(1, "A"), (1, "C"), (2, "A"), (2, "B")]
        out = merge_scan_extend(sales, sales)
        assert out == sorted(out)

    def test_extends_longer_patterns(self):
        r2 = [(1, "A", "B")]
        sales = [(1, "A"), (1, "B"), (1, "C"), (1, "D")]
        assert merge_scan_extend(r2, sales) == [
            (1, "A", "B", "C"),
            (1, "A", "B", "D"),
        ]

    def test_empty_inputs(self):
        assert merge_scan_extend([], [(1, "A")]) == []
        assert merge_scan_extend([(1, "A")], []) == []


class TestCountSortedInstances:
    def test_counts_runs(self):
        instances = [(1, "A"), (3, "A"), (2, "B")]
        instances.sort(key=lambda row: row[1:])
        assert count_sorted_instances(instances) == [
            (("A",), 2),
            (("B",), 1),
        ]

    def test_empty(self):
        assert count_sorted_instances([]) == []

    def test_multi_column_patterns(self):
        instances = [(1, "A", "B"), (2, "A", "B"), (1, "A", "C")]
        instances.sort(key=lambda row: row[1:])
        assert count_sorted_instances(instances) == [
            (("A", "B"), 2),
            (("A", "C"), 1),
        ]


class TestSetmBasics:
    def test_empty_database(self):
        result = setm(TransactionDatabase([]), 0.5)
        assert result.count_relations[1] == {}
        assert result.max_pattern_length == 0

    def test_single_transaction_all_patterns_supported(self):
        result = setm(TransactionDatabase([(1, ["A", "B", "C"])]), 1.0)
        assert result.count_relations[3] == {("A", "B", "C"): 1}

    def test_threshold_boundary_is_inclusive(self):
        # 2 of 4 transactions = exactly 50% support: must qualify.
        db = TransactionDatabase(
            [(1, ["A", "B"]), (2, ["A", "B"]), (3, ["C"]), (4, ["D"])]
        )
        result = setm(db, 0.5)
        assert ("A", "B") in result.count_relations[2]

    def test_max_length_caps_iterations(self):
        db = TransactionDatabase([(1, ["A", "B", "C"]), (2, ["A", "B", "C"])])
        result = setm(db, 0.5, max_length=2)
        assert result.max_pattern_length == 2
        assert max(stats.k for stats in result.iterations) == 2

    def test_hash_and_sort_counting_agree(self, make_random_db):
        db = make_random_db(3)
        via_sort = setm(db, 0.05, count_via="sort")
        via_hash = setm(db, 0.05, count_via="hash")
        assert via_sort.same_patterns_as(via_hash)

    def test_unfiltered_item_counts_kept(self, example_db):
        result = setm(example_db, 0.30)
        assert result.unfiltered_item_counts["H"] == 1  # below threshold

    def test_elapsed_seconds_recorded(self, example_db):
        assert setm(example_db, 0.30).elapsed_seconds > 0

    def test_algorithm_name(self, example_db):
        assert setm(example_db, 0.30).algorithm == "setm"

    def test_string_and_integer_items_both_work(self):
        by_str = setm(TransactionDatabase([(1, ["A", "B"]), (2, ["A", "B"])]), 0.5)
        by_int = setm(TransactionDatabase([(1, [1, 2]), (2, [1, 2])]), 0.5)
        assert by_str.count_relations[2] == {("A", "B"): 2}
        assert by_int.count_relations[2] == {(1, 2): 2}


class TestIterationStats:
    def test_supported_never_exceeds_candidates(self, make_random_db):
        result = setm(make_random_db(11), 0.05)
        for stats in result.iterations:
            assert stats.supported_instances <= stats.candidate_instances
            assert stats.supported_patterns <= stats.candidate_patterns

    def test_iterations_are_consecutive_from_one(self, make_random_db):
        result = setm(make_random_db(12), 0.05)
        assert [stats.k for stats in result.iterations] == list(
            range(1, len(result.iterations) + 1)
        )

    def test_supported_instances_equal_sum_of_counts(self, make_random_db):
        result = setm(make_random_db(13), 0.05)
        for stats in result.iterations:
            if stats.k == 1:
                continue
            expected = sum(
                result.count_relations.get(stats.k, {}).values()
            )
            assert stats.supported_instances == expected

    def test_r1_stats_match_database(self, example_db):
        stats = setm(example_db, 0.30).iterations[0]
        assert stats.candidate_instances == example_db.num_sales_rows
        assert stats.candidate_patterns == len(example_db.distinct_items())


class TestSetmAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(db=databases, threshold=st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    def test_matches_oracle(self, db, threshold):
        assert setm(db, threshold).same_patterns_as(bruteforce(db, threshold))

    @settings(max_examples=25, deadline=None)
    @given(db=databases)
    def test_downward_closure(self, db):
        """Every sub-pattern of a supported pattern is supported."""
        result = setm(db, 0.3)
        patterns = result.all_patterns()
        for pattern in patterns:
            for drop in range(len(pattern)):
                sub = pattern[:drop] + pattern[drop + 1 :]
                if sub:
                    assert sub in patterns

    @settings(max_examples=25, deadline=None)
    @given(db=databases)
    def test_counts_are_true_supports(self, db):
        """Reported counts equal a direct recount over transactions."""
        result = setm(db, 0.2)
        for pattern, count in result.all_patterns().items():
            actual = sum(1 for txn in db if txn.contains_all(pattern))
            assert count == actual

    @settings(max_examples=20, deadline=None)
    @given(db=databases)
    def test_monotone_in_minimum_support(self, db):
        """Raising minsup can only shrink the pattern set."""
        low = set(setm(db, 0.2).all_patterns())
        high = set(setm(db, 0.6).all_patterns())
        assert high <= low


class TestLoopLifecycle:
    """run_figure4_loop's kernel lifecycle hooks and memory metering."""

    def test_peak_memory_recorded_for_figure4_engines(self, example_db):
        from repro.core.setm_columnar import setm_columnar
        from repro.core.setm_disk import setm_disk

        for engine in (setm, setm_columnar, setm_disk):
            result = engine(example_db, 0.30, measure_memory=True)
            assert result.extra["peak_memory_bytes"] > 0, engine
        budgeted = setm_columnar(
            example_db, 0.30, memory_budget_bytes=1024, measure_memory=True
        )
        assert budgeted.extra["peak_memory_bytes"] > 0

    def test_measure_memory_false_skips_metering(self, example_db):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        result = setm(example_db, 0.30, measure_memory=False)
        assert "peak_memory_bytes" not in result.extra
        assert not tracemalloc.is_tracing()

    def test_metering_does_not_stop_an_outer_trace(self, example_db):
        import tracemalloc

        tracemalloc.start()
        try:
            result = setm(example_db, 0.30, measure_memory=True)
            assert tracemalloc.is_tracing()
            assert result.extra["peak_memory_bytes"] > 0
        finally:
            tracemalloc.stop()

    def test_overlapping_metered_runs_share_one_trace(self, example_db):
        """Two metered loops on two threads, as under serve's scheduler.

        The late run starts after the early one allocated 8 MiB, so its
        start must not reset the shared peak under the early run; the
        early run finishes first, so its exit must not end the trace the
        late run still reads its peak from.
        """
        import threading
        import tracemalloc

        from repro.core.setm import TupleKernel, run_figure4_loop

        both_metered = threading.Barrier(2, timeout=30)
        early_allocated = threading.Event()
        early_done = threading.Event()
        big = 8 << 20

        class Overlapping(TupleKernel):
            def __init__(self, database, *, early):
                super().__init__(database)
                self._early = early

            def begin_iteration(self, k):
                if k == 1:
                    if self._early:
                        buffer = bytearray(big)
                        del buffer
                        early_allocated.set()
                    both_metered.wait()

            def extra_stats(self):
                if not self._early:
                    assert early_done.wait(timeout=30)
                return {}

        peaks: dict[str, int] = {}
        errors: list[BaseException] = []

        def run(early: bool) -> None:
            try:
                result = run_figure4_loop(
                    example_db,
                    0.30,
                    Overlapping(example_db, early=early),
                    algorithm="probe",
                    measure_memory=True,
                )
                peaks["early" if early else "late"] = result.extra[
                    "peak_memory_bytes"
                ]
            except Exception as error:  # surfaced below
                errors.append(error)
                both_metered.abort()
            finally:
                if early:
                    early_done.set()

        assert not tracemalloc.is_tracing()
        early = threading.Thread(target=run, args=(True,))
        late = threading.Thread(target=run, args=(False,))
        early.start()
        assert early_allocated.wait(timeout=30)
        late.start()
        for thread in (early, late):
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert peaks["early"] >= big
        assert peaks["late"] > 0
        assert not tracemalloc.is_tracing()

    def test_meter_refcount_survives_thread_churn(self):
        """Many threads entering and leaving the meter at once: a lost
        update of the run count would stop the trace under a live run
        (zero peak) or leave it running after the last one."""
        import sys
        import threading
        import tracemalloc

        from repro.core.metering import memory_meter

        errors: list[str] = []

        def churn() -> None:
            for _ in range(200):
                with memory_meter(True) as traced_peak:
                    block = bytearray(4096)
                    if not (tracemalloc.is_tracing() and traced_peak() > 0):
                        errors.append("trace ended under a live run")
                    del block

        assert not tracemalloc.is_tracing()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert not tracemalloc.is_tracing()

    def test_hooks_called_once_per_iteration_and_close_always(
        self, example_db
    ):
        from repro.core.setm import TupleKernel, run_figure4_loop

        events: list[tuple[str, int]] = []

        class Probe(TupleKernel):
            def begin_iteration(self, k):
                events.append(("begin", k))

            def end_iteration(self, k, r_prime, r_next):
                events.append(("end", k))

            def extra_stats(self):
                return {"probe": True}

            def close(self):
                events.append(("close", 0))

        result = run_figure4_loop(
            example_db, 0.30, Probe(example_db), algorithm="probe"
        )
        ks = [stats.k for stats in result.iterations]
        assert [k for kind, k in events if kind == "begin"] == ks
        assert [k for kind, k in events if kind == "end"] == ks
        assert events[-1] == ("close", 0)
        assert events.count(("close", 0)) == 1
        assert result.extra["probe"] is True

    def test_close_called_when_kernel_raises(self, example_db):
        from repro.core.setm import TupleKernel, run_figure4_loop

        closed = []

        class Exploding(TupleKernel):
            def merge_extend(self, r, sales):
                raise RuntimeError("boom")

            def close(self):
                closed.append(True)

        with pytest.raises(RuntimeError, match="boom"):
            run_figure4_loop(
                example_db, 0.30, Exploding(example_db), algorithm="probe"
            )
        assert closed == [True]
