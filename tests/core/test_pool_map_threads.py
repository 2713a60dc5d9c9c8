"""The shared worker-thread pools (``pool_map``) under concurrency.

The serve layer's scheduler threads call ``pool_map`` concurrently for
the same worker count: they must share one cached pool, never leak a
second.  Within one call, the runner threads take tasks from one shared
queue: every task runs exactly once, results come back in task order,
at most ``threads`` run at once, and a failing task's exception
propagates only after every running sibling has finished.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.setm_parallel import (
    _POOLS,
    pool_map,
    pool_stats,
    shutdown_worker_pools,
)


def square(x: int) -> int:
    return x * x


@pytest.fixture(autouse=True)
def clean_pools():
    shutdown_worker_pools()
    yield
    shutdown_worker_pools()


class TestConcurrentPoolMap:
    def test_hammer_creates_exactly_one_pool(self):
        barrier = threading.Barrier(8)
        results = []
        lock = threading.Lock()

        def work(i: int):
            barrier.wait(timeout=30)  # maximize the create race
            reply = pool_map(2, square, list(range(i, i + 4)), 2)
            with lock:
                results.append((i, reply))

        with ThreadPoolExecutor(max_workers=8) as executor:
            list(executor.map(work, range(8)))

        assert len(results) == 8
        for i, reply in results:
            assert reply == [x * x for x in range(i, i + 4)]
        # The race never leaks a second pool for the same worker count.
        assert len(_POOLS) == 1
        assert pool_stats() == [{"workers": 2}]

    def test_concurrent_shutdown_is_safe(self):
        pool_map(2, square, [1], 2)
        barrier = threading.Barrier(4)

        def shutdown(_):
            barrier.wait(timeout=30)
            shutdown_worker_pools()

        with ThreadPoolExecutor(max_workers=4) as executor:
            list(executor.map(shutdown, range(4)))
        assert pool_stats() == []
        # The cache builds a fresh pool after a racing shutdown.
        assert pool_map(2, square, [3], 2) == [9]
        assert pool_stats() == [{"workers": 2}]

    def test_shutdown_during_a_map_lets_it_finish(self):
        """A drain stopping the pools must not fail a run in flight."""
        started = threading.Event()

        def slow(x: int) -> int:
            started.set()
            time.sleep(0.01)
            return x + 1

        replies = []
        mapper = threading.Thread(
            target=lambda: replies.append(
                pool_map(2, slow, list(range(20)), 2)
            )
        )
        mapper.start()
        assert started.wait(timeout=30)
        shutdown_worker_pools()
        mapper.join(timeout=60)
        assert not mapper.is_alive()
        assert replies == [[x + 1 for x in range(20)]]
        assert pool_stats() == []

    def test_each_task_runs_once_under_fast_switching(self):
        """More runners than cores, switching every microsecond: a lost
        update on the shared task queue would run a task twice or skip
        it, and put a result in the wrong slot."""
        ran: list[int] = []

        def record(x: int) -> int:
            ran.append(x)  # list.append is atomic
            return x * 3

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            replies = pool_map(8, record, list(range(3000)), 8)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 60
        assert replies == [x * 3 for x in range(3000)]
        assert sorted(ran) == list(range(3000))


class TestThreadCap:
    def test_at_most_threads_tasks_run_at_once(self):
        lock = threading.Lock()
        running = [0]
        most = [0]

        def task(_):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1

        pool_map(4, task, list(range(24)), 2)
        assert most[0] == 2

    def test_empty_level_runs_nothing(self):
        assert pool_map(2, square, [], 2) == []


    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_results_come_back_in_task_order(self, threads):
        """Later tasks finish first; each result still lands in its slot."""

        def task(i: int) -> int:
            time.sleep(0.002 * (12 - i))
            return -i

        assert pool_map(4, task, list(range(12)), threads) == [
            -i for i in range(12)
        ]


class TestPoolStats:
    def test_empty_when_no_pools(self):
        assert pool_stats() == []

    def test_one_entry_per_worker_count(self):
        pool_map(3, square, [1], 3)
        pool_map(2, square, [1], 2)
        assert pool_stats() == [{"workers": 2}, {"workers": 3}]

    def test_same_worker_count_reuses_the_pool(self):
        pool_map(2, square, [1, 2], 2)
        (pool,) = _POOLS.values()
        # Fewer threads at once still draws on the same cached pool.
        assert pool_map(2, square, [3], 1) == [9]
        assert list(_POOLS.values()) == [pool]


class TestFailure:
    def test_failure_waits_for_running_siblings(self):
        """The caller's clean-up must not race a sibling still running."""
        finished = threading.Event()

        def task(i: int) -> int:
            if i == 0:
                time.sleep(0.2)
                finished.set()
                return i
            raise KeyError(f"batch {i} failed")

        with pytest.raises(KeyError, match="batch 1 failed"):
            pool_map(2, task, [0, 1], 2)
        assert finished.is_set()

    def test_no_new_task_starts_after_a_failure(self):
        started: list[int] = []

        def task(i: int) -> int:
            started.append(i)
            if i == 0:
                raise ValueError("first batch failed")
            return i

        with pytest.raises(ValueError, match="first batch failed"):
            pool_map(1, task, list(range(10)), 1)
        assert started == [0]

    def test_pool_serves_the_next_run(self):
        def boom(_):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            pool_map(2, boom, [1, 2, 3], 2)
        (pool,) = _POOLS.values()
        assert pool_map(2, square, [4, 5], 2) == [16, 25]
        assert list(_POOLS.values()) == [pool]

    @pytest.mark.parametrize("failing", [0, 5, 9])
    def test_the_failing_task_raises_its_own_exception(self, failing):
        raised = []

        def task(i: int) -> int:
            if i == failing:
                error = LookupError(f"task {i} failed")
                raised.append(error)
                raise error
            return i

        with pytest.raises(LookupError) as caught:
            pool_map(2, task, list(range(10)), 2)
        assert caught.value is raised[0]
        assert pool_map(2, square, [6], 2) == [36]
