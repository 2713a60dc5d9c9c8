"""The shared worker threads of ``setm-columnar`` with ``workers > 1``.

Its range kernel,
:class:`~repro.core.setm_columnar_disk.SpillingColumnarKernel`, maps
batches of key ranges over the thread pools this module owns.  The
batches run in the mining process itself: they read the run's
``SALES`` index in place and return their arrays directly, and NumPy
releases the interpreter lock in most of their work (sorts,
``searchsorted``, gathers, ``bincount``).  Pools are created lazily,
one per worker count, and **reused across runs** — a long-lived mining
session (the serve layer) starts its threads once, not per request.
:func:`shutdown_worker_pools` tears them down; an ``atexit`` hook does
the same at interpreter exit.

:class:`PoolTransportMixin` carries what a pooled kernel needs on top
of the serial kernel: the one dispatch seam the crash-injection tests
override.
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Sequence

from repro.errors import InvalidConfigError

__all__ = [
    "PoolTransportMixin",
    "START_METHOD_ENV",
    "default_workers",
    "pool_map",
    "pool_stats",
    "shutdown_worker_pools",
    "validate_workers",
    "warn_retired_options",
]


def default_workers() -> int:
    """The worker count ``workers=None`` stands for.

    One owner for the default: the kernel applies it, and
    ``Miner.explain`` quotes it when describing a run it has not
    started.
    """
    return os.cpu_count() or 1


#: Environment variable that chose the process pools' start method.
#: Deprecated with the ``start_method`` and ``transport`` options: a
#: set value warns and has no effect.  All three go in 1.12.
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Live pools keyed by worker count.  Shared across kernels and runs,
#: so a serving process starts its threads once.
_POOLS: dict[int, ThreadPoolExecutor] = {}

#: Guards every read-modify-write of ``_POOLS``.  The serve layer's
#: scheduler threads hit the cache concurrently; without the lock two
#: threads could both miss and each start a pool (leaking one).
_POOLS_LOCK = threading.Lock()


def validate_workers(workers: int | None) -> int:
    """``workers`` as a validated positive int (``None`` → CPU count).

    Shared by every parallel kernel so the error message — and the
    ``os.cpu_count()`` default — have exactly one owner.
    """
    if workers is None:
        workers = default_workers()
    if (
        isinstance(workers, bool)
        or not isinstance(workers, int)
        or workers < 1
    ):
        raise InvalidConfigError(
            f"workers must be a positive integer or None; got {workers!r}"
        )
    return workers


def warn_retired_options(**options: Any) -> None:
    """Warn once per retired option that was set; they have no effect.

    ``start_method``, ``transport`` and :data:`START_METHOD_ENV` chose
    how the process pools started and what crossed into them.  Workers
    are threads of the mining process since 1.11, so the values are
    accepted and ignored until their removal in 1.12.
    """
    retired = [name for name, value in options.items() if value is not None]
    if os.environ.get(START_METHOD_ENV):
        retired.append(START_METHOD_ENV)
    for name in retired:
        warnings.warn(
            f"{name} is deprecated and has no effect: workers are threads "
            "of the mining process; it is removed in 1.12",
            DeprecationWarning,
            stacklevel=3,
        )


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    """The (lazily created, cached) pool of ``workers`` threads.

    Called with ``_POOLS_LOCK`` held, so concurrent callers get the
    *same* pool object, never two racing pools.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-mine"
        )
        if not _POOLS:
            atexit.register(shutdown_worker_pools)
        _POOLS[workers] = pool
    return pool


def pool_map(workers: int, func: Any, tasks: Sequence, threads: int) -> list:
    """``[func(task) for task in tasks]`` on the cached pool, in task order.

    At most ``threads`` tasks run at once: that many of the pool's
    ``workers`` threads each take the next task in turn, so a level of
    many small tasks costs a handful of futures, not one each.  Returns
    only once no task is running.  A failing task's exception propagates
    unchanged, after the tasks not yet started are skipped and the
    running ones have finished — so the caller's clean-up (removing the
    spill directory) never races a task still writing into it.  The
    pool survives and serves the next run.
    """
    results: list = [None] * len(tasks)
    pending = iter(range(len(tasks)))
    lock = threading.Lock()
    failed = threading.Event()

    def run() -> None:
        while not failed.is_set():
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = func(tasks[i])
            except BaseException:
                failed.set()
                raise

    # Submitted under the lock, so a concurrent shutdown either comes
    # first (and this map starts a fresh pool) or waits for the runners.
    with _POOLS_LOCK:
        pool = _shared_pool(workers)
        runners = [
            pool.submit(run) for _ in range(max(1, min(threads, len(tasks))))
        ]
    wait(runners)
    for runner in runners:
        runner.result()
    return results


def pool_stats() -> list[dict[str, Any]]:
    """A snapshot of the cached pools: one ``{"workers": n}`` per pool.

    Sorted by worker count; the serve layer's ``stats`` op surfaces it.
    """
    with _POOLS_LOCK:
        return [{"workers": workers} for workers in sorted(_POOLS)]


def shutdown_worker_pools() -> None:
    """Stop every cached worker pool (idempotent and thread-safe).

    Long-lived processes that want to release the threads call this;
    an ``atexit`` hook calls it at interpreter exit regardless.  Each
    pool finishes the tasks it was given first.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


class PoolTransportMixin:
    """The pool dispatch seam of a pooled kernel.

    Expects the host kernel to provide ``self._workers``.  The kernel
    dispatches through :meth:`_dispatch` — the one seam the
    crash-injection tests override.  The name predates the threads; the
    benchmark's tracer (``perfbench/tracer.py``) matches it to name the
    ``pool.count_filter`` span.
    """

    def _dispatch(self, func, tasks: list, threads: int) -> list:
        """Run one level's tasks on the shared pool, ``threads`` at once.

        Replies come back in task order.
        """
        return pool_map(self._workers, func, tasks, threads)
