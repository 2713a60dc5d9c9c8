"""The shared worker pools of ``setm-columnar`` with ``workers > 1``.

Its range kernel,
:class:`~repro.core.setm_columnar_disk.SpillingColumnarKernel`, maps
batches of key ranges over the pools this module owns.  Worker
pools are created lazily, keyed by ``(start_method, workers)``, and
**reused across runs** — a long-lived mining session (the serve layer)
pays pool start-up once, not per request.
:func:`shutdown_worker_pools` tears them down; an ``atexit`` hook does
the same at interpreter exit.

:class:`PoolTransportMixin` carries what a pooled kernel needs on top
of the serial kernel: the transport negotiation, the one dispatch seam
the crash-injection tests override, and the ``extra["transport"]``
telemetry.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from multiprocessing.pool import RUN as _POOL_RUN
from typing import Any, Sequence

from repro.core.transport import (
    TransportSession,
    negotiate_pool_transport,
    resolve_transport,
)
from repro.errors import InvalidConfigError

__all__ = [
    "PoolTransportMixin",
    "default_workers",
    "pool_map",
    "pool_stats",
    "resolve_start_method",
    "resolved_start_method",
    "shutdown_worker_pools",
    "validate_workers",
]


def default_workers() -> int:
    """The worker count ``workers=None`` stands for.

    One owner for the default: the kernel applies it, and
    ``Miner.explain`` quotes it when describing a run it has not
    started.
    """
    return os.cpu_count() or 1


#: Environment override for the pool start method (the CI matrix runs
#: the suite under both ``fork`` and ``spawn`` through this).
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Live pools keyed by ``(start_method, workers)``.  Shared across
#: kernels and runs on purpose: pool start-up (especially under
#: ``spawn``) costs more than a whole small mining run, and a serving
#: process should pay it once.
_POOLS: dict[tuple[str | None, int], Any] = {}

#: Guards every read-modify-write of ``_POOLS``.  The serve layer's
#: scheduler threads hit the cache concurrently; without the lock two
#: threads could both miss and each start a pool (leaking one), or one
#: could evict an entry mid-lookup of another.  Reentrant because an
#: eviction path may run inside a section that already holds it.
_POOLS_LOCK = threading.RLock()


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


def resolve_start_method(start_method: str | None) -> str | None:
    """A validated pool start method (``None`` → env override → platform).

    ``None`` defers first to the ``REPRO_MP_START_METHOD`` environment
    variable (the CI matrix's knob), then to the platform default at
    pool-creation time.
    """
    if start_method is None:
        start_method = os.environ.get(START_METHOD_ENV) or None
    if (
        start_method is not None
        and start_method not in multiprocessing.get_all_start_methods()
    ):
        raise InvalidConfigError(
            f"start_method must be one of "
            f"{multiprocessing.get_all_start_methods()} or None; "
            f"got {start_method!r}"
        )
    return start_method


def resolved_start_method(start_method: str | None) -> str:
    """The concrete method a ``None`` configuration resolves to."""
    return start_method or multiprocessing.get_start_method()


def _pool_alive(pool: Any) -> bool:
    """Whether a pool can still accept work.

    A pool survives *worker* exceptions (they propagate out of ``map``
    and the processes live on), but a terminated/closed/broken pool is
    permanently dead — ``map`` would raise ``ValueError: Pool not
    running`` forever.  The state attribute is CPython-internal, so an
    implementation without it is conservatively treated as alive.
    """
    return getattr(pool, "_state", _POOL_RUN) == _POOL_RUN


def _shared_pool(start_method: str | None, workers: int):
    """The (lazily created, cached) pool for this configuration.

    A cached pool that died since the last run (terminated by a test,
    broken by a crashed worker) is discarded and transparently
    recreated — a stale cache entry must never fail a fresh run.

    Thread-safe: concurrent callers of the same configuration get the
    *same* pool object (one of them creates it; the others wait on the
    lock), never two racing pools.
    """
    key = (start_method, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not _pool_alive(pool):
            del _POOLS[key]
            pool = None
        if pool is None:
            context = multiprocessing.get_context(start_method)
            pool = context.Pool(processes=workers)
            if not _POOLS:
                atexit.register(shutdown_worker_pools)
            _POOLS[key] = pool
        return pool


def pool_map(
    start_method: str | None, workers: int, func: Any, tasks: Sequence
) -> list:
    """Map ``func`` over ``tasks`` on the cached pool for this config.

    Worker exceptions propagate unchanged (the pool itself survives
    them and stays cached for the next run).  If the dispatch itself
    fails because the pool broke mid-flight, the dead pool is evicted
    from the cache so the next run starts a fresh one instead of
    hitting ``Pool not running`` forever.
    """
    key = (start_method, workers)
    pool = _shared_pool(start_method, workers)
    try:
        return pool.map(func, tasks, chunksize=1)
    except BaseException:
        with _POOLS_LOCK:
            if not _pool_alive(pool) and _POOLS.get(key) is pool:
                del _POOLS[key]
        raise


def pool_stats() -> list[dict[str, Any]]:
    """A snapshot of the cached pools: configuration and liveness.

    One entry per cached pool, sorted by configuration.  ``start_method``
    reports the *resolved* method (what ``None`` meant at creation
    time), ``alive`` whether the pool can still accept work.  The serve
    layer's ``stats`` op surfaces this.
    """
    with _POOLS_LOCK:
        snapshot = list(_POOLS.items())
    return [
        {
            "start_method": resolved_start_method(start_method),
            "workers": workers,
            "alive": _pool_alive(pool),
        }
        for (start_method, workers), pool in sorted(
            snapshot, key=lambda item: (item[0][0] or "", item[0][1])
        )
    ]


def shutdown_worker_pools() -> None:
    """Terminate every cached worker pool (idempotent and thread-safe).

    Long-lived processes that want to release the workers — or tests
    that must not leak them across start-method changes — call this;
    an ``atexit`` hook calls it at interpreter exit regardless.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.terminate()
        pool.join()


class PoolTransportMixin:
    """Transport negotiation + telemetry of a pooled kernel.

    Expects the host kernel to provide ``self._workers`` and
    ``self._start_method`` before :meth:`_init_transport` runs.  The
    kernel dispatches through :meth:`_dispatch` — the one seam the
    crash-injection tests override — and reports
    :meth:`transport_stats` in its ``extra_stats``.
    """

    def _init_transport(self, transport: str | None) -> None:
        self._transport_requested = resolve_transport(transport)
        self._transport_mode: str | None = None
        self._transport_fallback: str | None = None
        self._transport_sessions = 0
        self._transport_counters: dict[str, int] = {}

    def _dispatch(self, func, tasks: list) -> list:
        """Run one iteration's tasks on the shared pool.

        The one seam between the kernel and the pool — the
        crash-injection tests override it to poison tasks mid-flight
        and prove the transport session cleans up anyway.
        """
        return pool_map(self._start_method, self._workers, func, tasks)

    def _negotiated_transport(self) -> str:
        """The concrete transport for this kernel's pool (cached).

        ``auto`` means ``mmap``: every task reads files (the published
        ``SALES`` columns, earlier ``R_k`` shares).  ``shm`` is proven
        through the real pool first and demotes to ``mmap`` — reason
        recorded in the telemetry — if the handshake fails.
        """
        if self._transport_mode is None:
            requested = self._transport_requested
            concrete = "mmap" if requested == "auto" else requested
            self._transport_mode, self._transport_fallback = (
                negotiate_pool_transport(
                    concrete,
                    start_method=self._start_method,
                    workers=self._workers,
                    mapper=self._dispatch,
                )
            )
        return self._transport_mode

    def _record_transport(self, session: TransportSession) -> None:
        """Fold one session's counters into the run telemetry."""
        self._transport_sessions += 1
        for key, value in session.counters.items():
            self._transport_counters[key] = (
                self._transport_counters.get(key, 0) + value
            )

    def transport_stats(self) -> dict[str, Any]:
        """The ``extra["transport"]`` telemetry block for this run."""
        return {
            "requested": self._transport_requested,
            "mode": self._transport_mode,
            "fallback_reason": self._transport_fallback,
            "sessions": self._transport_sessions,
            **{
                key: self._transport_counters.get(key, 0)
                for key in (
                    "task_bytes_shared",
                    "task_bytes_spooled",
                    "reply_bytes_inline",
                    "reply_bytes_shared",
                    "zero_copy_bytes",
                )
            },
        }
