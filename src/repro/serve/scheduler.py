"""A bounded request queue with admission control and crash requeue.

The scheduler is the serve layer's back-pressure valve.  Client handler
threads :meth:`~RequestScheduler.submit` callables; a fixed set of
worker threads drains the queue.  Three deliberate policies:

* **Admission control** — the queue is bounded (``queue_depth``).  A
  request arriving while the queue is full is rejected *immediately*
  with :class:`~repro.errors.ServerBusyError` rather than queued
  unboundedly: under overload the server sheds load instead of growing
  latency (and memory) without bound.
* **Deadlines** — every submission carries a timeout (per-request or
  the server default).  A submitter whose deadline passes gets
  :class:`~repro.errors.RequestTimeoutError`; the task itself is marked
  abandoned so a later crash of it is not retried on nobody's behalf.
* **Requeue-or-fail** — a task that fails with a *retryable* exception
  (the service classifies dead-pool signatures; ``pool_map`` evicts the
  broken pool, so the retry builds a fresh one) is put back on the
  queue exactly once.  A second failure — or a full queue at requeue
  time — resolves the task with
  :class:`~repro.errors.WorkerCrashError` carrying the original cause.

Pooled mining fans out further onto ``setm_parallel``'s shared thread
pools, so a handful of these workers suffices.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable
from typing import Any

from repro.errors import (
    InvalidConfigError,
    RequestTimeoutError,
    ServerBusyError,
    ServerDrainingError,
    WorkerCrashError,
)

__all__ = ["RequestScheduler"]

#: Sentinel a worker interprets as "stop".
_STOP = object()

#: submit()'s "no per-request timeout given" marker (None is meaningful:
#: it disables the deadline).
_UNSET = object()


class _Task:
    """One queued unit of work plus its completion signalling."""

    __slots__ = ("fn", "done", "result", "error", "attempts", "abandoned")

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.attempts = 0
        self.abandoned = False


class RequestScheduler:
    """Bounded-queue executor with admission control and crash requeue.

    Parameters
    ----------
    queue_depth:
        Maximum number of *waiting* requests (in-flight work does not
        count against it).  Requests beyond it are rejected with
        :class:`ServerBusyError`.
    workers:
        Worker threads draining the queue.
    default_timeout:
        Deadline in seconds applied when a submission does not carry its
        own; ``None`` disables the default deadline.
    max_attempts:
        Total executions allowed per task (first run plus requeues).
    retryable:
        Predicate deciding whether an exception is worth a requeue
        (e.g. a dead worker pool).  ``None`` disables requeueing.
    """

    def __init__(
        self,
        *,
        queue_depth: int = 16,
        workers: int = 2,
        default_timeout: float | None = None,
        max_attempts: int = 2,
        retryable: Callable[[BaseException], bool] | None = None,
    ) -> None:
        for name, value, floor in (
            ("queue_depth", queue_depth, 1),
            ("workers", workers, 1),
            ("max_attempts", max_attempts, 1),
        ):
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < floor
            ):
                raise InvalidConfigError(
                    f"{name} must be an integer >= {floor}; got {value!r}"
                )
        if default_timeout is not None and (
            isinstance(default_timeout, bool)
            or not isinstance(default_timeout, (int, float))
            or default_timeout <= 0
        ):
            raise InvalidConfigError(
                "default_timeout must be a positive number or None; "
                f"got {default_timeout!r}"
            )
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._queue_depth = queue_depth
        self._workers = workers
        self._default_timeout = default_timeout
        self._max_attempts = max_attempts
        self._retryable = retryable
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._draining = False
        self._stopped = False
        self._in_flight = 0
        self._accepted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._requeued = 0
        self._timed_out = 0

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> "RequestScheduler":
        """Spawn the worker threads (idempotent); returns self."""
        with self._lock:
            if self._stopped:
                raise ServerDrainingError("scheduler already drained")
            if self._threads:
                return self
            self._threads = [
                threading.Thread(
                    target=self._run,
                    name=f"repro-serve-worker-{i}",
                    daemon=True,
                )
                for i in range(self._workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def drain(self) -> None:
        """Stop admissions, finish every queued task, stop the workers.

        Idempotent.  Blocks until the queue is empty, all in-flight work
        has completed (successfully or not), and every worker thread has
        exited.
        """
        with self._lock:
            self._draining = True
            started = bool(self._threads)
            already = self._stopped
            self._stopped = True
        if already or not started:
            return
        self._queue.join()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission -----------------------------------------------------------------

    def submit(
        self, fn: Callable[[], Any], *, timeout: object = _UNSET
    ) -> Any:
        """Run ``fn`` through the queue; block for its result.

        Raises
        ------
        ServerDrainingError
            The scheduler is draining (or was never started).
        ServerBusyError
            The queue is at ``queue_depth``.
        RequestTimeoutError
            The deadline passed before the task completed.  The task is
            marked abandoned; if it later fails retryably it will *not*
            be requeued.
        WorkerCrashError
            The task kept failing retryably until ``max_attempts`` (or
            could not be requeued); ``__cause__`` holds the last error.
        """
        with self._lock:
            if self._draining or not self._threads:
                raise ServerDrainingError()
        task = _Task(fn)
        try:
            self._queue.put_nowait(task)
        except queue.Full:
            with self._lock:
                self._rejected += 1
            raise ServerBusyError(queue_depth=self._queue_depth) from None
        with self._lock:
            self._accepted += 1
        deadline = (
            self._default_timeout if timeout is _UNSET else timeout
        )
        if not task.done.wait(deadline):
            task.abandoned = True
            with self._lock:
                self._timed_out += 1
            raise RequestTimeoutError(timeout_seconds=deadline)
        if task.error is not None:
            raise task.error
        return task.result

    # -- worker body ----------------------------------------------------------------

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task is _STOP:
                self._queue.task_done()
                return
            with self._lock:
                self._in_flight += 1
            try:
                self._execute(task)
            finally:
                with self._lock:
                    self._in_flight -= 1
                self._queue.task_done()

    def _execute(self, task: _Task) -> None:
        task.attempts += 1
        try:
            task.result = task.fn()
        except BaseException as exc:  # noqa: BLE001 - resolved into the task
            if self._should_requeue(task, exc):
                try:
                    # Bypassing put_nowait admission would be wrong: a
                    # requeue competes for queue space like any arrival.
                    self._queue.put_nowait(task)
                except queue.Full:
                    task.error = WorkerCrashError(attempts=task.attempts)
                    task.error.__cause__ = exc
                else:
                    with self._lock:
                        self._requeued += 1
                    return  # not done yet: the requeued run will finish it
            elif (
                self._retryable is not None
                and self._retryable(exc)
                and task.attempts >= self._max_attempts
            ):
                task.error = WorkerCrashError(attempts=task.attempts)
                task.error.__cause__ = exc
            else:
                task.error = exc
            with self._lock:
                self._failed += 1
        else:
            task.error = None
            with self._lock:
                self._completed += 1
        task.done.set()

    def _should_requeue(self, task: _Task, exc: BaseException) -> bool:
        if task.abandoned or task.attempts >= self._max_attempts:
            return False
        return self._retryable is not None and self._retryable(exc)

    # -- introspection --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A point-in-time snapshot of queue state and lifetime counters."""
        with self._lock:
            return {
                "queue_depth": self._queue_depth,
                "workers": self._workers,
                "depth": self._queue.qsize(),
                "in_flight": self._in_flight,
                "accepted": self._accepted,
                "rejected": self._rejected,
                "completed": self._completed,
                "failed": self._failed,
                "requeued": self._requeued,
                "timed_out": self._timed_out,
                "draining": self._draining,
            }
