"""Opt-in peak-memory metering for the mining loops.

:func:`memory_meter` wraps one mining loop in a :mod:`tracemalloc` trace
and hands back a reader for the traced peak.  Metering is opt-in
(``measure_memory=True`` on the engines): tracemalloc taxes every
allocation, 5-10x on the mining kernels.

The trace is process-wide state, and the serve layer runs mines on
several scheduler threads at once.  Start and stop are therefore
reference-counted under a module lock: the first metered run starts the
trace (or adopts a trace the caller already runs) and resets its peak,
and only the last one to finish stops it — never an outer trace it did
not start.  A consequence worth knowing: the peaks of *overlapping*
metered runs are process-wide.  Each reports the highest traced total
since the earliest of them started, not its own share of it.
"""

from __future__ import annotations

import threading
import tracemalloc
from collections.abc import Callable, Iterator
from contextlib import contextmanager

__all__ = ["memory_meter"]

_lock = threading.Lock()
_active = 0  # metered runs in flight
_owns_trace = False  # the first of them started the trace


def _traced_peak() -> int:
    return tracemalloc.get_traced_memory()[1]


@contextmanager
def memory_meter(enabled: bool) -> Iterator[Callable[[], int] | None]:
    """Meter the block's peak traced memory when ``enabled``.

    Yields a zero-argument callable returning the peak in bytes (read it
    inside the block), or ``None`` when metering is off — in which case
    tracemalloc is never touched.
    """
    global _active, _owns_trace
    if not enabled:
        yield None
        return
    with _lock:
        if _active == 0:
            _owns_trace = not tracemalloc.is_tracing()
            if _owns_trace:
                tracemalloc.start()
            tracemalloc.reset_peak()
        _active += 1
    try:
        yield _traced_peak
    finally:
        with _lock:
            _active -= 1
            if _active == 0 and _owns_trace:
                tracemalloc.stop()
