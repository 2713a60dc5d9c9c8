"""Section 6.2 table — SETM execution time versus minimum support.

The paper's table (IBM RS/6000 350, 41.1 MHz, main-memory C):

    ======================  =====================
    Minimum Support (%)      Execution Time (s)
    ======================  =====================
    0.1                      6.90
    0.5                      5.30
    1                        4.64
    2                        4.22
    5                        3.97
    ======================  =====================

Absolute times are hardware-bound; the claims that survive the decades —
and that this bench asserts — are the *shape*:

* execution time decreases monotonically as minimum support grows;
* the algorithm is **stable**: the paper's max/min ratio is 6.90/3.97 ≈
  1.74; we allow up to 3x before calling the behaviour unstable.

The shape is asserted on CPU time (``time.process_time()``): ``setm`` is
single-threaded, so its CPU time is its work, while wall-clock time
also counts whatever pause the host inserts.
"""

from __future__ import annotations

import time

import pytest
from conftest import PAPER_MINSUP_GRID, minsup_label

from repro.analysis.report import format_table
from repro.core.setm import setm

#: The paper's reported numbers, for side-by-side reporting.
PAPER_TIMES = {0.001: 6.90, 0.005: 5.30, 0.01: 4.64, 0.02: 4.22, 0.05: 3.97}

_measured: dict[float, float] = {}


@pytest.mark.parametrize("minsup", PAPER_MINSUP_GRID)
def test_table62_execution_time(benchmark, retail_db, minsup):
    benchmark.group = "table-6.2 execution time"
    benchmark.name = f"setm minsup={minsup_label(minsup)}"
    cpu_seconds = []

    def run():
        started = time.process_time()
        result = setm(retail_db, minsup)
        cpu_seconds.append(time.process_time() - started)
        return result

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.count_relations[2], "mining must find patterns"
    _measured[minsup] = min(cpu_seconds)


def test_table62_shape(benchmark, retail_db, emit):
    """Aggregate the per-minsup timings and assert the paper's shape."""
    benchmark.group = "table-6.2 execution time"
    benchmark.name = "setm full-grid sweep"

    def measure(minsup):
        started = time.process_time()
        setm(retail_db, minsup)
        return time.process_time() - started

    def fill_missing():
        for minsup in PAPER_MINSUP_GRID:  # direct runs if order changed
            if minsup not in _measured:
                _measured[minsup] = measure(minsup)
        return dict(_measured)

    benchmark.pedantic(fill_missing, rounds=1, iterations=1)

    # The per-minsup timings were taken at different moments, and CPU
    # time on a shared host still varies by ~15% with what runs beside
    # it.  If any adjacent pair looks non-monotone, re-measure the whole
    # grid in one interleaved sweep (best of 3 per point), so every
    # point is compared under the same conditions.
    times = [_measured[minsup] for minsup in PAPER_MINSUP_GRID]
    if any(later > earlier * 1.15 for earlier, later in zip(times, times[1:])):
        best = dict.fromkeys(PAPER_MINSUP_GRID, float("inf"))
        for _ in range(3):
            for minsup in PAPER_MINSUP_GRID:
                best[minsup] = min(best[minsup], measure(minsup))
        _measured.update(best)

    rows = [
        (
            minsup_label(minsup),
            PAPER_TIMES[minsup],
            round(_measured[minsup], 3),
        )
        for minsup in PAPER_MINSUP_GRID
    ]
    emit(
        "table62_execution_times",
        format_table(
            [
                "Minimum Support",
                "Paper 1995 (s)",
                "Measured CPU (s)",
            ],
            rows,
            title="Section 6.2 — execution times of Algorithm SETM",
        ),
    )

    times = [_measured[minsup] for minsup in PAPER_MINSUP_GRID]
    # Monotone decrease with rising minimum support (mild tolerance for
    # timer noise between adjacent grid points).
    for earlier, later in zip(times, times[1:]):
        assert later <= earlier * 1.15

    # Stability: the paper's ratio is 1.74; anything under 3x is "almost
    # insensitive to the chosen minimum support".
    assert max(times) / min(times) < 3.0
