"""Ablation — design choices inside SETM itself.

Three knobs DESIGN.md and the columnar kernel call out:

* **counting strategy** (``count_via``): the paper counts by sorting
  ``R'_k`` on its item columns and scanning ("generate counts ... a
  simple sequential scan"); a hash aggregate is the modern alternative.
  The faithful engine's ``count_via="hash"`` is one
  :class:`collections.Counter` pass (a single hash per row); the
  columnar engine's ``"hash"`` counts packed integer keys, and its
  ``"sort"`` is a key-free integer sort (one ``np.unique``).  All must
  agree; the bench records the gaps —
  across *representations* as well as strategies.
* **representation** (tuples vs columnar): the same Figure 4 loop over
  row tuples vs dictionary-encoded array columns; see
  ``benchmarks/run_bench.py`` for the committed cross-workload baseline.
* **buffer pool size** (disk variant): the paper assumes ``C_k`` stays
  resident and non-leaf pages are cached; shrinking the pool below that
  shows up directly as page accesses.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.core.setm import setm
from repro.core.setm_columnar import setm_columnar
from repro.core.setm_disk import setm_disk

_count_timings: dict[str, float] = {}


@pytest.mark.parametrize(
    ("engine", "count_via"),
    [
        ("setm", "sort"),
        ("setm", "hash"),
        ("setm-columnar", "sort"),
        ("setm-columnar", "hash"),
    ],
)
def test_counting_strategy(benchmark, small_retail_db, engine, count_via):
    benchmark.group = "counting strategy retail(1/10) minsup=0.2%"
    benchmark.name = f"{engine} count_via={count_via}"
    runner = setm if engine == "setm" else setm_columnar
    result = benchmark.pedantic(
        runner,
        args=(small_retail_db, 0.002),
        kwargs={"count_via": count_via},
        rounds=3,
        iterations=1,
    )
    assert result.count_relations[2]
    _count_timings[f"{engine}/{count_via}"] = benchmark.stats.stats.min


def test_counting_strategies_agree(benchmark, small_retail_db, emit):
    benchmark.group = "counting strategy retail(1/10) minsup=0.2%"
    benchmark.name = "agreement check (all strategies)"

    def all_of_them():
        return (
            setm(small_retail_db, 0.002, count_via="sort"),
            setm(small_retail_db, 0.002, count_via="hash"),
            setm_columnar(small_retail_db, 0.002, count_via="sort"),
            setm_columnar(small_retail_db, 0.002, count_via="hash"),
        )

    results = benchmark.pedantic(all_of_them, rounds=1, iterations=1)
    reference = results[0]
    for other in results[1:]:
        assert reference.same_patterns_as(other)

    emit(
        "ablation_counting",
        format_table(
            ["engine/counting", "time (s)"],
            [
                (name, round(timing, 4))
                for name, timing in sorted(_count_timings.items())
            ],
            title=(
                "Ablation — sort-scan counting (paper) vs hash "
                "aggregation, tuple vs columnar, retail(1/10) at 0.2%"
            ),
        ),
    )


def test_buffer_pool_sensitivity(benchmark, small_retail_db, emit):
    """Page accesses as the buffer pool shrinks (disk SETM)."""

    def sweep():
        return {
            pages: setm_disk(
                small_retail_db, 0.01, buffer_pages=pages
            ).extra["io"].total_accesses
            for pages in (4, 16, 64, 4096)
        }

    accesses = benchmark.pedantic(sweep, rounds=1, iterations=1)

    emit(
        "ablation_buffer_pool",
        format_table(
            ["buffer pages", "page accesses"],
            sorted(accesses.items()),
            title=(
                "Ablation — disk SETM page accesses vs buffer pool size "
                "(retail 1/10, minsup 1%)"
            ),
        ),
    )

    # More memory can only help.
    ordered = [accesses[pages] for pages in sorted(accesses)]
    assert ordered == sorted(ordered, reverse=True)
