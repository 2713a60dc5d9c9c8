#!/usr/bin/env python3
"""Retail analysis — the paper's Section 6 evaluation, regenerated.

Generates the calibrated retail database (46,873 transactions, 115,568
``SALES`` rows, 59 items — the published shape of the paper's proprietary
data set), then reproduces:

* Figure 5 — size of ``R_i`` in Kbytes per iteration, one curve per
  minimum support in {0.05%, 0.1%, 0.5%, 1%, 2%, 5%};
* Figure 6 — cardinality of ``C_i`` per iteration, same curves;
* the Section 6.2 execution-time table (measured on this machine, next
  to the paper's 1995 numbers);
* a sample of high-confidence rules at 0.5% support.

Run:  python examples/retail_analysis.py [--scale 0.1]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.report import format_figure_series, format_table
from repro.core.rules import generate_rules
from repro.core.setm import setm
from repro.data.retail import generate_retail_dataset

MINSUP_GRID = (0.0005, 0.001, 0.005, 0.01, 0.02, 0.05)
PAPER_TIMES = {0.001: 6.90, 0.005: 5.30, 0.01: 4.64, 0.02: 4.22, 0.05: 3.97}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink the data set (e.g. 0.1 for a quick run)",
    )
    args = parser.parse_args()

    print("Generating calibrated retail data set ...")
    database = generate_retail_dataset(scale=args.scale)
    print(
        f"  {database.num_transactions:,} transactions, "
        f"{database.num_sales_rows:,} SALES rows, "
        f"{len(database.distinct_items())} items, "
        f"{database.average_transaction_length():.2f} items/basket\n"
    )

    results = {}
    timings = {}
    for minsup in MINSUP_GRID:
        started = time.perf_counter()
        # Unmetered: these wall-clock figures mirror Table 6.2, and the
        # default tracemalloc peak-memory metering would inflate them.
        results[minsup] = setm(database, minsup)
        timings[minsup] = time.perf_counter() - started

    def label(m: float) -> str:
        return f"{m * 100:g}%"

    print(
        format_figure_series(
            {label(m): results[m].r_sizes_kbytes() for m in MINSUP_GRID},
            x_label="iteration",
            title="Figure 5 — size of R_i (Kbytes)",
        )
    )
    print()
    print(
        format_figure_series(
            {label(m): results[m].c_cardinalities() for m in MINSUP_GRID},
            x_label="iteration",
            title="Figure 6 — cardinality of C_i",
        )
    )
    print()
    print(
        format_table(
            ["Minimum Support", "Paper 1995 (s)", "This machine (s)"],
            [
                (
                    label(m),
                    PAPER_TIMES.get(m, "-"),
                    round(timings[m], 3),
                )
                for m in MINSUP_GRID
            ],
            title="Section 6.2 — execution times",
        )
    )

    rules = generate_rules(results[0.005], minimum_confidence=0.75)
    print(f"\nTop rules at 0.5% support, 75% confidence ({len(rules)} total):")
    for rule in sorted(rules, key=lambda r: -r.confidence)[:10]:
        print(f"  {rule}   lift={rule.lift:.1f}")


if __name__ == "__main__":
    main()
