"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper artifact (table, figure, or analysis)
and does three things:

1. times the underlying computation via pytest-benchmark;
2. prints the regenerated rows/series in the paper's layout;
3. on a ``--benchmark-only`` run, writes the same text to
   ``benchmarks/results/<artifact>.txt`` so EXPERIMENTS.md can quote
   stable outputs (a plain ``pytest`` run only prints it).

Regenerate the artifacts with ``pytest benchmarks/ --benchmark-only``.
Engines meter peak memory only on request (``measure_memory=True``), so
the timings are of the unmetered default path.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.transactions import TransactionDatabase
from repro.data.retail import generate_retail_dataset

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's measured minimum-support grid (Section 6), as fractions.
PAPER_MINSUP_GRID = (0.001, 0.005, 0.01, 0.02, 0.05)

#: Figure 5/6 additionally show the 0.05% curve discussed in the text.
EXTENDED_MINSUP_GRID = (0.0005, *PAPER_MINSUP_GRID)


@pytest.fixture(scope="session")
def retail_db() -> TransactionDatabase:
    """The full-scale calibrated retail database (46,873 transactions)."""
    return generate_retail_dataset()


@pytest.fixture(scope="session")
def small_retail_db() -> TransactionDatabase:
    """A 1/10-scale retail database for the heavier ablations."""
    return generate_retail_dataset(scale=0.1)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(request, results_dir, capsys):
    """Print a report block; persist it under benchmarks/results/ only
    on a ``--benchmark-only`` run, so a plain test run never rewrites
    the committed artifacts."""
    persist = request.config.getoption("benchmark_only", default=False)

    def _emit(artifact: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")
        if persist:
            (results_dir / f"{artifact}.txt").write_text(text + "\n")

    return _emit


def minsup_label(minsup: float) -> str:
    """Render a fraction as the paper's percent labels (0.1%, 5%...)."""
    return f"{minsup * 100:g}%"

