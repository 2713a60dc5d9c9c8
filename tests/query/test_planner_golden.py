"""Golden EXPLAIN snapshots: the planner's decision matrix, pinned.

Each scenario is a ``(query, synthesized DatasetStats, pinned
cpu_count)`` triple — plans are a pure function of those inputs, so the
rendered EXPLAIN text is committed under ``tests/query/golden/`` and
compared byte-for-byte.  A planner change that moves any engine choice,
threshold, option, or reason string shows up as a reviewable text diff.

Regenerate after an *intentional* planner change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/query/test_planner_golden.py

and commit the diff.

On top of the snapshots, :class:`TestPinnedChoices` asserts the three
load-bearing selections directly (so the intent survives even a golden
regeneration): a 64 KiB budget over a ~625 KiB dataset must select an
out-of-core engine, ``workers = 2`` must select a parallel engine, and
an existing materialized ``MiningState`` must select the incremental
engine — each with a recorded reason.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.config import DEFAULT_ENGINE, MiningConfig
from repro.errors import PlanError
from repro.query import DatasetStats, parse_query, plan_query, render_plan

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Pinned host CPU count: plans must not depend on the real machine.
CPUS = 4

#: ~625 KiB at the planner's 16 B/row model — comfortably above a
#: 64 KiB budget and below a 2 MiB one.
BIG = DatasetStats(
    name="sales",
    num_transactions=10_000,
    num_sales_rows=40_000,
    estimated_bytes=40_000 * 16,
)

SMALL = DatasetStats(
    name="sales",
    num_transactions=100,
    num_sales_rows=300,
    estimated_bytes=300 * 16,
)

STREAMED = DatasetStats(
    name="sales",
    num_transactions=10_000,
    num_sales_rows=40_000,
    estimated_bytes=40_000 * 16,
    streamed=True,
    generation=2,
)

WITH_STATE = DatasetStats(
    name="sales",
    num_transactions=10_000,
    num_sales_rows=40_000,
    estimated_bytes=40_000 * 16,
    state_generation=3,
)


@dataclass(frozen=True)
class Scenario:
    name: str
    query: str
    stats: DatasetStats


SCENARIOS = [
    Scenario(
        "default",
        "MINE ITEMSETS FROM sales WHERE support >= 0.05",
        SMALL,
    ),
    Scenario(
        "default_support",
        "MINE RULES FROM sales",
        SMALL,
    ),
    Scenario(
        "budget_spill",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
        "WITH memory_budget = '64K'",
        BIG,
    ),
    Scenario(
        "budget_fits",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
        "WITH memory_budget = '2M'",
        BIG,
    ),
    Scenario(
        "workers_parallel",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 WITH workers = 2",
        BIG,
    ),
    Scenario(
        "workers_serial",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 WITH workers = 1",
        BIG,
    ),
    Scenario(
        "spill_parallel",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
        "WITH workers = 2, memory_budget = '64K'",
        BIG,
    ),
    Scenario(
        "state_fresh",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
        "WITH state = 'state'",
        BIG,
    ),
    Scenario(
        "state_present",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
        "WITH state = 'state'",
        WITH_STATE,
    ),
    Scenario(
        "state_plus_workers_relaxed",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
        "WITH state = 'state', workers = 2",
        WITH_STATE,
    ),
    Scenario(
        "lhs_has_post_filter",
        "MINE RULES FROM sales WHERE support >= 0.005 "
        "AND confidence >= 0.6 AND lhs HAS 'beer' AND length <= 4",
        BIG,
    ),
    Scenario(
        "using_engine_override_warns",
        "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
        "USING ENGINE 'setm' WITH workers = 2",
        BIG,
    ),
    Scenario(
        "absolute_support_streamed_ingest",
        "MINE ITEMSETS FROM sales WHERE support >= 25 "
        "WITH chunk_rows = 5000, input_format = 'csv'",
        STREAMED,
    ),
]


def _render(scenario: Scenario) -> str:
    plan = plan_query(
        parse_query(scenario.query), scenario.stats, cpu_count=CPUS
    )
    return render_plan(plan) + "\n"


class TestGoldenPlans:
    def test_scenario_names_are_unique(self):
        names = [s.name for s in SCENARIOS]
        assert len(names) == len(set(names))

    def test_no_stale_golden_files(self):
        expected = {f"{s.name}.txt" for s in SCENARIOS}
        actual = {p.name for p in GOLDEN_DIR.glob("*.txt")}
        assert actual == expected, (
            "golden files and scenarios drifted apart; regenerate with "
            "REPRO_UPDATE_GOLDEN=1"
        )

    @pytest.mark.parametrize(
        "scenario", SCENARIOS, ids=[s.name for s in SCENARIOS]
    )
    def test_plan_matches_golden(self, scenario):
        rendered = _render(scenario)
        path = GOLDEN_DIR / f"{scenario.name}.txt"
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(rendered, encoding="utf-8")
            return
        assert path.exists(), (
            f"missing golden file {path.name}; generate it with "
            "REPRO_UPDATE_GOLDEN=1"
        )
        assert rendered == path.read_text(encoding="utf-8"), scenario.name


def _plan(text: str, stats: DatasetStats):
    return plan_query(parse_query(text), stats, cpu_count=CPUS)


class TestPinnedChoices:
    """The three load-bearing selections, asserted independently of the
    snapshot files (regenerating goldens cannot silently change these)."""

    def test_64k_budget_selects_a_spill_engine_with_reason(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH memory_budget = '64K'",
            BIG,
        )
        assert plan.engine == "setm-columnar-disk"
        reasons = {
            (d.topic, d.choice): d.reason for d in plan.decisions()
        }
        assert ("capability", "out_of_core") in reasons
        assert "exceeds the 64 KiB memory_budget" in (
            reasons[("capability", "out_of_core")]
        )
        assert plan.config.options["memory_budget_bytes"] == 64 * 1024

    def test_workers_2_selects_a_parallel_engine_with_reason(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH workers = 2",
            BIG,
        )
        assert plan.engine == "setm-parallel"
        reasons = {
            (d.topic, d.choice): d.reason for d in plan.decisions()
        }
        assert ("capability", "parallel") in reasons
        assert "workers = 2 requested" in reasons[("capability", "parallel")]
        assert plan.config.options["workers"] == 2

    def test_existing_state_selects_the_incremental_engine_with_reason(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH state = 'state'",
            WITH_STATE,
        )
        assert plan.engine == "setm-incremental"
        reasons = {
            (d.topic, d.choice): d.reason for d in plan.decisions()
        }
        assert ("capability", "incremental") in reasons
        assert "generation 3" in reasons[("capability", "incremental")]
        assert plan.config.state_dir == "state"

    def test_both_budget_and_workers_selects_spill_parallel(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH workers = 2, memory_budget = '64K'",
            BIG,
        )
        assert plan.engine == "setm-spill-parallel"

    def test_unsatisfiable_combination_relaxes_lowest_priority_first(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH state = 'state', workers = 2",
            WITH_STATE,
        )
        # No registered engine is incremental + parallel: the planner
        # must keep incremental and drop parallel, saying so.
        assert plan.engine == "setm-incremental"
        relaxed = [
            d for d in plan.decisions() if d.choice == "relaxed parallel"
        ]
        assert relaxed and "lowest-priority" in relaxed[0].reason

    @pytest.mark.parametrize(
        "stats", [SMALL, BIG, STREAMED], ids=["small", "big", "streamed"]
    )
    @pytest.mark.parametrize("target", ["RULES", "ITEMSETS"])
    def test_no_requirements_selects_the_default_engine(self, stats, target):
        """A bare statement runs the engine ``Miner`` runs by default, so
        the ``MINE`` and ``Miner`` front doors cannot drift apart."""
        plan = _plan(f"MINE {target} FROM sales WHERE support >= 0.01", stats)
        assert plan.engine == DEFAULT_ENGINE
        assert plan.config.algorithm == MiningConfig().algorithm

    def test_unknown_using_engine_is_a_plan_error(self):
        with pytest.raises(PlanError, match="unknown engine"):
            _plan(
                "MINE ITEMSETS FROM sales USING ENGINE 'warp-drive'", SMALL
            )
