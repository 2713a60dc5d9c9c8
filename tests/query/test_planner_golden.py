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

On top of the snapshots, :class:`TestPinnedChoices` asserts the
load-bearing choices directly (so the intent survives even a golden
regeneration): a memory budget — whether or not the estimated
footprint fits it — and ``workers`` reach ``setm-columnar`` as its
``memory_budget_bytes`` and ``workers`` options, an existing
materialized ``MiningState`` selects the incremental engine, and an
option the chosen engine does not accept is dropped with a warning —
each with a recorded reason.
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
    """The budget and workers reach the engine as options; state selects
    the incremental engine (asserted independently of the snapshot
    files, so regenerating goldens cannot silently change these)."""

    @staticmethod
    def _reasons(plan) -> dict:
        return {(d.topic, d.choice): d.reason for d in plan.decisions()}

    def test_64k_budget_reaches_the_engine_with_reason(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH memory_budget = '64K'",
            BIG,
        )
        assert plan.engine == "setm-columnar"
        assert plan.config.options == {"memory_budget_bytes": 64 * 1024}
        reasons = self._reasons(plan)
        assert ("storage", "budget 64 KiB") in reasons
        assert "a quarter of the budget (16 KiB)" in (
            reasons[("storage", "budget 64 KiB")]
        )

    def test_budget_the_estimate_fits_still_reaches_the_engine(self):
        """A budget above the estimated footprint is not dropped: the
        engine, not the 16 B/row estimate, decides what spills."""
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH memory_budget = '2M'",
            BIG,
        )
        assert BIG.estimated_bytes < 2 * 2**20
        assert plan.engine == "setm-columnar"
        assert plan.config.options == {"memory_budget_bytes": 2 * 2**20}
        assert not [d for d in plan.decisions() if d.topic == "warning"]

    def test_workers_2_reaches_the_engine_with_reason(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH workers = 2",
            BIG,
        )
        assert plan.engine == "setm-columnar"
        assert plan.config.options == {"workers": 2}
        reasons = self._reasons(plan)
        assert ("execution", "pooled") in reasons
        assert "workers = 2 requested" in reasons[("execution", "pooled")]

    def test_workers_1_reaches_the_engine_as_serial(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH workers = 1",
            BIG,
        )
        assert plan.engine == "setm-columnar"
        assert plan.config.options == {"workers": 1}
        assert ("execution", "serial") in self._reasons(plan)

    def test_budget_and_workers_both_reach_the_engine(self):
        # WITH transport is deprecated: it warns and never reaches the
        # engine (workers are threads).
        with pytest.warns(DeprecationWarning, match="WITH transport"):
            plan = _plan(
                "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
                "WITH workers = 2, memory_budget = '64K', transport = 'shm'",
                BIG,
            )
        assert plan.engine == "setm-columnar"
        assert plan.config.algorithm == "setm-columnar"
        assert plan.config.options == {
            "memory_budget_bytes": 64 * 1024,
            "workers": 2,
        }

    def test_existing_state_selects_the_incremental_engine_with_reason(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH state = 'state'",
            WITH_STATE,
        )
        assert plan.engine == "setm-incremental"
        reasons = self._reasons(plan)
        assert ("capability", "incremental") in reasons
        assert "generation 3" in reasons[("capability", "incremental")]
        assert plan.config.state_dir == "state"

    def test_state_keeps_the_incremental_engine_and_drops_workers(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "WITH state = 'state', workers = 2",
            WITH_STATE,
        )
        # setm-incremental has no workers option: the engine stays, the
        # option goes, and EXPLAIN says so.
        assert plan.engine == "setm-incremental"
        assert "workers" not in plan.config.options
        reasons = self._reasons(plan)
        assert "does not accept 'workers'" in (
            reasons[("warning", "dropped workers")]
        )

    def test_using_engine_drops_options_it_does_not_accept(self):
        plan = _plan(
            "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
            "USING ENGINE 'setm' WITH workers = 2, memory_budget = '64K'",
            BIG,
        )
        assert plan.engine == "setm"
        assert plan.config.options == {}
        reasons = self._reasons(plan)
        assert ("warning", "dropped workers") in reasons
        assert ("warning", "dropped memory_budget_bytes") in reasons

    def test_using_an_alias_keeps_its_name_for_the_run(self):
        with pytest.warns(DeprecationWarning, match="setm-parallel"):
            plan = _plan(
                "MINE ITEMSETS FROM sales WHERE support >= 0.01 "
                "USING ENGINE 'setm-parallel'",
                BIG,
            )
        assert plan.engine == "setm-columnar"
        # Miner resolves the alias again, with its workers=None default.
        assert plan.config.algorithm == "setm-parallel"
        engine = self._reasons(plan)[("engine", "setm-columnar")]
        assert "deprecated alias" in engine and "workers = None" in engine

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
