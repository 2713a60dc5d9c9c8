"""The engine conformance matrix: every registered engine, one suite.

This replaces the per-engine copy-pasted differential suites with a
single matrix parametrized directly over
:func:`repro.registry.engine_specs`: **every** registered engine is
checked against the ``bruteforce`` oracle for patterns and rules, and
against the ``setm`` reference for iteration statistics, on seeded
QUEST × minsup grids.  A registry entry with no conformance row is
itself a test failure (:class:`TestRegistryCoverage`), so a future
engine cannot land without differential coverage.

Per-engine knobs live in one place — the :data:`CONFORMANCE` table —
including the options that force an engine's interesting path to
actually run (a budget small enough to spill, a worker count that
reaches the pool, a lowered ``POOL_MIN_ROWS`` gate).

Iteration-statistics conformance comes in tiers, because not every
engine *should* reproduce SETM's trace:

* ``"exact"`` — the engine runs Figure 4 and must reproduce ``setm``'s
  :class:`IterationStats` bit-for-bit;
* ``"instances"`` — SQL engines: instance cardinalities and supported
  pattern counts match, but SQL's ``GROUP BY … HAVING`` never
  materializes the pre-HAVING distinct count, so ``candidate_patterns``
  equals ``supported_patterns`` by construction;
* ``"own"`` — the algorithm has its own iteration semantics (Apriori's
  candidate generation, AIS, the oracle itself): only patterns and
  rules are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce
from repro.core import setm_spill_parallel
from repro.core.rules import generate_rules
from repro.core.setm import setm
from repro.core.setm_sql import setm_sql
from repro.core.transactions import TransactionDatabase
from repro.data.formats import open_chunk_source
from repro.data.ingest import stream_encode
from repro.data.io import write_basket_file
from repro.data.quest import QuestConfig, generate_quest_dataset
from repro.registry import engine_specs, get_engine
from repro.sqlbridge.sqlite_miner import sqlite_mine

#: Budget small enough to force >= 2 spill partitions on every QUEST
#: grid point below (R'_2 is a few thousand rows there).
_SPILL_BUDGET = 16 * 1024


@dataclass(frozen=True)
class ConformanceRow:
    """How one engine participates in the matrix."""

    #: Engine options forcing the interesting path (spill, pool, ...).
    options: dict = field(default_factory=dict)
    #: IterationStats tier: "exact" | "instances" | "own".
    iterations: str = "own"
    #: ``setm_spill_parallel.POOL_MIN_ROWS`` for the run (None: as is).
    pool_min_rows: int | None = None
    #: Why the row is shaped the way it is (documentation only).
    note: str = ""


#: One row per registered engine.  TestRegistryCoverage fails when this
#: table and the registry drift apart — in either direction.
CONFORMANCE: dict[str, ConformanceRow] = {
    "setm": ConformanceRow(iterations="exact", note="the Figure-4 reference"),
    "setm-columnar": ConformanceRow(iterations="exact"),
    "setm-columnar-disk": ConformanceRow(
        iterations="exact",
        options={"memory_budget_bytes": _SPILL_BUDGET},
        note="budget forces >= 2 spill partitions on the grid",
    ),
    "setm-parallel": ConformanceRow(
        iterations="exact",
        options={"workers": 2},
        pool_min_rows=1,
        note="a one-row pool gate forces the pool at grid scale",
    ),
    "setm-spill-parallel": ConformanceRow(
        iterations="exact",
        options={"memory_budget_bytes": _SPILL_BUDGET, "workers": 2},
        note="budget forces spilling; 2 workers force pooled counting",
    ),
    "setm-disk": ConformanceRow(iterations="exact"),
    "setm-incremental": ConformanceRow(
        iterations="exact",
        note="full-mine path drives Figure 4; delta path has its own tier",
    ),
    "setm-sql": ConformanceRow(
        iterations="instances",
        note="HAVING prunes before counts are observable",
    ),
    "setm-sqlite": ConformanceRow(
        iterations="instances",
        note="HAVING prunes before counts are observable",
    ),
    "nested-loop": ConformanceRow(note="Section 3.1 candidate semantics"),
    "nested-loop-disk": ConformanceRow(note="Section 3.2 physical plan"),
    "apriori": ConformanceRow(note="Apriori-gen candidate semantics"),
    "ais": ConformanceRow(note="AIS candidate semantics"),
    "bruteforce": ConformanceRow(note="the oracle itself"),
}

@dataclass(frozen=True)
class DeltaConformanceRow:
    """How an incremental engine's delta path joins the matrix.

    Engines flagged ``incremental=True`` in the registry re-mine from
    saved :class:`~repro.core.incremental.MiningState` after appends.
    The matrix row above only exercises their *full-mine* path; this
    tier stream-encodes a base split, mines it with a state directory,
    appends the remaining splits, and requires the delta re-mine to be
    byte-identical to mining the whole database from scratch.
    """

    #: Engine options beyond ``state_dir`` (injected by the tier).
    options: dict = field(default_factory=dict)
    #: Why the row is shaped the way it is (documentation only).
    note: str = ""


#: One row per engine registered with ``incremental=True``.
#: TestRegistryCoverage fails when an incremental engine lands without
#: delta coverage — the flag alone is not conformance.
DELTA_CONFORMANCE: dict[str, DeltaConformanceRow] = {
    "setm-incremental": DeltaConformanceRow(
        note="FUP-style merge must equal a full re-mine bit-for-bit",
    ),
}

@dataclass(frozen=True)
class QueryConformanceRow:
    """How one engine is addressed through the ``MINE`` query front-end.

    The query tier drives every engine via ``USING ENGINE`` and holds
    the result document **byte-identical** (JSON-serialized through the
    same deterministic payload builders) to a direct
    :class:`~repro.miner.Miner` run of the equivalent config — so the
    declarative surface can never silently change what a direct caller
    would get.
    """

    #: WITH clause appended to the statement ("" when none is needed).
    with_clause: str = ""
    #: The equivalent direct config's engine options.
    direct_options: dict = field(default_factory=dict)
    #: The engine needs a state directory (substituted per-test).
    needs_state: bool = False
    #: Why the row is shaped the way it is (documentation only).
    note: str = ""


#: One row per registered engine.  TestRegistryCoverage fails when this
#: table and the registry drift apart — in either direction — so a new
#: engine cannot land without query-surface coverage.
QUERY_CONFORMANCE: dict[str, QueryConformanceRow] = {
    "setm": QueryConformanceRow(),
    "setm-columnar": QueryConformanceRow(),
    "setm-columnar-disk": QueryConformanceRow(
        with_clause="WITH memory_budget = '16K'",
        direct_options={"memory_budget_bytes": _SPILL_BUDGET},
        note="the WITH budget must reach the engine as memory_budget_bytes",
    ),
    "setm-parallel": QueryConformanceRow(
        with_clause="WITH workers = 2",
        direct_options={"workers": 2},
    ),
    "setm-spill-parallel": QueryConformanceRow(
        with_clause="WITH workers = 2, memory_budget = '16K'",
        direct_options={"workers": 2, "memory_budget_bytes": _SPILL_BUDGET},
    ),
    "setm-disk": QueryConformanceRow(),
    "setm-incremental": QueryConformanceRow(
        needs_state=True,
        note="WITH state routes to config.state_dir (full-mine here)",
    ),
    "setm-sql": QueryConformanceRow(),
    "setm-sqlite": QueryConformanceRow(),
    "nested-loop": QueryConformanceRow(),
    "nested-loop-disk": QueryConformanceRow(),
    "apriori": QueryConformanceRow(),
    "ais": QueryConformanceRow(),
    "bruteforce": QueryConformanceRow(),
}

#: The QUEST × minsup grid every engine runs.
GRID_SEEDS = (0, 1)
GRID_MINSUPS = (0.02, 0.05)

ENGINE_NAMES = [spec.name for spec in engine_specs()]


def _grid_db(seed: int) -> TransactionDatabase:
    return generate_quest_dataset(
        QuestConfig(
            num_transactions=150,
            avg_transaction_len=6,
            avg_pattern_len=2,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def grid_references():
    """Oracle + ``setm`` reference per (seed, minsup) grid point."""
    grid = {}
    for seed in GRID_SEEDS:
        db = _grid_db(seed)
        for minsup in GRID_MINSUPS:
            grid[(seed, minsup)] = (
                db,
                bruteforce(db, minsup),
                setm(db, minsup),
            )
    return grid


@pytest.fixture(scope="module")
def deep_wide_references(deep_wide_db):
    """Oracle + ``setm`` reference on the deep, wide conftest database."""
    db, minsup = deep_wide_db
    return db, minsup, bruteforce(db, minsup), setm(db, minsup)


def _row(name: str) -> ConformanceRow:
    row = CONFORMANCE.get(name)
    if row is None:
        pytest.fail(
            f"engine {name!r} is registered but has no conformance row; "
            "add it to CONFORMANCE in test_engine_conformance.py"
        )
    return row


def _run(name: str, database, minsup: float):
    spec = get_engine(name)
    row = _row(name)
    with pytest.MonkeyPatch.context() as patch:
        if row.pool_min_rows is not None:
            patch.setattr(
                setm_spill_parallel, "POOL_MIN_ROWS", row.pool_min_rows
            )
        return spec, spec.run(database, minsup, options=dict(row.options))


class TestRegistryCoverage:
    """The matrix and the registry must not drift apart."""

    def test_every_registered_engine_has_a_conformance_row(self):
        registered = {spec.name for spec in engine_specs()}
        missing = registered - set(CONFORMANCE)
        assert not missing, (
            f"engines registered without conformance coverage: "
            f"{sorted(missing)}; add rows to CONFORMANCE"
        )

    def test_no_stale_conformance_rows(self):
        registered = {spec.name for spec in engine_specs()}
        stale = set(CONFORMANCE) - registered
        assert not stale, (
            f"conformance rows for unregistered engines: {sorted(stale)}"
        )

    def test_iteration_tiers_are_valid(self):
        assert all(
            row.iterations in {"exact", "instances", "own"}
            for row in CONFORMANCE.values()
        )

    def test_every_registered_engine_has_a_query_conformance_row(self):
        registered = {spec.name for spec in engine_specs()}
        missing = registered - set(QUERY_CONFORMANCE)
        assert not missing, (
            f"engines registered without query conformance coverage: "
            f"{sorted(missing)}; add rows to QUERY_CONFORMANCE"
        )

    def test_no_stale_query_conformance_rows(self):
        registered = {spec.name for spec in engine_specs()}
        stale = set(QUERY_CONFORMANCE) - registered
        assert not stale, (
            f"query conformance rows for unregistered engines: "
            f"{sorted(stale)}"
        )

    def test_every_incremental_engine_has_a_delta_row(self):
        incremental = {
            spec.name for spec in engine_specs() if spec.incremental
        }
        missing = incremental - set(DELTA_CONFORMANCE)
        assert not missing, (
            f"engines flagged incremental=True without delta conformance: "
            f"{sorted(missing)}; add rows to DELTA_CONFORMANCE"
        )

    def test_no_stale_delta_rows(self):
        incremental = {
            spec.name for spec in engine_specs() if spec.incremental
        }
        stale = set(DELTA_CONFORMANCE) - incremental
        assert not stale, (
            f"delta conformance rows for engines not flagged incremental: "
            f"{sorted(stale)}"
        )


class TestConformanceMatrix:
    """Every engine × the example database and the QUEST grid."""

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_patterns_and_rules_on_example(self, name, example_db):
        oracle = bruteforce(example_db, 0.30)
        _, result = _run(name, example_db, 0.30)
        assert result.same_patterns_as(oracle), name
        assert set(generate_rules(result, 0.7)) == set(
            generate_rules(oracle, 0.7)
        ), name

    @pytest.mark.parametrize("minsup", GRID_MINSUPS)
    @pytest.mark.parametrize("seed", GRID_SEEDS)
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_quest_grid(self, name, seed, minsup, grid_references):
        db, oracle, reference = grid_references[(seed, minsup)]
        row = _row(name)
        _, result = _run(name, db, minsup)

        assert result.same_patterns_as(oracle), name
        assert set(generate_rules(result, 0.5)) == set(
            generate_rules(reference, 0.5)
        ), name

        if row.pool_min_rows is not None:
            assert result.extra["parallel"]["parallel_iterations"], name
        if row.iterations == "exact":
            assert result.iterations == reference.iterations, name
        elif row.iterations == "instances":
            for got, want in zip(result.iterations, reference.iterations):
                assert got.k == want.k
                assert got.candidate_instances == want.candidate_instances
                assert got.supported_instances == want.supported_instances
                assert got.supported_patterns == want.supported_patterns
            assert len(result.iterations) == len(reference.iterations)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_deep_wide_input(self, name, deep_wide_references):
        """3,000 items and frequent 9-patterns: keys at every depth.

        A mixed-radix packing of the 9-patterns would need
        ``3001**9 > 2**63``; every engine must still agree with the
        oracle, and the Figure-4 engines with ``setm``'s trace.
        """
        db, minsup, oracle, reference = deep_wide_references
        row = _row(name)
        _, result = _run(name, db, minsup)

        assert result.max_pattern_length == 9, name
        assert result.same_patterns_as(oracle), name
        assert set(generate_rules(result, 0.5)) == set(
            generate_rules(reference, 0.5)
        ), name
        if row.iterations == "exact":
            assert result.iterations == reference.iterations, name
        elif row.iterations == "instances":
            assert [
                (s.k, s.candidate_instances, s.supported_instances,
                 s.supported_patterns)
                for s in result.iterations
            ] == [
                (s.k, s.candidate_instances, s.supported_instances,
                 s.supported_patterns)
                for s in reference.iterations
            ], name

    def test_deep_levels_spill_and_pool(self, deep_wide_references):
        """On the deep input the spill and pool paths reach k >= 6."""
        db, minsup, _, _ = deep_wide_references
        _, spilled = _run("setm-columnar-disk", db, minsup)
        assert max(spilled.extra["spill"]["partitions"]) >= 6
        _, both = _run("setm-spill-parallel", db, minsup)
        assert max(both.extra["parallel"]["parallel_iterations"]) >= 6

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_patterns_on_small_retail(self, name, small_retail_db):
        """The calibrated retail distribution (long-tail item
        frequencies, ~2,300 transactions) — a different shape from the
        QUEST synthetics, kept from the pre-matrix agreement suite."""
        oracle = bruteforce(small_retail_db, 0.02)
        _, result = _run(name, small_retail_db, 0.02)
        assert result.same_patterns_as(oracle), name

    def test_sql_engines_agree_on_larger_quest_data(self):
        """400-transaction QUEST workload for the SQL engines (their
        statement pipelines scale differently from the kernels)."""
        db = generate_quest_dataset(
            QuestConfig(num_transactions=400, avg_transaction_len=6)
        )
        reference = setm(db, 0.02)
        assert sqlite_mine(db, 0.02).same_patterns_as(reference)
        assert setm_sql(db, 0.02).same_patterns_as(reference)

    def test_interesting_paths_really_ran(self, grid_references):
        """The options in CONFORMANCE force spill/pool paths, provably."""
        db, _, _ = grid_references[(0, 0.02)]
        _, spilled = _run("setm-columnar-disk", db, 0.02)
        assert spilled.extra["spill"]["max_partitions"] >= 2
        _, pooled = _run("setm-parallel", db, 0.02)
        assert pooled.extra["parallel"]["parallel_iterations"]
        _, both = _run("setm-spill-parallel", db, 0.02)
        assert both.extra["spill"]["max_partitions"] >= 2
        assert both.extra["parallel"]["parallel_iterations"]


class TestQueryConformance:
    """Every engine through ``USING ENGINE``, byte-identical to direct.

    The query front-end's executor contract is that it adds no mining
    code — so for each registered engine, a ``MINE`` statement pinning
    that engine must produce a result document whose JSON serialization
    equals serializing a direct :class:`~repro.miner.Miner` run of the
    equivalent config through the same payload builders.
    """

    @staticmethod
    def _documents(name, database, tmp_path):
        import json as _json

        from repro.config import MiningConfig
        from repro.miner import Miner
        from repro.query import run_query
        from repro.serve.protocol import result_payload, rules_payload

        row = QUERY_CONFORMANCE.get(name)
        if row is None:
            pytest.fail(
                f"engine {name!r} has no QUERY_CONFORMANCE row; the query "
                "surface must cover every registered engine"
            )
        with_clause = row.with_clause
        state_dir = None
        if row.needs_state:
            state_dir = str(tmp_path / "direct-state")
            with_clause = f"WITH state = '{tmp_path / 'query-state'}'"
        statement = (
            "MINE RULES FROM q WHERE support >= 0.3 AND confidence >= 0.7 "
            f"USING ENGINE '{name}' {with_clause}"
        ).strip()
        document = run_query(statement, {"q": database})

        direct = Miner(database)
        config = MiningConfig(
            support=0.3,
            confidence=0.7,
            algorithm=name,
            options=dict(row.direct_options),
            state_dir=state_dir,
        )
        result = direct.frequent_itemsets(config)
        rules = direct.rules(config)
        expected = {
            "result": result_payload(result),
            "rules": rules_payload(rules),
        }
        got = {"result": document["result"], "rules": document["rules"]}
        return (
            _json.dumps(got, sort_keys=True),
            _json.dumps(expected, sort_keys=True),
            document,
        )

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_using_engine_is_byte_identical_to_direct(
        self, name, example_db, tmp_path
    ):
        got, expected, document = self._documents(name, example_db, tmp_path)
        assert document["engine"] == name
        assert got == expected, name

    def test_planner_chosen_engine_is_byte_identical_too(self, example_db):
        """No USING ENGINE: the capability-chosen engine still matches a
        direct run of the exact config the plan records."""
        import json as _json

        from repro.miner import Miner
        from repro.query import parse_query, plan_for, run_query
        from repro.serve.protocol import result_payload

        statement = "MINE ITEMSETS FROM q WHERE support >= 0.3"
        document = run_query(statement, {"q": example_db})
        plan = plan_for(parse_query(statement), example_db, cpu_count=1)
        direct = Miner(example_db).frequent_itemsets(plan.config)
        assert document["engine"] == plan.engine
        assert _json.dumps(document["result"], sort_keys=True) == _json.dumps(
            result_payload(direct), sort_keys=True
        )


class TestDeltaTier:
    """Delta re-mining conformance for ``incremental=True`` engines.

    Base split mined with a state directory, then two append batches
    each followed by a delta re-mine — every delta result must be
    byte-identical (count relations, unfiltered C_1, iteration stats)
    to the ``setm`` reference mining the full database from scratch.
    """

    _CUTS = (0, 90, 120, None)  # base 90 txns, then 30-txn + tail appends

    def _splits(self, tmp_path):
        db = _grid_db(0)
        txns = list(db)
        paths = []
        for i in range(len(self._CUTS) - 1):
            lo, hi = self._CUTS[i], self._CUTS[i + 1]
            part = TransactionDatabase(
                (txn.trans_id, txn.items) for txn in txns[lo:hi]
            )
            path = tmp_path / f"split{i}.basket"
            write_basket_file(part, path)
            paths.append(path)
        return db, paths

    @pytest.mark.parametrize("name", sorted(DELTA_CONFORMANCE))
    @pytest.mark.parametrize("minsup", GRID_MINSUPS)
    def test_delta_remine_matches_full_remine(self, name, minsup, tmp_path):
        db, paths = self._splits(tmp_path)
        spec = get_engine(name)
        options = dict(DELTA_CONFORMANCE[name].options)
        options["state_dir"] = str(tmp_path / "state")

        dataset = stream_encode(open_chunk_source(paths[0]))
        try:
            base = spec.run(dataset, minsup, options=dict(options))
            assert base.extra["incremental"]["mode"] == "full", name
            result = None
            for path in paths[1:]:
                dataset.append_chunks(open_chunk_source(path))
                result = spec.run(dataset, minsup, options=dict(options))
                assert result.extra["incremental"]["mode"] == "delta", name
                telemetry = result.extra["incremental"]
                assert telemetry["delta_rows"] < telemetry["total_rows"]

            reference = setm(db, minsup)
            assert result.count_relations == reference.count_relations
            assert (
                result.unfiltered_item_counts
                == reference.unfiltered_item_counts
            )
            assert result.iterations == reference.iterations, name
            assert result.support_threshold == reference.support_threshold
        finally:
            dataset.close()


class TestPropertyAgreement:
    """Hypothesis-generated small databases against the SQL engines."""

    databases = st.lists(
        st.frozensets(
            st.integers(min_value=1, max_value=10), min_size=1, max_size=5
        ),
        min_size=1,
        max_size=15,
    ).map(
        lambda baskets: TransactionDatabase(
            (tid, tuple(basket))
            for tid, basket in enumerate(baskets, start=1)
        )
    )

    @settings(max_examples=15, deadline=None)
    @given(db=databases, minsup=st.sampled_from([0.2, 0.5]))
    def test_sqlite_agrees_with_setm(self, db, minsup):
        assert sqlite_mine(db, minsup).same_patterns_as(setm(db, minsup))

    @settings(max_examples=10, deadline=None)
    @given(db=databases)
    def test_sql_nested_loop_agrees(self, db):
        result = setm_sql(db, 0.3, strategy="nested-loop")
        assert result.same_patterns_as(setm(db, 0.3))


class TestApiDispatch:
    def test_unknown_algorithm_lists_choices(self, example_db):
        from repro.api import mine_frequent_itemsets

        with pytest.raises(ValueError, match="apriori"):
            mine_frequent_itemsets(example_db, 0.3, algorithm="magic")

    def test_options_forwarded(self, example_db):
        from repro.api import mine_frequent_itemsets

        result = mine_frequent_itemsets(
            example_db, 0.3, algorithm="setm", max_length=2
        )
        assert result.max_pattern_length == 2

    def test_mine_association_rules_end_to_end(self, example_db):
        from repro.api import mine_association_rules

        result, rules = mine_association_rules(
            example_db, 0.30, 0.70, algorithm="setm-sqlite"
        )
        assert len(rules) == 11  # 8 from C_2 + 3 from C_3 (Section 5)
